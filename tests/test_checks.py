from pathlib import Path

import numpy as np
import pytest

from restorect import aniso_diffusion as ani
from restorect import autodiff as ad
from restorect import checks
from restorect import flexloss as fx
from restorect import hvi_color as hvi
from restorect import ndtensor as nd
from restorect import nn_blocks as nn
from restorect import rectflow as rf
from test_autodiff import files_calling


@pytest.fixture(scope="session")
def registry_report():
    """The session's one run of the registry, read by every test here that needs all of it."""
    return checks.run_checks()


@pytest.mark.parametrize("name", [name for name, _ in checks.CHECKS])
def test_registered_check(registry_report, name):
    (entry,) = [c for c in registry_report["checks"] if c["name"] == name]
    assert entry["passed"], entry["detail"]


@pytest.mark.parametrize("name", checks.gradient_check_names())
def test_gradient_check_passes_on_held_out_seeds(monkeypatch, name):
    """The registry is the one home of the gradient cases; here each runs
    again on seeds 5-9, next to the 0-4 that `restorect check` uses."""
    monkeypatch.setattr(checks, "FD_SEEDS", range(5, 10))
    report = checks.run_checks(names=[name])
    assert report["passed"], report["checks"][0]["detail"]


def test_fd_check_is_called_only_by_the_registry_and_the_op_tests():
    """Gradient cases live in checks.py. test_autodiff checks fd_check itself,
    the fused attention and matmul across operands of unequal rank against
    finite differences; the property tests call it on generated inputs."""
    paths = [*Path(checks.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    callers = files_calling("fd_check", paths)
    assert callers == {"checks.py", "test_autodiff.py", "test_autodiff_properties.py"}, callers


def test_all_checks_pass_on_clean_tree(registry_report):
    assert registry_report["passed"] is True
    assert registry_report["failed"] == []


def test_report_lists_one_entry_per_registered_check(registry_report):
    assert registry_report["total"] == len(checks.CHECKS)
    names = [c["name"] for c in registry_report["checks"]]
    assert names == [name for name, _ in checks.CHECKS]


def test_run_checks_rejects_an_unregistered_name():
    with pytest.raises(ValueError, match="inv_no_such_check"):
        checks.run_checks(names=[checks.CHECKS[0][0], "inv_no_such_check"])


def test_a_check_returning_a_bare_bool_fails(monkeypatch):
    """A check returns (passed, detail); a bare True is reported as failed."""
    monkeypatch.setattr(checks, "CHECKS", [("inv_bare_bool", lambda: True)])
    report = checks.run_checks()
    assert report["failed"] == ["inv_bare_bool"]
    assert report["checks"][0]["detail"].startswith("TypeError")


def _named_op(name):
    """The autodiff function an fd_ check is named after (fd_abs -> abs_), or None."""
    for attr in (name[3:], name[3:] + "_"):
        if callable(getattr(ad, attr, None)):
            return attr
    return None


SINGLE_OP_CHECKS = [(name, _named_op(name)) for name in checks.gradient_check_names()
                    if _named_op(name)]


def test_single_op_checks_are_the_23_named_after_ops():
    assert len(SINGLE_OP_CHECKS) == 23


def _doubled(real, applies=lambda *args, **kwargs: True):
    """`real` with an injected bug: on the calls `applies` to, the upstream
    gradient is doubled."""
    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        backward = out._backward
        if backward is not None and applies(*args, **kwargs):
            def wrong():
                out.grad = out.grad * 2.0
                backward()

            out._backward = wrong
        return out

    return wrapped


@pytest.mark.parametrize("name,attr", SINGLE_OP_CHECKS,
                         ids=[name for name, _ in SINGLE_OP_CHECKS])
def test_injected_gradient_bug_is_reported_with_op_name(monkeypatch, name, attr):
    real = getattr(ad, attr)
    monkeypatch.setattr(ad, attr, _doubled(real))
    assert checks.run_checks(names=[name])["failed"] == [name]
    monkeypatch.setattr(ad, attr, real)
    assert checks.run_checks(names=[name])["passed"]


def test_flex_loss_sums_the_term_its_gradient_check_differentiates(monkeypatch):
    """A gradient fault in flexloss.layer_term fails fd_loss_flex_core, and
    phase 2's flex_loss runs that term: its value stays bit-equal while its
    gradient doubles."""
    rng = nd.Rng(3)
    stud = ad.Param(rng.normal((2, 3, 4, 4)), "stud")
    teach = {"l": ad.constant(rng.normal((2, 3, 4, 4)))}

    def value_and_grad():
        stud.zero_grad()
        loss = fx.flex_loss(teach, {"l": stud}, 0, 4)
        loss.backward()
        return loss.item(), stud.grad.copy()

    value, grad = value_and_grad()
    real = fx.layer_term
    monkeypatch.setattr(fx, "layer_term", _doubled(real))
    assert checks.run_checks(names=["fd_loss_flex_core"])["failed"] == ["fd_loss_flex_core"]
    faulty_value, faulty_grad = value_and_grad()
    assert faulty_value == value
    np.testing.assert_array_equal(faulty_grad, 2.0 * grad)
    monkeypatch.setattr(fx, "layer_term", real)
    assert checks.run_checks(names=["fd_loss_flex_core"])["passed"]


def test_fd_reductions_reports_a_bug_only_in_partial_sums(monkeypatch):
    partial = _doubled(ad.sum_, lambda x, axes=None, keepdims=False: axes is not None)
    monkeypatch.setattr(ad, "sum_", partial)
    assert checks.run_checks(names=["fd_reductions"])["failed"] == ["fd_reductions"]


def _on_output(change):
    """A fault that passes the real function's output through `change`."""
    return lambda real: lambda *args, **kwargs: change(real(*args, **kwargs))


def _frechet_with_entrywise_root(mu1, cov1, mu2, cov2):
    """The Frechet distance with the root of cov1 @ cov2 taken entry by entry,
    which is right only for diagonal covariances."""
    cross = np.sqrt(np.abs(cov1 @ cov2))
    return float(np.sum(np.subtract(mu1, mu2) ** 2) + np.trace(cov1 + cov2 - 2.0 * cross))


# (check, where the fault goes, the attribute it replaces, real -> faulty value):
# one row per inv_ check that is the only home of its property
SOLE_HOME_FAULTS = [
    ("inv_percentile_is_max_at_one", nd, "percentile_abs",
     lambda real: lambda x, p: np.sort(np.abs(x), axis=-1)[..., -2]),
    ("inv_pixel_unshuffle_roundtrip", nd, "pixel_unshuffle", _on_output(lambda y: y[:, ::-1])),
    ("inv_mean_std_permutation", nd, "mean_std",
     lambda real: lambda x, axes=None: real(x[..., 1:], axes)),
    ("inv_rng_golden_vector", nd.Rng, "uniform",
     lambda real: lambda self, *args, **kwargs: 1.0 - real(self, *args, **kwargs)),
    ("inv_softmax_rows_sum_one", ad, "softmax", _on_output(lambda y: y * (1.0 + 1e-9))),
    ("inv_layer_norm_zero_mean", ad, "layer_norm", _on_output(lambda y: y + 1e-9)),
    ("inv_scln_statistics", nn, "scln", _on_output(lambda y: y * 1.001)),
    ("inv_decomposition_nonnegative", nn, "decompose", _on_output(lambda rl: (rl[0], rl[0]))),
    ("inv_teacher_objective_composition", nn, "teacher_objective",
     _on_output(lambda out: (out[0] + out[1]["tex"] * 0.05, out[1]))),
    ("inv_aniso_zero_sum", ani, "anisotropic_operator", _on_output(lambda y: y + 1e-6)),
    ("inv_aniso_translation_invariant", ani, "anisotropic_operator",
     lambda real: lambda x, s: real(x, s) + x * 1e-3),
    ("inv_aniso_laplacian_limit", ani, "anisotropic_operator", _on_output(lambda y: y * 0.9)),
    ("inv_hvi_red_continuity", hvi, "rgb_to_hsv_components",
     _on_output(lambda hsi: (hsi[0] * 0.9, *hsi[1:]))),
    ("inv_hvi_dark_stability", hvi, "COLLAPSE_EPS", lambda real: 1e-2),
    ("inv_flex_gate", fx, "SNR_THRESHOLD", lambda real: 0.0),
    ("inv_resolution_weights", fx, "WEIGHT_FLOOR", lambda real: 0.0),
    ("inv_euler_exact_constant_field", rf, "euler_sample",
     _on_output(lambda out: (out[0], out[1] + out[1][-1:]))),
    ("inv_interpolate_affine", rf, "interpolate", _on_output(lambda x: x + 0.01)),
    ("inv_trajectory_loss_nonnegative", rf, "trajectory_consistency_loss",
     _on_output(lambda loss: loss * -1.0)),
    ("inv_frechet_examples", nd, "gaussian_frechet_distance",
     lambda real: _frechet_with_entrywise_root),
    ("inv_ddim_oracle_recovery", rf, "ddim_baseline_sample",
     _on_output(lambda x: x * (1.0 + 1e-6))),
]


@pytest.mark.parametrize("name,target,attr,fault", SOLE_HOME_FAULTS,
                         ids=[row[0] for row in SOLE_HOME_FAULTS])
def test_injected_fault_fails_the_sole_home_check(monkeypatch, name, target, attr, fault):
    """No test restates these checks, so each must fail under a fault in
    what it checks, and pass again once the real value is back."""
    real = getattr(target, attr)
    monkeypatch.setattr(target, attr, fault(real))
    assert checks.run_checks(names=[name])["failed"] == [name]
    monkeypatch.setattr(target, attr, real)
    assert checks.run_checks(names=[name])["passed"]


def test_gradient_subset_covers_ops_and_losses():
    names = set(checks.gradient_check_names())
    for required in ("fd_add", "fd_matmul", "fd_conv2d_3x3", "fd_softmax",
                     "fd_layer_norm", "fd_l2_normalize", "fd_scln",
                     "fd_qk_attention", "fd_toy_block", "fd_decomposition_net",
                     "fd_anisotropic_operator", "fd_hvi_transform",
                     "fd_loss_rec", "fd_loss_vgg", "fd_loss_sty", "fd_loss_tex",
                     "fd_loss_lum", "fd_loss_col", "fd_loss_vel", "fd_loss_traj",
                     "fd_loss_flex_core"):
        assert required in names, f"missing gradient check {required}"
