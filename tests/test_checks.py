from pathlib import Path

import pytest

from restorect import autodiff as ad
from restorect import checks
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


def test_fd_reductions_reports_a_bug_only_in_partial_sums(monkeypatch):
    partial = _doubled(ad.sum_, lambda x, axes=None, keepdims=False: axes is not None)
    monkeypatch.setattr(ad, "sum_", partial)
    assert checks.run_checks(names=["fd_reductions"])["failed"] == ["fd_reductions"]


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


def test_csv_report_format(registry_report, tmp_path):
    path = tmp_path / "report.csv"
    checks.write_report(registry_report, path, fmt="csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "name,passed,detail,ms"
    assert len(lines) == 1 + registry_report["total"]
    assert all(line.count(",") == 3 for line in lines)  # commas in details are escaped
