import pytest

from restorect import autodiff as ad
from restorect import checks


@pytest.fixture(scope="session")
def registry_report():
    """The session's one run of the registry, read by every test here that needs all of it."""
    return checks.run_checks()


@pytest.mark.parametrize("name", [name for name, _ in checks.CHECKS])
def test_registered_check(registry_report, name):
    (entry,) = [c for c in registry_report["checks"] if c["name"] == name]
    assert entry["passed"], entry["detail"]


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


@pytest.mark.parametrize("name,attr", SINGLE_OP_CHECKS,
                         ids=[name for name, _ in SINGLE_OP_CHECKS])
def test_injected_gradient_bug_is_reported_with_op_name(monkeypatch, name, attr):
    real = getattr(ad, attr)

    def doubled(*args, **kwargs):
        out = real(*args, **kwargs)
        backward = out._backward
        if backward is not None:
            def wrong():
                out.grad = out.grad * 2.0  # the injected bug: upstream gradient doubled
                backward()

            out._backward = wrong
        return out

    monkeypatch.setattr(ad, attr, doubled)
    assert checks.run_checks(names=[name])["failed"] == [name]
    monkeypatch.setattr(ad, attr, real)
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


def test_csv_report_format(registry_report, tmp_path):
    path = tmp_path / "report.csv"
    checks.write_report(registry_report, path, fmt="csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "name,passed,detail,ms"
    assert len(lines) == 1 + registry_report["total"]
    assert all(line.count(",") == 3 for line in lines)  # commas in details are escaped
