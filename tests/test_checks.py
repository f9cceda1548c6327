import numpy as np

from restorect import autodiff as ad
from restorect import checks


def test_all_checks_pass_on_clean_tree():
    report = checks.run_all_checks()
    assert report["passed"] is True
    assert report["failed"] == []


def test_report_lists_one_entry_per_registered_check():
    report = checks.run_all_checks()
    assert report["total"] == len(checks.CHECKS)
    names = [c["name"] for c in report["checks"]]
    assert names == [name for name, _ in checks.CHECKS]


def test_injected_gradient_bug_is_reported_with_op_name(monkeypatch):
    real_exp = ad.exp

    def broken_exp(x):
        x = ad.constant(x)
        out = ad.Tensor(np.exp(x.data), (x,), "exp")

        def bw():
            x.accum_grad(out.grad * 2.0 * out.data)  # wrong factor

        out._backward = bw
        return out

    monkeypatch.setattr(ad, "exp", broken_exp)
    report = checks.run_all_checks(names=["fd_exp"])
    assert report["failed"] == ["fd_exp"]
    monkeypatch.setattr(ad, "exp", real_exp)
    assert checks.run_all_checks(names=["fd_exp"])["passed"]


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


def test_csv_report_format(tmp_path):
    path = tmp_path / "report.csv"
    report = checks.run_all_checks(report_path=path, fmt="csv", names=["fd_add"])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "name,passed,detail,ms"
    assert len(lines) == 2
    assert report["total"] == 1
