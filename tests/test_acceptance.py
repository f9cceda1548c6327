"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with -s to see them inline). The default-config
distillation run is shared between the training and sampler criteria.
"""

import time

import numpy as np
import pytest

from restorect import autodiff as ad
from restorect import checks
from restorect import distill_harness as dh
from restorect import flexloss as fx
from restorect import hvi_color as hvi
from restorect import ndtensor as nd

from test_flexloss import CFG, bruteforce_flex, heavy_tailed_pair


def report(n, msg):
    print(f"\nACCEPTANCE {n} PASS: {msg}")


@pytest.fixture(scope="module")
def default_run():
    """Seed-42 default-config distillation, timed; shared by criteria 7-8."""
    config = dh.ExperimentConfig()
    assert config.seed == 42
    t0 = time.perf_counter()
    summary = dh.distill(config)
    summary["elapsed"] = time.perf_counter() - t0
    return summary


def test_criterion_01_gradient_suite():
    names = checks.gradient_check_names()
    t0 = time.perf_counter()
    rep = checks.run_checks(names=names)
    elapsed = time.perf_counter() - t0
    failed = [c for c in rep["checks"] if not c["passed"]]
    assert not failed, f"gradient suite failures: {[c['name'] for c in failed]}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report(1, f"{len(rep['checks'])} finite-difference checks (>=5 seeded inputs each, "
              f"tol {ad.FD_TOL:g}, h={ad.FD_STEP:g}) in {elapsed:.1f}s")


def test_criterion_02_hvi_continuity():
    k = hvi.chroma_density()  # k = 1
    delta = 1e-3
    arr = np.array([hvi.hue_rgb(6.0 - delta), hvi.hue_rgb(delta)]).T.reshape(1, 3, 1, 2)
    out = hvi.to_polarized_hvi(ad.constant(arr), k)
    gap = max(abs(float(p.data[0, 0, 0, 0] - p.data[0, 0, 0, 1])) for p in out.planes())
    assert gap < 1e-2, f"red-boundary discontinuity {gap}"

    black = hvi.to_polarized_hvi(ad.constant(np.zeros((1, 3, 2, 2))), k)
    for plane in black.planes():
        assert np.all(plane.data == 0.0)
    report(2, f"red-boundary gap {gap:.2e} < 1e-2 at delta=1e-3; black maps to (0,0,0) exactly")


def test_criterion_03_flex_exactness():
    cfg = CFG
    stud = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
    teach = 10.0 * stud
    tb = {"l": ad.constant(teach)}
    sb = {"l": ad.constant(stud)}
    got = fx.flex_loss(tb, sb, 0, cfg.t_max).item()
    oracle = bruteforce_flex([(1.0, teach)], [(1.0, stud)], 0, cfg)
    assert abs(got - oracle) < 1e-9, f"{got} vs oracle {oracle}"

    same = {"l": ad.constant(stud.copy())}
    assert fx.flex_loss(same, sb, 0, cfg.t_max).item() == 0.0

    for t in (2, 3, 4):  # t / t_max >= 0.4 closes the gate
        assert fx.flex_loss(tb, sb, t, cfg.t_max).item() == 0.0
    report(3, f"worked example = {got:.6f} (oracle match within 1e-9); "
              f"identical bundles -> 0; gate at t/t_max >= 0.4 -> exactly 0")


def test_criterion_04_flex_robustness():
    cfg = CFG
    # claim 1: teacher scale x1000 in the heavy-tailed mismatch regime
    rng = nd.Rng(8)
    teach, stud_vals = heavy_tailed_pair(rng)
    stud = ad.Param(stud_vals, "stud")

    def grad_norm(loss_fn):
        stud.zero_grad()
        loss_fn().backward()
        return np.linalg.norm(stud.grad)

    def flex_for(scale):
        tb = {"l": ad.constant(scale * teach)}
        sb = {"l": stud}
        return lambda: fx.flex_loss(tb, sb, 0, cfg.t_max)

    def mse_for(scale):
        t = ad.constant(scale * teach)
        return lambda: ad.mean((t - stud) * (t - stud))

    flex_ratio = grad_norm(flex_for(1000.0)) / grad_norm(flex_for(1.0))
    mse_ratio = grad_norm(mse_for(1000.0)) / grad_norm(mse_for(1.0))
    assert mse_ratio == pytest.approx(1000.0, rel=0.01), f"mse ratio {mse_ratio}"
    assert flex_ratio < 10.0, f"flex ratio {flex_ratio}"

    # claim 2: 4% spikes of 1e6 change the loss by < 10%
    rng = nd.Rng(9)
    b, c, h, w = 2, 16, 10, 10
    stud2 = rng.normal((b, c, h, w))
    teach2 = stud2 + 0.3 * rng.normal((b, c, h, w))
    tb, sb = {"l": ad.constant(teach2)}, \
        {"l": ad.constant(stud2)}
    clean = fx.flex_loss(tb, sb, 0, cfg.t_max).item()
    corrupted = stud2.copy()
    n = b * h * w
    hit = np.zeros(n, dtype=bool)
    hit[nd.Rng(100).permutation(n)[:int(0.04 * n)]] = True
    corrupted[:, 3][hit.reshape(b, h, w)] = 1e6
    tb2 = {"l": ad.constant(teach2)}
    sb2 = {"l": ad.constant(corrupted)}
    spiked = fx.flex_loss(tb2, sb2, 0, cfg.t_max).item()
    change = abs(spiked - clean) / clean
    assert change < 0.10, f"corruption changed loss by {change:.3f}"
    report(4, f"teacher x1000: flex grad x{flex_ratio:.2f} (<10) vs mse x{mse_ratio:.1f} "
              f"(1000 +/- 1%); 4% spikes shift the loss by {change * 100:.2f}% (<10%)")


def registry_check(name):
    """Run the registered check `name`, assert it passed, return its detail."""
    (entry,) = checks.run_checks(names=[name])["checks"]
    assert entry["passed"], entry["detail"]
    return entry["detail"]


def test_criterion_05_resolution_weights():
    detail = registry_check("inv_resolution_weights")
    report(5, f"resolution weights (64,64)->1.0, (256,256)->0.5, "
              f"(65536,65536)->0.1 exact to 1e-12: {detail}")


def test_criterion_06_rectified_flow_exactness():
    detail = registry_check("inv_euler_exact_constant_field")
    report(6, f"constant-velocity Euler endpoint exact to 1e-12 "
              f"for steps in (1, 2, 4): {detail}")


def test_criterion_07_desk_distillation(default_run):
    s = default_run
    vel_ratio = s["phase1_final_vel"] / s["phase1_initial_vel"]
    assert vel_ratio < 0.5, f"phase-1 velocity loss ratio {vel_ratio:.3f}"
    assert s["final_holdout_l1"] < s["initial_holdout_l1"], \
        f"holdout L1 {s['initial_holdout_l1']:.4f} -> {s['final_holdout_l1']:.4f}"
    assert abs(s["gate_fraction"] - 0.4) <= 0.05, f"gate fraction {s['gate_fraction']}"
    assert s["elapsed"] < 300.0, f"distillation took {s['elapsed']:.0f}s"
    # loss trend contract: median of the last 10% of logged rows below the first 10%
    totals = [row["total"] for row in s["phase1_rows"]]
    k = max(1, len(totals) // 10)
    assert float(np.median(totals[-k:])) < float(np.median(totals[:k]))
    report(7, f"seed 42 default config: velocity loss x{vel_ratio:.3f} (<0.5), holdout L1 "
              f"{s['initial_holdout_l1']:.3f}->{s['final_holdout_l1']:.3f}, gate fraction "
              f"{s['gate_fraction']:.3f} (0.4 +/- 0.05), {s['elapsed']:.0f}s (<300s)")


def test_criterion_08_sampler_comparison(default_run, tmp_path):
    exp = default_run["experiment"]
    rf_net = default_run["nets"]["img"]
    t0 = time.perf_counter()
    ddim_net = dh.train_ddim_baseline(exp)
    rows_a = dh.compare_samplers(exp, rf_net, ddim_net, out_csv=tmp_path / "a.csv")
    dh.compare_samplers(exp, rf_net, ddim_net, out_csv=tmp_path / "b.csv")
    elapsed = time.perf_counter() - t0

    frechet = {(r.sampler, r.steps): r.frechet for r in rows_a}
    wins = sum(1 for s in (1, 2, 3, 4) if frechet[("rf", s)] < frechet[("ddim", s)])
    assert wins >= 3, f"rectified flow beat the baseline at only {wins} of 4 step counts"
    # a trained straight flow does not lose quality with more steps (5% slack)
    assert frechet[("rf", 4)] <= frechet[("rf", 1)] * 1.05
    # the baseline improves monotonically with more steps on this task (1% slack)
    ddim_curve = [frechet[("ddim", s)] for s in exp.config.sampler_steps]
    assert all(a >= b * 0.99 for a, b in zip(ddim_curve, ddim_curve[1:]))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert elapsed < 300.0, f"comparison took {elapsed:.0f}s"
    report(8, f"rectified flow below baseline at {wins}/4 step counts "
              f"(rf@1={frechet[('rf', 1)]:.1f}, ddim@1={frechet[('ddim', 1)]:.1f}); "
              f"result CSV byte-reproducible; {elapsed:.0f}s (<300s)")


def test_criterion_09_determinism(tmp_path):
    config = dh.ExperimentConfig(seed=7, phase1_iters=40, phase2_iters=30,
                                 dataset_size=12, holdout_size=4, batch_size=4,
                                 log_interval=10, image_size=8, channels=8)
    dh.distill(config, outdir=tmp_path / "a")
    dh.distill(config, outdir=tmp_path / "b")
    for fname in ("phase1_metrics.csv", "phase2_metrics.csv"):
        a = (tmp_path / "a" / fname).read_bytes()
        b = (tmp_path / "b" / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"
    report(9, "two distill runs with identical config and seed produced "
              "byte-identical phase-1 and phase-2 metrics CSVs")


def test_criterion_10_teacher_objective_composition():
    # the weights are pinned by test_nn_blocks::test_teacher_objective_stated_weights
    detail = registry_check("inv_teacher_objective_composition")
    report(10, f"objective total equals the (1,1,1,0.05,0.05,0.2)-weighted component "
               f"sum within 1e-10: {detail}")
