import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from restorect import autodiff as ad
from restorect import distill_harness as dh
from restorect import ndtensor as nd
from restorect import nn_blocks as nn
from restorect import rectflow as rf


def small_config(**overrides):
    base = dict(seed=7, phase1_iters=40, phase2_iters=30, dataset_size=12,
                holdout_size=4, batch_size=4, log_interval=10, compare_count=32,
                ddim_iters=40, image_size=8, channels=8)
    base.update(overrides)
    return dh.ExperimentConfig(**base)


# -- config -----------------------------------------------------------------------

def test_config_roundtrip_and_unknown_keys(tmp_path):
    cfg = small_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    loaded = dh.load_config(path)
    assert loaded == cfg
    raw = json.loads(path.read_text())
    raw["not_a_field"] = 1
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="unknown keys"):
        dh.load_config(path)
    # fixed by the method (module constants), so a config cannot set them
    for removed in ("lambda_kd", "lambda_traj", "lambda_vel", "lr_phase2", "t_max",
                    "ddim_train_steps", "ddim_max_beta", "head_count"):
        path.write_text(json.dumps({removed: 1}))
        with pytest.raises(ValueError, match=f"unknown keys \\['{removed}'\\]"):
            dh.load_config(path)


def test_config_partial_file_uses_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": 5, "phase1_iters": 10}')
    cfg = dh.load_config(path)
    assert cfg.seed == 5 and cfg.phase1_iters == 10
    assert cfg.lr_rex == 2e-4
    assert cfg.lambda_flex == 0.15


def test_config_validation():
    for bad in ({"lr_rex": 0.0}, {"image_size": 10}, {"sampler_steps": [0, 3]},
                {"holdout_size": -2}, {"holdout_size": 0}, {"log_interval": 0},
                {"dataset_size": 0}, {"sampler_steps": [2.5]}, {"compare_count": 1},
                {"image_size": 0}, {"channels": 0}, {"phase1_iters": 0}, {"ddim_iters": 0},
                {"sampler_steps": []}, {"phase2_iters": 0},
                # a value of the wrong type is refused, not truncated later
                {"phase1_iters": 2.5}, {"batch_size": 2.5}, {"image_size": 8.0},
                {"lr_rex": "0.1"}, {"sampler_steps": 3}, {"seed": 1.5}, {"seed": True},
                {"lr_img": True}, {"sampler_steps": [2.0]}, {"sampler_steps": [True]}):
        (field,) = bad
        with pytest.raises(ValueError, match=field):
            dh.ExperimentConfig(**bad)


# -- optimizer -----------------------------------------------------------------------

def test_adam_reduces_quadratic():
    p = ad.Param(np.array([5.0, -3.0]), "p")
    opt = dh.Adam({"p": p}, lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        loss = ad.sum_(p * p)
        loss.backward()
        opt.step()
    assert np.abs(p.data).max() < 0.1


def test_adam_reapplies_clamps():
    p = ad.Param(np.array([0.99]), "p", lo=0.1, hi=1.0)
    opt = dh.Adam({"p": p}, lr=0.5)
    for _ in range(5):
        opt.zero_grad()
        (p * ad.constant(np.array([-1.0]))).sum().backward()  # push p upward
        opt.step()
        assert p.data.item() <= 1.0


@pytest.mark.parametrize("g", [1e200, np.nan])
def test_adam_raises_naming_the_param_once_its_second_moment_is_not_finite(g):
    ok = ad.Param(np.array([1.0]), "ok")
    bad = ad.Param(np.array([1.0, 2.0]), "vel_rex.w_in")
    opt = dh.Adam({"ok": ok, "vel_rex.w_in": bad}, lr=0.1)
    ok.grad = np.array([1.0])
    bad.grad = np.array([g, 1.0])
    with np.errstate(over="ignore"), pytest.raises(dh.TrainingDiverged, match=r"vel_rex\.w_in"):
        opt.step()
    np.testing.assert_array_equal(bad.data, [1.0, 2.0])  # the last finite value


# -- synthetic data --------------------------------------------------------------------

def test_synth_dataset_deterministic():
    a = dh.synth_dataset(nd.Rng(3), 5, 8)
    b = dh.synth_dataset(nd.Rng(3), 5, 8)
    for (lq1, gt1), (lq2, gt2) in zip(a, b):
        np.testing.assert_array_equal(lq1, lq2)
        np.testing.assert_array_equal(gt1, gt2)


def test_synth_dataset_shapes_and_range():
    pairs = dh.synth_dataset(nd.Rng(4), 6, 8)
    for lq, gt in pairs:
        assert lq.shape == (3, 8, 8) and gt.shape == (3, 8, 8)
        assert lq.min() >= 0.0 and lq.max() <= 1.0
        assert gt.min() >= 0.0 and gt.max() <= 1.0


def test_synth_dataset_lq_darker_than_gt():
    pairs = dh.synth_dataset(nd.Rng(5), 10, 8)
    for lq, gt in pairs:
        assert lq.mean() < gt.mean()


def test_synth_dataset_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        dh.synth_dataset(nd.Rng(0), 0, 8)


# -- synthetic teacher -------------------------------------------------------------------

def test_teacher_deterministic_and_shapes():
    rng = nd.Rng(6)
    teacher = dh.SyntheticTeacher(rng.derive("t"), image_size=8, feature_dim=64)
    pairs = dh.synth_dataset(rng.derive("d"), 4, 8)
    lq, gt = dh.stack_batch(pairs)
    f_rex, f_img = teacher.encode_pair(lq, gt)
    assert f_rex.shape == (4, 64) and f_img.shape == (4, 64)
    f_rex2, f_img2 = teacher.encode_pair(lq, gt)
    np.testing.assert_array_equal(f_rex, f_rex2)
    np.testing.assert_array_equal(f_img, f_img2)
    c_rex, c_img = teacher.conditioning(lq)
    assert c_rex.shape == (4, 64)
    assert not np.array_equal(c_rex, f_rex)  # gt carries extra information


def reference_pool(teacher, lq, gt):
    """SyntheticTeacher._pool as it was written in numpy before it ran on the
    autodiff ops: pixel-unshuffle, two 3x3 convs with LeakyReLU(0.1), mean."""
    x = nd.pixel_unshuffle(np.concatenate([lq, gt], axis=1), 2)
    for w in (teacher.w1, teacher.w2):
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
        h = np.einsum("bihwkl,oikl->bohw", win, w, optimize=True)
        x = np.where(h > 0, h, 0.1 * h)
    return x.mean(axis=(2, 3))


@pytest.mark.parametrize("seed", [0, 1])
def test_teacher_features_are_bit_equal_to_the_numpy_forward(seed):
    # one block; a full block plus a 1-row tail; two blocks plus a ragged tail
    assert dh.TEACHER_BLOCK_ROWS == 64
    rng = nd.Rng(seed)
    teacher = dh.SyntheticTeacher(rng.derive("t"), image_size=16, feature_dim=32)
    for n in (6, 65, 150):
        lq, gt = dh.stack_batch(dh.synth_dataset(rng.derive(f"d{n}"), n, 16))
        for got, pooled in ((teacher.encode_pair(lq, gt), reference_pool(teacher, lq, gt)),
                            (teacher.conditioning(lq), reference_pool(teacher, lq, lq))):
            assert got[0].tobytes() == (pooled @ teacher.h_rex).tobytes()
            assert got[1].tobytes() == (pooled @ teacher.h_img).tobytes()


def test_teacher_encoding_of_512_pairs_peaks_below_32_mb():
    # a one-shot pass over 512 pairs peaks at ~110 MB in the convs' im2col windows
    rng = nd.Rng(0)
    teacher = dh.SyntheticTeacher(rng.derive("t"), image_size=16, feature_dim=256)
    pairs = dh.synth_dataset(rng.derive("d"), 512, 16)
    tracemalloc.start()
    try:
        dh.FeatureSet.build(teacher, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak


# -- phase 1 --------------------------------------------------------------------------------

def test_phase1_components_sum_to_total():
    cfg = small_config()
    _, records = dh.train_phase1(dh.Experiment(cfg))
    assert records
    for rec in records:
        recon = dh.phase1_loss_total(rec.components, cfg)
        assert abs(recon - rec.components["total"]) < 1e-10


# -- phase 2 --------------------------------------------------------------------------------

def test_phase2_requires_trained_nets():
    cfg = small_config()
    untrained = {
        "rex": nn.VelocityPredictor(nd.Rng(0), cfg.feature_dim, t_max=dh.T_MAX),
        "img": nn.VelocityPredictor(nd.Rng(1), cfg.feature_dim, t_max=dh.T_MAX),
    }
    with pytest.raises(ValueError, match="trained"):
        dh.train_phase2(dh.Experiment(cfg), untrained)


def test_phase2_components_sum_and_gate_bookkeeping():
    exp = dh.Experiment(small_config())
    nets, _ = dh.train_phase1(exp)
    _, records, summary = dh.train_phase2(exp, nets)
    for rec in records:
        recon = dh.phase2_loss_total(rec.components, exp.config)
        assert abs(recon - rec.components["total"]) < 1e-10
    assert 0.0 <= summary["gate_fraction"] <= 1.0


def test_phase2_flex_ablation_changes_training():
    exp = dh.Experiment(small_config())
    nets, _ = dh.train_phase1(exp)
    student_a, _, _ = dh.train_phase2(exp, nets)
    student_b, _, _ = dh.train_phase2(dh.Experiment(small_config(lambda_flex=0.0)), nets)
    diffs = [np.abs(student_a.params()[k].data - student_b.params()[k].data).max()
             for k in student_a.params()]
    assert max(diffs) > 0.0  # the feature-matching term contributes gradient


# -- full pipeline ------------------------------------------------------------------------------

@pytest.fixture(scope="module")
def seed7_distill(tmp_path_factory):
    out = tmp_path_factory.mktemp("seed7") / "run"
    return out, dh.distill(small_config(), outdir=out)


def test_distill_writes_outputs_and_freeze_holds(seed7_distill):
    out, summary = seed7_distill
    for fname in ("phase1_metrics.csv", "phase2_metrics.csv", "summary.json"):
        assert (out / fname).exists()
    for ck in ("ckpt_vel_rex", "ckpt_vel_img", "ckpt_student"):
        assert (out / ck / "manifest.txt").exists()
    assert np.isfinite(summary["final_holdout_l1"])


def test_distill_seed_changes_metrics(seed7_distill, tmp_path):
    out, _ = seed7_distill
    dh.distill(small_config(seed=8), outdir=tmp_path / "b")
    a = (out / "phase1_metrics.csv").read_bytes()
    b = (tmp_path / "b" / "phase1_metrics.csv").read_bytes()
    assert a != b


# -- sampler comparison ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_run():
    exp = dh.Experiment(small_config())
    nets, _ = dh.train_phase1(exp)
    ddim = dh.train_ddim_baseline(exp)
    return exp, nets, ddim


def test_compare_samplers_row_count_and_csv(small_run, tmp_path):
    exp, nets, ddim = small_run
    out_csv = tmp_path / "samplers.csv"
    timing_csv = tmp_path / "timing.csv"
    rows = dh.compare_samplers(exp, nets["img"], ddim, out_csv=out_csv, timing_csv=timing_csv)
    assert len(rows) == len(exp.config.sampler_steps) * 2
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "sampler,steps,frechet,mse"
    assert len(lines) == 1 + len(rows)
    assert timing_csv.read_text().startswith("sampler,steps,frechet,mse,wall_ms")


def test_compare_samplers_deterministic_result_csv(small_run, tmp_path):
    exp, nets, ddim = small_run
    dh.compare_samplers(exp, nets["img"], ddim, out_csv=tmp_path / "a.csv")
    dh.compare_samplers(exp, nets["img"], ddim, out_csv=tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_compare_samplers_rejects_untrained(small_run):
    exp, nets, _ = small_run
    fresh = nn.VelocityPredictor(nd.Rng(0), exp.config.feature_dim,
                                 t_max=len(rf.DDIM_ALPHA_BARS) - 1)
    with pytest.raises(ValueError, match="trained"):
        dh.compare_samplers(exp, nets["img"], fresh)


# -- probe metrics ------------------------------------------------------------------------------

class ConstantNet:
    """Trained-looking stand-in for a velocity or noise net whose every output
    entry is `value`. A finite 1e200 passes every op guard, but its square
    does not fit in a float64."""

    trained = True

    def __init__(self, value, t_max=4):
        self.value = value
        self.t_max = t_max

    def forward(self, x_t, t, c):
        return ad.constant(np.full(x_t.shape, self.value))


class ConstantStudent:
    """Stand-in student with no params whose output is `value` everywhere."""

    def __init__(self, value):
        self.value = value

    def params(self):
        return {}

    def forward(self, lq, ipr, collect=None):
        return ad.constant(np.full(np.shape(getattr(lq, "data", lq)), self.value))


def _raises_naming(metric, fn):
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError, match=metric):
        fn()


def test_probe_metrics_raise_naming_the_metric_on_a_finite_but_huge_net_output():
    exp = dh.Experiment(small_config())
    nets = {"rex": ConstantNet(1e200), "img": ConstantNet(1e200)}
    z = nd.Rng(0).normal((4, exp.config.feature_dim))
    idx = np.arange(4)
    _raises_naming("phase1 feature_mse",
                   lambda: dh._feature_mse(nets, exp.feats, idx, z, z))
    _raises_naming("phase1 frechet", lambda: dh._frechet_probe(nets, exp.feats, z))
    _raises_naming("compare-samplers rf steps=1 frechet",
                   lambda: dh.compare_samplers(exp, nets["img"], ConstantNet(1e200, t_max=49)))
    _raises_naming("phase2 feature_mse",
                   lambda: dh._mse("phase2 feature_mse", np.full(3, 1e200), np.zeros(3)))


def test_phase2_holdout_l1_raises_naming_the_metric():
    exp = dh.Experiment(small_config())
    nets = {"rex": ConstantNet(0.0), "img": ConstantNet(0.0)}
    # every |pred - gt| entry is finite, their sum is not
    _raises_naming("phase2 holdout_l1",
                   lambda: dh.train_phase2(exp, nets, student=ConstantStudent(1.5e308)))


# -- metrics CSV ------------------------------------------------------------------------------------

def test_metrics_csv_layout(tmp_path):
    records = [
        dh.MetricsRecord(0, {"total": 1.5, "a": 1.0, "b": 0.5}, 0.25, 3.0, 4),
        dh.MetricsRecord(10, {"total": 1.0, "a": 0.75, "b": 0.25}, 0.2, 2.5, 4),
    ]
    path = tmp_path / "m.csv"
    dh.write_metrics_csv(path, records, ["total", "a", "b"])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,total,a,b,feature_mse,frechet,steps"
    assert lines[1].startswith("0,1.5,1.0,0.5,")
    assert "wall" not in lines[0]  # wall time never enters the reproducible CSV
