import csv
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
    # fixed by the method (module constants), or merged into lr_phase1, so a
    # config cannot set them
    for removed in ("lambda_kd", "lambda_traj", "lambda_vel", "lr_phase2", "t_max",
                    "ddim_train_steps", "ddim_max_beta", "head_count", "lr_rex", "lr_img"):
        path.write_text(json.dumps({removed: 1}))
        with pytest.raises(ValueError, match=f"unknown keys \\['{removed}'\\]"):
            dh.load_config(path)


def test_config_partial_file_uses_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": 5, "phase1_iters": 10}')
    cfg = dh.load_config(path)
    assert cfg.seed == 5 and cfg.phase1_iters == 10
    assert cfg.lr_phase1 == 2e-4
    assert cfg.lambda_flex == 0.15


def test_config_validation(tmp_path):
    for bad in ({"lr_phase1": 0.0}, {"image_size": 10}, {"sampler_steps": [0, 3]},
                {"holdout_size": -2}, {"holdout_size": 0}, {"log_interval": 0},
                {"dataset_size": 0}, {"sampler_steps": [2.5]}, {"compare_count": 1},
                {"image_size": 0}, {"channels": 0}, {"phase1_iters": 0}, {"ddim_iters": 0},
                {"sampler_steps": []}, {"phase2_iters": 0},
                # a value of the wrong type is refused, not truncated later
                {"phase1_iters": 2.5}, {"batch_size": 2.5}, {"image_size": 8.0},
                {"lr_phase1": "0.1"}, {"sampler_steps": 3}, {"seed": 1.5}, {"seed": True},
                {"lr_phase1": True}, {"sampler_steps": [2.0]}, {"sampler_steps": [True]},
                # a float must be finite, and the flex weight cannot be negative
                {"lambda_flex": float("nan")}, {"lr_phase1": float("inf")},
                {"lambda_flex": float("-inf")}, {"lambda_flex": -5}, {"lambda_flex": -1e-3}):
        (field,) = bad
        with pytest.raises(ValueError, match=field):
            dh.ExperimentConfig(**bad)
    # json reads the literals NaN and Infinity as floats
    path = tmp_path / "cfg.json"
    for text, field in (('{"lambda_flex": NaN}', "lambda_flex"),
                        ('{"lr_phase1": Infinity}', "lr_phase1")):
        path.write_text(text)
        with pytest.raises(ValueError, match=field):
            dh.load_config(path)


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
    lq1, gt1 = dh.synth_dataset(nd.Rng(3), 5, 8)
    lq2, gt2 = dh.synth_dataset(nd.Rng(3), 5, 8)
    np.testing.assert_array_equal(lq1, lq2)
    np.testing.assert_array_equal(gt1, gt2)


def test_synth_dataset_shapes_and_range():
    lq, gt = dh.synth_dataset(nd.Rng(4), 6, 8)
    assert lq.shape == gt.shape == (6, 3, 8, 8)
    assert lq.min() >= 0.0 and lq.max() <= 1.0
    assert gt.min() >= 0.0 and gt.max() <= 1.0


def test_synth_dataset_lq_darker_than_gt():
    for lq, gt in zip(*dh.synth_dataset(nd.Rng(5), 10, 8)):
        assert lq.mean() < gt.mean()


def reference_synth_dataset(rng, n, image_size):
    """synth_dataset as it was written item by item, before the arithmetic
    ran on blocks of items."""
    def upsample(field2d, size):
        src = field2d.shape[0]
        pos = np.linspace(0.0, src - 1.0, size)
        lo = np.floor(pos).astype(int)
        hi = np.minimum(lo + 1, src - 1)
        frac = pos - lo
        return field2d[lo][:, lo] * np.outer(1 - frac, 1 - frac) \
            + field2d[lo][:, hi] * np.outer(1 - frac, frac) \
            + field2d[hi][:, lo] * np.outer(frac, 1 - frac) \
            + field2d[hi][:, hi] * np.outer(frac, frac)

    def box_smooth(x):
        p = np.pad(x, ((0, 0), (1, 1), (1, 1)), mode="edge")
        acc = np.zeros_like(x)
        for dy in range(3):
            for dx in range(3):
                acc += p[:, dy:dy + x.shape[1], dx:dx + x.shape[2]]
        return acc / 9.0

    pairs = []
    for _ in range(n):
        lum = upsample(rng.uniform((4, 4), 0.3, 1.0), image_size)[None, :, :]
        texture = 0.5 * rng.uniform((3, image_size, image_size)) \
            + 0.5 * box_smooth(rng.uniform((3, image_size, image_size)))
        gt = np.clip(texture * lum, 0.0, 1.0)
        dim = rng.uniform((), 0.15, 0.45)
        noise = rng.normal((3, image_size, image_size), scale=0.01)
        pairs.append((np.clip(gt * dim + noise, 0.0, 1.0), gt))
    return pairs


BLOCK = dh.SYNTH_BLOCK_ROWS


@pytest.mark.parametrize("image_size", [4, 8, 16])
@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 80, 512])
def test_synth_dataset_is_bit_equal_to_the_item_by_item_loop(n, image_size):
    lq, gt = dh.synth_dataset(nd.Rng(n).derive("d"), n, image_size)
    want = reference_synth_dataset(nd.Rng(n).derive("d"), n, image_size)
    assert lq.shape == gt.shape == (n, 3, image_size, image_size)
    for i, (lq_ref, gt_ref) in enumerate(want):
        assert lq[i].tobytes() == lq_ref.tobytes() and gt[i].tobytes() == gt_ref.tobytes()


def test_synth_dataset_of_512_pairs_peaks_within_1_mb_of_its_output():
    # after a warm-up call, the item-by-item loop peaked 0.3 MB above its
    # 6.3 MB output, blocks of 8 items peak 0.6 MB and blocks of 64 3.6 MB above it
    dh.synth_dataset(nd.Rng(1), 1, 16)
    tracemalloc.start()
    try:
        lq, gt = dh.synth_dataset(nd.Rng(0), 512, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = lq.nbytes + gt.nbytes
    assert peak - output < 1e6, (peak, output)


def test_synth_dataset_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        dh.synth_dataset(nd.Rng(0), 0, 8)


# -- synthetic teacher -------------------------------------------------------------------

def test_teacher_deterministic_and_shapes():
    rng = nd.Rng(6)
    teacher = dh.SyntheticTeacher(rng.derive("t"), image_size=8, feature_dim=64)
    lq, gt = dh.synth_dataset(rng.derive("d"), 4, 8)
    f = teacher.encode_pair(lq, gt)
    assert tuple(f) == dh.STREAMS
    assert all(f[key].shape == (4, 64) for key in dh.STREAMS)
    again = teacher.encode_pair(lq, gt)
    for key in dh.STREAMS:
        np.testing.assert_array_equal(f[key], again[key])
    c = teacher.encode_pair(lq, lq)
    assert not np.array_equal(c["rex"], f["rex"])  # gt carries extra information


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
        lq, gt = dh.synth_dataset(rng.derive(f"d{n}"), n, 16)
        for target in (gt, lq):
            got, pooled = teacher.encode_pair(lq, target), reference_pool(teacher, lq, target)
            for key in dh.STREAMS:
                assert got[key].tobytes() == (pooled @ teacher.heads[key]).tobytes()


def test_teacher_encoding_of_512_pairs_peaks_below_32_mb():
    # a one-shot pass over 512 pairs peaks at ~110 MB in the convs' im2col windows
    rng = nd.Rng(0)
    teacher = dh.SyntheticTeacher(rng.derive("t"), image_size=16, feature_dim=256)
    lq, gt = dh.synth_dataset(rng.derive("d"), 512, 16)
    tracemalloc.start()
    try:
        dh.FeatureSet.build(teacher, lq, gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak


# -- phase 1 --------------------------------------------------------------------------------

def test_phase1_components_sum_to_total():
    cfg = small_config()
    _, rows = dh.train_phase1(dh.Experiment(cfg))
    assert rows
    for row in rows:
        recon = dh.phase1_loss_total(row, cfg)
        assert abs(recon - row["total"]) < 1e-10


def test_phase1_steps_every_param_of_both_predictors():
    # one optimizer over both nets: a param it left out would keep its init
    config = small_config(phase1_iters=2)
    nets, _ = dh.train_phase1(dh.Experiment(config))
    rng = nd.Rng(config.seed)
    for key in dh.STREAMS:
        init = nn.VelocityPredictor(rng.derive(f"vel-{key}-init"), feature_dim=config.feature_dim,
                                    t_max=dh.T_MAX, prefix=f"vel_{key}").params()
        trained = nets[key].params()
        assert trained.keys() == init.keys()
        unmoved = [name for name, p in init.items() if np.array_equal(p.data, trained[name].data)]
        assert not unmoved, unmoved


# -- phase 2 --------------------------------------------------------------------------------

def test_phase2_requires_trained_nets():
    cfg = small_config()
    untrained = {
        "rex": nn.VelocityPredictor(nd.Rng(0), feature_dim=cfg.feature_dim, t_max=dh.T_MAX),
        "img": nn.VelocityPredictor(nd.Rng(1), feature_dim=cfg.feature_dim, t_max=dh.T_MAX),
    }
    with pytest.raises(ValueError, match="trained"):
        dh.train_phase2(dh.Experiment(cfg), untrained)


def test_phase2_components_sum_and_gate_bookkeeping():
    exp = dh.Experiment(small_config())
    nets, _ = dh.train_phase1(exp)
    _, rows, summary = dh.train_phase2(exp, nets)
    for row in rows:
        recon = dh.phase2_loss_total(row, exp.config)
        assert abs(recon - row["total"]) < 1e-10
    assert 0.0 <= summary["gate_fraction"] <= 1.0


def test_phase2_runs_one_holdout_forward_per_logged_row_plus_the_initial_one(monkeypatch):
    # the final holdout L1 is the last logged row's: the last iteration is
    # always logged, after the student's last step
    exp = dh.Experiment(small_config(phase1_iters=2, phase2_iters=12, log_interval=5))
    nets, _ = dh.train_phase1(exp)
    no_grad_forwards = []
    forward = dh.StudentNet.forward

    def spy(self, *args, **kwargs):
        if not ad._grad_enabled:
            no_grad_forwards.append(self)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(dh.StudentNet, "forward", spy)
    student, rows, summary = dh.train_phase2(exp, nets)
    assert [row["iteration"] for row in rows] == [0, 5, 10, 11]
    assert sum(net is student for net in no_grad_forwards) == len(rows) + 1
    assert summary["final_holdout_l1"] == rows[-1]["holdout_l1"]


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


def _param_bytes(net) -> dict:
    return {name: p.data.tobytes() for name, p in net.params().items()}


def test_distill_writes_outputs_and_freeze_holds(tmp_path, monkeypatch):
    """Phase 2 leaves both velocity predictors bit-unchanged, and every
    teacher-side forward sees the initial student's params, also after the
    student has stepped."""
    config = small_config(phase1_iters=2, phase2_iters=12, log_interval=5)
    initial = _param_bytes(dh.StudentNet(nd.Rng(config.seed).derive("student-init"),
                                         config.channels, cond_dim=config.feature_dim))
    at_phase2, teacher_side_seen = {}, []
    train_phase2, forward = dh.train_phase2, dh.StudentNet.forward

    def phase2_spy(exp, vel_nets):
        at_phase2.update({key: _param_bytes(vel_nets[key]) for key in dh.STREAMS})
        return train_phase2(exp, vel_nets)

    def forward_spy(self, lq, ipr, collect=None):
        if collect is not None and not ad._grad_enabled:  # the teacher side only
            teacher_side_seen.append(_param_bytes(self))
        return forward(self, lq, ipr, collect=collect)

    monkeypatch.setattr(dh, "train_phase2", phase2_spy)
    monkeypatch.setattr(dh.StudentNet, "forward", forward_spy)
    out = tmp_path / "run"
    summary = dh.distill(config, outdir=out)

    for fname in ("phase1_metrics.csv", "phase2_metrics.csv", "summary.json"):
        assert (out / fname).exists()
    for ck in ("ckpt_vel_rex", "ckpt_vel_img", "ckpt_student"):
        assert (out / ck / "manifest.txt").exists()
    assert np.isfinite(summary["final_holdout_l1"])
    assert at_phase2 == {key: _param_bytes(summary["nets"][key]) for key in dh.STREAMS}
    # at most one teacher-side forward per iteration, so the second comes after a step
    assert len(teacher_side_seen) >= 2
    assert all(seen == initial for seen in teacher_side_seen)
    assert _param_bytes(summary["student"]) != initial


@pytest.mark.parametrize("phase", [1, 2])
def test_logged_rows_are_the_csv_rows(seed7_distill, phase):
    out, summary = seed7_distill
    rows = summary[f"phase{phase}_rows"]
    columns = getattr(dh, f"PHASE{phase}_COLUMNS")
    with open(out / f"phase{phase}_metrics.csv", newline="", encoding="utf-8") as fh:
        header, *cells = list(csv.reader(fh))
    assert header == columns
    assert rows and all(set(row) == set(columns) for row in rows)
    # NaN (phase 2's frechet) compares equal to NaN here
    np.testing.assert_array_equal(np.array(cells, dtype=float),
                                  [[row[c] for c in columns] for row in rows])


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
    fresh = nn.VelocityPredictor(nd.Rng(0), feature_dim=exp.config.feature_dim,
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
                   lambda: dh._feature_mse(nets, exp.feats, idx, dict.fromkeys(dh.STREAMS, z)))
    _raises_naming("phase1 frechet", lambda: dh._frechet_probe(nets, exp.feats, z))
    _raises_naming("compare-samplers rf steps=1 frechet",
                   lambda: dh.compare_samplers(exp, nets["img"], ConstantNet(1e200, t_max=49)))
    _raises_naming("phase2 feature_mse",
                   lambda: dh._mse("phase2 feature_mse", np.full(3, 1e200), np.zeros(3)))


def test_phase2_holdout_l1_raises_naming_the_metric(monkeypatch):
    exp = dh.Experiment(small_config())
    nets = {"rex": ConstantNet(0.0), "img": ConstantNet(0.0)}
    # every |pred - gt| entry is finite, their sum is not
    monkeypatch.setattr(dh, "StudentNet", lambda *args, **kwargs: ConstantStudent(1.5e308))
    _raises_naming("phase2 holdout_l1", lambda: dh.train_phase2(exp, nets))


# -- metrics CSV ------------------------------------------------------------------------------------

def test_metrics_csv_layout(tmp_path):
    columns = ["iteration", "total", "a", "b", "feature_mse", "frechet", "steps"]
    rows = [
        {"iteration": 0, "total": 1.5, "a": 1.0, "b": 0.5, "feature_mse": 0.25,
         "frechet": 3.0, "steps": 4, "wall_ms": 12.5},
        {"iteration": 10, "total": 1.0, "a": 0.75, "b": 0.25, "feature_mse": 0.2,
         "frechet": float("nan"), "steps": 4, "wall_ms": 11.0},
    ]
    path = tmp_path / "m.csv"
    dh.write_metrics_csv(path, rows, columns)
    lines = path.read_text().strip().splitlines()
    assert lines == ["iteration,total,a,b,feature_mse,frechet,steps",
                     "0,1.5,1.0,0.5,0.25,3.0,4", "10,1.0,0.75,0.25,0.2,nan,4"]
    # wall time never enters the reproducible CSVs
    assert not [c for c in dh.PHASE1_COLUMNS + dh.PHASE2_COLUMNS if "wall" in c]
