"""End-to-end desk-scale distillation pipeline: synthetic paired data, a
frozen synthetic teacher encoder, phase-1 velocity training, phase-2 student
training with the feature-matching loss, a DDIM baseline, and the sampler
comparison table. `Experiment` is the one set-up path: built once from the
config, it holds the data, the teacher and their features for every stage.

Everything is driven by named RNG streams derived from the config seed, so a
given (config, seed) reproduces its metrics CSVs byte for byte. Wall-clock
timings are therefore never written into the reproducible CSVs; they go to
separate timing files and stdout summaries.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import flexloss as fx
from . import ndtensor as nd
from . import nn_blocks as nn
from . import rectflow as rf
from .autodiff import Param, Tensor


class TrainingDiverged(RuntimeError):
    """Raised when an Adam second moment stops being finite; the message names
    the param. A non-finite op result raises FloatingPointError at the op,
    and so does a non-finite probe metric, naming the metric."""


# Fixed by the method, not by a run's config: the phase-1 distillation and
# trajectory weights, the phase-2 velocity weight and learning rate, and the
# sampler trajectory length (the DDIM schedule is rf.DDIM_ALPHA_BARS).
LAMBDA_KD = 1.0
LAMBDA_TRAJ = 1.0
LAMBDA_VEL = 0.05
LR_PHASE2 = 1e-4
T_MAX = 4


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What each ExperimentConfig annotation admits. JSON passes any number or a
# bool for any field, and a float count or seed would be truncated later.
_ADMITS = {"int": _is_int, "float": lambda v: _is_int(v) or isinstance(v, float),
           "list[int]": lambda v: isinstance(v, list) and all(map(_is_int, v))}


@dataclass
class ExperimentConfig:
    seed: int = 42
    feature_dim: int = 256
    batch_size: int = 8
    phase1_iters: int = 500
    phase2_iters: int = 500
    lr_rex: float = 2e-4
    lr_img: float = 2e-4
    lambda_flex: float = 0.15
    sampler_steps: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])
    image_size: int = 16
    channels: int = 16
    dataset_size: int = 64
    holdout_size: int = 16
    log_interval: int = 25
    ddim_iters: int = 1500
    compare_count: int = 512

    def __post_init__(self):
        for f in fields(self):
            if not _ADMITS[f.type](value := getattr(self, f.name)):
                raise ValueError(f"config: {f.name} must be of type {f.type}, got {value!r}")
        for name in ("lr_rex", "lr_img"):
            if getattr(self, name) <= 0:
                raise ValueError(f"config: {name} must be positive")
        # the least value a run can use: the Frechet probes need two samples,
        # and every command that trains phase 1 or DDIM reports or scores it
        for name, least in (("feature_dim", 1), ("batch_size", 1), ("dataset_size", 2),
                            ("holdout_size", 1), ("log_interval", 1), ("image_size", 4),
                            ("channels", 4), ("compare_count", 2), ("phase1_iters", 1),
                            ("phase2_iters", 1), ("ddim_iters", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"config: {name} must be at least {least}, "
                                 f"got {getattr(self, name)}")
        if not self.sampler_steps:
            raise ValueError("config: sampler_steps must list at least one step count")
        for s in self.sampler_steps:
            try:
                rf._sampler_steps(s)
            except ValueError as exc:
                raise ValueError(f"config: sampler_steps: {exc}") from None
        if self.image_size % 4 != 0:
            raise ValueError("config: image_size must be divisible by 4")
        if self.channels % (4 * nn.HEAD_COUNT) != 0:
            raise ValueError(f"config: channels must be divisible by 4*{nn.HEAD_COUNT}")


def load_config(path) -> ExperimentConfig:
    """Read a JSON config; unknown keys are rejected, missing keys default."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must contain a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"config: unknown keys {unknown}")
    return ExperimentConfig(**raw)


@dataclass
class MetricsRecord:
    iteration: int
    components: dict  # named loss terms, including "total"
    feature_mse: float
    frechet: float
    steps: int


def write_metrics_csv(path, records: list, component_names: list) -> None:
    """Header plus one row per record, written by `nd.write_csv`."""
    nd.write_csv(path, ["iteration"] + component_names + ["feature_mse", "frechet", "steps"],
                 [[r.iteration] + [float(r.components[c]) for c in component_names]
                  + [float(r.feature_mse), float(r.frechet), r.steps] for r in records])


class Adam:
    """Adaptive-moment optimizer with momentum terms (0.9, 0.999); param
    clamp bounds are re-applied after every step. A step whose second moment
    is no longer finite (a non-finite gradient entry, or g*g overflowing)
    raises TrainingDiverged naming the param, before its update is written,
    so the param keeps its last finite value."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, lr: float):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for k, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self._m[k]
            v = self._v[k]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            if not nd.all_finite(v):
                raise TrainingDiverged(f"adam: second moment of {k} is not finite at step {self.t}")
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.apply_bounds()


# -- synthetic data ---------------------------------------------------------------

def _bilinear_upsample(field2d: np.ndarray, size: int) -> np.ndarray:
    """Upsample a small 2-d grid to size x size (separable linear interp)."""
    src = field2d.shape[0]
    pos = np.linspace(0.0, src - 1.0, size)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, src - 1)
    frac = pos - lo
    rows = field2d[lo][:, lo] * np.outer(1 - frac, 1 - frac) \
        + field2d[lo][:, hi] * np.outer(1 - frac, frac) \
        + field2d[hi][:, lo] * np.outer(frac, 1 - frac) \
        + field2d[hi][:, hi] * np.outer(frac, frac)
    return rows


def _box_smooth(x: np.ndarray) -> np.ndarray:
    """3x3 box average with replicate edges, applied per channel."""
    p = np.pad(x, ((0, 0), (1, 1), (1, 1)), mode="edge")
    acc = np.zeros_like(x)
    for dy in range(3):
        for dx in range(3):
            acc += p[:, dy:dy + x.shape[1], dx:dx + x.shape[2]]
    return acc / 9.0


def synth_dataset(rng: nd.Rng, n: int, image_size: int) -> list:
    """Procedural low-quality / ground-truth pairs in [0,1], shape (3,S,S).

    gt = reflectance texture * smooth illumination field; lq dims the gt by a
    random factor in [0.15, 0.45] and adds small Gaussian noise, so the lq
    mean always sits well below the gt mean.
    """
    if n <= 0:
        raise ValueError(f"synth_dataset: n must be positive, got {n}")
    pairs = []
    for _ in range(n):
        lum_small = rng.uniform((4, 4), 0.3, 1.0)
        lum = _bilinear_upsample(lum_small, image_size)[None, :, :]
        texture = 0.5 * rng.uniform((3, image_size, image_size)) \
            + 0.5 * _box_smooth(rng.uniform((3, image_size, image_size)))
        gt = np.clip(texture * lum, 0.0, 1.0)
        dim = rng.uniform((), 0.15, 0.45)
        noise = rng.normal((3, image_size, image_size), scale=0.01)
        lq = np.clip(gt * dim + noise, 0.0, 1.0)
        pairs.append((lq, gt))
    return pairs


def stack_batch(pairs: list, indices=None):
    idx = range(len(pairs)) if indices is None else indices
    lq = np.stack([pairs[i][0] for i in idx])
    gt = np.stack([pairs[i][1] for i in idx])
    return lq, gt


# -- synthetic teacher ---------------------------------------------------------------

# Items the teacher encodes per pass; distill's training, holdout and probe
# batches each fit in one block.
TEACHER_BLOCK_ROWS = 64

class SyntheticTeacher:
    """Frozen seeded encoder from (lq, gt) image pairs to a pair of 256-dim
    feature vectors (reflectance-path and image-path). Pixel-unshuffle,
    two 3x3 convs, spatial mean pooling, then two linear heads whose scales
    are calibrated at init so the features have roughly unit spread.
    Deterministic: the same images always map to the same features.
    """

    def __init__(self, rng: nd.Rng, image_size: int, feature_dim: int):
        c_in = 6 * 4  # lq+gt stacked, then unshuffled by 2
        self.w1 = rng.normal((32, c_in, 3, 3)) * math.sqrt(2.0 / (c_in * 9))
        self.w2 = rng.normal((32, 32, 3, 3)) * math.sqrt(2.0 / (32 * 9))
        self.h_rex = rng.normal((32, feature_dim))
        self.h_img = rng.normal((32, feature_dim))
        # calibrate head scales on a probe batch so feature std is ~1
        probe = synth_dataset(rng.derive("teacher-probe"), 16, image_size)
        lq, gt = stack_batch(probe)
        pooled = self._pool(lq, gt)
        for h in (self.h_rex, self.h_img):
            feats = pooled @ h
            h /= max(feats.std(), 1e-6)

    def _pool(self, lq: np.ndarray, gt: np.ndarray) -> np.ndarray:
        # Every input is an array, so the ops build no graph. Each pooled row
        # depends only on its own item, so running the chain block by block
        # gives the same bits while the convs' 9x im2col windows stay block-sized.
        pooled = []
        for i in range(0, len(lq), TEACHER_BLOCK_ROWS):
            rows = slice(i, i + TEACHER_BLOCK_ROWS)
            h = ad.pixel_unshuffle(np.concatenate([lq[rows], gt[rows]], axis=1), 2)
            for w in (self.w1, self.w2):
                h = ad.leaky_relu(ad.conv2d_3x3(h, w), 0.1)
            pooled.append(ad.mean(h, axes=(2, 3)).data)
        return np.concatenate(pooled)

    def encode_pair(self, lq: np.ndarray, gt: np.ndarray):
        """Teacher feature targets for (lq, gt) batches: (ipr_rex, ipr_img)."""
        pooled = self._pool(lq, gt)
        return pooled @ self.h_rex, pooled @ self.h_img

    def conditioning(self, lq: np.ndarray):
        """Conditioning features computable from the degraded input alone
        (the gt slot is filled with the lq image)."""
        return self.encode_pair(lq, lq)


@dataclass
class FeatureSet:
    """Precomputed per-item teacher features and conditioning vectors."""

    c_rex: np.ndarray
    c_img: np.ndarray
    f_rex: np.ndarray
    f_img: np.ndarray

    @staticmethod
    def build(teacher: SyntheticTeacher, pairs: list) -> "FeatureSet":
        lq, gt = stack_batch(pairs)
        f_rex, f_img = teacher.encode_pair(lq, gt)
        c_rex, c_img = teacher.conditioning(lq)
        return FeatureSet(c_rex, c_img, f_rex, f_img)


class Experiment:
    """What every stage of a run shares, built once from its config: the
    training and holdout pairs (one `dataset` stream, split at dataset_size),
    the frozen teacher and their teacher features."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        rng = nd.Rng(config.seed)
        pairs = synth_dataset(rng.derive("dataset"), config.dataset_size + config.holdout_size,
                              config.image_size)
        self.data = pairs[:config.dataset_size]
        self.holdout = pairs[config.dataset_size:]
        self.teacher = SyntheticTeacher(rng.derive("teacher"), config.image_size, config.feature_dim)

    # Lazy, so encoding runs in the stage that first needs it, not in set-up (~26 ms at defaults).
    @functools.cached_property
    def feats(self) -> FeatureSet:
        return FeatureSet.build(self.teacher, self.data)

    @functools.cached_property
    def hold_feats(self) -> FeatureSet:
        return FeatureSet.build(self.teacher, self.holdout)


# -- student network ---------------------------------------------------------------

class StudentNet:
    """Toy restoration student: 3x3 stem conv into C channels, one
    conditioned transformer block, 3x3 head conv back to rgb with a global
    residual onto the degraded input."""

    def __init__(self, rng: nd.Rng, channels: int, cond_dim: int, prefix: str = "student"):
        self.stem_w = Param(rng.normal((channels, 3, 3, 3)) * math.sqrt(2.0 / 27), f"{prefix}.stem.w")
        self.stem_b = Param(np.zeros(channels), f"{prefix}.stem.b")
        self.block = nn.ToyTransformerBlock(channels, rng, prefix=f"{prefix}.block", cond_dim=cond_dim)
        self.head_w = Param(rng.normal((3, channels, 3, 3)) * 0.05, f"{prefix}.head.w")
        self.head_b = Param(np.zeros(3), f"{prefix}.head.b")

    def params(self) -> dict:
        out = {self.stem_w.name: self.stem_w, self.stem_b.name: self.stem_b,
               self.head_w.name: self.head_w, self.head_b.name: self.head_b}
        out.update(self.block.params())
        return out

    def forward(self, lq: Tensor, ipr: Tensor, collect: dict = None) -> Tensor:
        lq = ad.constant(lq)
        h = ad.conv2d_3x3(lq, self.stem_w) + ad.reshape(self.stem_b, (1, -1, 1, 1))
        h = self.block.forward(h, ipr, collect=collect)
        out = ad.conv2d_3x3(h, self.head_w) + ad.reshape(self.head_b, (1, -1, 1, 1))
        return out + lq


# -- phase 1: velocity training ------------------------------------------------------

# Probe metrics are plain numpy on net outputs, outside the op guard: each is
# checked here, so a non-finite value never reaches a metrics file.

def _mse(metric: str, a: np.ndarray, b: np.ndarray) -> float:
    return nd.require_finite(float(((a - b) ** 2).mean()), metric)


def _frechet(metric: str, sampled: np.ndarray, mu_ref: np.ndarray, cov_ref: np.ndarray) -> float:
    """Gaussian Frechet distance between a sample cloud (N, D) and reference
    moments. The covariance is checked before the eigensolver sees it."""
    cov = nd.require_finite(np.cov(sampled, rowvar=False), metric)
    fd = nd.gaussian_frechet_distance(sampled.mean(axis=0), cov, mu_ref, cov_ref)
    return nd.require_finite(fd, metric)


def _sampled(net, z, c, steps: int) -> list:
    """The Euler states x^1..x^steps from z under conditioning c, as arrays;
    the net is only read, so no graph is built."""
    with ad.no_grad():
        _, traj = rf.euler_sample(net, z, c, steps)
    return [x.data for x in traj]


def _frechet_probe(nets: dict, feats: FeatureSet, probe_z: np.ndarray) -> float:
    """Frechet distance between Euler-sampled and teacher image features on a
    fixed probe set (fixed z), using the full T_MAX-step sampler."""
    n = probe_z.shape[0]
    x = _sampled(nets["img"], probe_z, feats.c_img[:n], T_MAX)[-1]
    ref = feats.f_img[:n]
    return _frechet("phase1 frechet", x, ref.mean(axis=0), np.cov(ref, rowvar=False))


def _feature_mse(nets, feats: FeatureSet, idx, z_rex, z_img) -> float:
    total = 0.0
    for key, z, c, f in (("rex", z_rex, feats.c_rex, feats.f_rex),
                         ("img", z_img, feats.c_img, feats.f_img)):
        x = _sampled(nets[key], z, c[idx], T_MAX)[-1]
        total += float(((x - f[idx]) ** 2).mean())
    return nd.require_finite(total / 2.0, "phase1 feature_mse")


def train_phase1(exp: Experiment):
    """Train the two velocity predictors against frozen teacher features.

    Per iteration the loss is
        L_vel(rex) + L_vel(img)
        + LAMBDA_KD   * (mse-to-teacher of the T_MAX-step sampled endpoint, both streams)
        + LAMBDA_TRAJ * (trajectory consistency, both streams),
    with one Adam optimizer per predictor.
    """
    config, feats = exp.config, exp.feats
    rng = nd.Rng(config.seed)
    n = len(exp.data)
    nets = {key: nn.VelocityPredictor(rng.derive(f"vel-{key}-init"), config.feature_dim,
                                      t_max=T_MAX, prefix=f"vel_{key}")
            for key in ("rex", "img")}
    opts = {
        "rex": Adam(nets["rex"].params(), config.lr_rex),
        "img": Adam(nets["img"].params(), config.lr_img),
    }
    loop = rng.derive("phase1-loop")
    probe_z = rng.derive("phase1-probe").normal((min(128, n), config.feature_dim))
    records = []

    for it in range(config.phase1_iters):
        idx = loop.integers(0, n, config.batch_size)
        comps = {}
        total = ad.constant(0.0)
        stream_z = {}
        for key, c_all, f_all in (("rex", feats.c_rex, feats.f_rex),
                                  ("img", feats.c_img, feats.f_img)):
            z = loop.normal((config.batch_size, config.feature_dim))
            stream_z[key] = z
            zc = ad.constant(z)
            fc = ad.constant(f_all[idx])
            cc = ad.constant(c_all[idx])
            l_vel = rf.velocity_matching_loss(nets[key], (zc, fc, cc), loop)
            x_fin, traj = rf.euler_sample(nets[key], zc, cc, T_MAX)
            d = x_fin - fc
            l_kd = ad.mean(d * d)
            l_traj = rf.trajectory_consistency_loss(traj, fc)
            comps[f"vel_{key}"] = l_vel.item()
            comps.setdefault("kd", 0.0)
            comps["kd"] += l_kd.item()
            comps.setdefault("traj", 0.0)
            comps["traj"] += l_traj.item()
            total = total + l_vel + LAMBDA_KD * l_kd + LAMBDA_TRAJ * l_traj
        comps["total"] = total.item()

        for opt in opts.values():
            opt.zero_grad()
        total.backward()
        for opt in opts.values():
            opt.step()

        if it % config.log_interval == 0 or it == config.phase1_iters - 1:
            fmse = _feature_mse(nets, feats, idx, stream_z["rex"], stream_z["img"])
            fd = _frechet_probe(nets, feats, probe_z)
            records.append(MetricsRecord(it, comps, fmse, fd, T_MAX))
    for net in nets.values():
        net.trained = True
    return nets, records


PHASE1_COMPONENTS = ["total", "vel_rex", "vel_img", "kd", "traj"]
PHASE2_COMPONENTS = ["total", "rec", "flex", "vel_rex", "vel_img", "holdout_l1", "gate_frac"]


def phase1_loss_total(components: dict, config: ExperimentConfig) -> float:
    """Recombine logged phase-1 components into the total (bookkeeping check)."""
    return (components["vel_rex"] + components["vel_img"]
            + LAMBDA_KD * components["kd"] + LAMBDA_TRAJ * components["traj"])


# -- phase 2: student training --------------------------------------------------------

def train_phase2(exp: Experiment, vel_nets: dict, student: StudentNet = None):
    """Train the student against frozen velocity predictors.

    Each iteration draws a timestep index uniformly from {0..T_MAX}; the
    student consumes the (detached) sampled trajectory state at that time as
    its conditioning. The feature-matching term compares block activations
    against a frozen copy of the initial student fed the teacher's true
    features, and is gated by the drawn timestep. Velocity losses are logged
    and enter the total as constants: the predictors stay frozen, and no
    graph is built through them.
    """
    for key in ("rex", "img"):
        if key not in vel_nets or not getattr(vel_nets[key], "trained", False):
            raise ValueError("train_phase2: velocity predictors must be trained (phase 1) first")
    config, data, holdout, feats = exp.config, exp.data, exp.holdout, exp.feats
    rng = nd.Rng(config.seed)
    n = len(data)
    if student is None:
        student = StudentNet(rng.derive("student-init"), config.channels, cond_dim=config.feature_dim)
    teacher_side = StudentNet(rng.derive("student-init"), config.channels, prefix="teacher_side",
                              cond_dim=config.feature_dim)
    opt = Adam(student.params(), LR_PHASE2)
    loop = rng.derive("phase2-loop")
    records = []
    gate_hits = 0

    # the predictors are frozen, so the holdout conditioning is fixed
    hold_z = rng.derive("phase2-holdout").normal((len(holdout), config.feature_dim))
    hold_lq, hold_gt = stack_batch(holdout)
    hold_ipr = _sampled(vel_nets["rex"], hold_z, exp.hold_feats.c_rex, T_MAX)[-1]

    def holdout_metric():
        with ad.no_grad():
            pred = student.forward(hold_lq, hold_ipr)
        return nd.require_finite(float(np.abs(pred.data - hold_gt).mean()), "phase2 holdout_l1")

    initial_holdout = holdout_metric()

    for it in range(config.phase2_iters):
        idx = loop.integers(0, n, config.batch_size)
        lq, gt = stack_batch(data, idx)
        t_idx = int(loop.integers(0, T_MAX + 1, ()))
        z = loop.normal((config.batch_size, config.feature_dim))
        # the trajectory state at time t_idx; z itself at t_idx = 0
        ipr_state = z if t_idx == 0 else \
            _sampled(vel_nets["rex"], z, feats.c_rex[idx], T_MAX)[t_idx - 1]

        acts = {}
        pred = student.forward(ad.constant(lq), ad.constant(ipr_state), collect=acts)
        l_rec = ad.mean(ad.abs_(pred - ad.constant(gt)))

        if fx.gate_open(t_idx, T_MAX):
            gate_hits += 1
            t_acts = {}
            with ad.no_grad():
                teacher_side.forward(ad.constant(lq), ad.constant(feats.f_rex[idx]), collect=t_acts)
            l_flex = fx.flex_loss(t_acts, acts, t_idx, T_MAX)
        else:
            l_flex = ad.constant(0.0)

        l_vel = {}
        for key, c_all, f_all in (("rex", feats.c_rex, feats.f_rex),
                                  ("img", feats.c_img, feats.f_img)):
            zv = ad.constant(loop.normal((config.batch_size, config.feature_dim)))
            with ad.no_grad():
                l_vel[key] = rf.velocity_matching_loss(
                    vel_nets[key], (zv, ad.constant(f_all[idx]), ad.constant(c_all[idx])), loop)

        total = l_rec + config.lambda_flex * l_flex \
            + LAMBDA_VEL * (l_vel["rex"] + l_vel["img"])
        comps = {"total": total.item(), "rec": l_rec.item(), "flex": l_flex.item(),
                 "vel_rex": l_vel["rex"].item(), "vel_img": l_vel["img"].item(),
                 "gate_frac": gate_hits / (it + 1)}

        opt.zero_grad()
        total.backward()
        opt.step()

        if it % config.log_interval == 0 or it == config.phase2_iters - 1:
            comps["holdout_l1"] = holdout_metric()
            fmse = _mse("phase2 feature_mse", ipr_state, feats.f_rex[idx])
            records.append(MetricsRecord(it, comps, fmse, float("nan"), T_MAX))

    summary = {
        "initial_holdout_l1": initial_holdout,
        "final_holdout_l1": holdout_metric(),
        "gate_fraction": gate_hits / config.phase2_iters,
    }
    return student, records, summary


def phase2_loss_total(components: dict, config: ExperimentConfig) -> float:
    return (components["rec"] + config.lambda_flex * components["flex"]
            + LAMBDA_VEL * (components["vel_rex"] + components["vel_img"]))


# -- DDIM baseline training ------------------------------------------------------------

def train_ddim_baseline(exp: Experiment):
    """Epsilon-prediction net on the squared-cosine schedule over the image
    feature stream; same architecture as a phase-1 predictor, with a larger
    iteration budget to offset the extra gradient signal the velocity nets
    receive from the distillation and trajectory terms. The schedule is
    rf.DDIM_ALPHA_BARS, the one the sampler reads."""
    config, feats = exp.config, exp.feats
    rng = nd.Rng(config.seed)
    n = len(exp.data)
    T = len(rf.DDIM_ALPHA_BARS)
    net = nn.VelocityPredictor(rng.derive("ddim-init"), config.feature_dim, t_max=T - 1,
                               prefix="ddim")
    opt = Adam(net.params(), config.lr_img)
    loop = rng.derive("ddim-loop")

    for it in range(config.ddim_iters):
        idx = loop.integers(0, n, config.batch_size)
        f = feats.f_img[idx]
        c = feats.c_img[idx]
        t = loop.integers(0, T, (config.batch_size,))
        eps = loop.normal((config.batch_size, config.feature_dim))
        ab = rf.DDIM_ALPHA_BARS[t].reshape(-1, 1)
        x_t = np.sqrt(ab) * f + np.sqrt(1.0 - ab) * eps
        pred = net.forward(ad.constant(x_t), t, ad.constant(c))
        d = pred - ad.constant(eps)
        loss = ad.mean(ad.sum_(d * d, axes=1))
        opt.zero_grad()
        loss.backward()
        opt.step()
    net.trained = True
    return net


# -- sampler comparison ------------------------------------------------------------------

@dataclass
class SamplerRow:
    sampler: str
    steps: int
    frechet: float
    mse: float
    wall_ms: float


def compare_samplers(exp: Experiment, rf_net, ddim_net, out_csv=None, timing_csv=None) -> list:
    """Sample `compare_count` image features per (sampler, step count) and
    score them against fresh teacher features: Gaussian Frechet distance of
    the sample cloud plus per-item MSE.

    The result CSV (sampler, steps, frechet, mse) is byte-reproducible for a
    fixed seed; wall-clock milliseconds go to the separate timing CSV.
    """
    if not getattr(rf_net, "trained", False) or not getattr(ddim_net, "trained", False):
        raise ValueError("compare_samplers: both samplers must be trained")
    config = exp.config
    rng = nd.Rng(config.seed).derive("compare")
    pairs = synth_dataset(rng.derive("eval-data"), config.compare_count, config.image_size)
    evals = FeatureSet.build(exp.teacher, pairs)
    z = rng.derive("eval-z").normal((config.compare_count, config.feature_dim))
    mu_ref, cov_ref = evals.f_img.mean(axis=0), np.cov(evals.f_img, rowvar=False)

    rows = []
    for steps in config.sampler_steps:
        for name in ("rf", "ddim"):
            t0 = time.perf_counter()
            if name == "rf":
                x = _sampled(rf_net, z, evals.c_img, steps)[-1]
            else:
                with ad.no_grad():
                    x = rf.ddim_baseline_sample(ddim_net, z, evals.c_img, steps).data
            wall_ms = (time.perf_counter() - t0) * 1000.0
            label = f"compare-samplers {name} steps={steps}"
            fd = _frechet(f"{label} frechet", x, mu_ref, cov_ref)
            mse = _mse(f"{label} mse", x, evals.f_img)
            rows.append(SamplerRow(name, steps, fd, mse, wall_ms))

    cols = ["sampler", "steps", "frechet", "mse"]
    if out_csv:
        nd.write_csv(out_csv, cols, [[r.sampler, r.steps, r.frechet, r.mse] for r in rows])
    if timing_csv:
        nd.write_csv(timing_csv, cols + ["wall_ms"],
                     [[r.sampler, r.steps, r.frechet, r.mse, f"{r.wall_ms:.3f}"] for r in rows])
    return rows


# -- outputs of each phase ------------------------------------------------------------------

def save_phase1(outdir, nets: dict, records: list) -> None:
    os.makedirs(outdir, exist_ok=True)
    write_metrics_csv(os.path.join(outdir, "phase1_metrics.csv"), records, PHASE1_COMPONENTS)
    for key in ("rex", "img"):
        nn.save_checkpoint(os.path.join(outdir, f"ckpt_vel_{key}"), nets[key].params())


def load_phase1(config: ExperimentConfig, outdir) -> dict:
    """The velocity predictors `save_phase1` wrote under outdir, marked trained."""
    nets = {}
    for key in ("rex", "img"):
        net = nn.VelocityPredictor(nd.Rng(0), config.feature_dim, t_max=T_MAX, prefix=f"vel_{key}")
        nn.restore_params(net.params(), nn.load_checkpoint(os.path.join(outdir, f"ckpt_vel_{key}")))
        net.trained = True
        nets[key] = net
    return nets


def save_phase2(outdir, student: StudentNet, records: list) -> None:
    os.makedirs(outdir, exist_ok=True)
    write_metrics_csv(os.path.join(outdir, "phase2_metrics.csv"), records, PHASE2_COMPONENTS)
    nn.save_checkpoint(os.path.join(outdir, "ckpt_student"), student.params())


# -- full pipeline -------------------------------------------------------------------------

def distill(config: ExperimentConfig, outdir=None) -> dict:
    """Run both phases end to end; returns a summary dict and, when outdir is
    given, writes metrics CSVs and checkpoints there."""
    exp = Experiment(config)
    nets, p1_records = train_phase1(exp)
    student, p2_records, p2_summary = train_phase2(exp, nets)

    summary = {
        "phase1_initial_vel": p1_records[0].components["vel_rex"] + p1_records[0].components["vel_img"],
        "phase1_final_vel": p1_records[-1].components["vel_rex"] + p1_records[-1].components["vel_img"],
        **p2_summary,
    }
    if outdir:
        save_phase1(outdir, nets, p1_records)
        save_phase2(outdir, student, p2_records)
        with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    summary["nets"] = nets
    summary["student"] = student
    summary["experiment"] = exp
    summary["phase1_records"] = p1_records
    summary["phase2_records"] = p2_records
    return summary
