"""Cross-normalized, outlier-masked, resolution-weighted feature matching
loss for teacher/student distillation.

Normalization statistics come from the student only, per (layer, channel)
over (B,H,W), and both the statistics and the outlier mask are treated as
non-differentiable constants (`frozen_stats`): gradients flow solely through
the student features' appearance inside the normalized difference
(`layer_term`, the per-layer core that `flex_loss` sums and the registry's
gradient case checks). The loss is gated off entirely (value and gradient
exactly zero) once t / t_max reaches the SNR threshold.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import ndtensor as nd
from .autodiff import Tensor

PERCENTILE = 0.95  # outlier mask: per-channel nearest-rank percentile of |student|
BASE_RES = (64, 64)  # resolution weight max((64*64 / (H*W))^0.25, 0.1)
EXPONENT = 0.25
WEIGHT_FLOOR = 0.1
EPS = 1e-6  # added to the student std and to the mask count
SNR_THRESHOLD = 0.4  # the loss is gated off once t / t_max reaches it


def _check_aligned(teach: dict, stud: dict) -> None:
    if list(teach) != list(stud):
        raise ValueError(f"flex: layer names misaligned ({list(teach)} vs {list(stud)})")
    for name in teach:
        if teach[name].shape != stud[name].shape:
            raise ValueError(
                f"flex: layer '{name}' shape mismatch {teach[name].shape} vs {stud[name].shape}"
            )


def frozen_stats(stud) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The detached constants of one student layer (B,C,H,W): the per-channel
    population mean over (B,H,W) and inverse scale 1 / (std + EPS), both
    shaped (1,C,1,1), and the outlier mask of the normalized student."""
    x = ad.constant(stud).data
    if x.ndim != 4:
        raise ValueError(f"frozen_stats: expected (B,C,H,W), got {x.shape}")
    mu, std = nd.mean_std(x, axes=(0, 2, 3))
    mu, inv = mu.reshape(1, -1, 1, 1), (1.0 / (std + EPS)).reshape(1, -1, 1, 1)
    return mu, inv, outlier_mask((x - mu) * inv, PERCENTILE)


def layer_term(teach, stud, stats) -> Tensor:
    """The differentiable core for one layer: w_res * the masked mean squared
    difference of teacher and student, both normalized by the student's
    `frozen_stats`, which enter as constants."""
    teach, stud = ad.constant(teach), ad.constant(stud)
    if teach.shape != stud.shape:
        raise ValueError(f"layer_term: shape mismatch {teach.shape} vs {stud.shape}")
    mu, inv, mask = (ad.constant(a) for a in stats)
    d = (teach - mu) * inv - (stud - mu) * inv
    _, _, h, w = stud.shape
    return resolution_weight(h, w) * (ad.sum_(mask * d * d) / (float(mask.data.sum()) + EPS))


def outlier_mask(stud_n: Tensor, p: float) -> np.ndarray:
    """0/1 mask keeping positions where |stud_n| does not exceed the
    per-channel nearest-rank p-percentile (ties at the threshold included)."""
    a = np.abs(stud_n.data if isinstance(stud_n, Tensor) else np.asarray(stud_n))
    c = a.shape[1]
    tau = nd.percentile_abs(a.transpose(1, 0, 2, 3).reshape(c, -1), p)
    return (a <= tau.reshape(1, c, 1, 1)).astype(np.float64)


def resolution_weight(h: int, w: int) -> float:
    """max((H_base*W_base / (H*W))^0.25, 0.1); down-weights high-resolution
    layers so no scale dominates."""
    if h <= 0 or w <= 0:
        raise ValueError(f"resolution_weight: dims must be positive, got {h}x{w}")
    hb, wb = BASE_RES
    return max((hb * wb / (h * w)) ** EXPONENT, WEIGHT_FLOOR)


def gate_open(t: int, t_max: int) -> bool:
    """The SNR gate: the loss applies while t / t_max is below SNR_THRESHOLD."""
    return t / t_max < SNR_THRESHOLD


def flex_loss(teach: dict, stud: dict, t: int, t_max: int) -> Tensor:
    """Sum over layers of w_res * masked mean squared normalized difference.

    `teach` and `stud` map layer names to (B,C,H,W) features, with the same
    names in the same order (as `ToyTransformerBlock.forward(collect=)` fills
    them). Returns a constant zero (no gradient) when the SNR gate is closed.
    """
    _check_aligned(teach, stud)
    if not gate_open(t, t_max):
        return ad.constant(0.0)
    total = ad.constant(0.0)
    for name in teach:
        total = total + layer_term(teach[name], stud[name], frozen_stats(stud[name]))
    return total
