"""Cross-normalized, outlier-masked, resolution-weighted feature matching
loss for teacher/student distillation.

Normalization statistics come from the student only, per (layer, channel)
over (B,H,W), and both the statistics and the outlier mask are treated as
non-differentiable constants: gradients flow solely through the student
features' appearance inside the normalized difference. The loss is gated off
entirely (value and gradient exactly zero) once t / t_max reaches the SNR
threshold.
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


def student_channel_stats(stud: Tensor):
    """Per-channel population mean and (std + EPS) over (B,H,W), detached."""
    mu, std = nd.mean_std(stud.data, axes=(0, 2, 3))
    return mu, std + EPS


def cross_normalize(teach: Tensor, stud: Tensor):
    """Shift and scale both feature maps by the student's per-channel
    statistics. Returns (teach_n, stud_n, mu, sigma); mu/sigma are plain
    arrays and enter the graph as constants.
    """
    teach, stud = ad.constant(teach), ad.constant(stud)
    if teach.shape != stud.shape:
        raise ValueError(f"cross_normalize: shape mismatch {teach.shape} vs {stud.shape}")
    if teach.ndim != 4:
        raise ValueError(f"cross_normalize: expected (B,C,H,W), got {teach.shape}")
    mu, sigma = student_channel_stats(stud)
    mu_c = ad.constant(mu.reshape(1, -1, 1, 1))
    inv = ad.constant((1.0 / sigma).reshape(1, -1, 1, 1))
    return (teach - mu_c) * inv, (stud - mu_c) * inv, mu, sigma


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
        teach_n, stud_n, _, _ = cross_normalize(teach[name], stud[name])
        mask = ad.constant(outlier_mask(stud_n, PERCENTILE))
        d = teach_n - stud_n
        num = ad.sum_(mask * d * d)
        den = float(mask.data.sum()) + EPS
        _, _, h, w = teach[name].shape
        total = total + resolution_weight(h, w) * (num / den)
    return total
