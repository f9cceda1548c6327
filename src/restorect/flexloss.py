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

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import ndtensor as nd
from .autodiff import Tensor


@dataclass
class FlexConfig:
    percentile: float = 0.95
    base_res: tuple = (64, 64)
    weight_floor: float = 0.1
    exponent: float = 0.25
    eps: float = 1e-6
    snr_threshold: float = 0.4
    t_max: int = 4

    def __post_init__(self):
        if not (0.0 < self.percentile <= 1.0):
            raise ValueError(f"FlexConfig: percentile must lie in (0,1], got {self.percentile}")
        if self.weight_floor <= 0.0:
            raise ValueError(f"FlexConfig: weight_floor must be positive, got {self.weight_floor}")


@dataclass
class FeatureLayer:
    name: str
    features: Tensor  # (B, C, H, W)
    weight: float = 1.0


@dataclass
class FeatureBundle:
    layers: list = field(default_factory=list)

    def add(self, name: str, features, weight: float = 1.0) -> "FeatureBundle":
        self.layers.append(FeatureLayer(name, ad._lift(features), weight))
        return self


def _check_aligned(teach: FeatureBundle, stud: FeatureBundle) -> None:
    if len(teach.layers) != len(stud.layers):
        raise ValueError("flex: bundles have different layer counts")
    for lt, ls in zip(teach.layers, stud.layers):
        if lt.name != ls.name:
            raise ValueError(f"flex: layer names misaligned ({lt.name} vs {ls.name})")
        if lt.features.shape != ls.features.shape:
            raise ValueError(
                f"flex: layer '{lt.name}' shape mismatch {lt.features.shape} vs {ls.features.shape}"
            )


def student_channel_stats(stud: Tensor, eps: float):
    """Per-channel population mean and (std + eps) over (B,H,W), detached."""
    mu, std = nd.mean_std(stud.data, axes=(0, 2, 3))
    return mu, std + eps


def cross_normalize(teach: Tensor, stud: Tensor, eps: float = 1e-6):
    """Shift and scale both feature maps by the student's per-channel
    statistics. Returns (teach_n, stud_n, mu, sigma); mu/sigma are plain
    arrays and enter the graph as constants.
    """
    teach, stud = ad._lift(teach), ad._lift(stud)
    if teach.shape != stud.shape:
        raise ValueError(f"cross_normalize: shape mismatch {teach.shape} vs {stud.shape}")
    if teach.ndim != 4:
        raise ValueError(f"cross_normalize: expected (B,C,H,W), got {teach.shape}")
    mu, sigma = student_channel_stats(stud, eps)
    mu_c = ad.constant(mu.reshape(1, -1, 1, 1))
    inv = ad.constant((1.0 / sigma).reshape(1, -1, 1, 1))
    return (teach - mu_c) * inv, (stud - mu_c) * inv, mu, sigma


def outlier_mask(stud_n: Tensor, p: float) -> np.ndarray:
    """0/1 mask keeping positions where |stud_n| does not exceed the
    per-channel nearest-rank p-percentile (ties at the threshold included)."""
    if not (0.0 < p <= 1.0):
        raise ValueError(f"outlier_mask: p must lie in (0,1], got {p}")
    a = np.abs(stud_n.data if isinstance(stud_n, Tensor) else np.asarray(stud_n))
    b, c, h, w = a.shape
    per_channel = np.sort(a.transpose(1, 0, 2, 3).reshape(c, -1), axis=1)
    n = b * h * w
    k = math.ceil(p * n)
    tau = per_channel[:, k - 1]
    return (a <= tau.reshape(1, c, 1, 1)).astype(np.float64)


def resolution_weight(h: int, w: int, config: FlexConfig = None) -> float:
    """max((H_base*W_base / (H*W))^0.25, 0.1); down-weights high-resolution
    layers so no scale dominates."""
    config = config or FlexConfig()
    if h <= 0 or w <= 0:
        raise ValueError(f"resolution_weight: dims must be positive, got {h}x{w}")
    hb, wb = config.base_res
    return max((hb * wb / (h * w)) ** config.exponent, config.weight_floor)


def flex_loss(teach: FeatureBundle, stud: FeatureBundle, t: int,
              config: FlexConfig = None) -> Tensor:
    """Sum over layers of w_layer * w_res * masked mean squared normalized
    difference. Returns a constant zero (no gradient) when the SNR gate is
    closed, i.e. when t / t_max >= snr_threshold."""
    config = config or FlexConfig()
    _check_aligned(teach, stud)
    if t / config.t_max >= config.snr_threshold:
        return ad.constant(0.0)
    total = ad.constant(0.0)
    for lt, ls in zip(teach.layers, stud.layers):
        teach_n, stud_n, _, _ = cross_normalize(lt.features, ls.features, config.eps)
        mask = ad.constant(outlier_mask(stud_n, config.percentile))
        d = teach_n - stud_n
        num = ad.sum_(mask * d * d)
        den = float(mask.data.sum()) + config.eps
        _, _, h, w = lt.features.shape
        total = total + (lt.weight * resolution_weight(h, w, config)) * (num / den)
    return total
