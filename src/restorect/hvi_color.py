"""Polarized HVI color coordinates and the explicit color loss in that space.

Hue convention, chosen deliberately and relied on by the continuity tests:
H is measured in units of degrees/60, so H lies in [0, 6) and the chroma
angle pi*H/3 has period exactly 6. Under this convention the polarized
coordinates are continuous across the red boundary (H just below 6 vs. just
above 0), which is the whole point of the parameterization. At achromatic
pixels (max == min) we set S = 0 and H = 0 and define the hue gradient as 0
there (subgradient choice); S = 0 as well wherever the intensity is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Param, Tensor

K_BOUNDS = (0.1, 5.0)
COLLAPSE_EPS = 1e-8  # added to the collapse factor C_k


def chroma_density(k: float = 1.0) -> Param:
    """The learnable chroma density k, clamped to K_BOUNDS after every update."""
    return Param(k, "hvi.k", lo=K_BOUNDS[0], hi=K_BOUNDS[1])


@dataclass
class HviImage:
    h_polar: Tensor
    v_polar: Tensor
    i_polar: Tensor

    def planes(self):
        return (self.h_polar, self.v_polar, self.i_polar)


def hue_rgb(h: float) -> tuple:
    """The rgb color of hue h (any real, period 6) at S = I_max = 1."""
    x = 1.0 - abs(h % 2.0 - 1.0)
    return [(1.0, x, 0.0), (x, 1.0, 0.0), (0.0, 1.0, x), (0.0, x, 1.0), (x, 0.0, 1.0),
            (1.0, 0.0, x)][math.floor(h) % 6]


def _validate_rgb(rgb: Tensor, name: str) -> None:
    if rgb.ndim != 4 or rgb.shape[1] != 3:
        raise ValueError(f"{name}: expected (B,3,H,W), got {rgb.shape}")
    if rgb.data.min() < 0.0 or rgb.data.max() > 1.0:
        raise ValueError(f"{name}: rgb values must lie in [0,1]")


def rgb_to_hsv_components(rgb: Tensor):
    """Split (B,3,H,W) rgb in [0,1] into (H, S, I_max) with H in [0,6).

    The channel-selection masks (which channel attains the max, whether the
    pixel is achromatic) are taken from the raw values and treated as
    constants, so gradients flow along the selected branch only.
    """
    rgb = ad.constant(rgb)
    _validate_rgb(rgb, "rgb_to_hsv_components")
    r, g, b = rgb[:, 0:1], rgb[:, 1:2], rgb[:, 2:3]

    d = rgb.data
    rd, gd, bd = d[:, 0:1], d[:, 1:2], d[:, 2:3]
    max_d = d.max(axis=1, keepdims=True)
    min_d = d.min(axis=1, keepdims=True)
    delta_d = max_d - min_d
    chroma = (delta_d > 0.0).astype(np.float64)
    lit = (max_d > 0.0).astype(np.float64)
    # argmax one-hot with R > G > B tie priority
    m_r = (rd >= gd) & (rd >= bd)
    m_g = ~m_r & (gd >= bd)
    m_b = ~m_r & ~m_g
    m_r, m_g, m_b = (m.astype(np.float64) for m in (m_r, m_g, m_b))

    i_max = r * m_r + g * m_g + b * m_b
    i_min = r * ((rd <= gd) & (rd <= bd)) + g * ((gd < rd) & (gd <= bd)) + b * ((bd < rd) & (bd < gd))
    delta = i_max - i_min

    # safe denominators where the masked numerator is zero anyway
    delta_safe = delta + ad.constant(1.0 - chroma)
    imax_safe = i_max + ad.constant(1.0 - lit)
    s = (delta / imax_safe) * ad.constant(chroma * lit)

    wrap = (gd < bd).astype(np.float64)  # negative red-sector hue: shift into [0,6)
    h_r = (g - b) / delta_safe + ad.constant(6.0 * wrap)
    h_g = (b - r) / delta_safe + 2.0
    h_b = (r - g) / delta_safe + 4.0
    h = (h_r * ad.constant(m_r) + h_g * ad.constant(m_g) + h_b * ad.constant(m_b)) * ad.constant(chroma)
    # exact wrap: a pixel with g == b < r sits at H = 6.0 after the shift
    h = h * ad.constant((h.data < 6.0).astype(np.float64))
    return h, s, i_max


def to_polarized_hvi(rgb: Tensor, k: Param) -> HviImage:
    """Map rgb to (H_polar, V_polar, I_polar).

    C_k = k*sin(pi*I_max/2) + COLLAPSE_EPS collapses chroma toward 0 in dark regions;
    H_polar = C_k*S*cos(pi*H/3), V_polar = C_k*S*sin(pi*H/3), I_polar = I_max.
    Differentiable w.r.t. both the rgb input and k.
    """
    h, s, i_max = rgb_to_hsv_components(rgb)
    c_k = k * ad.sin(i_max * (math.pi / 2.0)) + COLLAPSE_EPS
    angle = h * (math.pi / 3.0)
    chroma = c_k * s
    return HviImage(chroma * ad.cos(angle), chroma * ad.sin(angle), i_max)


def polarized_color_loss(pred: Tensor, gt: Tensor, k: Param) -> Tensor:
    """Mean L1 per plane, summed over the three polarized planes."""
    pred, gt = ad.constant(pred), ad.constant(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"polarized_color_loss: shape mismatch {pred.shape} vs {gt.shape}")
    hvi_p = to_polarized_hvi(pred, k)
    hvi_g = to_polarized_hvi(gt, k)
    loss = ad.constant(0.0)
    for a, b in zip(hvi_p.planes(), hvi_g.planes()):
        loss = loss + ad.mean(ad.abs_(a - b))
    return loss
