"""Learnable anisotropic diffusion operator and the smoothness losses built
on it.

Discretization: forward differences for the gradient (last row/column zero)
and backward differences for the divergence. The two stencils are adjoint to
each other, which makes the zero-flux boundary exact: the operator output
sums to zero over the image and constants are annihilated.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Param, Tensor

S_BOUNDS = (0.01, 1.0)


def edge_sensitivity(s: float = 0.1) -> Param:
    """The learnable edge sensitivity s, clamped to S_BOUNDS after every update."""
    return Param(s, "aniso.s", lo=S_BOUNDS[0], hi=S_BOUNDS[1])


def _check_image(x: Tensor, name: str) -> Tensor:
    x = ad.constant(x)
    if x.ndim != 4:
        raise ValueError(f"{name}: expected (B,C,H,W), got {x.shape}")
    if x.shape[2] < 2 or x.shape[3] < 2:
        raise ValueError(f"{name}: H and W must be >= 2, got {x.shape}")
    return x


def _zeros_like_slice(x: Tensor, axis: int) -> Tensor:
    shape = list(x.shape)
    shape[axis] = 1
    return ad.constant(np.zeros(shape))


def spatial_gradients(x: Tensor):
    """Forward differences gx[i,j] = x[i,j+1]-x[i,j], gy[i,j] = x[i+1,j]-x[i,j];
    the last column (gx) and last row (gy) are zero."""
    x = _check_image(x, "spatial_gradients")
    gx = ad.concat([x[:, :, :, 1:] - x[:, :, :, :-1], _zeros_like_slice(x, 3)], axis=3)
    gy = ad.concat([x[:, :, 1:, :] - x[:, :, :-1, :], _zeros_like_slice(x, 2)], axis=2)
    return gx, gy


def _divergence(px: Tensor, py: Tensor) -> Tensor:
    """Backward-difference divergence, the negative adjoint of
    spatial_gradients. Assumes the last column of px / last row of py are
    zero (which spatial_gradients-derived fluxes guarantee)."""
    w = px.shape[3]
    h = py.shape[2]
    keep_x = px[:, :, :, : w - 1]
    div_x = ad.concat([keep_x, _zeros_like_slice(px, 3)], axis=3) - ad.concat(
        [_zeros_like_slice(px, 3), keep_x], axis=3
    )
    keep_y = py[:, :, : h - 1, :]
    div_y = ad.concat([keep_y, _zeros_like_slice(py, 2)], axis=2) - ad.concat(
        [_zeros_like_slice(py, 2), keep_y], axis=2
    )
    return div_x + div_y


def anisotropic_operator(x: Tensor, s: Param) -> Tensor:
    """A(x) = div(c(|grad x|) * grad x) with conductance
    c = exp(-|grad x|^2 / s^2); differentiable in both x and s."""
    x = _check_image(x, "anisotropic_operator")
    gx, gy = spatial_gradients(x)
    g2 = gx * gx + gy * gy
    c = ad.exp(-g2 / (s * s))
    return _divergence(c * gx, c * gy)


def texture_loss(input_img: Tensor, r_pred: Tensor, s: Param) -> Tensor:
    """Mean L1 between the diffusion responses of the input and the predicted
    reflectance; zero iff the two responses agree."""
    input_img, r_pred = ad.constant(input_img), ad.constant(r_pred)
    if input_img.shape != r_pred.shape:
        raise ValueError(f"texture_loss: shape mismatch {input_img.shape} vs {r_pred.shape}")
    return ad.mean(ad.abs_(anisotropic_operator(input_img, s) - anisotropic_operator(r_pred, s)))


def illumination_smoothness_loss(lum: Tensor) -> Tensor:
    """Gradient-energy penalty exp(-|grad L|) * (gx^2 + gy^2), mean-reduced.

    The weight decays with |grad L| (eps 1e-12 under the root keeps it
    differentiable on flat regions), so genuine edges are penalized less per
    unit gradient energy than shallow ramps.
    """
    lum = ad.constant(lum)
    if lum.ndim != 4 or lum.shape[1] != 1:
        raise ValueError(f"illumination_smoothness_loss: expected (B,1,H,W), got {lum.shape}")
    gx, gy = spatial_gradients(lum)
    g2 = gx * gx + gy * gy
    w = ad.exp(-ad.sqrt(g2 + 1e-12))
    return ad.mean(w * g2)
