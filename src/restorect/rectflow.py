"""Rectified-flow trajectory math, the velocity-matching objective, Euler ODE
sampling, trajectory-consistency regularization, and a DDIM-style baseline
sampler for step-count comparisons.

Time runs from 0 (noise) to 1 (data). The velocity predictor takes a
discrete timestep on the 0..t_max grid; continuous times are mapped onto it
by rounding, reconciling continuous-time interpolation with the discrete
time input. Both samplers take (B, D) batches and a plain step count,
`steps`, in [1,5]; the DDIM baseline runs on the method's one schedule,
`DDIM_ALPHA_BARS`.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from . import ndtensor as nd
from .autodiff import Tensor

TRAJ_COEFFS = {"trans": 0.1, "target": 0.5, "cons": 0.2}


def _sampler_steps(steps) -> int:
    """The step count as an int; ValueError unless it is an integer in [1,5]."""
    if steps not in range(1, 6):
        raise ValueError(f"sampler steps must be an integer in [1,5], got {steps}")
    return int(steps)


def interpolate(z, f_teach, t) -> Tensor:
    """Straight-line path point x_t = (1-t) z + t f, for one time t or a
    (B, 1) column holding one time per item."""
    t = np.asarray(t, dtype=np.float64)
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise ValueError(f"interpolate: t must lie in [0,1], got {t}")
    z, f_teach = ad.constant(z), ad.constant(f_teach)
    if z.shape != f_teach.shape:
        raise ValueError(f"interpolate: shape mismatch {z.shape} vs {f_teach.shape}")
    if t.ndim and t.shape != (z.shape[0], 1):
        raise ValueError(f"interpolate: t must be a scalar or ({z.shape[0]}, 1), got {t.shape}")
    t = ad.constant(t)
    return (1.0 - t) * z + t * f_teach


def velocity_target(z, f_teach) -> Tensor:
    """Constant velocity of the straight path: f - z, independent of t."""
    z, f_teach = ad.constant(z), ad.constant(f_teach)
    if z.shape != f_teach.shape:
        raise ValueError(f"velocity_target: shape mismatch {z.shape} vs {f_teach.shape}")
    return f_teach - z


def timestep_index(t: float, t_max: int) -> int:
    """Map continuous t in [0,1] onto the discrete 0..t_max grid by rounding."""
    return int(round(t * t_max))


def velocity_matching_loss(net, batch, rng: nd.Rng) -> Tensor:
    """Mean over the batch of ||net(x_t, t_idx, c) - (f - z)||^2 with one
    t ~ Uniform[0,1] drawn per item.

    `batch` is (z, f_teach, c), each (B, D).
    """
    z, f_teach, c = (ad.constant(v) for v in batch)
    if z.shape[0] == 0:
        raise ValueError("velocity_matching_loss: empty batch")
    if z.shape != f_teach.shape or z.shape[0] != c.shape[0]:
        raise ValueError("velocity_matching_loss: batch shapes disagree")
    t = rng.uniform((z.shape[0],))
    x_t = interpolate(z, f_teach, t.reshape(-1, 1))
    t_idx = np.rint(t * net.t_max).astype(np.int64)
    pred = net.forward(x_t, t_idx, c)
    d = pred - velocity_target(z, f_teach)
    return ad.mean(ad.sum_(d * d, axes=1))


def euler_sample(net, z, c, steps: int):
    """Integrate x' = v(x, t, c) from t=0 with fixed dt = 1/steps, steps in [1,5].

    Returns (x_final, trajectory) where the trajectory holds the post-step
    states x^1..x^N; the net is called exactly `steps` times.
    """
    steps = _sampler_steps(steps)
    x, c = ad.constant(z), ad.constant(c)
    dt = 1.0 / steps
    trajectory = []
    for i in range(steps):
        t = i * dt
        v = net.forward(x, timestep_index(t, net.t_max), c)
        x = x + dt * v
        trajectory.append(x)
    return x, trajectory


def trajectory_consistency_loss(trajectory, f_teach) -> Tensor:
    """0.1 * sum ||x^{i+1}-x^i||^2 + 0.5 * ||x^final - f||^2
    + 0.2 * sum (1 - cos(x^i, f)), batch-averaged.

    Cosine similarity uses eps=1e-12 denominators so zero vectors are safe.
    """
    if len(trajectory) == 0:
        raise ValueError("trajectory_consistency_loss: empty trajectory")
    states = [ad.constant(s) for s in trajectory]
    f = ad.constant(f_teach)

    def sq_norm(v):  # (B,D) -> (B,)
        return ad.sum_(v * v, axes=1)

    trans = ad.constant(np.zeros(states[0].shape[0]))
    for a, b in zip(states[:-1], states[1:]):
        trans = trans + sq_norm(b - a)
    target = sq_norm(states[-1] - f)
    eps = 1e-12
    f_norm = ad.sqrt(sq_norm(f) + eps)
    cons = ad.constant(np.zeros(states[0].shape[0]))
    for s in states:
        cos_sim = ad.sum_(s * f, axes=1) / (ad.sqrt(sq_norm(s) + eps) * f_norm)
        cons = cons + (1.0 - cos_sim)
    return TRAJ_COEFFS["trans"] * ad.mean(trans) + TRAJ_COEFFS["target"] * ad.mean(target) \
        + TRAJ_COEFFS["cons"] * ad.mean(cons)


# -- DDIM baseline ---------------------------------------------------------------

COSINE_OFFSET = 0.008  # the schedule's small offset s


def cosine_alpha_bars(T: int, max_beta: float) -> np.ndarray:
    """Cumulative signal levels for the squared-cosine noise schedule, with
    per-step betas clipped to max_beta so alpha_bar stays strictly positive."""
    def f(u):
        return math.cos((u + COSINE_OFFSET) / (1.0 + COSINE_OFFSET) * math.pi / 2.0) ** 2

    betas = np.empty(T)
    for t in range(T):
        betas[t] = min(1.0 - f((t + 1) / T) / f(t / T), max_beta)
    return np.cumprod(1.0 - betas)


# The DDIM baseline's schedule. Betas clipped at 0.1 keep the terminal signal
# level non-degenerate at T=50: the x0 reconstruction divides by sqrt(alpha_bar).
DDIM_ALPHA_BARS = cosine_alpha_bars(50, max_beta=0.1)


def ddim_timesteps(T: int, steps: int) -> np.ndarray:
    """Uniformly strided descending timesteps from T-1 to 0."""
    return np.unique(np.linspace(T - 1, 0, steps).round().astype(np.int64))[::-1]


def ddim_baseline_sample(noise_net, z, c, steps: int) -> Tensor:
    """Deterministic DDIM update over `steps` (in [1,5]) strided timesteps of
    an epsilon-prediction net trained on DDIM_ALPHA_BARS. The step below the
    lowest timestep treats alpha_bar as 1, i.e. the final update lands on the
    predicted clean sample."""
    steps = _sampler_steps(steps)
    x, c = ad.constant(z), ad.constant(c)
    taus = ddim_timesteps(len(DDIM_ALPHA_BARS), steps)
    for j, tau in enumerate(taus):
        eps_hat = noise_net.forward(x, int(tau), c)
        ab = float(DDIM_ALPHA_BARS[tau])
        x0_hat = (x - math.sqrt(1.0 - ab) * eps_hat) * (1.0 / math.sqrt(ab))
        ab_next = float(DDIM_ALPHA_BARS[taus[j + 1]]) if j + 1 < len(taus) else 1.0
        x = math.sqrt(ab_next) * x0_hat + math.sqrt(1.0 - ab_next) * eps_hat
    return x
