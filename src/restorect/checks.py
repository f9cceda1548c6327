"""Registered self-checks: finite-difference verification for every
differentiable operation and loss, plus the module invariants and worked
examples. `run_checks` executes the registry (or a named subset) and
returns a machine-readable report, written to a file when given a path; the
`fd_` subset is the gradient suite, each check registered by `fd_case` from a
builder of its seeded case.

Ops are resolved through the autodiff module at call time, so an injected
bad gradient (test fixture or regression) is reported under the op's name.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from . import aniso_diffusion as ani
from . import autodiff as ad
from . import flexloss as fx
from . import hvi_color as hvi
from . import ndtensor as nd
from . import nn_blocks as nn
from . import rectflow as rfl

FD_SEEDS = range(5)
CHECKS: list = []


def check(name):
    def wrap(fn):
        CHECKS.append((name, fn))
        return fn

    return wrap


def _signed(seed, shape, lo=0.2, hi=1.5):
    rng = nd.Rng(seed)
    mag = rng.uniform(shape, lo, hi)
    sign = np.where(rng.uniform(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def fd_case(name, max_entries=None):
    """Register `case(seed) -> (f, params)` as the gradient check `name`: for
    each seed in FD_SEEDS, the gradient of the scalar f() with respect to
    params is compared with finite differences (on at most `max_entries`
    sampled entries per param when given). Passes with the worst error."""
    def wrap(case):
        def run():
            worst = 0.0
            for seed in FD_SEEDS:
                f, params = case(seed)
                report = ad.fd_check(f, params, max_entries=max_entries, rng=nd.Rng(1000 + seed))
                worst = max(worst, report.max_rel_err)
                if not report.passed:
                    return False, f"seed {seed}: {report.summary()}"
            return True, f"max_rel_err={worst:.3e} over {len(FD_SEEDS)} seeds"

        check(name)(run)
        return case

    return wrap


# Two-input cases: f = mean(op(a, b)^2) on signed (3, 2) params a and b.
_TWO_PARAM_OPS = {
    "add": lambda a, b: ad.add(a, b),
    "sub": lambda a, b: ad.sub(a, b),
    "mul": lambda a, b: ad.mul(a, b),
    "div": lambda a, b: ad.div(a, b),
    "relu": lambda a, b: ad.relu(a) + ad.relu(b),
    "leaky_relu": lambda a, b: ad.leaky_relu(a, 0.1) * ad.leaky_relu(b, 0.3),
    "exp": lambda a, b: ad.exp(a * 0.5) + ad.exp(b * 0.2),
    "sin": lambda a, b: ad.sin(a) * ad.sin(b),
    "cos": lambda a, b: ad.cos(a) + ad.cos(b * 2.0),
    "abs": lambda a, b: ad.abs_(a * 0.7 + b * 0.1),
    "clamp": lambda a, b: ad.clamp(a, -1.0, 1.0) + ad.clamp(b, -0.8, 0.9),
    "concat": lambda a, b: ad.concat([a, b], axis=0) * 1.5,
    "slice": lambda a, b: a[1:, :] * 2.0 + b[:1, 1:],
    "reshape": lambda a, b: ad.reshape(a, (-1,)) + ad.reshape(b, (-1,)),
    "transpose": lambda a, b: ad.transpose(a, (1, 0)) * ad.transpose(b, (1, 0)),
}
for _name, _op in _TWO_PARAM_OPS.items():
    @fd_case(f"fd_{_name}")
    def _two_param_case(seed, op=_op):
        a = ad.Param(_signed(seed, (3, 2)), "a")
        b = ad.Param(_signed(seed + 100, (3, 2)), "b")
        return (lambda: ad.mean(op(a, b) * op(a, b))), [a, b]


@fd_case("fd_sqrt")
def fd_sqrt(seed):
    a = ad.Param(nd.Rng(seed).uniform((3, 2), 0.3, 2.0), "a")
    return (lambda: ad.sum_(ad.sqrt(a))), [a]


@fd_case("fd_power")
def fd_power(seed):
    a = ad.Param(nd.Rng(seed).uniform((3, 2), 0.3, 2.0), "a")
    return (lambda: ad.mean(ad.power(a, 1.7))), [a]


@fd_case("fd_matmul")
def fd_matmul(seed):
    a = ad.Param(_signed(seed, (3, 4)), "a")
    b = ad.Param(_signed(seed + 50, (4, 2)), "b")
    return (lambda: ad.mean(ad.matmul(a, b) * ad.matmul(a, b))), [a, b]


@fd_case("fd_conv2d_3x3", max_entries=24)
def fd_conv(seed):
    x = ad.Param(_signed(seed, (1, 2, 4, 4)), "x")
    w = ad.Param(_signed(seed + 70, (2, 2, 3, 3)), "w")
    return (lambda: ad.mean(ad.conv2d_3x3(x, w) * ad.conv2d_3x3(x, w))), [x, w]


# Last-axis normalizations, each read through its own fixed probe.
for _offset, _name in enumerate(("softmax", "layer_norm", "l2_normalize"), start=7):
    @fd_case(f"fd_{_name}")
    def _last_axis_case(seed, op=_name, offset=_offset):
        a = ad.Param(_signed(seed, (3, 5)), "a")
        probe = ad.constant(nd.Rng(seed + offset).normal((3, 5)))
        return (lambda: ad.mean(getattr(ad, op)(a, axis=-1) * probe)), [a]


@fd_case("fd_reductions")
def fd_reductions(seed):
    a = ad.Param(_signed(seed, (2, 3, 2)), "a")
    return (lambda: ad.sum_(ad.mean(a, axes=(0, 2)) * ad.mean(a, axes=(0, 2)))
            + 0.0 * ad.mean(ad.sum_(a, axes=1))), [a]


@fd_case("fd_pixel_unshuffle")
def fd_pixel_unshuffle(seed):
    x = ad.Param(_signed(seed, (1, 2, 4, 4)), "x")
    return (lambda: ad.mean(ad.pixel_unshuffle(x, 2) * ad.pixel_unshuffle(x, 2))), [x]


@fd_case("fd_scln")
def fd_scln(seed):
    x = ad.Param(nd.Rng(seed).normal((1, 4, 3, 3)), "x")
    params = nn.SclnParams.create(4)
    probe = ad.constant(nd.Rng(seed + 11).normal((1, 4, 3, 3)))
    return (lambda: ad.mean(nn.scln(x, params) * probe)), [x, params.gamma]


@fd_case("fd_qk_attention", max_entries=6)
def fd_attention(seed):
    rng = nd.Rng(seed)
    params = nn.AttentionParams(8, rng.derive("p"))
    x = ad.Param(rng.normal((1, 8, 3, 3)), "x")
    ipr = ad.Param(rng.normal((1, 256)), "ipr")
    probe = ad.constant(rng.normal((1, 8, 3, 3)))
    plist = [x, ipr] + list(params.params().values())
    return (lambda: ad.mean(nn.qk_normalized_attention(x, ipr, params) * probe)), plist


@fd_case("fd_toy_block", max_entries=5)
def fd_toy_block(seed):
    rng = nd.Rng(seed)
    block = nn.ToyTransformerBlock(8, rng.derive("b"))
    x = ad.Param(rng.normal((1, 8, 4, 4)), "x")
    ipr = ad.Param(rng.normal((1, 256)), "ipr")
    probe = ad.constant(rng.normal((1, 8, 4, 4)))
    plist = [x, ipr] + list(block.params().values())
    return (lambda: ad.mean(block.forward(x, ipr) * probe)), plist


def _decomp_preact_margin(net: nn.DecompositionNet, img: np.ndarray) -> float:
    """Smallest |pre-activation| across the conv stack; finite differences
    need this to stay well above h so no step crosses an activation kink."""
    h = img
    margin = np.inf
    with ad.no_grad():
        for w, b in zip(net.weights, net.biases):
            pre = ad.conv2d_3x3(h, w) + ad.reshape(b, (1, -1, 1, 1))
            margin = min(margin, float(np.abs(pre.data).min()))
            h = ad.leaky_relu(pre, 0.2)  # the last layer's output is not used
    return margin


@fd_case("fd_decomposition_net", max_entries=6)
def fd_decomposition(seed):
    # deterministically skip sub-seeds whose activations sit on a kink
    for attempt in range(20):
        rng = nd.Rng(seed * 100 + attempt)
        net = nn.DecompositionNet(rng.derive("d"))
        img_vals = rng.uniform((1, 3, 6, 6), 0.1, 0.9)
        if _decomp_preact_margin(net, img_vals) > 3e-4:
            break
    img = ad.Param(img_vals, "img")
    probe = ad.constant(rng.normal((1, 4, 6, 6)))
    plist = [img] + list(net.params().values())
    return (lambda: ad.mean(net.forward(img) * probe)), plist


@fd_case("fd_velocity_predictor", max_entries=6)
def fd_velocity(seed):
    rng = nd.Rng(seed)
    net = nn.VelocityPredictor(rng.derive("v"), feature_dim=8, t_max=4)
    x = ad.Param(rng.normal((2, 8)), "x")
    c = ad.Param(rng.normal((2, 8)), "c")
    probe = ad.constant(rng.normal((2, 8)))
    plist = [x, c] + list(net.params().values())
    return (lambda: ad.mean(net.forward(x, 1, c) * probe)), plist


@fd_case("fd_anisotropic_operator")
def fd_aniso(seed):
    x = ad.Param(nd.Rng(seed).normal((1, 1, 4, 4)) * 0.3, "x")
    params = ani.DiffusionParams()
    probe = ad.constant(nd.Rng(seed + 13).normal((1, 1, 4, 4)))
    return (lambda: ad.mean(ani.anisotropic_operator(x, params) * probe)), [x, params.s]


def _hvi_rgb(rng) -> np.ndarray:
    return np.clip(rng.uniform((1, 3, 3, 3), 0.05, 0.75) * 0.8
                   + np.array([0.0, 0.017, 0.034]).reshape(1, 3, 1, 1), 0.0, 1.0)


@fd_case("fd_hvi_transform")
def fd_hvi(seed):
    rng = nd.Rng(seed)
    img = ad.Param(_hvi_rgb(rng), "rgb")
    params = hvi.HviParams()
    probes = [ad.constant(rng.normal((1, 1, 3, 3))) for _ in range(3)]

    def f():
        out = hvi.to_polarized_hvi(img, params)
        return sum((ad.mean(p * q) for p, q in zip(out.planes(), probes)), ad.constant(0.0))

    return f, [img, params.k]


def _loss_case_inputs(seed):
    rng = nd.Rng(seed)
    pred = ad.Param(rng.uniform((1, 3, 4, 4), 0.15, 0.85), "pred")
    gt = ad.constant(rng.uniform((1, 3, 4, 4), 0.15, 0.85))
    return rng, pred, gt


@fd_case("fd_loss_rec")
def fd_loss_rec(seed):
    _, pred, gt = _loss_case_inputs(seed)
    return (lambda: ad.mean(ad.abs_(pred - gt))), [pred]


# Feature-space losses through a seeded extractor.
for _name, _loss in (("vgg", "perceptual_loss"), ("sty", "style_loss")):
    @fd_case(f"fd_loss_{_name}", max_entries=16)
    def _feature_loss_case(seed, loss=_loss):
        rng, pred, gt = _loss_case_inputs(seed)
        ext = nn.FeatureExtractor(rng.derive("e"))
        return (lambda: getattr(nn, loss)(pred, gt, ext)), [pred]


@fd_case("fd_loss_tex")
def fd_loss_tex(seed):
    rng, pred, _ = _loss_case_inputs(seed)
    inp = ad.constant(rng.uniform((1, 3, 4, 4)))
    params = ani.DiffusionParams()
    return (lambda: ani.texture_loss(inp, pred, params)), [pred, params.s]


@fd_case("fd_loss_lum")
def fd_loss_lum(seed):
    lum = ad.Param(nd.Rng(seed).uniform((1, 1, 4, 4), 0.1, 0.9), "L")
    return (lambda: ani.illumination_smoothness_loss(lum)), [lum]


@fd_case("fd_loss_col")
def fd_loss_col(seed):
    rng = nd.Rng(seed)
    pred = ad.Param(_hvi_rgb(rng), "pred")
    gt = ad.constant(rng.uniform((1, 3, 3, 3), 0.1, 0.9))
    params = hvi.HviParams()
    return (lambda: hvi.polarized_color_loss(pred, gt, params)), [pred, params.k]


@fd_case("fd_loss_vel", max_entries=6)
def fd_loss_vel(seed):
    rng = nd.Rng(seed)
    net = nn.VelocityPredictor(rng.derive("n"), feature_dim=6, t_max=4)
    z = ad.constant(rng.normal((3, 6)))
    f_t = ad.constant(rng.normal((3, 6)))
    c = ad.constant(rng.normal((3, 6)))
    return (lambda: rfl.velocity_matching_loss(net, (z, f_t, c), nd.Rng(99))), \
        list(net.params().values())


@fd_case("fd_loss_traj")
def fd_loss_traj(seed):
    rng = nd.Rng(seed)
    f_t = ad.constant(rng.normal((2, 4)))
    p1 = ad.Param(rng.normal((2, 4)), "p1")
    p2 = ad.Param(rng.normal((2, 4)), "p2")
    return (lambda: rfl.trajectory_consistency_loss([p1, p2], f_t)), [p1, p2]


@fd_case("fd_loss_flex_core")
def fd_loss_flex(seed):
    # statistics and mask are detached by design; they are frozen from the
    # base point and the differentiable core is checked against fd
    rng = nd.Rng(seed)
    stud = ad.Param(rng.normal((1, 2, 4, 4)), "stud")
    teach = ad.constant(rng.normal((1, 2, 4, 4)))
    mu, sigma = fx.student_channel_stats(stud)
    mu_c = ad.constant(mu.reshape(1, -1, 1, 1))
    inv = ad.constant((1.0 / sigma).reshape(1, -1, 1, 1))
    mask = ad.constant(fx.outlier_mask((stud - mu_c) * inv, fx.PERCENTILE))
    den = float(mask.data.sum()) + fx.EPS
    w_res = fx.resolution_weight(4, 4)

    def f():
        d = (teach - mu_c) * inv - (stud - mu_c) * inv
        return (w_res / den) * ad.sum_(mask * d * d)

    return f, [stud]


# -- invariants and worked examples ----------------------------------------------------

@check("inv_percentile_is_max_at_one")
def inv_percentile():
    for seed in range(10):
        x = nd.Rng(seed).normal((37,))
        if nd.percentile_abs(x, 1.0) != np.abs(x).max():
            return False, f"seed {seed}"
    return True, "10 seeds"


@check("inv_pixel_unshuffle_roundtrip")
def inv_unshuffle():
    x = nd.Rng(0).normal((2, 3, 8, 8))
    ok = np.array_equal(nd.pixel_shuffle(nd.pixel_unshuffle(x, 4), 4), x)
    ok = ok and nd.pixel_unshuffle(nd.Rng(1).normal((1, 3, 8, 8)), 4).shape == (1, 48, 2, 2)
    return ok, "factor 4 roundtrip"


@check("inv_mean_std_permutation")
def inv_mean_std_perm():
    x = nd.Rng(2).normal((60,))
    perm = nd.Rng(3).permutation(60)
    m1, s1 = nd.mean_std(x)
    m2, s2 = nd.mean_std(x[perm])
    ok = abs(m1 - m2) < 1e-12 and abs(s1 - s2) < 1e-12
    return ok, "reduction order independent"


@check("inv_rng_golden_vector")
def inv_rng():
    got = nd.Rng(42).normal((4,))
    expected = np.array([-1.1043995228921153, 0.1891281100736375,
                         0.04600092882122236, -2.1076745327476445])
    return np.array_equal(got, expected), "Philox seed 42"


@check("inv_softmax_rows_sum_one")
def inv_softmax():
    x = ad.constant(nd.Rng(4).normal((5, 7)) * 3.0)
    rows = ad.softmax(x, axis=-1).data.sum(axis=-1)
    return bool(np.abs(rows - 1.0).max() < 1e-10), f"max dev {np.abs(rows - 1.0).max():.2e}"


@check("inv_layer_norm_zero_mean")
def inv_layernorm():
    x = ad.constant(nd.Rng(5).normal((5, 9)))
    dev = np.abs(ad.layer_norm(x, axis=-1).data.mean(axis=-1)).max()
    return bool(dev < 1e-10), f"max mean {dev:.2e}"


@check("inv_attention_logit_bound")
def inv_logit_bound():
    # unit-norm q and k bound each row's max/min weight ratio by exp(2 tau / sqrt(d_k))
    ok, worst, worst_dev = True, 0.0, 0.0
    for seed, tau, scale in [(6, 2.0, 4.0)] + [(s, 0.3 + s, 3.0) for s in range(5)]:
        rng = nd.Rng(seed)
        params = nn.AttentionParams(8, rng.derive("p"))
        params.tau.data[...] = tau
        x = ad.constant(rng.normal((2, 8, 3, 3)) * scale)
        ipr = ad.constant(rng.normal((2, 256)))
        _, weights = nn.qk_normalized_attention(x, ipr, params, return_weights=True)
        bound = math.exp(2.0 * tau / math.sqrt(4))
        ratio = (weights.max(axis=-1) / weights.min(axis=-1)).max()
        dev = np.abs(weights.sum(axis=-1) - 1.0).max()
        ok = ok and ratio <= bound * (1 + 1e-9) and dev < 1e-10
        worst, worst_dev = max(worst, ratio / bound), max(worst_dev, dev)
    return bool(ok), (f"6 (seed, tau) cases: max weight ratio / bound {worst:.3f}, "
                      f"max row-sum dev {worst_dev:.2e}")


@check("inv_scln_statistics")
def inv_scln():
    x = nd.Rng(7).normal((3, 6, 4, 4)) * 2.0 + 0.5
    y = nn.scln(ad.constant(x), nn.SclnParams.create(6)).data
    mean_ok = np.abs(y.mean(axis=(1, 2, 3))).max() < 1e-8
    var_ok = np.abs(y.var(axis=(1, 2, 3)) - 1.0).max() < 1e-4
    return bool(mean_ok and var_ok), "per-sample global stats"


@check("inv_block_residual_identity")
def inv_block_identity():
    for seed in (8, 5):
        rng = nd.Rng(seed)
        block = nn.ToyTransformerBlock(8, rng.derive("b"))
        block.attn.wo.data[...] = 0.0
        block.w2.data[...] = 0.0
        x = rng.normal((2, 8, 4, 4))
        out = block.forward(ad.constant(x), ad.constant(rng.normal((2, 256))))
        if not np.array_equal(out.data, x):
            return False, f"seed {seed}"
    return True, "zero output projections"


@check("inv_decomposition_nonnegative")
def inv_decomp():
    rng = nd.Rng(9)
    net = nn.DecompositionNet(rng.derive("d"))
    r, l = nn.decompose(ad.constant(rng.uniform((2, 3, 8, 8))), net)
    return bool(r.data.min() >= 0.0 and l.data.min() >= 0.0), "ReLU outputs"


@check("inv_aniso_zero_sum")
def inv_aniso_sum():
    out = ani.anisotropic_operator(ad.constant(nd.Rng(10).normal((1, 2, 7, 7))),
                                   ani.DiffusionParams())
    dev = abs(out.data.sum()) / out.data.size
    return bool(dev < 1e-8), f"mean dev {dev:.2e}"


@check("inv_aniso_translation_invariant")
def inv_aniso_shift():
    img = nd.Rng(11).normal((1, 1, 6, 6))
    params = ani.DiffusionParams()
    a = ani.anisotropic_operator(ad.constant(img), params).data
    b = ani.anisotropic_operator(ad.constant(img + 3.0), params).data
    return bool(np.abs(a - b).max() < 1e-12), "A(x+c) == A(x)"


@check("inv_aniso_laplacian_limit")
def inv_aniso_lap():
    img = nd.Rng(12).normal((8, 8)) * 1e-3
    params = ani.DiffusionParams(s=ad.Param(1.0, "s", lo=0.01, hi=1.0))
    got = ani.anisotropic_operator(ad.constant(img[None, None]), params).data[0, 0]
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    gx[:, :-1] = img[:, 1:] - img[:, :-1]
    gy[:-1, :] = img[1:, :] - img[:-1, :]
    lap = np.zeros_like(img)
    lap[:, 0] += gx[:, 0]
    lap[:, 1:] += gx[:, 1:] - gx[:, :-1]
    lap[0, :] += gy[0, :]
    lap[1:, :] += gy[1:, :] - gy[:-1, :]
    rel = np.linalg.norm(got - lap) / np.linalg.norm(lap)
    return bool(rel < 0.01), f"rel err {rel:.2e}"


@check("inv_hvi_red_continuity")
def inv_hvi_red():
    delta = 1e-3
    arr = np.array([hvi.hue_rgb(6.0 - delta), hvi.hue_rgb(delta)]).T.reshape(1, 3, 1, 2)
    out = hvi.to_polarized_hvi(ad.constant(arr), hvi.HviParams())
    gap = max(abs(float(p.data[0, 0, 0, 0] - p.data[0, 0, 0, 1])) for p in out.planes())
    return bool(gap < 1e-2), f"boundary gap {gap:.2e}"


@check("inv_hvi_dark_stability")
def inv_hvi_dark():
    black = hvi.to_polarized_hvi(ad.constant(np.zeros((1, 3, 1, 1))), hvi.HviParams())
    exact = all(p.data.item() == 0.0 for p in black.planes())
    mags = []
    for v in (0.1, 0.01, 0.001):
        img = ad.constant(np.array([v, 0.7 * v, 0.2 * v]).reshape(1, 3, 1, 1))
        out = hvi.to_polarized_hvi(img, hvi.HviParams())
        mags.append(sum(abs(p.data.item()) for p in out.planes()))
    return bool(exact and all(a > b for a, b in zip(mags, mags[1:]))), "fade to (0,0,0)"


@check("inv_flex_worked_example")
def inv_flex_example():
    stud = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
    got = fx.flex_loss({"l": ad.constant(10.0 * stud)}, {"l": ad.constant(stud)}, 0, 4).item()
    sigma = math.sqrt(1.25) + fx.EPS
    num = sum((9.0 * s / sigma) ** 2 for s in (1.0, 2.0, 3.0, 4.0))
    expected = (4096.0 / 4.0) ** 0.25 * num / (4.0 + fx.EPS)
    return bool(abs(got - expected) < 1e-9), f"{got:.6f} vs {expected:.6f}"


@check("inv_flex_gate")
def inv_flex_gate():
    rng = nd.Rng(13)
    stud = ad.Param(rng.normal((1, 2, 3, 3)), "stud")
    loss = fx.flex_loss({"l": ad.constant(rng.normal((1, 2, 3, 3)))}, {"l": stud}, 2, 4)
    loss.backward()
    zero_grad = stud.grad is None or not np.any(stud.grad)
    return bool(loss.item() == 0.0 and zero_grad), "t/t_max = 0.5 closes the gate"


@check("inv_resolution_weights")
def inv_res_weights():
    vals = (fx.resolution_weight(64, 64), fx.resolution_weight(256, 256),
            fx.resolution_weight(65536, 65536))
    ok = abs(vals[0] - 1.0) < 1e-12 and abs(vals[1] - 0.5) < 1e-12 and abs(vals[2] - 0.1) < 1e-12
    return ok, f"weights {vals}"


@check("inv_euler_exact_constant_field")
def inv_euler():
    rng = nd.Rng(14)
    z = rng.normal((2, 6))
    f_t = rng.normal((2, 6))

    class Oracle:
        t_max = 4

        def forward(self, x, t, c):
            return ad.constant(f_t - z)

    c = ad.constant(np.zeros((2, 6)))
    errs = []
    for steps in (1, 2, 4):
        out, _ = rfl.euler_sample(Oracle(), ad.constant(z), c, steps)
        errs.append(np.abs(out.data - f_t).max())
    return bool(max(errs) < 1e-12), f"max endpoint err {max(errs):.2e}"


@check("inv_euler_call_count")
def inv_euler_calls():
    class Counting:
        t_max = 4
        calls = 0

        def forward(self, x, t, c):
            self.calls += 1
            return ad.constant(np.zeros(x.shape))

    for steps in (1, 3, 5):
        net = Counting()
        rfl.euler_sample(net, ad.constant(np.zeros((1, 4))), ad.constant(np.zeros((1, 4))), steps)
        if net.calls != steps:
            return False, f"steps={steps} made {net.calls} calls"
    return True, "net called exactly steps times"


@check("inv_interpolate_affine")
def inv_interp_affine():
    rng = nd.Rng(15)
    z, f_t = rng.normal((2, 5)), rng.normal((2, 5))
    a = 2.5
    lhs = rfl.interpolate(ad.constant(a * z), ad.constant(a * f_t), 0.3).data
    rhs = a * rfl.interpolate(ad.constant(z), ad.constant(f_t), 0.3).data
    return bool(np.abs(lhs - rhs).max() < 1e-12), "scaling commutes"


@check("inv_trajectory_loss_nonnegative")
def inv_traj_nonneg():
    rng = nd.Rng(16)
    for _ in range(5):
        traj = [ad.constant(rng.normal((2, 4))) for _ in range(3)]
        if rfl.trajectory_consistency_loss(traj, ad.constant(rng.normal((2, 4)))).item() < 0:
            return False, "negative loss"
    return True, "5 random trajectories"


@check("inv_teacher_objective_composition")
def inv_teacher_obj():
    rng = nd.Rng(17)
    ext = nn.FeatureExtractor(rng.derive("e"))
    pred = ad.constant(rng.uniform((1, 3, 8, 8), 0.1, 0.9))
    gt = ad.constant(rng.uniform((1, 3, 8, 8), 0.1, 0.9))
    r_pred = ad.constant(rng.uniform((1, 3, 8, 8)))
    l_pred = ad.constant(rng.uniform((1, 1, 8, 8)))
    inp = ad.constant(rng.uniform((1, 3, 8, 8)))
    total, comps = nn.teacher_objective(pred, gt, r_pred, l_pred, inp, ext,
                                        hvi.HviParams(), ani.DiffusionParams())
    weighted = sum(nn.TEACHER_WEIGHTS[k] * v.item() for k, v in comps.items())
    dev = abs(total.item() - weighted)
    return bool(dev < 1e-10), f"decomposition dev {dev:.2e}"


@check("inv_frechet_examples")
def inv_frechet():
    d0 = nd.gaussian_frechet_distance([1.0, 2.0], np.eye(2), [1.0, 2.0], np.eye(2))
    d1 = nd.gaussian_frechet_distance([0.0, 0.0], np.eye(2), [3.0, 4.0], np.eye(2))
    d2 = nd.gaussian_frechet_distance([0.0, 0.0], 4 * np.eye(2), [0.0, 0.0], np.eye(2))
    ok = d0 == 0.0 and abs(d1 - 25.0) < 1e-12 and abs(d2 - 2.0) < 1e-12
    return ok, f"(0, 25, 2) got ({d0}, {d1}, {d2})"


@check("inv_ddim_oracle_recovery")
def inv_ddim():
    rng = nd.Rng(18)
    x0 = rng.normal((2, 5))

    class Oracle:
        t_max = 49

        def forward(self, x, t, c):
            ab = rfl.DDIM_ALPHA_BARS[int(t)]
            return ad.constant((x.data - np.sqrt(ab) * x0) / np.sqrt(1.0 - ab))

    z = ad.constant(rng.normal((2, 5)))
    c = ad.constant(np.zeros((2, 5)))
    out = rfl.ddim_baseline_sample(Oracle(), z, c, 5)
    err = np.abs(out.data - x0).max()
    return bool(err < 1e-9), f"recovery err {err:.2e}"


# -- runner -------------------------------------------------------------------------------

def run_checks(names=None, report_path=None, fmt: str = "json") -> dict:
    """Execute registered checks (all, or the named subset) and return the
    report dict, also written to `report_path` in `fmt` when a path is given.
    A check fails cleanly if it returns falsy or raises."""
    results = []
    for name, fn in CHECKS:
        if names is not None and name not in names:
            continue
        t0 = time.perf_counter()
        try:
            out = fn()
            passed, detail = out if isinstance(out, tuple) else (bool(out), "")
        except Exception as exc:  # a crashing check is a failing check
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({
            "name": name,
            "passed": bool(passed),
            "detail": detail,
            "ms": round((time.perf_counter() - t0) * 1000.0, 3),
        })
    failed = [r["name"] for r in results if not r["passed"]]
    report = {
        "passed": not failed,
        "total": len(results),
        "failed": failed,
        "checks": results,
    }
    if report_path is not None:
        write_report(report, report_path, fmt)
    return report


def gradient_check_names() -> list:
    return [name for name, _ in CHECKS if name.startswith("fd_")]


def write_report(report: dict, path, fmt: str = "json") -> None:
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    elif fmt == "csv":
        nd.write_csv(path, ["name", "passed", "detail", "ms"],
                     [[r["name"], int(r["passed"]), str(r["detail"]).replace(",", ";"), r["ms"]]
                      for r in report["checks"]])
    else:
        raise ValueError(f"unknown report format '{fmt}'")
