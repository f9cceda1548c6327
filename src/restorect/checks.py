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
_COND_DIM = 256  # conditioning width of the attention and block cases
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
    # the two terms' gradients have one sign, so neither can mask the other
    return (lambda: ad.mean(ad.power(a, 1.7)) - ad.mean(ad.power(a, -0.5))), [a]


@fd_case("fd_matmul")
def fd_matmul(seed):
    a = ad.Param(_signed(seed, (3, 4)), "a")
    b = ad.Param(_signed(seed + 50, (4, 2)), "b")
    # batched, with each side broadcast along one of the two leading dims
    c = ad.Param(_signed(seed + 20, (2, 1, 3, 2)), "c")
    d = ad.Param(_signed(seed + 30, (1, 2, 2, 3)), "d")
    return (lambda: ad.mean(ad.matmul(a, b) * ad.matmul(a, b))
            + ad.mean(ad.matmul(c, d) * ad.matmul(c, d))), [a, b, c, d]


@fd_case("fd_conv2d_3x3", max_entries=24)
def fd_conv(seed):
    x = ad.Param(_signed(seed, (2, 3, 4, 4)), "x")
    w = ad.Param(_signed(seed + 70, (2, 3, 3, 3)), "w")
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
            + ad.mean(ad.sum_(a, axes=1, keepdims=True) * 0.3)), [a]


@fd_case("fd_pixel_unshuffle")
def fd_pixel_unshuffle(seed):
    x = ad.Param(_signed(seed, (1, 2, 4, 4)), "x")
    return (lambda: ad.mean(ad.pixel_unshuffle(x, 2) * ad.pixel_unshuffle(x, 2))), [x]


@fd_case("fd_scln")
def fd_scln(seed):
    x = ad.Param(nd.Rng(seed).normal((1, 4, 3, 3)), "x")
    gamma = ad.Param(np.ones(4), "gamma")
    probe = ad.constant(nd.Rng(seed + 11).normal((1, 4, 3, 3)))
    return (lambda: ad.mean(nn.scln(x, gamma) * probe)), [x, gamma]


@fd_case("fd_qk_attention", max_entries=6)
def fd_attention(seed):
    rng = nd.Rng(seed)
    params = nn.AttentionParams(8, rng.derive("p"), cond_dim=_COND_DIM)
    x = ad.Param(rng.normal((1, 8, 3, 3)), "x")
    ipr = ad.Param(rng.normal((1, _COND_DIM)), "ipr")
    probe = ad.constant(rng.normal((1, 8, 3, 3)))
    plist = [x, ipr] + list(params.params().values())
    return (lambda: ad.mean(nn.qk_normalized_attention(x, ipr, params) * probe)), plist


@fd_case("fd_toy_block", max_entries=5)
def fd_toy_block(seed):
    rng = nd.Rng(seed)
    block = nn.ToyTransformerBlock(8, rng.derive("b"), cond_dim=_COND_DIM)
    x = ad.Param(rng.normal((1, 8, 4, 4)), "x")
    ipr = ad.Param(rng.normal((1, _COND_DIM)), "ipr")
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
    s = ani.edge_sensitivity()
    probe = ad.constant(nd.Rng(seed + 13).normal((1, 1, 4, 4)))
    return (lambda: ad.mean(ani.anisotropic_operator(x, s) * probe)), [x, s]


def _hvi_rgb(rng) -> np.ndarray:
    return np.clip(rng.uniform((1, 3, 3, 3), 0.05, 0.75) * 0.8
                   + np.array([0.0, 0.017, 0.034]).reshape(1, 3, 1, 1), 0.0, 1.0)


@fd_case("fd_hvi_transform")
def fd_hvi(seed):
    rng = nd.Rng(seed)
    img = ad.Param(_hvi_rgb(rng), "rgb")
    k = hvi.chroma_density()
    probes = [ad.constant(rng.normal((1, 1, 3, 3))) for _ in range(3)]

    def f():
        out = hvi.to_polarized_hvi(img, k)
        return sum((ad.mean(p * q) for p, q in zip(out.planes(), probes)), ad.constant(0.0))

    return f, [img, k]


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
    s = ani.edge_sensitivity()
    return (lambda: ani.texture_loss(inp, pred, s)), [pred, s]


@fd_case("fd_loss_lum")
def fd_loss_lum(seed):
    lum = ad.Param(nd.Rng(seed).uniform((1, 1, 4, 4), 0.1, 0.9), "L")
    return (lambda: ani.illumination_smoothness_loss(lum)), [lum]


@fd_case("fd_loss_col")
def fd_loss_col(seed):
    rng = nd.Rng(seed)
    pred = ad.Param(_hvi_rgb(rng), "pred")
    gt = ad.constant(rng.uniform((1, 3, 3, 3), 0.1, 0.9))
    k = hvi.chroma_density()
    return (lambda: hvi.polarized_color_loss(pred, gt, k)), [pred, k]


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
    # statistics and mask are detached by design: frozen at the base point,
    # the term flex_loss sums per layer is checked against fd
    rng = nd.Rng(seed)
    stud = ad.Param(rng.normal((1, 2, 4, 4)), "stud")
    teach = ad.constant(rng.normal((1, 2, 4, 4)))
    stats = fx.frozen_stats(stud)
    return (lambda: fx.layer_term(teach, stud, stats)), [stud]


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
    y = nd.Rng(1).normal((2, 5, 6, 6))
    ok = ok and np.array_equal(nd.pixel_unshuffle(y, 1), y)
    ok = ok and np.array_equal(nd.pixel_shuffle(nd.pixel_unshuffle(y, 3), 3), y)
    return ok, "factor 1 identity, factor 3 and 4 roundtrips"


@check("inv_mean_std_permutation")
def inv_mean_std_perm():
    perms = nd.Rng(3)
    for seed, n in [(2, 60)] + [(s, 40) for s in range(5)]:
        x = nd.Rng(seed).normal((n,))
        m1, s1 = nd.mean_std(x)
        m2, s2 = nd.mean_std(x[perms.permutation(n)])
        if not (math.isclose(m1, m2, rel_tol=1e-12) and math.isclose(s1, s2, rel_tol=1e-12)):
            return False, f"seed {seed}"
    return True, "reduction order independent, 6 cases"


@check("inv_rng_golden_vector")
def inv_rng():
    normal = np.array([-1.1043995228921153, 0.1891281100736375,
                       0.04600092882122236, -2.1076745327476445])
    uniform = np.array([0.08607763073528474, 0.14155732377913233, 0.27009303504774695])
    ok = (np.array_equal(nd.Rng(42).normal((4,)), normal)
          and np.array_equal(nd.Rng(42).uniform((3,)), uniform))
    return ok, "Philox seed 42, normal and uniform"


@check("inv_softmax_rows_sum_one")
def inv_softmax():
    dev = max(np.abs(ad.softmax(ad.constant(nd.Rng(seed).normal((5, 7)) * 3.0), axis=-1)
                     .data.sum(axis=-1) - 1.0).max() for seed in range(5))
    return bool(dev < 1e-10), f"max dev {dev:.2e} over 5 seeds"


@check("inv_layer_norm_zero_mean")
def inv_layernorm():
    dev = max(np.abs(ad.layer_norm(ad.constant(nd.Rng(seed).normal((5, 9))), axis=-1)
                     .data.mean(axis=-1)).max() for seed in range(6))
    return bool(dev < 1e-10), f"max mean {dev:.2e} over 6 seeds"


@check("inv_attention_logit_bound")
def inv_logit_bound():
    # unit-norm q and k bound each row's max/min weight ratio by exp(2 tau / sqrt(d_k))
    ok, worst, worst_dev = True, 0.0, 0.0
    for seed, tau, scale in [(6, 2.0, 4.0)] + [(s, 0.3 + s, 3.0) for s in range(5)]:
        rng = nd.Rng(seed)
        params = nn.AttentionParams(8, rng.derive("p"), cond_dim=_COND_DIM)
        params.tau.data[...] = tau
        x = ad.constant(rng.normal((2, 8, 3, 3)) * scale)
        ipr = ad.constant(rng.normal((2, _COND_DIM)))
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
    for seed in (7, *range(5)):
        x = nd.Rng(seed).normal((3, 6, 4, 4)) * 2.0 + 0.5
        y = nn.scln(ad.constant(x), ad.Param(np.ones(6), "gamma")).data
        mean_ok = np.abs(y.mean(axis=(1, 2, 3))).max() < 1e-8
        var_ok = np.abs(y.var(axis=(1, 2, 3)) - 1.0).max() < 1e-4
        if not (mean_ok and var_ok):
            return False, f"seed {seed}"
    return True, "per-sample global stats, 6 seeds"


@check("inv_block_residual_identity")
def inv_block_identity():
    for seed in (8, 5):
        rng = nd.Rng(seed)
        block = nn.ToyTransformerBlock(8, rng.derive("b"), cond_dim=_COND_DIM)
        block.attn.wo.data[...] = 0.0
        block.w2.data[...] = 0.0
        x = rng.normal((2, 8, 4, 4))
        out = block.forward(ad.constant(x), ad.constant(rng.normal((2, _COND_DIM))))
        if not np.array_equal(out.data, x):
            return False, f"seed {seed}"
    return True, "zero output projections"


@check("inv_decomposition_nonnegative")
def inv_decomp():
    rng = nd.Rng(9)
    net = nn.DecompositionNet(rng.derive("d"))
    r, l = nn.decompose(ad.constant(rng.uniform((2, 3, 8, 8))), net)
    shapes = r.shape == (2, 3, 8, 8) and l.shape == (2, 1, 8, 8)
    return bool(shapes and r.data.min() >= 0.0 and l.data.min() >= 0.0), "ReLU outputs, shapes"


@check("inv_aniso_zero_sum")
def inv_aniso_sum():
    dev = 0.0
    for seed in (10, *range(5)):
        out = ani.anisotropic_operator(ad.constant(nd.Rng(seed).normal((1, 3, 7, 7))),
                                       ani.edge_sensitivity())
        dev = max(dev, abs(out.data.sum()) / out.data.size)
    return bool(dev < 1e-8), f"mean dev {dev:.2e} over 6 seeds"


@check("inv_aniso_translation_invariant")
def inv_aniso_shift():
    img = nd.Rng(11).normal((1, 1, 6, 6))
    s = ani.edge_sensitivity()
    a = ani.anisotropic_operator(ad.constant(img), s).data
    b = ani.anisotropic_operator(ad.constant(img + 3.0), s).data
    return bool(np.abs(a - b).max() < 1e-12), "A(x+c) == A(x)"


@check("inv_aniso_laplacian_limit")
def inv_aniso_lap():
    img = nd.Rng(12).normal((8, 8)) * 1e-3
    got = ani.anisotropic_operator(ad.constant(img[None, None]), ani.edge_sensitivity(1.0)).data[0, 0]
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
    out = hvi.to_polarized_hvi(ad.constant(arr), hvi.chroma_density())
    gap = max(abs(float(p.data[0, 0, 0, 0] - p.data[0, 0, 0, 1])) for p in out.planes())
    return bool(gap < 1e-2), f"boundary gap {gap:.2e}"


@check("inv_hvi_dark_stability")
def inv_hvi_dark():
    black = hvi.to_polarized_hvi(ad.constant(np.zeros((1, 3, 1, 1))), hvi.chroma_density())
    exact = all(p.data.item() == 0.0 for p in black.planes())
    # two pixels at intensity 1, saturations 0.8 and 1, scaled down to intensity v
    pixels = np.array([(1.0, 0.7, 0.2), hvi.hue_rgb(0.7)]).T.reshape(1, 3, 1, 2)
    mags, bounded = [], True
    for v in (0.2, 0.1, 0.05, 0.01, 0.001):
        out = hvi.to_polarized_hvi(ad.constant(v * pixels), hvi.chroma_density())
        mags.append(sum(np.abs(p.data[0, 0, 0]) for p in out.planes()))
        # at k = 1: |h| + |v| <= sqrt(2) sin(pi I / 2) <= sqrt(2) pi I / 2, and |i| = I = v
        bounded = bounded and np.all(mags[-1] < (math.sqrt(2.0) * math.pi / 2.0 + 1.0) * v + 1e-6)
    fades = all(np.all(a > b) for a, b in zip(mags, mags[1:]))
    return bool(exact and bounded and fades), "fade to (0,0,0) within the magnitude bound"


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
    teach = {"l": ad.constant(rng.normal((1, 2, 3, 3)))}
    loss = fx.flex_loss(teach, {"l": stud}, 2, 4)
    loss.backward()
    zero_grad = stud.grad is None or not np.any(stud.grad)
    stays_open = fx.flex_loss(teach, {"l": stud}, 1, 4).item() > 0.0
    return (bool(loss.item() == 0.0 and zero_grad and stays_open),
            "t/t_max = 0.5 closes the gate, 0.25 leaves it open")


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
        out, traj = rfl.euler_sample(Oracle(), ad.constant(z), c, steps)
        if len(traj) != steps:
            return False, f"steps={steps} gave {len(traj)} states"
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
    ok = True
    for seed, a, t in [(15, 2.5, 0.3), (0, 3.5, 0.25), (0, 3.5, 0.7)]:
        rng = nd.Rng(seed)
        z, f_t = rng.normal((2, 5)), rng.normal((2, 5))
        lhs = rfl.interpolate(ad.constant(a * z), ad.constant(a * f_t), t).data
        rhs = a * rfl.interpolate(ad.constant(z), ad.constant(f_t), t).data
        ok = ok and np.abs(lhs - rhs).max() < 1e-12 and np.allclose(lhs, rhs, rtol=1e-12, atol=0.0)
    return bool(ok), "scaling commutes, 3 cases"


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
    dev = 0.0
    for seed in range(3):
        rng = nd.Rng(seed)
        ext = nn.FeatureExtractor(rng.derive("e"))
        pred = ad.constant(rng.uniform((1, 3, 8, 8), 0.1, 0.9))
        gt = ad.constant(rng.uniform((1, 3, 8, 8), 0.1, 0.9))
        r_pred = ad.constant(rng.uniform((1, 3, 8, 8)))
        l_pred = ad.constant(rng.uniform((1, 1, 8, 8)))
        inp = ad.constant(rng.uniform((1, 3, 8, 8)))
        total, comps = nn.teacher_objective(pred, gt, r_pred, l_pred, inp, ext,
                                            hvi.chroma_density(), ani.edge_sensitivity())
        weighted = sum(nn.TEACHER_WEIGHTS[k] * v.item() for k, v in comps.items())
        dev = max(dev, abs(total.item() - weighted))
    return bool(dev < 1e-10), f"decomposition dev {dev:.2e} over 3 seeds"


@check("inv_frechet_examples")
def inv_frechet():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    d0 = nd.gaussian_frechet_distance([1.0, -2.0], cov, [1.0, -2.0], cov)
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
    err = max(np.abs(rfl.ddim_baseline_sample(Oracle(), z, c, steps).data - x0).max()
              for steps in (1, 3, 5))
    return bool(err < 1e-9), f"recovery err {err:.2e} at 1, 3 and 5 steps"


# -- runner -------------------------------------------------------------------------------

def run_checks(names=None, report_path=None) -> dict:
    """Execute registered checks (all, or the named subset) and return the
    report dict, also written to `report_path` as JSON when a path is given.
    A check returns (passed, detail); it fails cleanly if passed is falsy or
    it raises (a bare bool raises the TypeError of the unpacking). A name that
    is not registered raises ValueError before any check runs."""
    unknown = sorted(set(names or ()) - {name for name, _ in CHECKS})
    if unknown:
        raise ValueError(f"run_checks: no registered check named {unknown}")
    results = []
    for name, fn in CHECKS:
        if names is not None and name not in names:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
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
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


def gradient_check_names() -> list:
    return [name for name, _ in CHECKS if name.startswith("fd_")]
