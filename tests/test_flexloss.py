import math
from types import SimpleNamespace

import numpy as np
import pytest

from restorect import autodiff as ad
from restorect import flexloss as fx
from restorect import ndtensor as nd


# the loss's constants under the names the reference below reads, plus t_max
CFG = SimpleNamespace(percentile=fx.PERCENTILE, base_res=fx.BASE_RES, exponent=fx.EXPONENT,
                      weight_floor=fx.WEIGHT_FLOOR, eps=fx.EPS, snr_threshold=fx.SNR_THRESHOLD,
                      t_max=4)


def bruteforce_flex(teach_layers, stud_layers, t, cfg):
    """Loop-based reference implementation of the whole loss."""
    if t / cfg.t_max >= cfg.snr_threshold:
        return 0.0
    total = 0.0
    for (tw, tf), (_, sf) in zip(teach_layers, stud_layers):
        b, c, h, w = sf.shape
        term = 0.0
        num = 0.0
        den = 0.0
        mu = np.zeros(c)
        sig = np.zeros(c)
        for ci in range(c):
            vals = sf[:, ci].ravel()
            mu[ci] = vals.mean()
            sig[ci] = math.sqrt(((vals - mu[ci]) ** 2).mean()) + cfg.eps
        tn = (tf - mu.reshape(1, c, 1, 1)) / sig.reshape(1, c, 1, 1)
        sn = (sf - mu.reshape(1, c, 1, 1)) / sig.reshape(1, c, 1, 1)
        for ci in range(c):
            mags = np.sort(np.abs(sn[:, ci].ravel()))
            k = math.ceil(cfg.percentile * mags.size)
            tau = mags[k - 1]
            for bi in range(b):
                for hi in range(h):
                    for wi in range(w):
                        if abs(sn[bi, ci, hi, wi]) <= tau:
                            num += (tn[bi, ci, hi, wi] - sn[bi, ci, hi, wi]) ** 2
                            den += 1.0
        w_res = max((cfg.base_res[0] * cfg.base_res[1] / (h * w)) ** cfg.exponent,
                    cfg.weight_floor)
        term = tw * w_res * num / (den + cfg.eps)
        total += term
    return total


# -- frozen statistics and the per-layer term -------------------------------------

def test_frozen_stats_are_bit_equal_to_the_numpy_formula():
    """frozen_stats runs on nd.mean_std; pins it to the formula it replaced."""
    d = nd.Rng(30).normal((3, 5, 4, 6)) * 2.0 + 0.7
    mu_ref = d.mean(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
    sigma_ref = np.sqrt(((d - mu_ref) ** 2).mean(axis=(0, 2, 3))) + 1e-6
    inv_ref = (1.0 / sigma_ref).reshape(1, -1, 1, 1)
    mu, inv, mask = fx.frozen_stats(ad.constant(d))
    assert mu.tobytes() == mu_ref.tobytes() and mu.shape == (1, 5, 1, 1)
    assert inv.tobytes() == inv_ref.tobytes() and inv.shape == (1, 5, 1, 1)
    assert mask.tobytes() == fx.outlier_mask((d - mu_ref) * inv_ref, fx.PERCENTILE).tobytes()


def test_layer_term_of_identical_inputs_is_zero():
    x = nd.Rng(0).normal((2, 3, 4, 4))
    assert fx.layer_term(x, x.copy(), fx.frozen_stats(x)).item() == 0.0


def test_frozen_stats_of_a_standardized_student():
    x = nd.Rng(1).normal((8, 4, 16, 16))
    mu, inv, _ = fx.frozen_stats(x)
    # large-sample per-channel stats are close to (0,1), so the normalized x ~ x
    assert np.abs(mu).max() < 0.1 and np.abs(inv - 1.0).max() < 0.1
    assert np.abs((x - mu) * inv - x).mean() < 0.05


def test_flex_loss_normalizes_by_the_student_only():
    """flex_loss is the sum of layer_term under the student's frozen_stats:
    the teacher's scale leaves the statistics alone and only scales the
    normalized difference (teach - stud) * inv."""
    rng = nd.Rng(2)
    stud = rng.normal((2, 3, 5, 5))
    teach = rng.normal((2, 3, 5, 5))
    mu, inv, mask = stats = fx.frozen_stats(stud)
    for scale in (1.0, 1000.0):
        got = fx.flex_loss({"l": ad.constant(scale * teach)}, {"l": ad.constant(stud)}, 0, 4)
        assert got.item() == fx.layer_term(scale * teach, stud, stats).item()
        d = (scale * teach - stud) * inv
        expected = fx.resolution_weight(5, 5) * (mask * d * d).sum() / (mask.sum() + fx.EPS)
        assert got.item() == pytest.approx(expected, rel=1e-12)


def test_layer_term_and_frozen_stats_reject_bad_shapes():
    stats = fx.frozen_stats(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ValueError):
        fx.layer_term(np.zeros((1, 2, 3, 3)), np.zeros((1, 2, 4, 4)), stats)
    with pytest.raises(ValueError):
        fx.frozen_stats(np.zeros((2, 4, 4)))


# -- outlier mask ---------------------------------------------------------------------

def test_mask_all_equal_channel_is_all_ones():
    x = ad.constant(np.full((2, 3, 4, 4), 0.7))
    mask = fx.outlier_mask(x, 0.95)
    np.testing.assert_array_equal(mask, 1.0)


def test_mask_keeps_exactly_nearest_rank_count():
    vals = np.arange(1.0, 101.0)
    x = ad.constant(vals.reshape(1, 1, 10, 10))
    mask = fx.outlier_mask(x, 0.95)
    assert mask.sum() == 95


def test_mask_fraction_at_least_p():
    for seed in range(5):
        x = ad.constant(nd.Rng(seed).normal((2, 4, 6, 6)))
        for p in (0.5, 0.9, 0.95, 1.0):
            mask = fx.outlier_mask(x, p)
            per_channel = mask.transpose(1, 0, 2, 3).reshape(4, -1).mean(axis=1)
            assert np.all(per_channel >= p - 1e-12)


def test_mask_per_channel_thresholds():
    # one channel with a spike: the spike is masked, other channels untouched
    x = nd.Rng(3).normal((1, 2, 10, 10))
    x[0, 1, 5, 5] = 500.0
    mask = fx.outlier_mask(ad.constant(x), 0.95)
    assert mask[0, 1, 5, 5] == 0.0
    assert mask[0, 0].mean() >= 0.95


# -- resolution weights -----------------------------------------------------------------

def test_resolution_weight_monotone_nonincreasing():
    sizes = [8, 16, 32, 64, 128, 256, 1024, 65536]
    weights = [fx.resolution_weight(s, s) for s in sizes]
    assert all(a >= b for a, b in zip(weights, weights[1:]))


def test_resolution_weight_zero_dims_error():
    with pytest.raises(ValueError):
        fx.resolution_weight(0, 64)


# -- flex loss ---------------------------------------------------------------------------

def make_bundles(teach_arrays, stud_arrays):
    tb = {f"layer{i}": ad.constant(t) for i, t in enumerate(teach_arrays)}
    sb = {f"layer{i}": ad.constant(s) for i, s in enumerate(stud_arrays)}
    return tb, sb


def test_flex_identical_bundles_zero():
    x = nd.Rng(4).normal((2, 3, 4, 4))
    tb, sb = make_bundles([x], [x.copy()])
    assert fx.flex_loss(tb, sb, 0, CFG.t_max).item() == 0.0


def test_flex_worked_example_matches_bruteforce():
    stud = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
    teach = 10.0 * stud
    cfg = CFG
    tb, sb = make_bundles([teach], [stud])
    got = fx.flex_loss(tb, sb, 0, cfg.t_max).item()
    expected = bruteforce_flex([(1.0, teach)], [(1.0, stud)], 0, cfg)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(2749.23, abs=0.01)


def test_flex_matches_bruteforce_random():
    rng = nd.Rng(5)
    cfg = CFG
    teach = [rng.normal((2, 3, 4, 4)), rng.normal((2, 2, 8, 8)) * 3.0]
    stud = [rng.normal((2, 3, 4, 4)), rng.normal((2, 2, 8, 8))]
    tb, sb = make_bundles(teach, stud)
    got = fx.flex_loss(tb, sb, 1, cfg.t_max).item()
    expected = bruteforce_flex([(1.0, teach[0]), (1.0, teach[1])],
                               [(1.0, stud[0]), (1.0, stud[1])], 1, cfg)
    assert got == pytest.approx(expected, rel=1e-10)


def test_flex_misaligned_bundles_error():
    rng = nd.Rng(7)
    tb = {"a": ad.constant(rng.normal((1, 2, 3, 3)))}
    sb = {"b": ad.constant(rng.normal((1, 2, 3, 3)))}
    with pytest.raises(ValueError):
        fx.flex_loss(tb, sb, 0, CFG.t_max)
    sb2 = {"a": ad.constant(rng.normal((1, 2, 4, 4)))}
    with pytest.raises(ValueError):
        fx.flex_loss(tb, sb2, 0, CFG.t_max)


# -- robustness claims ----------------------------------------------------------------------

def _grad_wrt_student(loss_fn, stud_param):
    stud_param.zero_grad()
    loss_fn().backward()
    return stud_param.grad.copy()


def heavy_tailed_pair(rng, b=1, c=2, h=10, w=10, spike_frac=0.04, t_spike=100.0, s_spike=8.0):
    """Distribution-mismatch regime of the stability claim: the teacher's norm
    lives on a few spiky positions, and the student's largest activations sit
    at those same positions (so the percentile mask removes exactly the
    scale carriers). Teacher/student spike signs alternate so the raw
    features stay uncorrelated."""
    n = b * h * w
    k = max(2, int(spike_frac * n)) & ~1  # even count for sign pairing
    teach = np.zeros((b, c, h, w))
    stud = rng.normal((b, c, h, w))
    for ci in range(c):
        pos = rng.permutation(n)[:k]
        signs_t = np.tile([1.0, -1.0], k // 2)
        signs_s = np.tile([1.0, -1.0], k // 2)[rng.permutation(k)]
        tf = teach[:, ci].reshape(n)
        sf = stud[:, ci].reshape(n)
        tf[pos] = signs_t * t_spike
        sf[pos] = signs_s * s_spike
    return teach, stud


def test_claim_teacher_scale_gradient_boundedness():
    """Teacher scaled x1000 in the heavy-tailed mismatch regime: plain-MSE
    gradient grows x1000 (within 1%) while the masked cross-normalized
    gradient grows by far less than x10."""
    rng = nd.Rng(8)
    teach, stud_vals = heavy_tailed_pair(rng)
    stud = ad.Param(stud_vals, "stud")
    cfg = CFG

    def flex_loss_for(scale):
        tb = {"l": ad.constant(scale * teach)}
        sb = {"l": stud}
        return lambda: fx.flex_loss(tb, sb, 0, cfg.t_max)

    def mse_loss_for(scale):
        t = ad.constant(scale * teach)
        return lambda: ad.mean((t - stud) * (t - stud))

    g_flex_1 = np.linalg.norm(_grad_wrt_student(flex_loss_for(1.0), stud))
    g_flex_1k = np.linalg.norm(_grad_wrt_student(flex_loss_for(1000.0), stud))
    g_mse_1 = np.linalg.norm(_grad_wrt_student(mse_loss_for(1.0), stud))
    g_mse_1k = np.linalg.norm(_grad_wrt_student(mse_loss_for(1000.0), stud))

    assert np.isfinite(g_flex_1k)
    assert g_mse_1k / g_mse_1 == pytest.approx(1000.0, rel=0.01)
    assert g_flex_1k / g_flex_1 < 10.0
    assert g_flex_1k < 1000.0 * g_flex_1


def test_claim_scale_boundedness_generic_features():
    """For generic (iid) features the weaker bound holds: the masked
    normalized gradient stays finite and below 1000x its unit-scale norm
    when the teacher is scaled x1000."""
    rng = nd.Rng(18)
    stud = ad.Param(rng.normal((2, 3, 8, 8)), "stud")
    teach = rng.normal((2, 3, 8, 8))
    cfg = CFG

    def flex_grad(scale):
        tb = {"l": ad.constant(scale * teach)}
        sb = {"l": stud}
        return np.linalg.norm(_grad_wrt_student(lambda: fx.flex_loss(tb, sb, 0, cfg.t_max), stud))

    g1, g1k = flex_grad(1.0), flex_grad(1000.0)
    assert np.isfinite(g1k)
    assert g1k < 1000.0 * g1


def test_claim_corruption_robustness():
    """Spikes of 1e6 on 4% of one channel's spatial positions change the loss
    by < 10%: within the hit channel they fall beyond the 95th percentile and
    are masked, and the other channels' statistics are untouched."""
    rng = nd.Rng(9)
    b, c, h, w = 2, 16, 10, 10
    stud = rng.normal((b, c, h, w))
    teach = stud + 0.3 * rng.normal((b, c, h, w))
    cfg = CFG
    tb, sb = make_bundles([teach], [stud])
    clean = fx.flex_loss(tb, sb, 0, cfg.t_max).item()

    corrupted = stud.copy()
    n = b * h * w
    n_spikes = int(0.04 * n)  # 4% of the channel's stat population
    hit = np.zeros(n, dtype=bool)
    hit[nd.Rng(100).permutation(n)[:n_spikes]] = True
    corrupted[:, 3][hit.reshape(b, h, w)] = 1e6
    tb2, sb2 = make_bundles([teach], [corrupted])
    spiked = fx.flex_loss(tb2, sb2, 0, cfg.t_max).item()
    assert abs(spiked - clean) / clean < 0.10

    # the same corruption makes a plain MSE loss explode by orders of magnitude
    mse_clean = float(((teach - stud) ** 2).mean())
    mse_spiked = float(((teach - corrupted) ** 2).mean())
    assert mse_spiked / mse_clean > 1e6


def test_claim_resolution_balance():
    """With identical per-element error, the per-layer contribution is
    non-increasing in layer resolution."""
    rng = nd.Rng(10)
    cfg = CFG
    contributions = []
    for size in (4, 8, 16, 32):
        stud = rng.normal((1, 2, size, size))
        teach = stud + 0.5  # constant per-element error
        tb, sb = make_bundles([teach], [stud])
        contributions.append(fx.flex_loss(tb, sb, 0, cfg.t_max).item())
    assert all(a >= b - 1e-9 for a, b in zip(contributions, contributions[1:]))
