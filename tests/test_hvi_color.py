import math

import numpy as np
import pytest

from restorect import autodiff as ad
from restorect import hvi_color as hvi
from restorect import ndtensor as nd


def rgb_image(*pixels):
    """Stack (r,g,b) triples into a (1,3,H=1,W=n) image tensor."""
    arr = np.array(pixels, dtype=np.float64).T.reshape(1, 3, 1, -1)
    return ad.constant(arr)


def hue_to_rgb(h, s=1.0, v=1.0):
    """Reference HSV -> RGB with hue in [0,6) units (test-side oracle)."""
    c = v * s
    x = c * (1.0 - abs(h % 2.0 - 1.0))
    m = v - c
    sector = [(c, x, 0), (x, c, 0), (0, c, x), (0, x, c), (x, 0, c), (c, 0, x)][int(h) % 6]
    return tuple(val + m for val in sector)


# -- rgb -> hsv components --------------------------------------------------------

def test_hsv_canonical_colors():
    h, s, i = hvi.rgb_to_hsv_components(rgb_image((1, 0, 0)))
    assert (h.data.item(), s.data.item(), i.data.item()) == (0.0, 1.0, 1.0)
    h, s, i = hvi.rgb_to_hsv_components(rgb_image((0.5, 0.5, 0.5)))
    assert s.data.item() == 0.0 and i.data.item() == 0.5 and h.data.item() == 0.0
    h, s, i = hvi.rgb_to_hsv_components(rgb_image((0, 1, 0)))
    assert h.data.item() == pytest.approx(2.0) and s.data.item() == 1.0


def test_hsv_matches_reference_over_hue_wheel():
    hues = np.linspace(0.0, 5.999, 40)
    img = rgb_image(*[hue_to_rgb(h) for h in hues])
    h, s, i = hvi.rgb_to_hsv_components(img)
    np.testing.assert_allclose(h.data.ravel(), hues, atol=1e-12)
    np.testing.assert_allclose(s.data.ravel(), 1.0, atol=1e-12)
    np.testing.assert_allclose(i.data.ravel(), 1.0, atol=1e-12)


def test_hsv_range_contract():
    for seed in range(5):
        img = ad.constant(nd.Rng(seed).uniform((2, 3, 4, 4)))
        h, s, i = hvi.rgb_to_hsv_components(img)
        assert h.data.min() >= 0.0 and h.data.max() < 6.0
        assert s.data.min() >= 0.0 and s.data.max() <= 1.0


def test_hsv_rejects_out_of_range():
    with pytest.raises(ValueError):
        hvi.rgb_to_hsv_components(ad.constant(np.full((1, 3, 1, 1), 1.5)))


# -- polarized transform ------------------------------------------------------------

def test_polarized_black_is_exact_zero():
    img = hvi.to_polarized_hvi(rgb_image((0, 0, 0)), hvi.HviParams())
    assert img.h_polar.data.item() == 0.0
    assert img.v_polar.data.item() == 0.0
    assert img.i_polar.data.item() == 0.0


def test_polarized_pure_red():
    img = hvi.to_polarized_hvi(rgb_image((1, 0, 0)), hvi.HviParams())
    assert img.h_polar.data.item() == pytest.approx(1.0 + 1e-8, abs=1e-15)
    assert img.v_polar.data.item() == 0.0
    assert img.i_polar.data.item() == 1.0


def test_polarized_gray_kills_chroma():
    img = hvi.to_polarized_hvi(rgb_image((0.5, 0.5, 0.5)), hvi.HviParams())
    assert img.h_polar.data.item() == 0.0
    assert img.v_polar.data.item() == 0.0
    assert img.i_polar.data.item() == 0.5


def test_red_boundary_continuity():
    # hue just below 6 vs just above 0 at full saturation and intensity
    delta = 1e-3
    img = rgb_image(hue_to_rgb(6.0 - delta), hue_to_rgb(delta))
    out = hvi.to_polarized_hvi(img, hvi.HviParams())
    for plane in out.planes():
        gap = abs(plane.data[0, 0, 0, 0] - plane.data[0, 0, 0, 1])
        assert gap < 1e-2


def test_dark_region_fadeout():
    # all planes shrink continuously toward (0,0,0) as intensity drops
    params = hvi.HviParams()
    prev_mag = None
    for v in [0.2, 0.1, 0.05, 0.01, 0.001]:
        img = rgb_image(tuple(np.array(hue_to_rgb(0.7)) * v))
        out = hvi.to_polarized_hvi(img, params)
        mag = sum(abs(p.data.item()) for p in out.planes())
        # |h|+|v| <= sqrt(2)*k*sin(pi v/2) <= sqrt(2)*k*pi*v/2, plus i = v
        assert mag < (math.sqrt(2.0) * math.pi / 2.0 + 1.0) * v + 1e-6
        if prev_mag is not None:
            assert mag < prev_mag
        prev_mag = mag


def test_chroma_magnitude_invariant():
    # h^2 + v^2 <= (k+eps)^2 since S <= 1 and sin <= 1
    params = hvi.HviParams()
    for seed in range(5):
        img = ad.constant(nd.Rng(seed).uniform((1, 3, 5, 5)))
        out = hvi.to_polarized_hvi(img, params)
        mag2 = out.h_polar.data**2 + out.v_polar.data**2
        k = params.k.data.item()
        assert mag2.max() <= (k + hvi.COLLAPSE_EPS) ** 2 + 1e-12
        assert out.i_polar.data.min() >= 0.0 and out.i_polar.data.max() <= 1.0


# -- color loss -----------------------------------------------------------------------

def test_color_loss_identical_zero():
    img = ad.constant(nd.Rng(1).uniform((2, 3, 4, 4)))
    assert hvi.polarized_color_loss(img, img, hvi.HviParams()).item() == 0.0


def test_color_loss_black_vs_red():
    loss = hvi.polarized_color_loss(rgb_image((0, 0, 0)), rgb_image((1, 0, 0)), hvi.HviParams())
    assert loss.item() == pytest.approx(2.0 + 1e-8, abs=1e-12)


def test_color_loss_symmetric():
    a = ad.constant(nd.Rng(2).uniform((1, 3, 4, 4)))
    b = ad.constant(nd.Rng(3).uniform((1, 3, 4, 4)))
    p = hvi.HviParams()
    assert hvi.polarized_color_loss(a, b, p).item() == pytest.approx(
        hvi.polarized_color_loss(b, a, p).item(), rel=1e-12)


def test_color_loss_shape_mismatch():
    with pytest.raises(ValueError):
        hvi.polarized_color_loss(ad.constant(np.zeros((1, 3, 2, 2))),
                                 ad.constant(np.zeros((1, 3, 4, 4))), hvi.HviParams())


def _safe_rgb_param(seed, shape, name):
    """RGB values in (0,1) with channel gaps > 1e-3 so finite differences do
    not cross argmax ties or L1 kinks."""
    rng = nd.Rng(seed)
    base = rng.uniform(shape, 0.05, 0.95)
    # spread channels apart deterministically
    offsets = np.array([0.0, 0.017, 0.034]).reshape(1, 3, 1, 1)
    vals = np.clip(base * 0.8 + offsets, 0.0, 1.0)
    return ad.Param(vals, name)


def test_color_loss_gradient_fd():
    for seed in range(5):
        pred = _safe_rgb_param(seed, (1, 3, 3, 3), "pred")
        gt = ad.constant(nd.Rng(200 + seed).uniform((1, 3, 3, 3), 0.1, 0.9))
        params = hvi.HviParams()

        def f():
            return hvi.polarized_color_loss(pred, gt, params)

        report = ad.fd_check(f, [pred, params.k])
        assert report.passed, report.summary()


def test_params_clamp_bounds():
    p = hvi.HviParams()
    p.k.data[...] = 9.0
    p.k.apply_bounds()
    assert p.k.data.item() == 5.0
    p.k.data[...] = 0.0
    p.k.apply_bounds()
    assert p.k.data.item() == 0.1
