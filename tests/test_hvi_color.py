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

def test_hue_rgb_has_period_6_for_negative_hues_too():
    # hues between the integers, where the sector index decides the color
    for h in (n + frac for n in range(-12, 12) for frac in (0.25, 0.5, 0.75)):
        for k in (-2, -1, 1, 2):
            assert hvi.hue_rgb(h + 6 * k) == hvi.hue_rgb(h), (h, k)
    assert hvi.hue_rgb(-0.5) == hvi.hue_rgb(5.5) == (1.0, 0.0, 0.5)


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

def test_polarized_pure_red():
    img = hvi.to_polarized_hvi(rgb_image((1, 0, 0)), hvi.chroma_density())
    assert img.h_polar.data.item() == pytest.approx(1.0 + 1e-8, abs=1e-15)
    assert img.v_polar.data.item() == 0.0
    assert img.i_polar.data.item() == 1.0


def test_polarized_gray_kills_chroma():
    img = hvi.to_polarized_hvi(rgb_image((0.5, 0.5, 0.5)), hvi.chroma_density())
    assert img.h_polar.data.item() == 0.0
    assert img.v_polar.data.item() == 0.0
    assert img.i_polar.data.item() == 0.5


def test_chroma_magnitude_invariant():
    # h^2 + v^2 <= (k+eps)^2 since S <= 1 and sin <= 1
    k = hvi.chroma_density()
    for seed in range(5):
        img = ad.constant(nd.Rng(seed).uniform((1, 3, 5, 5)))
        out = hvi.to_polarized_hvi(img, k)
        mag2 = out.h_polar.data**2 + out.v_polar.data**2
        k_val = k.data.item()
        assert mag2.max() <= (k_val + hvi.COLLAPSE_EPS) ** 2 + 1e-12
        assert out.i_polar.data.min() >= 0.0 and out.i_polar.data.max() <= 1.0


# -- color loss -----------------------------------------------------------------------

def test_color_loss_identical_zero():
    img = ad.constant(nd.Rng(1).uniform((2, 3, 4, 4)))
    assert hvi.polarized_color_loss(img, img, hvi.chroma_density()).item() == 0.0


def test_color_loss_black_vs_red():
    loss = hvi.polarized_color_loss(rgb_image((0, 0, 0)), rgb_image((1, 0, 0)), hvi.chroma_density())
    assert loss.item() == pytest.approx(2.0 + 1e-8, abs=1e-12)


def test_color_loss_symmetric():
    a = ad.constant(nd.Rng(2).uniform((1, 3, 4, 4)))
    b = ad.constant(nd.Rng(3).uniform((1, 3, 4, 4)))
    k = hvi.chroma_density()
    assert hvi.polarized_color_loss(a, b, k).item() == pytest.approx(
        hvi.polarized_color_loss(b, a, k).item(), rel=1e-12)


def test_color_loss_shape_mismatch():
    with pytest.raises(ValueError):
        hvi.polarized_color_loss(ad.constant(np.zeros((1, 3, 2, 2))),
                                 ad.constant(np.zeros((1, 3, 4, 4))), hvi.chroma_density())


def test_params_clamp_bounds():
    k = hvi.chroma_density()
    k.data[...] = 9.0
    k.apply_bounds()
    assert k.data.item() == 5.0
    k.data[...] = 0.0
    k.apply_bounds()
    assert k.data.item() == 0.1
