import numpy as np
import pytest

from restorect import aniso_diffusion as ani
from restorect import autodiff as ad
from restorect import ndtensor as nd


def oracle_operator(img: np.ndarray, s: float) -> np.ndarray:
    """Stencil-by-stencil reference: forward-difference gradient with zero
    last row/col, conductance exp(-|g|^2/s^2), backward-difference divergence."""
    h, w = img.shape
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    gx[:, :-1] = img[:, 1:] - img[:, :-1]
    gy[:-1, :] = img[1:, :] - img[:-1, :]
    c = np.exp(-(gx**2 + gy**2) / s**2)
    px, py = c * gx, c * gy
    out = np.zeros_like(img)
    for i in range(h):
        for j in range(w):
            dx = (px[i, j] if j < w - 1 else 0.0) - (px[i, j - 1] if j >= 1 else 0.0)
            dy = (py[i, j] if i < h - 1 else 0.0) - (py[i - 1, j] if i >= 1 else 0.0)
            out[i, j] = dx + dy
    return out


# -- spatial gradients ------------------------------------------------------------

def test_gradients_constant_image():
    gx, gy = ani.spatial_gradients(ad.constant(np.full((1, 1, 4, 5), 3.3)))
    np.testing.assert_array_equal(gx.data, 0.0)
    np.testing.assert_array_equal(gy.data, 0.0)


def test_gradients_horizontal_ramp():
    x = np.tile(np.arange(6.0), (1, 1, 4, 1))
    gx, gy = ani.spatial_gradients(ad.constant(x))
    np.testing.assert_array_equal(gx.data[..., :-1], 1.0)
    np.testing.assert_array_equal(gx.data[..., -1], 0.0)
    np.testing.assert_array_equal(gy.data, 0.0)


def test_gradients_linear():
    a = nd.Rng(0).normal((1, 2, 5, 5))
    b = nd.Rng(1).normal((1, 2, 5, 5))
    gxa, gya = ani.spatial_gradients(ad.constant(a))
    gxb, gyb = ani.spatial_gradients(ad.constant(b))
    gxs, gys = ani.spatial_gradients(ad.constant(a + b))
    np.testing.assert_allclose(gxs.data, gxa.data + gxb.data, atol=1e-12)
    np.testing.assert_allclose(gys.data, gya.data + gyb.data, atol=1e-12)


def test_gradients_tiny_image_errors():
    with pytest.raises(ValueError):
        ani.spatial_gradients(ad.constant(np.zeros((1, 1, 1, 5))))


# -- anisotropic operator -----------------------------------------------------------

def test_operator_constant_zero():
    out = ani.anisotropic_operator(ad.constant(np.full((1, 2, 5, 5), 0.7)), ani.edge_sensitivity())
    np.testing.assert_array_equal(out.data, 0.0)


def test_operator_matches_stencil_oracle():
    s = ani.edge_sensitivity()  # s = 0.1
    impulse = np.zeros((6, 6))
    impulse[3, 3] = 1.0
    cases = [impulse] + [nd.Rng(seed).normal((6, 6)) * 0.2 for seed in range(4)]
    for img in cases:
        got = ani.anisotropic_operator(ad.constant(img[None, None]), s).data[0, 0]
        np.testing.assert_allclose(got, oracle_operator(img, 0.1), atol=1e-12)


# -- texture loss -------------------------------------------------------------------

def test_texture_loss_identical_and_constant_shift():
    s = ani.edge_sensitivity()
    img = ad.constant(nd.Rng(1).uniform((1, 3, 6, 6)))
    assert ani.texture_loss(img, img, s).item() == 0.0
    shifted = ad.constant(img.data + 0.25)
    assert ani.texture_loss(img, shifted, s).item() == pytest.approx(0.0, abs=1e-12)


def test_texture_loss_matches_two_call_oracle():
    s = ani.edge_sensitivity()
    a = ad.constant(nd.Rng(2).uniform((1, 3, 5, 5)))
    b = ad.constant(nd.Rng(3).uniform((1, 3, 5, 5)))
    expected = np.abs(ani.anisotropic_operator(a, s).data
                      - ani.anisotropic_operator(b, s).data).mean()
    assert ani.texture_loss(a, b, s).item() == pytest.approx(expected, rel=1e-12)


def test_texture_loss_shape_mismatch():
    with pytest.raises(ValueError):
        ani.texture_loss(ad.constant(np.zeros((1, 3, 4, 4))),
                         ad.constant(np.zeros((1, 3, 5, 5))), ani.edge_sensitivity())


def test_texture_loss_sensitivity_gets_gradient():
    s = ani.edge_sensitivity()
    a = ad.constant(nd.Rng(4).uniform((1, 1, 5, 5)))
    b = ad.constant(nd.Rng(5).uniform((1, 1, 5, 5)))
    ani.texture_loss(a, b, s).backward()
    assert abs(s.grad.item()) > 0.0


# -- illumination smoothness ------------------------------------------------------------

def test_illumination_constant_zero():
    loss = ani.illumination_smoothness_loss(ad.constant(np.full((1, 1, 5, 5), 0.4)))
    assert loss.item() == 0.0


def test_illumination_rejects_multichannel():
    with pytest.raises(ValueError):
        ani.illumination_smoothness_loss(ad.constant(np.zeros((1, 3, 5, 5))))


def test_illumination_edge_cheaper_than_ramp_per_energy():
    # same total rise; the sharp edge concentrates gradient where the weight
    # decays, so it costs less than expected from its raw gradient energy
    n = 8
    ramp = np.tile(np.linspace(0.0, 1.0, n), (n, 1))[None, None]
    edge = np.zeros((n, n))
    edge[:, n // 2:] = 1.0
    edge = edge[None, None]
    l_ramp = ani.illumination_smoothness_loss(ad.constant(ramp)).item()
    l_edge = ani.illumination_smoothness_loss(ad.constant(edge)).item()

    def raw_energy(img):
        gx, gy = ani.spatial_gradients(ad.constant(img))
        return (gx.data**2 + gy.data**2).mean()

    # weight < 1 strictly on the edge column; ratio of loss to raw energy is
    # smaller for the edge than for the shallow ramp
    assert l_edge / raw_energy(edge) < l_ramp / raw_energy(ramp)


def test_sensitivity_clamp():
    s = ani.edge_sensitivity()
    s.data[...] = 3.0
    s.apply_bounds()
    assert s.data.item() == 1.0
    s.data[...] = 0.0
    s.apply_bounds()
    assert s.data.item() == 0.01
