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


def oracle_laplacian(img: np.ndarray) -> np.ndarray:
    """Independent 5-point Laplacian with zero-flux (Neumann) boundary."""
    h, w = img.shape
    out = np.zeros_like(img)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < h and 0 <= jj < w:
                    acc += img[ii, jj] - img[i, j]
            out[i, j] = acc
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
    out = ani.anisotropic_operator(ad.constant(np.full((1, 2, 5, 5), 0.7)), ani.DiffusionParams())
    np.testing.assert_array_equal(out.data, 0.0)


def test_operator_matches_stencil_oracle():
    params = ani.DiffusionParams()  # s = 0.1
    impulse = np.zeros((6, 6))
    impulse[3, 3] = 1.0
    cases = [impulse] + [nd.Rng(seed).normal((6, 6)) * 0.2 for seed in range(4)]
    for img in cases:
        got = ani.anisotropic_operator(ad.constant(img[None, None]), params).data[0, 0]
        np.testing.assert_allclose(got, oracle_operator(img, 0.1), atol=1e-12)


def test_operator_laplacian_limit():
    # tiny amplitudes and s=1: conductance ~ 1, operator ~ Laplacian within 1%
    params = ani.DiffusionParams(s=ad.Param(1.0, "s", lo=0.01, hi=1.0))
    img = nd.Rng(5).normal((8, 8)) * 1e-3
    got = ani.anisotropic_operator(ad.constant(img[None, None]), params).data[0, 0]
    lap = oracle_laplacian(img)
    assert np.linalg.norm(got - lap) / np.linalg.norm(lap) < 0.01


def test_operator_zero_flux_sum():
    params = ani.DiffusionParams()
    for seed in range(5):
        img = nd.Rng(seed).normal((1, 3, 7, 7))
        out = ani.anisotropic_operator(ad.constant(img), params).data
        assert abs(out.sum()) < 1e-8 * out.size


def test_operator_intensity_translation_invariant():
    params = ani.DiffusionParams()
    img = nd.Rng(7).normal((1, 1, 6, 6))
    a = ani.anisotropic_operator(ad.constant(img), params).data
    b = ani.anisotropic_operator(ad.constant(img + 5.0), params).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_operator_gradient_fd():
    for seed in range(5):
        x = ad.Param(nd.Rng(seed).normal((1, 1, 4, 4)) * 0.3, "x")
        params = ani.DiffusionParams()
        probe = ad.constant(nd.Rng(100 + seed).normal((1, 1, 4, 4)))

        def f():
            return ad.mean(ani.anisotropic_operator(x, params) * probe)

        report = ad.fd_check(f, [x, params.s])
        assert report.passed, report.summary()


# -- texture loss -------------------------------------------------------------------

def test_texture_loss_identical_and_constant_shift():
    params = ani.DiffusionParams()
    img = ad.constant(nd.Rng(1).uniform((1, 3, 6, 6)))
    assert ani.texture_loss(img, img, params).item() == 0.0
    shifted = ad.constant(img.data + 0.25)
    assert ani.texture_loss(img, shifted, params).item() == pytest.approx(0.0, abs=1e-12)


def test_texture_loss_matches_two_call_oracle():
    params = ani.DiffusionParams()
    a = ad.constant(nd.Rng(2).uniform((1, 3, 5, 5)))
    b = ad.constant(nd.Rng(3).uniform((1, 3, 5, 5)))
    expected = np.abs(ani.anisotropic_operator(a, params).data
                      - ani.anisotropic_operator(b, params).data).mean()
    assert ani.texture_loss(a, b, params).item() == pytest.approx(expected, rel=1e-12)


def test_texture_loss_shape_mismatch():
    with pytest.raises(ValueError):
        ani.texture_loss(ad.constant(np.zeros((1, 3, 4, 4))),
                         ad.constant(np.zeros((1, 3, 5, 5))), ani.DiffusionParams())


def test_texture_loss_sensitivity_gets_gradient():
    params = ani.DiffusionParams()
    a = ad.constant(nd.Rng(4).uniform((1, 1, 5, 5)))
    b = ad.constant(nd.Rng(5).uniform((1, 1, 5, 5)))

    def f():
        return ani.texture_loss(a, b, params)

    report = ad.fd_check(f, [params.s])
    assert report.passed, report.summary()
    params.s.zero_grad()
    f().backward()
    assert abs(params.s.grad.item()) > 0.0


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
    p = ani.DiffusionParams()
    p.s.data[...] = 3.0
    p.s.apply_bounds()
    assert p.s.data.item() == 1.0
    p.s.data[...] = 0.0
    p.s.apply_bounds()
    assert p.s.data.item() == 0.01
