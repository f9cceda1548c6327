import numpy as np
import pytest
import scipy.linalg

from restorect import ndtensor as nd


# -- mean_std ---------------------------------------------------------------

def test_mean_std_hand_computed():
    mu, sd = nd.mean_std(np.array([1.0, 2.0, 3.0, 4.0]))
    assert mu == pytest.approx(2.5, abs=0)
    # population std of [1,2,3,4] is sqrt(1.25)
    assert sd == pytest.approx(1.118033988749895, abs=1e-15)


def test_mean_std_constant_and_symmetric():
    mu, sd = nd.mean_std(np.full((3, 5), 7.25))
    assert mu == pytest.approx(7.25) and sd == 0.0
    mu, sd = nd.mean_std(np.array([-1.0, 1.0]))
    assert mu == 0.0 and sd == 1.0


def test_mean_std_axis_subset():
    x = np.arange(24.0).reshape(2, 3, 4)
    mu, sd = nd.mean_std(x, axes=(0, 2))
    assert mu.shape == (3,)
    np.testing.assert_allclose(mu, x.mean(axis=(0, 2)))
    np.testing.assert_allclose(sd, x.std(axis=(0, 2)))  # numpy default is population


def test_mean_std_empty_axis_errors():
    with pytest.raises(ValueError):
        nd.mean_std(np.zeros((0, 3)), axes=(0,))


# -- percentile_abs -----------------------------------------------------------

def test_percentile_abs_examples():
    assert nd.percentile_abs(np.array([1.0, -2.0, 3.0, -4.0]), 0.95) == 4.0
    assert nd.percentile_abs(np.array([5.0]), 0.31) == 5.0
    assert nd.percentile_abs(np.zeros(3), 0.5) == 0.0
    # a 2-d input gives one nearest-rank value per row
    rows = nd.percentile_abs(np.array([[1.0, -2.0, 3.0, -4.0], [0.5, 0.0, -0.25, 0.0]]), 0.5)
    np.testing.assert_array_equal(rows, [2.0, 0.0])


def test_percentile_abs_nearest_rank_count():
    x = np.arange(1.0, 101.0)
    tau = nd.percentile_abs(x, 0.95)
    assert tau == 95.0


def test_percentile_abs_domain_errors():
    with pytest.raises(ValueError):
        nd.percentile_abs(np.ones(3), 0.0)
    with pytest.raises(ValueError):
        nd.percentile_abs(np.ones(3), 1.2)


# -- pixel_unshuffle -----------------------------------------------------------

def test_pixel_unshuffle_is_permutation():
    x = nd.Rng(2).normal((1, 2, 4, 4))
    y = nd.pixel_unshuffle(x, 2)
    assert y.sum() == pytest.approx(x.sum(), rel=1e-12)
    np.testing.assert_array_equal(np.sort(y.ravel()), np.sort(x.ravel()))


def test_pixel_unshuffle_divisibility_error():
    with pytest.raises(ValueError):
        nd.pixel_unshuffle(np.zeros((1, 1, 6, 6)), 4)


# -- Gaussian Frechet distance ---------------------------------------------------

def test_frechet_matches_scipy_sqrtm_oracle():
    for seed in range(5):
        rng = nd.Rng(seed)
        a = rng.normal((4, 4))
        b = rng.normal((4, 4))
        cov1 = a @ a.T + 0.1 * np.eye(4)
        cov2 = b @ b.T + 0.1 * np.eye(4)
        mu1 = rng.normal((4,))
        mu2 = rng.normal((4,))
        expected = float(
            ((mu1 - mu2) ** 2).sum()
            + np.trace(cov1 + cov2 - 2.0 * np.real(scipy.linalg.sqrtm(cov1 @ cov2)))
        )
        got = nd.gaussian_frechet_distance(mu1, cov1, mu2, cov2)
        assert got == pytest.approx(expected, rel=1e-8, abs=1e-8)


def test_frechet_dimension_mismatch():
    with pytest.raises(ValueError):
        nd.gaussian_frechet_distance([0.0], np.eye(1), [0.0, 0.0], np.eye(2))


def test_frechet_rejects_asymmetric_cov():
    cov = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        nd.gaussian_frechet_distance([0.0, 0.0], cov, [0.0, 0.0], np.eye(2))


# -- Rng -------------------------------------------------------------------------

def test_rng_derived_streams_are_stable_and_independent():
    a1 = nd.Rng(42).derive("stream-a").normal((2,))
    np.testing.assert_array_equal(a1, np.array([-0.3284814454313035, 1.425093926421862]))
    b = nd.Rng(42).derive("stream-b").normal((2,))
    assert not np.array_equal(a1, b)
    # derivation does not depend on draw order from the parent
    parent = nd.Rng(42)
    parent.normal((10,))
    np.testing.assert_array_equal(parent.derive("stream-a").normal((2,)), a1)


def test_rng_same_seed_same_stream():
    r1, r2 = nd.Rng(123), nd.Rng(123)
    for _ in range(3):
        np.testing.assert_array_equal(r1.normal((7,)), r2.normal((7,)))


# -- finiteness guard and dump format -----------------------------------------------

def test_as_tensor_rejects_nonfinite():
    with pytest.raises(FloatingPointError):
        nd.as_tensor([1.0, float("nan")])
    with pytest.raises(FloatingPointError):
        nd.as_tensor([1.0, float("inf")])


def test_tensor_dump_roundtrip(tmp_path):
    x = nd.Rng(9).normal((2, 3, 4))
    path = tmp_path / "t.bin"
    nd.save_tensor(path, x)
    np.testing.assert_array_equal(nd.load_tensor(path), x)


def test_tensor_dump_layout():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    blob = nd.tensor_to_bytes(x)
    # u32 rank, u64 dims, f64 data, all little-endian
    assert blob[:4] == (2).to_bytes(4, "little")
    assert blob[4:12] == (2).to_bytes(8, "little")
    assert blob[12:20] == (2).to_bytes(8, "little")
    vals = np.frombuffer(blob[20:], dtype="<f8")
    np.testing.assert_array_equal(vals, [1.0, 2.0, 3.0, 4.0])


def test_tensor_dump_truncation_error():
    x = np.ones((2, 2))
    blob = nd.tensor_to_bytes(x)
    with pytest.raises(ValueError):
        nd.tensor_from_bytes(blob[:-3])


# -- BLAS thread pin ------------------------------------------------------------------

def test_missing_blas_thread_setter_warns_instead_of_passing_silently(monkeypatch):
    monkeypatch.setattr(nd.glob, "glob", lambda pattern: [])
    with pytest.warns(RuntimeWarning, match="BLAS thread count"):
        assert nd._pin_blas_threads() is None


def test_write_csv_writes_floats_by_repr_with_newline_line_ends(tmp_path):
    path = tmp_path / "t.csv"
    nd.write_csv(path, ["i", "x", "s"], [[1, np.float64(0.1) * 3, "rf"], [2, 1e-300, "ddim"]])
    assert path.read_bytes() == b"i,x,s\n1,0.30000000000000004,rf\n2,1e-300,ddim\n"
