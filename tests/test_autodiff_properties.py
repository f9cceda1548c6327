"""Property tests of the reductions and transpose: over random shapes
(0-d included), single, negative and tuple axes and `keepdims`, the forward
equals numpy, the gradient passes `fd_check` at 1e-4, and axes numpy
rejects are rejected. Derandomized, so every run draws the same examples."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from restorect import autodiff as ad  # noqa: E402
from restorect import ndtensor as nd  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=4, min_side=1, max_side=3)
REDUCTIONS = {"sum": (ad.sum_, np.sum), "mean": (ad.mean, np.mean)}


def _values(shape, seed=0):
    return np.asarray(nd.Rng(seed).normal(shape))


def _axes(ndim):
    """None, one axis (either sign) or a tuple of distinct axes."""
    single = st.integers(-ndim, ndim - 1) if ndim else st.nothing()
    return st.one_of(st.none(), single, hnp.valid_tuple_axes(ndim))


def _bad_axis(ndim):
    return st.one_of(st.integers(ndim, ndim + 3), st.integers(-ndim - 3, -ndim - 1))


def _fd_passes(op, x_data):
    """fd_check of sum(op(x) * probe) for a fixed random probe."""
    x = ad.Param(x_data.copy(), "x")
    probe = ad.constant(_values(np.shape(op(ad.constant(x_data)).data), seed=1))
    report = ad.fd_check(lambda: ad.sum_(op(x) * probe), [x], tol=1e-4)
    assert report.passed, report.summary()


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
@PROPERTY
@given(data=st.data())
def test_reduction_matches_numpy_and_fd(name, data):
    ours, ref = REDUCTIONS[name]
    shape = data.draw(SHAPES, label="shape")
    axes = data.draw(_axes(len(shape)), label="axes")
    keepdims = data.draw(st.booleans(), label="keepdims")
    x = _values(shape)
    got = ours(ad.constant(x), axes=axes, keepdims=keepdims).data
    np.testing.assert_array_equal(got, ref(x, axis=axes, keepdims=keepdims))
    assert np.shape(got) == np.shape(ref(x, axis=axes, keepdims=keepdims))
    _fd_passes(lambda t: ours(t, axes=axes, keepdims=keepdims), x)


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
@PROPERTY
@given(data=st.data())
def test_reduction_rejects_axes_numpy_rejects(name, data):
    ours, _ = REDUCTIONS[name]
    shape = data.draw(SHAPES, label="shape")
    ndim = len(shape)
    bad = data.draw(_bad_axis(ndim), label="bad axis")
    axes = data.draw(st.sampled_from([bad, (bad,)] + ([(0, bad), (0, -ndim)] if ndim else [])),
                     label="axes")
    x = _values(shape)
    # numpy's AxisError is a ValueError. np.mean is the reference for both:
    # np.sum lets an int axis 0 or -1 through on a 0-d array (a ufunc legacy).
    with pytest.raises(ValueError):
        np.mean(x, axis=axes)
    with pytest.raises(ValueError, match="out of range or repeated"):
        ours(ad.constant(x), axes=axes)


@PROPERTY
@given(data=st.data())
def test_transpose_matches_numpy_and_fd(data):
    shape = data.draw(SHAPES, label="shape")
    ndim = len(shape)
    perm = data.draw(st.permutations(range(ndim)), label="perm")
    signs = data.draw(st.lists(st.booleans(), min_size=ndim, max_size=ndim), label="negative")
    axes = tuple(a - ndim if neg else a for a, neg in zip(perm, signs))
    x = _values(shape)
    np.testing.assert_array_equal(ad.transpose(ad.constant(x), axes).data, np.transpose(x, axes))
    _fd_passes(lambda t: ad.transpose(t, axes), x)


@PROPERTY
@given(data=st.data())
def test_transpose_rejects_axes_numpy_rejects(data):
    shape = data.draw(SHAPES.filter(lambda s: len(s) >= 1), label="shape")
    ndim = len(shape)
    axes = list(range(ndim))
    axes[data.draw(st.integers(0, ndim - 1), label="slot")] = data.draw(_bad_axis(ndim))
    x = _values(shape)
    with pytest.raises(ValueError):
        np.transpose(x, axes)
    with pytest.raises(ValueError):
        ad.transpose(ad.constant(x), axes)
