"""Property tests of the reductions, transpose, the broadcasting binary ops
and leaky_relu: over random shapes (0-d included), single, negative and
tuple axes, `keepdims`, broadcastable shape pairs, values up to 1e300 in
magnitude and slopes in [0, 1], the forward equals numpy (leaky_relu: its
former `np.where` form, bit for bit), the gradient passes `fd_check` at its
gate, axes numpy rejects are rejected, and `_unbroadcast` sums exactly the
broadcast axes. Derandomized, so every run draws the same examples."""

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


def _fd_passes(op, *inputs):
    """fd_check of sum(op(*xs) * probe) for a fixed random probe."""
    xs = [ad.Param(x.copy(), f"x{i}") for i, x in enumerate(inputs)]
    probe = ad.constant(_values(np.shape(op(*map(ad.constant, inputs)).data), seed=1))
    report = ad.fd_check(lambda: ad.sum_(op(*xs) * probe), xs)
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


# -- broadcasting binary ops ------------------------------------------------------

BINARY = {"add": (ad.add, np.add), "sub": (ad.sub, np.subtract),
          "mul": (ad.mul, np.multiply), "div": (ad.div, np.divide)}
PAIRS = hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3,
                                          min_side=1, max_side=3)


def _away_from_zero(shape):
    """Values with magnitude in [0.5, 1.5], so a denominator stays off 0."""
    rng = nd.Rng(2)
    return rng.uniform(shape, 0.5, 1.5) * np.where(rng.uniform(shape) < 0.5, -1.0, 1.0)


@pytest.mark.parametrize("name", sorted(BINARY))
@PROPERTY
@given(pair=PAIRS)
def test_binary_op_broadcasts_like_numpy_and_fd(name, pair):
    ours, ref = BINARY[name]
    a_shape, b_shape = pair.input_shapes
    a, b = _values(a_shape), _away_from_zero(b_shape)
    got = ours(ad.constant(a), ad.constant(b)).data
    assert got.shape == pair.result_shape
    np.testing.assert_array_equal(got, ref(a, b))
    _fd_passes(ours, a, b)


@PROPERTY
@given(pair=PAIRS)
def test_unbroadcast_sums_the_broadcast_axes(pair):
    # integer-valued gradients sum exactly in any order, so the two agree bit for bit
    grad = np.asarray(nd.Rng(3).integers(-5, 6, pair.result_shape), dtype=np.float64)
    for shape in pair.input_shapes:
        lead = grad.ndim - len(shape)
        axes = tuple(range(lead)) + tuple(lead + i for i, s in enumerate(shape)
                                          if s == 1 and grad.shape[lead + i] != 1)
        got = ad._unbroadcast(grad, shape)
        assert got.shape == shape
        np.testing.assert_array_equal(got, grad.sum(axis=axes).reshape(shape))


# -- leaky_relu -------------------------------------------------------------------

# +-0.0 and subnormals included; bounded so that the probed sum stays finite
FINITE = st.floats(-1e300, 1e300)


@PROPERTY
@given(x=hnp.arrays(np.float64, SHAPES, elements=FINITE), slope=st.floats(0.0, 1.0))
def test_leaky_relu_matches_the_where_form_bit_for_bit(x, slope):
    # the reference is leaky_relu as written with np.where before the max form
    xp = ad.Param(x.copy(), "x")
    g = _values(x.shape, seed=4)
    y = ad.leaky_relu(xp, slope)
    ad.sum_(y * ad.constant(g)).backward()
    assert y.data.tobytes() == np.where(x > 0.0, x, slope * x).tobytes()
    assert xp.grad.tobytes() == (g * np.where(x > 0.0, 1.0, slope) + 0.0).tobytes()


@PROPERTY
@given(shape=SHAPES, slope=st.floats(0.0, 1.0))
def test_leaky_relu_gradient_passes_fd(shape, slope):
    _fd_passes(lambda t: ad.leaky_relu(t, slope), _away_from_zero(shape))
