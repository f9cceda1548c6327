"""Property tests of the reductions, transpose, the broadcasting binary ops,
leaky_relu and conv2d_3x3: over random shapes (0-d included), single,
negative and tuple axes, `keepdims`, broadcastable shape pairs, values up to
1e300 in magnitude and slopes in [0, 1], the forward equals numpy (leaky_relu:
its former `np.where` form, conv2d_3x3: its former `np.pad` form, both bit for
bit), the gradient passes `fd_check` at its gate, axes and shapes numpy or the
op rejects are rejected, and `_unbroadcast` sums exactly the broadcast axes.
Derandomized, so every run draws the same examples."""

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


# -- conv2d_3x3 ---------------------------------------------------------------------

# every shape `restorect check` convolves, then the harness's student and teacher shapes
CONV_SHAPES = [
    ((1, 32, 6, 6), (32, 32, 3, 3)), ((2, 3, 4, 4), (2, 3, 3, 3)), ((1, 3, 4, 4), (8, 3, 3, 3)),
    ((1, 32, 2, 2), (12, 32, 3, 3)), ((1, 48, 1, 1), (16, 48, 3, 3)),
    ((1, 3, 6, 6), (32, 3, 3, 3)), ((1, 32, 6, 6), (4, 32, 3, 3)),
    ((8, 3, 16, 16), (16, 3, 3, 3)), ((8, 16, 16, 16), (3, 16, 3, 3)),
    ((64, 24, 8, 8), (32, 24, 3, 3)), ((64, 32, 8, 8), (32, 32, 3, 3)),
]


def _padded_windows(x, pad):
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))


def _conv_reference(x, w, g):
    """The forward, dx and dw of conv2d_3x3 in the form it had before its
    contraction path was fixed: np.pad, sliding windows, einsum's own search."""
    win = _padded_windows(x, 1)
    out = np.einsum("bihwkl,oikl->bohw", win, w, optimize=True)
    dx = np.einsum("bohwkl,oikl->bihw", _padded_windows(g, 2), w[:, :, ::-1, ::-1],
                   optimize=True)[:, :, 1:-1, 1:-1]
    return out, dx, np.einsum("bohw,bihwkl->oikl", g, win, optimize=True)


@pytest.mark.parametrize("x_shape, w_shape", CONV_SHAPES, ids=str)
def test_conv_is_bit_equal_to_the_pad_form(x_shape, w_shape, monkeypatch):
    """Values and layouts both: BLAS bits downstream depend on the layout."""
    x, w = ad.Param(_values(x_shape), "x"), ad.Param(_values(w_shape, seed=1), "w")
    y = ad.conv2d_3x3(x, w)
    y.accum_grad(_values(y.shape, seed=2))  # the upstream gradient, laid out like y
    raw = {}
    monkeypatch.setattr(ad.Tensor, "accum_grad", lambda node, g: raw.setdefault(node.name, g))
    y._backward()
    for got, ref in zip((y.data, raw["x"], raw["w"]), _conv_reference(x.data, w.data, y.grad)):
        assert got.tobytes() == ref.tobytes() and got.strides == ref.strides


@PROPERTY
@given(b=st.integers(1, 2), cin=st.integers(1, 3), cout=st.integers(1, 3),
       h=st.integers(1, 5), w=st.integers(1, 5))
def test_conv_gradient_passes_fd(b, cin, cout, h, w):
    _fd_passes(ad.conv2d_3x3, _values((b, cin, h, w)), _values((cout, cin, 3, 3), seed=1))


@pytest.mark.parametrize("x_shape, w_shape", [
    ((1, 3, 4), (2, 3, 3, 3)), ((1, 3, 4, 4, 1), (2, 3, 3, 3)), ((1, 3, 4, 4), (2, 3, 3)),
    ((1, 3, 4, 4), (2, 3, 3, 2)), ((1, 3, 4, 4), (2, 3, 5, 5)), ((1, 3, 4, 4), (2, 2, 3, 3)),
    ((1, 3, 0, 4), (2, 3, 3, 3)), ((1, 3, 4, 0), (2, 3, 3, 3)),
], ids=str)
def test_conv_rejects_shapes_without_a_3x3_correlation(x_shape, w_shape):
    # an empty image has no window: the np.pad form rejected it as well
    with pytest.raises(ValueError, match="conv2d_3x3"):
        ad.conv2d_3x3(ad.constant(np.zeros(x_shape)), ad.constant(np.zeros(w_shape)))
