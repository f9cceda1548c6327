import ast
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.signal

from restorect import autodiff as ad
from restorect import ndtensor as nd


def rand_param(seed, shape, name="p", lo_mag=0.2, hi_mag=1.5):
    """Random values bounded away from 0 so kinked ops (relu, abs, clamp)
    are finite-difference friendly."""
    rng = nd.Rng(seed)
    mag = rng.uniform(shape, lo_mag, hi_mag)
    sign = np.where(rng.uniform(shape) < 0.5, -1.0, 1.0)
    return ad.Param(mag * sign, name)


# -- elementary gradients -------------------------------------------------------

def test_relu_gradient_inactive_region():
    x = ad.Param(np.array([-1.0]), "x")
    y = ad.relu(x).sum()
    y.backward()
    assert x.grad.item() == 0.0


def test_exp_gradient_at_zero():
    x = ad.Param(np.array([0.0]), "x")
    ad.exp(x).sum().backward()
    assert x.grad.item() == 1.0


def test_leaky_relu_negative_branch_at_zero():
    x = ad.Param(np.array([0.0]), "x")
    ad.leaky_relu(x, 0.1).sum().backward()
    assert x.grad.item() == 0.1


def test_backward_requires_scalar():
    x = ad.Param(np.ones(3), "x")
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_gradient_accumulates_over_reuse():
    x = ad.Param(np.array([3.0]), "x")
    y = x * x + x / ad.constant(np.array([2.0]))
    y.sum().backward()
    assert x.grad.item() == pytest.approx(6.5)


def test_gradient_linearity():
    # grad of a sum of losses equals the sum of the individual gradients
    x = rand_param(11, (4, 3))

    def l1():
        return ad.mean(x * x)

    def l2():
        return ad.sum_(ad.exp(x * 0.3))

    x.zero_grad()
    l1().backward()
    g1 = x.grad.copy()
    x.zero_grad()
    l2().backward()
    g2 = x.grad.copy()
    x.zero_grad()
    (l1() + l2()).backward()
    np.testing.assert_allclose(x.grad, g1 + g2, rtol=1e-12)


# -- finite-difference checks for every op ------------------------------------------

def fd_ok(f, params, max_entries=None):
    report = ad.fd_check(f, params, max_entries=max_entries)
    assert report.passed, report.summary()


OP_CASES = {
    "add": lambda a, b: (a + b),
    "sub": lambda a, b: (a - b),
    "mul": lambda a, b: (a * b),
    "div": lambda a, b: (a / b),
    "abs": lambda a, b: ad.abs_(a * 0.7 + b * 0.1),
    "relu": lambda a, b: ad.relu(a) + ad.relu(b),
    "leaky_relu": lambda a, b: ad.leaky_relu(a, 0.1) * ad.leaky_relu(b, 0.3),
    "exp": lambda a, b: ad.exp(a * 0.5) + ad.exp(b * 0.2),
    "sin": lambda a, b: ad.sin(a) * ad.sin(b),
    "cos": lambda a, b: ad.cos(a) + ad.cos(b * 2.0),
    "clamp": lambda a, b: ad.clamp(a, -1.0, 1.0) + ad.clamp(b, -0.8, 0.9),
    "concat": lambda a, b: ad.concat([a, b], axis=0) * 1.5,
    "slice": lambda a, b: a[1:, :] * 2.0 + b[:1, 1:],
    "reshape": lambda a, b: ad.reshape(a, (-1,)) + ad.reshape(b, (-1,)),
    "transpose": lambda a, b: ad.transpose(a, (1, 0)) * ad.transpose(b, (1, 0)),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_fd_elementwise_ops(name):
    op = OP_CASES[name]
    for seed in range(10):
        a = rand_param(seed, (3, 2), "a")
        b = rand_param(100 + seed, (3, 2), "b")
        fd_ok(lambda: ad.mean(op(a, b) * op(a, b)), [a, b])


def test_transpose_negative_axes_gradient_matches_positive_axes():
    probe = nd.Rng(1).normal((4, 2, 3))
    grads = []
    for axes in ((-1, 0, 1), (2, 0, 1)):
        x = ad.Param(nd.Rng(0).normal((2, 3, 4)), "x")
        ad.sum_(ad.transpose(x, axes) * probe).backward()
        grads.append(x.grad)
    assert grads[0].tobytes() == grads[1].tobytes()


@pytest.mark.parametrize("reduce", [ad.sum_, ad.mean])
@pytest.mark.parametrize("axes", [5, -4, (0, 5), (0, -3)])
def test_reductions_reject_axes_numpy_rejects(reduce, axes):
    x = np.ones((2, 3, 4))
    with pytest.raises(ValueError):  # out of range, or axis 0 named twice
        np.sum(x, axis=axes)
    with pytest.raises(ValueError, match="out of range or repeated"):
        reduce(ad.constant(x), axes=axes)


def test_fd_sqrt_and_power():
    for seed in range(10):
        rng = nd.Rng(seed)
        a = ad.Param(rng.uniform((3, 2), 0.3, 2.0), "a")
        fd_ok(lambda: ad.sum_(ad.sqrt(a)), [a])
        fd_ok(lambda: ad.mean(ad.power(a, 1.7)), [a])
        fd_ok(lambda: ad.mean(ad.power(a, -0.5)), [a])


def test_fd_reductions():
    for seed in range(10):
        a = rand_param(seed, (2, 3, 2), "a")
        fd_ok(lambda: ad.sum_(ad.mean(a, axes=(0, 2)) * ad.mean(a, axes=(0, 2))), [a])
        fd_ok(lambda: ad.mean(ad.sum_(a, axes=1, keepdims=True) * 0.3), [a])


def test_fd_matmul():
    for seed in range(10):
        a = rand_param(seed, (3, 4), "a")
        b = rand_param(50 + seed, (4, 2), "b")
        fd_ok(lambda: ad.mean(ad.matmul(a, b) * ad.matmul(a, b)), [a, b])


def test_fd_matmul_batched():
    for seed in range(5):
        a = rand_param(seed, (2, 2, 3, 2), "a")
        b = rand_param(30 + seed, (2, 2, 2, 3), "b")
        fd_ok(lambda: ad.mean(ad.matmul(a, b)), [a, b])


def test_fd_softmax_layernorm_l2norm():
    for seed in range(10):
        a = rand_param(seed, (3, 5), "a")
        fd_ok(lambda: ad.mean(ad.softmax(a, axis=-1) * ad.constant(nd.Rng(seed).normal((3, 5)))), [a])
        fd_ok(lambda: ad.mean(ad.layer_norm(a, axis=-1) * ad.constant(nd.Rng(seed + 1).normal((3, 5)))), [a])
        fd_ok(lambda: ad.mean(ad.l2_normalize(a, axis=-1) * ad.constant(nd.Rng(seed + 2).normal((3, 5)))), [a])


def test_fd_conv2d():
    for seed in range(5):
        x = rand_param(seed, (2, 3, 4, 4), "x")
        w = rand_param(70 + seed, (2, 3, 3, 3), "w")
        fd_ok(lambda: ad.mean(ad.conv2d_3x3(x, w) * ad.conv2d_3x3(x, w)), [x, w], max_entries=40)


# -- op semantics ---------------------------------------------------------------------

def test_conv_impulse_reproduces_kernel():
    x = np.zeros((1, 1, 5, 5))
    x[0, 0, 2, 2] = 1.0
    w = np.arange(9.0).reshape(1, 1, 3, 3) + 1.0
    out = ad.conv2d_3x3(ad.constant(x), ad.constant(w)).data
    # cross-correlation of an impulse yields the flipped kernel footprint
    np.testing.assert_array_equal(out[0, 0, 1:4, 1:4], w[0, 0, ::-1, ::-1])


def test_conv_matches_scipy_oracle():
    for seed in range(5):
        rng = nd.Rng(seed)
        x = rng.normal((1, 2, 6, 6))
        w = rng.normal((3, 2, 3, 3))
        out = ad.conv2d_3x3(ad.constant(x), ad.constant(w)).data
        for o in range(3):
            expected = np.zeros((6, 6))
            for i in range(2):
                expected += scipy.signal.correlate2d(x[0, i], w[o, i], mode="same")
            np.testing.assert_allclose(out[0, o], expected, atol=1e-12)


def test_conv_shape_errors():
    with pytest.raises(ValueError):
        ad.conv2d_3x3(ad.constant(np.zeros((1, 2, 4, 4))), ad.constant(np.zeros((1, 3, 3, 3))))


def test_softmax_rows_sum_to_one():
    for seed in range(5):
        x = ad.constant(nd.Rng(seed).normal((4, 7)) * 3.0)
        y = ad.softmax(x, axis=-1).data
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-10)


def test_layer_norm_zero_mean():
    for seed in range(5):
        x = ad.constant(nd.Rng(seed).normal((4, 9)))
        y = ad.layer_norm(x, axis=-1).data
        assert np.abs(y.mean(axis=-1)).max() < 1e-10


def test_l2_normalize_zero_vector_stays_finite():
    x = ad.Param(np.zeros((1, 4)), "x")
    y = ad.l2_normalize(x, axis=-1)
    np.testing.assert_array_equal(y.data, 0.0)
    ad.sum_(y).backward()
    assert np.all(np.isfinite(x.grad))


def test_clamp_zero_gradient_outside():
    x = ad.Param(np.array([-2.0, 0.5, 3.0]), "x")
    ad.sum_(ad.clamp(x, -1.0, 1.0)).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_nonfinite_op_output_raises():
    x = ad.constant(np.array([0.0]))
    with pytest.raises(FloatingPointError):
        ad.constant(np.array([1.0])) / x


# -- fd_check harness itself ------------------------------------------------------------

def test_fd_check_square_function():
    x = ad.Param(np.array([3.0]), "x")
    report = ad.fd_check(lambda: ad.sum_(x * x), [x])
    assert report.max_rel_err <= 1e-6
    x.zero_grad()
    out = ad.sum_(x * x)
    out.backward()
    assert x.grad.item() == pytest.approx(6.0)


def test_fd_check_detects_wrong_gradient():
    x = ad.Param(np.array([0.7, -0.4]), "x")

    def broken_exp(t):
        t = ad.constant(t)
        out = ad.Tensor(np.exp(t.data), (t,), "exp")

        def bw():
            t.accum_grad(out.grad * 2.0 * out.data)  # wrong factor

        out._backward = bw
        return out

    report = ad.fd_check(lambda: ad.sum_(broken_exp(x)), [x])
    assert not report.passed


def test_fd_check_requires_scalar():
    x = ad.Param(np.ones(3), "x")
    with pytest.raises(ValueError):
        ad.fd_check(lambda: x * 2.0, [x])


def test_slice_gradient_sums_repeated_advanced_indices():
    x = ad.Param(np.zeros(4), "x")
    ad.sum_(x[[1, 1, 2]]).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 2.0, 1.0, 0.0])
    m = ad.Param(np.zeros((3, 2)), "m")
    ad.sum_(m[np.array([0, 2, 0]), 1:] * 3.0).backward()
    np.testing.assert_array_equal(m.grad, [[0.0, 6.0], [0.0, 0.0], [0.0, 3.0]])


# -- graph lifetime: no_grad and release after backward ------------------------------------

def test_no_grad_builds_leaves_with_the_same_values():
    x = rand_param(40, (3, 4))
    w = rand_param(41, (4, 2))
    expected = ad.softmax(ad.matmul(x, w) * 2.0, axis=-1).data
    with ad.no_grad():
        h = ad.matmul(x, w) * 2.0
        y = ad.softmax(h, axis=-1)
    for node in (h, y):
        assert node._prev == ()
        assert node._backward is None
    np.testing.assert_array_equal(y.data, expected)


def test_no_grad_nests_and_restores_after_exception():
    x = ad.Param(np.ones(2), "x")
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert (x * 2.0)._backward is None
    assert (x * 2.0)._backward is not None
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside")
    y = x * 2.0
    assert y._prev[0] is x and y._backward is not None


def test_frozen_param_read_under_no_grad_gets_no_gradient():
    trained = ad.Param(np.array([1.5, -0.5]), "trained")
    frozen = ad.Param(np.array([2.0, 3.0]), "frozen")
    with ad.no_grad():
        term = ad.sum_(frozen * frozen)
    loss = ad.sum_(trained * trained) + term
    assert loss.item() == pytest.approx(2.5 + 13.0)
    loss.backward()
    np.testing.assert_array_equal(trained.grad, [3.0, -1.0])
    assert frozen.grad is None


def test_backward_frees_the_graph_without_the_cyclic_collector():
    x = rand_param(42, (3, 4))
    gc.disable()
    try:
        hidden = ad.exp(x * 0.5)
        ref = weakref.ref(hidden)
        loss = ad.mean(hidden * hidden)
        del hidden
        loss.backward()
        del loss
        assert ref() is None
    finally:
        gc.enable()
    assert x.grad is not None


# -- one recording path: constant inputs get no gradient ----------------------------------

def test_conv_of_a_constant_image_fills_only_the_weight_gradient():
    rng = nd.Rng(50)
    image = ad.constant(rng.normal((2, 3, 5, 4)))
    w = ad.Param(rng.derive("w").normal((4, 3, 3, 3)), "w")
    probe = rng.derive("probe").normal((2, 4, 5, 4))
    ad.sum_(ad.conv2d_3x3(image, w) * probe).backward()
    assert image.grad is None
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(image.data, ((0, 0), (0, 0), (1, 1), (1, 1))), (3, 3), axis=(2, 3))
    expected = np.einsum("bohw,bihwkl->oikl", probe, windows, optimize=True)
    assert w.grad.tobytes() == expected.tobytes()


def test_an_op_on_constants_alone_is_a_leaf_with_grad_enabled():
    rng = nd.Rng(51)
    a, b = ad.constant(rng.normal((3, 3))), rng.normal((3, 3))
    for node in (ad.mul(a, b), ad.matmul(a, b), ad.exp(a), ad.concat([a, b], axis=1),
                 ad.attention(a[None], a[None], a[None], 0.5)[0]):
        assert node._prev == ()
        assert node._backward is None


def test_mul_never_calls_the_gradient_function_of_a_constant(monkeypatch):
    calls = []
    real_node = ad._node

    def spying_node(op, data, inputs, *grads):
        def spy(i, grad):
            def recorded(g):
                calls.append((op, i))
                return grad(g)
            return recorded
        return real_node(op, data, inputs, *(spy(i, grad) for i, grad in enumerate(grads)))

    monkeypatch.setattr(ad, "_node", spying_node)
    c = ad.constant(np.array([2.0, -3.0]))
    w = ad.Param(np.array([0.5, 4.0]), "w")
    product = ad.mul(c, w)
    assert product._prev == (w,)
    ad.sum_(product).backward()
    assert ("mul", 1) in calls and ("mul", 0) not in calls
    np.testing.assert_array_equal(w.grad, c.data)
    assert c.grad is None


def test_graph_links_are_recorded_in_one_place():
    """Only Tensor.__init__, Tensor.backward and _node assign a node's
    _backward or _prev, and only _node accumulates op gradients."""
    tree = ast.parse(Path(ad.__file__).read_text(encoding="utf-8"))
    assigns, accumulates = set(), set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                if any(isinstance(t, ast.Attribute) and t.attr in ("_backward", "_prev")
                       for target in targets for t in ast.walk(target)):
                    assigns.add(".".join(scope))
            elif isinstance(child, ast.Call):
                callee = child.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
                if name in ("accum_grad", "_unbroadcast"):
                    accumulates.add(".".join(scope))
            visit(child, inner)

    visit(tree, ())
    assert assigns <= {"Tensor.__init__", "Tensor.backward", "_node"}, assigns
    assert accumulates == {"_node.backward"}, accumulates


def test_the_ddim_schedule_is_built_in_one_place():
    """In the package only rectflow calls cosine_alpha_bars; every other
    module reads rectflow.DDIM_ALPHA_BARS."""
    callers = set()
    for path in Path(ad.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
                if name == "cosine_alpha_bars":
                    callers.add(path.stem)
    assert callers == {"rectflow"}, callers


# -- fused softmax ------------------------------------------------------------------------

def composite_softmax(x, axis=-1):
    """The softmax built from primitive ops, kept as the bit-level reference."""
    x = ad.constant(x)
    shift = ad.constant(x.data.max(axis=axis, keepdims=True))
    e = ad.exp(x - shift)
    return e / ad.sum_(e, axes=axis, keepdims=True)


@pytest.mark.parametrize("axis", [-1, 1])
def test_fused_softmax_is_bit_equal_to_composite(axis):
    for seed in range(5):
        rng = nd.Rng(300 + seed)
        probe = ad.constant(rng.normal((2, 5, 3, 6)))
        results = []
        for fn in (ad.softmax, composite_softmax):
            x = ad.Param(rng.derive("x").normal((2, 5, 3, 6)) * 4.0, "x")
            y = fn(x, axis=axis)
            ad.sum_(y * probe).backward()
            results.append((y.data, x.grad))
        (y_fused, g_fused), (y_ref, g_ref) = results
        assert y_fused.tobytes() == y_ref.tobytes()
        assert g_fused.tobytes() == g_ref.tobytes()


# -- fused attention ----------------------------------------------------------------------

def composite_attention(q, k, v, scale):
    """The matmul -> mul -> softmax -> matmul chain the fused node replaces,
    kept as the reference."""
    logits = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * scale
    return ad.matmul(ad.softmax(logits, axis=-1), v)


def attention_case(seed, fn, shape=(2, 3, 7, 4)):
    rng = nd.Rng(seed)
    q, k, v = (ad.Param(rng.derive(n).normal(shape), n) for n in "qkv")
    scale = ad.Param(rng.derive("s").uniform((), 0.5, 3.0), "scale")
    probe = ad.constant(rng.derive("probe").normal(shape))
    y = fn(q, k, v, scale)
    ad.sum_(y * probe).backward()
    return y.data, [p.grad for p in (q, k, v, scale)]


def fused_attention_output(q, k, v, scale):
    return ad.attention(q, k, v, scale)[0]


@pytest.mark.parametrize("seed", [400, 401, 402])
def test_fused_attention_matches_the_composite(seed):
    y_fused, g_fused = attention_case(seed, fused_attention_output)
    y_ref, g_ref = attention_case(seed, composite_attention)
    assert y_fused.tobytes() == y_ref.tobytes()
    for got, want in zip(g_fused, g_ref):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_fused_attention_weights_are_the_softmax_and_read_only():
    rng = nd.Rng(410)
    q, k, v = (ad.constant(rng.derive(n).normal((1, 2, 5, 3))) for n in "qkv")
    out, weights = ad.attention(q, k, v, 0.7)
    expected = ad.softmax(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * 0.7, axis=-1).data
    assert weights.tobytes() == expected.tobytes()
    assert not weights.flags.writeable
    np.testing.assert_array_equal(out.data, ad.matmul(ad.constant(expected), v).data)


def test_fused_attention_fd():
    rng = nd.Rng(420)
    q, k, v = (ad.Param(rng.derive(n).normal((1, 2, 4, 3)), n) for n in "qkv")
    scale = ad.Param(1.3, "scale")
    probe = ad.constant(rng.derive("probe").normal((1, 2, 4, 3)))
    report = ad.fd_check(lambda: ad.sum_(ad.attention(q, k, v, scale)[0] * probe), [q, k, v, scale])
    assert report.passed, report.summary()


def test_fused_attention_keeps_no_inputs_under_no_grad():
    q = rand_param(430, (1, 1, 4, 2))
    with ad.no_grad():
        out, _ = ad.attention(q, q, q, 2.0)
    assert out._prev == ()
    assert out._backward is None


def test_fused_attention_rejects_a_non_scalar_scale():
    q = ad.constant(np.ones((1, 1, 2, 2)))
    with pytest.raises(ValueError):
        ad.attention(q, q, q, np.ones(2))


# -- finite guard -------------------------------------------------------------------------

def test_finite_guard_accepts_finite_arrays_whose_sum_overflows():
    with np.errstate(over="ignore"):
        t = ad.Tensor(np.array([1e308, 1e308]))
    np.testing.assert_array_equal(t.data, [1e308, 1e308])


@pytest.mark.parametrize("values", [[1.0, np.nan], [np.inf], [np.inf, -np.inf]])
def test_finite_guard_rejects_non_finite_entries(values):
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        ad.Tensor(np.array(values))


def test_node_rejected_by_the_finite_guard_still_has_a_repr():
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError) as info:
        ad.exp(ad.constant(np.array([1000.0])))
    rejected = info.traceback[-1].frame.f_locals["self"]
    assert repr(rejected) == "Tensor(shape=(1,), op=exp)"
    assert rejected.grad is None and rejected._backward is None
