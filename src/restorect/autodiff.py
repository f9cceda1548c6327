"""Reverse-mode differentiation over float64 numpy arrays.

The expression graph is the tape: every operation returns a `Tensor` node
holding its inputs and a backward closure, and `Tensor.backward()` walks the
nodes in reverse topological order, so each node's inputs are visited after
the node itself and one pass fills the gradient of every reachable leaf.

`_node` is the one recording path. Each op computes its forward value and
hands `_node` one gradient function per input; `_node` links only the inputs
that need a gradient (a `Param`, or a node with a backward), calls only their
gradient functions, and sums each gradient back onto its input's shape.
Constant inputs (arrays, `constant(...)` leaves) get no gradient, and an op
whose inputs are all constant returns a leaf.

Graph lifetime is explicit. `backward()` drops each node's closure and input
links once the closure has run, so a graph dies as soon as the pass ends
instead of waiting for the cyclic collector (each closure refers to its own
node). Inside `with no_grad():` ops record neither, so a forward that is only
read builds no graph at all, even when it reads a `Param`.

The op set is closed: everything the restoration networks and losses need
compiles to the functions below, and each op carries a finite-difference
test. `softmax` is one primitive op whose arithmetic is bit-equal to its
composite. `attention`, softmax(scale * q @ k^T) @ v, is one node: its
forward is bit-equal to the matmul -> softmax -> matmul chain, and its
backward is the closed form, equal to the chain's gradients to rounding.
`layer_norm` (over an axis or a tuple of axes) and `l2_normalize` are
composites of the others. Elementwise ops broadcast with numpy semantics.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from . import ndtensor as nd


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


class Tensor:
    """Graph node: float64 value plus links to the inputs that produced it
    and need a gradient."""

    def __init__(self, data, _prev=(), _op: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._prev = tuple(_prev)
        self._backward = None
        self._op = _op
        # last, so a traceback can still show the rejected node
        if not nd.all_finite(self.data):
            raise FloatingPointError(f"non-finite values in op '{_op or 'leaf'}'")

    # -- graph plumbing ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def accum_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # one pass, laid out like `data` as zeros_like would be (BLAS
            # results downstream depend on the layout); g + 0.0 == 0.0 + g
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Fill the gradient of every leaf reachable from this scalar.

        The walk frees the graph behind it, so a graph can be backwarded
        once; rebuild it to differentiate again."""
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar output, got shape {self.shape}")
        # iterative DFS; training graphs can exceed the recursion limit
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()
                # release the graph as it is walked: the closure refers to
                # its own node, a cycle only the cyclic collector would free
                node._backward = None
                node._prev = ()

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, idx):
        return slice_(self, idx)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op or 'leaf'})"

    # method forms; dispatch through module globals so tests can patch ops
    def mean(self, axes=None, keepdims=False):
        return mean(self, axes, keepdims)

    def sum(self, axes=None, keepdims=False):
        return sum_(self, axes, keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def item(self) -> float:
        return float(self.data.reshape(()))


class Param(Tensor):
    """Named learnable leaf, optionally with clamp bounds re-applied after
    every optimizer step."""

    def __init__(self, value, name: str, lo: float = None, hi: float = None):
        super().__init__(value)
        self.name = name
        self.lo = lo
        self.hi = hi

    def apply_bounds(self) -> None:
        if self.lo is not None or self.hi is not None:
            np.clip(self.data, self.lo, self.hi, out=self.data)

    def __repr__(self):
        return f"Param({self.name}, shape={self.shape})"


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block: op results are constant leaves with
    the same values. Nests, and restores the previous mode on exit."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _node(op: str, data, inputs, *grads) -> Tensor:
    """The one place a graph is recorded: the result `data` of `op` on
    `inputs`, where grads[i](g) is the gradient for inputs[i] given the
    result's gradient g.

    Only inputs that need a gradient (a Param, or a node with a backward)
    are linked, and only their gradient functions are ever called; each
    gradient is summed back onto its input's shape and accumulated. Under
    no_grad, or when no input needs a gradient, the result is a leaf."""
    if not _grad_enabled:
        return Tensor(data, (), op)
    prev, prev_grads = [], []
    for t, grad in zip(inputs, grads):
        if t._backward is not None or isinstance(t, Param):
            prev.append(t)
            prev_grads.append(grad)
    out = Tensor(data, prev, op)
    if prev:
        def backward():
            g = out.grad
            for t, grad in zip(prev, prev_grads):
                t.accum_grad(_unbroadcast(grad(g), t.data.shape))

        out._backward = backward
    return out


def constant(x) -> Tensor:
    """x as a leaf of the graph; a Tensor is returned unchanged."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


# -- arithmetic ---------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    return _node("add", a.data + b.data, (a, b), lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    return _node("sub", a.data - b.data, (a, b), lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    return _node("mul", a.data * b.data, (a, b), lambda g: g * b.data, lambda g: g * a.data)


def div(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = a.data / b.data  # the finite guard raises on /0
    return _node("div", quotient, (a, b), lambda g: g / b.data,
                 lambda g: -g * a.data / (b.data * b.data))


def matmul(a, b) -> Tensor:
    """Matrix product, batched over leading dims (numpy semantics, ndim >= 2)."""
    a, b = constant(a), constant(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul requires ndim >= 2, got {a.shape} @ {b.shape}")
    return _node("matmul", np.matmul(a.data, b.data), (a, b),
                 lambda g: np.matmul(g, np.swapaxes(b.data, -1, -2)),
                 lambda g: np.matmul(np.swapaxes(a.data, -1, -2), g))


# -- convolution --------------------------------------------------------------

def _windows3x3(x: np.ndarray) -> np.ndarray:
    """Zero-pad by 1 and return (B,C,H,W,3,3) sliding windows."""
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    return np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))


def conv2d_3x3(x, w) -> Tensor:
    """3x3 cross-correlation, stride 1, zero padding 1.

    x: (B, Cin, H, W); w: (Cout, Cin, 3, 3) -> (B, Cout, H, W).
    """
    x, w = constant(x), constant(w)
    if x.ndim != 4 or w.ndim != 4 or w.shape[2:] != (3, 3):
        raise ValueError(f"conv2d_3x3: bad shapes x={x.shape}, w={w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"conv2d_3x3: channel mismatch x={x.shape}, w={w.shape}")
    win = _windows3x3(x.data)

    def dx(g):
        # full correlation of the padded upstream grad with the flipped kernel
        gp = np.pad(g, ((0, 0), (0, 0), (2, 2), (2, 2)))
        gwin = np.lib.stride_tricks.sliding_window_view(gp, (3, 3), axis=(2, 3))
        wflip = w.data[:, :, ::-1, ::-1]
        return np.einsum("bohwkl,oikl->bihw", gwin, wflip, optimize=True)[:, :, 1:-1, 1:-1]

    return _node("conv2d_3x3", np.einsum("bihwkl,oikl->bohw", win, w.data, optimize=True),
                 (x, w), dx, lambda g: np.einsum("bohw,bihwkl->oikl", g, win, optimize=True))


# -- elementwise nonlinearities -----------------------------------------------

def relu(x) -> Tensor:
    x = constant(x)
    return _node("relu", np.maximum(x.data, 0.0), (x,), lambda g: g * (x.data > 0.0))


def leaky_relu(x, slope: float = 0.1) -> Tensor:
    # gradient at exactly 0 takes the negative-slope branch
    x = constant(x)
    return _node("leaky_relu", np.where(x.data > 0.0, x.data, slope * x.data), (x,),
                 lambda g: g * np.where(x.data > 0.0, 1.0, slope))


def exp(x) -> Tensor:
    x = constant(x)
    e = np.exp(x.data)
    return _node("exp", e, (x,), lambda g: g * e)


def sin(x) -> Tensor:
    x = constant(x)
    return _node("sin", np.sin(x.data), (x,), lambda g: g * np.cos(x.data))


def cos(x) -> Tensor:
    x = constant(x)
    return _node("cos", np.cos(x.data), (x,), lambda g: -g * np.sin(x.data))


def sqrt(x) -> Tensor:
    x = constant(x)
    r = np.sqrt(x.data)
    return _node("sqrt", r, (x,), lambda g: g * 0.5 / r)


def power(x, p: float) -> Tensor:
    x = constant(x)
    return _node("power", x.data**p, (x,), lambda g: g * p * x.data ** (p - 1.0))


def abs_(x) -> Tensor:
    # subgradient 0 at the kink
    x = constant(x)
    return _node("abs", np.abs(x.data), (x,), lambda g: g * np.sign(x.data))


def clamp(x, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient is zero outside the closed interval."""
    x = constant(x)
    return _node("clamp", np.clip(x.data, lo, hi), (x,),
                 lambda g: g * ((x.data >= lo) & (x.data <= hi)))


# -- reductions ---------------------------------------------------------------

def _norm_axes(axes, ndim):
    """Reduction axes as non-negative ints; like numpy, an axis out of
    [-ndim, ndim) or named twice is rejected."""
    if axes is None:
        return tuple(range(ndim))
    axes = (axes,) if isinstance(axes, int) else tuple(axes)
    out = tuple(a + ndim if a < 0 else a for a in axes)
    if not all(0 <= a < ndim for a in out) or len(set(out)) != len(out):
        raise ValueError(f"axes {axes} out of range or repeated for a {ndim}-d input")
    return out


def sum_(x, axes=None, keepdims: bool = False) -> Tensor:
    x = constant(x)
    axes = _norm_axes(axes, x.ndim)

    def dx(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, x.data.shape).copy()

    return _node("sum", x.data.sum(axis=axes, keepdims=keepdims), (x,), dx)


def mean(x, axes=None, keepdims: bool = False) -> Tensor:
    x = constant(x)
    axes = _norm_axes(axes, x.ndim)
    count = float(np.prod([x.data.shape[a] for a in axes])) if axes else 1.0
    if count == 0:
        raise ValueError("mean: empty reduction axis")

    def dx(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, x.data.shape) / count

    return _node("mean", x.data.mean(axis=axes, keepdims=keepdims), (x,), dx)


# -- structure ----------------------------------------------------------------

def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [constant(t) for t in tensors]
    if not tensors:
        raise ValueError("concat: empty input list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * (axis % data.ndim)
    grads, start = [], 0
    for t in tensors:
        stop = start + t.data.shape[axis]
        grads.append(lambda g, part=slice(start, stop): g[lead + (part,)])
        start = stop
    return _node("concat", data, tensors, *grads)


def slice_(x, idx) -> Tensor:
    """Indexing (basic or advanced); backward scatters into the source
    positions, summing over positions an advanced index repeats."""
    x = constant(x)

    def dx(g):
        scattered = np.zeros_like(x.data)
        np.add.at(scattered, idx, g)  # scattered[idx] += would drop repeated positions
        return scattered

    return _node("slice", x.data[idx], (x,), dx)


def reshape(x, shape) -> Tensor:
    x = constant(x)
    return _node("reshape", x.data.reshape(shape), (x,), lambda g: g.reshape(x.data.shape))


def transpose(x, axes) -> Tensor:
    x = constant(x)
    axes = tuple(axes)
    data = x.data.transpose(axes)  # numpy rejects axes out of range
    inverse = tuple(np.argsort([a % x.ndim for a in axes]))  # negative axes count from the end
    return _node("transpose", data, (x,), lambda g: g.transpose(inverse))


def pixel_unshuffle(x, factor: int) -> Tensor:
    """Autodiff wrapper over the space-to-channel rearrangement; the backward
    pass is the inverse rearrangement."""
    x = constant(x)
    return _node("pixel_unshuffle", nd.pixel_unshuffle(x.data, factor), (x,),
                 lambda g: nd.pixel_shuffle(g, factor))


# -- normalizations ------------------------------------------------------------

def softmax(x, axis: int = -1) -> Tensor:
    """One node whose forward and backward do, operation for operation, the
    arithmetic of the composite exp(x - max) / sum(exp(x - max)), so results
    match it bit for bit (the closed form y * (g - sum(g * y)) would not)."""
    x = constant(x)
    e = np.exp(x.data - x.data.max(axis=axis, keepdims=True))  # the shift cancels in the ratio
    s = e.sum(axis=axis, keepdims=True)

    def dx(g):
        ge = g / s
        ge += (-g * e / (s * s)).sum(axis=axis, keepdims=True)
        return ge * e

    return _node("softmax", e / s, (x,), dx)


def attention(q, k, v, scale):
    """softmax(scale * q @ k^T) @ v over the last two axes, as one node.

    Returns the output node and the weights p = softmax(scale * q @ k^T)
    as a read-only array. The forward runs the arithmetic of the
    matmul -> mul -> softmax -> matmul composite in the same order, in place
    on one buffer, so its results are bit-equal to the composite's. The
    backward is the closed form dlogits = p * (g v^T - rowsum(g v^T * p)),
    which keeps only p and one buffer of its shape; its gradients match the
    composite's to rounding, not bit for bit. `scale` is a scalar."""
    q, k, v, scale = constant(q), constant(k), constant(v), constant(scale)
    if scale.data.size != 1:
        raise ValueError(f"attention: scale must be a scalar, got shape {scale.shape}")
    p = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    p *= scale.data
    p -= p.max(axis=-1, keepdims=True)  # the shift cancels in the ratio
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    shared = []

    def logit_grads(g):
        # dlogits, dlogits @ k and the scale's gradient, computed once per
        # backward for the q, k and scale gradients
        if not shared:
            ds = np.matmul(g, np.swapaxes(v.data, -1, -2))
            ds -= np.einsum("...ij,...ij->...i", ds, p)[..., None]
            ds *= p  # now the gradient of the scaled logits
            dsk = np.matmul(ds, k.data)
            shared.extend((ds, dsk, np.einsum("...ij,...ij->...", dsk, q.data).sum()))
        return shared

    def dq(g):
        dsk = logit_grads(g)[1]
        dsk *= scale.data
        return dsk

    def dk(g):
        dsq = np.matmul(np.swapaxes(logit_grads(g)[0], -1, -2), q.data)
        dsq *= scale.data
        return dsq

    out = _node("attention", np.matmul(p, v.data), (q, k, v, scale), dq, dk,
                lambda g: np.matmul(np.swapaxes(p, -1, -2), g),
                lambda g: np.reshape(logit_grads(g)[2], scale.data.shape))
    weights = p.view()
    weights.flags.writeable = False  # the backward reads p
    return out, weights


# composites of the primitive ops, so their backward passes need no separate derivation

LAYER_NORM_EPS = 1e-5
L2_NORMALIZE_EPS = 1e-12  # inside the root, so the backward stays finite at the origin


def layer_norm(x, axis=-1) -> Tensor:
    """Normalize to zero mean, unit variance over an axis or a tuple of axes
    (no affine part)."""
    x = constant(x)
    mu = mean(x, axes=axis, keepdims=True)
    d = x - mu
    var = mean(d * d, axes=axis, keepdims=True)
    return d / sqrt(var + LAYER_NORM_EPS)


def l2_normalize(x, axis: int = -1) -> Tensor:
    x = constant(x)
    n = sqrt(sum_(x * x, axes=axis, keepdims=True) + L2_NORMALIZE_EPS)
    return x / n


# -- finite-difference verification ---------------------------------------------

@dataclass
class FdEntry:
    name: str
    max_rel_err: float
    passed: bool
    checked: int


@dataclass
class FdReport:
    entries: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    def summary(self) -> str:
        lines = [
            f"{'PASS' if e.passed else 'FAIL'} {e.name}: "
            f"max_rel_err={e.max_rel_err:.3e} over {e.checked} entries"
            for e in self.entries
        ]
        return "\n".join(lines)


FD_STEP = 1e-5  # the gradient gate: central-difference step h
FD_TOL = 1e-4  # and the largest relative error an entry may have to pass


def fd_check(f, params, max_entries: int = None, rng: nd.Rng = None) -> FdReport:
    """Compare analytic gradients of the scalar `f()` against central
    differences (f(x+h) - f(x-h)) / 2h, h = FD_STEP, for every listed param.

    `f` must rebuild its graph from the params' current values on each call.
    For large params, `max_entries` caps how many elements are perturbed
    (chosen by `rng`, default seed 0); small params are checked exhaustively.
    The relative error denominator is floored at 1e-6 so near-zero gradient
    pairs compare in absolute terms.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    out = f()
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ValueError("fd_check: f must return a scalar Tensor")
    out.backward()
    analytic = {id(p): (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for p in params}

    if rng is None:
        rng = nd.Rng(0)
    report = FdReport()
    for p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        if max_entries is not None and n > max_entries:
            idxs = np.sort(rng.permutation(n)[:max_entries])
        else:
            idxs = np.arange(n)
        an_flat = analytic[id(p)].reshape(-1)
        worst = 0.0
        for i in idxs:
            orig = flat[i]
            with no_grad():
                flat[i] = orig + FD_STEP
                f_plus = f().item()
                flat[i] = orig - FD_STEP
                f_minus = f().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * FD_STEP)
            a = an_flat[i]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
            worst = max(worst, rel)
        report.entries.append(FdEntry(p.name, worst, worst <= FD_TOL, len(idxs)))
    return report
