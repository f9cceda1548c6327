"""Reverse-mode differentiation over float64 numpy arrays.

The expression graph is the tape: every operation returns a `Tensor` node
holding its inputs and a backward closure, and `Tensor.backward()` walks the
nodes in reverse topological order, so each node's inputs are visited after
the node itself and one pass fills the gradient of every reachable leaf.

Graph lifetime is explicit. `backward()` drops each node's closure and input
links once the closure has run, so a graph dies as soon as the pass ends
instead of waiting for the cyclic collector (each closure refers to its own
node). Inside `with no_grad():` ops record neither, so a forward that is only
read builds no graph at all. Forwards that never need a gradient, such as
the frozen teacher encoder, run these same ops that way rather than keeping
a numpy copy of them.

The op set is closed: everything the restoration networks and losses need
compiles to the functions below, and each op carries a finite-difference
test. `softmax` is one primitive op whose arithmetic is bit-equal to its
composite. `attention`, softmax(scale * q @ k^T) @ v, is one node: its
forward is bit-equal to the matmul -> softmax -> matmul chain, and its
backward is the closed form, equal to the chain's gradients to rounding.
`layer_norm` (over an axis or a tuple of axes) and `l2_normalize` are
composites of the others. Elementwise ops broadcast with numpy semantics;
gradients are summed back onto the original shapes.
"""

from __future__ import annotations

import contextlib
import math
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
    """Graph node: float64 value plus links to the inputs that produced it."""

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


def _attach(out: Tensor, bw) -> Tensor:
    """Give an op's result its backward closure, or, under no_grad, drop its
    input links so it is a leaf."""
    if _grad_enabled:
        out._backward = bw
    else:
        out._prev = ()
    return out


def constant(x) -> Tensor:
    """x as a leaf of the graph; a Tensor is returned unchanged."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


# -- arithmetic ---------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    out = Tensor(a.data + b.data, (a, b), "add")

    def bw():
        a.accum_grad(_unbroadcast(out.grad, a.data.shape))
        b.accum_grad(_unbroadcast(out.grad, b.data.shape))

    return _attach(out, bw)


def sub(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    out = Tensor(a.data - b.data, (a, b), "sub")

    def bw():
        a.accum_grad(_unbroadcast(out.grad, a.data.shape))
        b.accum_grad(_unbroadcast(-out.grad, b.data.shape))

    return _attach(out, bw)


def mul(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    out = Tensor(a.data * b.data, (a, b), "mul")

    def bw():
        a.accum_grad(_unbroadcast(out.grad * b.data, a.data.shape))
        b.accum_grad(_unbroadcast(out.grad * a.data, b.data.shape))

    return _attach(out, bw)


def div(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Tensor(a.data / b.data, (a, b), "div")  # finite guard raises on /0

    def bw():
        a.accum_grad(_unbroadcast(out.grad / b.data, a.data.shape))
        b.accum_grad(_unbroadcast(-out.grad * a.data / (b.data * b.data), b.data.shape))

    return _attach(out, bw)


def matmul(a, b) -> Tensor:
    """Matrix product, batched over leading dims (numpy semantics, ndim >= 2)."""
    a, b = constant(a), constant(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul requires ndim >= 2, got {a.shape} @ {b.shape}")
    out = Tensor(np.matmul(a.data, b.data), (a, b), "matmul")

    def bw():
        ga = np.matmul(out.grad, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), out.grad)
        a.accum_grad(_unbroadcast(ga, a.data.shape))
        b.accum_grad(_unbroadcast(gb, b.data.shape))

    return _attach(out, bw)


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
    out = Tensor(np.einsum("bihwkl,oikl->bohw", win, w.data, optimize=True), (x, w), "conv2d_3x3")

    def bw():
        g = out.grad
        w.accum_grad(np.einsum("bohw,bihwkl->oikl", g, win, optimize=True))
        # dx: full correlation of the padded upstream grad with the flipped kernel
        gp = np.pad(g, ((0, 0), (0, 0), (2, 2), (2, 2)))
        gwin = np.lib.stride_tricks.sliding_window_view(gp, (3, 3), axis=(2, 3))
        wflip = w.data[:, :, ::-1, ::-1]
        dxp = np.einsum("bohwkl,oikl->bihw", gwin, wflip, optimize=True)
        x.accum_grad(dxp[:, :, 1:-1, 1:-1])

    return _attach(out, bw)


# -- elementwise nonlinearities -----------------------------------------------

def relu(x) -> Tensor:
    x = constant(x)
    out = Tensor(np.maximum(x.data, 0.0), (x,), "relu")

    def bw():
        x.accum_grad(out.grad * (x.data > 0.0))

    return _attach(out, bw)


def leaky_relu(x, slope: float = 0.1) -> Tensor:
    # gradient at exactly 0 takes the negative-slope branch
    x = constant(x)
    out = Tensor(np.where(x.data > 0.0, x.data, slope * x.data), (x,), "leaky_relu")

    def bw():
        x.accum_grad(out.grad * np.where(x.data > 0.0, 1.0, slope))

    return _attach(out, bw)


def exp(x) -> Tensor:
    x = constant(x)
    out = Tensor(np.exp(x.data), (x,), "exp")

    def bw():
        x.accum_grad(out.grad * out.data)

    return _attach(out, bw)


def sin(x) -> Tensor:
    x = constant(x)
    out = Tensor(np.sin(x.data), (x,), "sin")

    def bw():
        x.accum_grad(out.grad * np.cos(x.data))

    return _attach(out, bw)


def cos(x) -> Tensor:
    x = constant(x)
    out = Tensor(np.cos(x.data), (x,), "cos")

    def bw():
        x.accum_grad(-out.grad * np.sin(x.data))

    return _attach(out, bw)


def sqrt(x) -> Tensor:
    x = constant(x)
    out = Tensor(np.sqrt(x.data), (x,), "sqrt")

    def bw():
        x.accum_grad(out.grad * 0.5 / out.data)

    return _attach(out, bw)


def power(x, p: float) -> Tensor:
    x = constant(x)
    out = Tensor(x.data**p, (x,), "power")

    def bw():
        x.accum_grad(out.grad * p * x.data ** (p - 1.0))

    return _attach(out, bw)


def abs_(x) -> Tensor:
    # subgradient 0 at the kink
    x = constant(x)
    out = Tensor(np.abs(x.data), (x,), "abs")

    def bw():
        x.accum_grad(out.grad * np.sign(x.data))

    return _attach(out, bw)


def clamp(x, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient is zero outside the closed interval."""
    x = constant(x)
    out = Tensor(np.clip(x.data, lo, hi), (x,), "clamp")

    def bw():
        inside = (x.data >= lo) & (x.data <= hi)
        x.accum_grad(out.grad * inside)

    return _attach(out, bw)


# -- reductions ---------------------------------------------------------------

def _norm_axes(axes, ndim):
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(a % ndim for a in axes)


def sum_(x, axes=None, keepdims: bool = False) -> Tensor:
    x = constant(x)
    axes = _norm_axes(axes, x.ndim)
    out = Tensor(x.data.sum(axis=axes, keepdims=keepdims), (x,), "sum")

    def bw():
        g = out.grad
        if not keepdims:
            g = np.expand_dims(g, axes)
        x.accum_grad(np.broadcast_to(g, x.data.shape).copy())

    return _attach(out, bw)


def mean(x, axes=None, keepdims: bool = False) -> Tensor:
    x = constant(x)
    axes = _norm_axes(axes, x.ndim)
    count = float(np.prod([x.data.shape[a] for a in axes])) if axes else 1.0
    if count == 0:
        raise ValueError("mean: empty reduction axis")
    out = Tensor(x.data.mean(axis=axes, keepdims=keepdims), (x,), "mean")

    def bw():
        g = out.grad
        if not keepdims:
            g = np.expand_dims(g, axes)
        x.accum_grad(np.broadcast_to(g, x.data.shape) / count)

    return _attach(out, bw)


# -- structure ----------------------------------------------------------------

def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [constant(t) for t in tensors]
    if not tensors:
        raise ValueError("concat: empty input list")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), "concat")
    sizes = [t.data.shape[axis] for t in tensors]

    def bw():
        start = 0
        for t, s in zip(tensors, sizes):
            sl = [slice(None)] * out.data.ndim
            sl[axis] = slice(start, start + s)
            t.accum_grad(out.grad[tuple(sl)])
            start += s

    return _attach(out, bw)


def slice_(x, idx) -> Tensor:
    """Indexing (basic or advanced); backward scatters into the source
    positions, summing over positions an advanced index repeats."""
    x = constant(x)
    out = Tensor(x.data[idx], (x,), "slice")

    def bw():
        g = np.zeros_like(x.data)
        np.add.at(g, idx, out.grad)  # g[idx] += would drop repeated positions
        x.accum_grad(g)

    return _attach(out, bw)


def reshape(x, shape) -> Tensor:
    x = constant(x)
    out = Tensor(x.data.reshape(shape), (x,), "reshape")

    def bw():
        x.accum_grad(out.grad.reshape(x.data.shape))

    return _attach(out, bw)


def transpose(x, axes) -> Tensor:
    x = constant(x)
    axes = tuple(axes)
    out = Tensor(x.data.transpose(axes), (x,), "transpose")
    inverse = tuple(np.argsort(axes))

    def bw():
        x.accum_grad(out.grad.transpose(inverse))

    return _attach(out, bw)


def pixel_unshuffle(x, factor: int) -> Tensor:
    """Autodiff wrapper over the space-to-channel rearrangement; the backward
    pass is the inverse rearrangement."""
    x = constant(x)
    out = Tensor(nd.pixel_unshuffle(x.data, factor), (x,), "pixel_unshuffle")

    def bw():
        x.accum_grad(nd.pixel_shuffle(out.grad, factor))

    return _attach(out, bw)


# -- normalizations ------------------------------------------------------------

def softmax(x, axis: int = -1) -> Tensor:
    """One node whose forward and backward do, operation for operation, the
    arithmetic of the composite exp(x - max) / sum(exp(x - max)), so results
    match it bit for bit (the closed form y * (g - sum(g * y)) would not)."""
    x = constant(x)
    e = np.exp(x.data - x.data.max(axis=axis, keepdims=True))  # the shift cancels in the ratio
    s = e.sum(axis=axis, keepdims=True)
    out = Tensor(e / s, (x,), "softmax")

    def bw():
        g = out.grad
        ge = g / s
        ge += (-g * e / (s * s)).sum(axis=axis, keepdims=True)
        x.accum_grad(ge * e)

    return _attach(out, bw)


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
    out = Tensor(np.matmul(p, v.data), (q, k, v, scale), "attention")

    def bw():
        g = out.grad
        ds = np.matmul(g, np.swapaxes(v.data, -1, -2))
        v.accum_grad(_unbroadcast(np.matmul(np.swapaxes(p, -1, -2), g), v.data.shape))
        ds -= np.einsum("...ij,...ij->...i", ds, p)[..., None]
        ds *= p  # now the gradient of the scaled logits
        dsk = np.matmul(ds, k.data)
        scale.accum_grad(np.einsum("...ij,...ij->...", dsk, q.data).sum())
        dsk *= scale.data
        q.accum_grad(_unbroadcast(dsk, q.data.shape))
        dk = np.matmul(np.swapaxes(ds, -1, -2), q.data)
        dk *= scale.data
        k.accum_grad(_unbroadcast(dk, k.data.shape))

    weights = p.view()
    weights.flags.writeable = False  # the backward reads p
    return _attach(out, bw), weights


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


def fd_check(f, params, h: float = 1e-5, tol: float = 1e-4,
             max_entries: int = None, rng: nd.Rng = None) -> FdReport:
    """Compare analytic gradients of the scalar `f()` against central
    differences (f(x+h) - f(x-h)) / 2h for every listed param.

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
                flat[i] = orig + h
                f_plus = f().item()
                flat[i] = orig - h
                f_minus = f().item()
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise FloatingPointError(f"fd_check: non-finite f at param {p.name}[{i}]")
            fd = (f_plus - f_minus) / (2.0 * h)
            a = an_flat[i]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
            worst = max(worst, rel)
        report.entries.append(FdEntry(p.name, worst, worst <= tol, len(idxs)))
    return report
