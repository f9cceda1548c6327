"""Dense float64 array substrate: deterministic RNG, reduction statistics,
pixel rearrangement, Gaussian Frechet distance, a binary dump format and the
CSV writer every output table goes through.

All public functions consume and produce contiguous float64 numpy arrays and
treat any NaN/Inf in a result as an error state. Reductions use numpy's
fixed left-to-right pairwise summation, so results are deterministic for a
given input regardless of threading in the caller.

Importing this module pins numpy's bundled OpenBLAS to one thread, because a
matmul's low-order bits depend on how many threads split it; `BLAS_THREADS`
records the count, or None when no thread setter was found.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import struct
import warnings
import zlib

import numpy as np


def _pin_blas_threads():
    """Set the OpenBLAS that numpy ships to one thread; 1, or None (with a
    RuntimeWarning) when no thread setter is found."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*.so*"))):
        setter = getattr(ctypes.CDLL(lib), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter(1)
            return 1
    warnings.warn("restorect: no OpenBLAS thread setter found, so results may depend "
                  "on the BLAS thread count", RuntimeWarning, stacklevel=2)
    return None


BLAS_THREADS = _pin_blas_threads()


def as_tensor(data) -> np.ndarray:
    """Coerce to a contiguous float64 array and verify every value is finite."""
    x = np.ascontiguousarray(data, dtype=np.float64)
    require_finite(x, "as_tensor")
    return x


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of the array is finite. A finite sum implies finite
    entries, so one reduction settles the common case; a finite array whose
    sum overflows falls through to the full scan and passes. (numpy warns
    when the sum overflows or meets inf and -inf together.)"""
    return math.isfinite(x.sum()) or bool(np.all(np.isfinite(x)))


def require_finite(x, context: str = "tensor"):
    """x unchanged; FloatingPointError naming `context` unless every entry
    of x (an array or a scalar) is finite."""
    if not all_finite(np.asarray(x)):
        raise FloatingPointError(f"{context}: non-finite values encountered")
    return x


class Rng:
    """Deterministic random stream backed by the Philox 4x64 counter-based
    bit generator (constants documented in numpy). Identical seeds produce
    identical streams across runs and platforms.

    Child streams are derived with `derive(tag)`, which maps the tag through
    crc32 into a SeedSequence spawn key, so independently named streams never
    collide and never depend on call order.
    """

    def __init__(self, seed: int, _spawn_key: tuple = ()):
        self.seed = int(seed)
        self._spawn_key = tuple(_spawn_key)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self._spawn_key)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def derive(self, tag: str) -> "Rng":
        """New independent stream deterministically keyed by (seed, tag)."""
        return Rng(self.seed, self._spawn_key + (zlib.crc32(tag.encode("utf-8")),))

    def normal(self, shape=(), loc: float = 0.0, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(loc=loc, scale=scale, size=shape).astype(np.float64)

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low=low, high=high, size=shape).astype(np.float64)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Integers from [low, high), int64."""
        return self._gen.integers(low, high, size=shape, dtype=np.int64)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def mean_std(x: np.ndarray, axes=None) -> tuple[np.ndarray, np.ndarray]:
    """Population mean and standard deviation over `axes` (all axes if None).

    Divides by N, not N-1, and reports std before any epsilon is added.
    Raises ValueError when a reduced axis is empty.
    """
    x = np.asarray(x, dtype=np.float64)
    if axes is None:
        axes = tuple(range(x.ndim))
    elif isinstance(axes, int):
        axes = (axes,)
    else:
        axes = tuple(axes)
    for a in axes:
        if x.shape[a] == 0:
            raise ValueError(f"mean_std: empty reduction axis {a}")
    if x.size == 0:
        raise ValueError("mean_std: empty input")
    mu = x.mean(axis=axes)
    var = ((x - x.mean(axis=axes, keepdims=True)) ** 2).mean(axis=axes)
    return mu, np.sqrt(var)


def percentile_abs(x: np.ndarray, p: float):
    """Nearest-rank percentile of |x| along the last axis: sort ascending,
    take index ceil(p*N)-1. A 1-d input gives a float, a 2-d input one value
    per row."""
    if not (0.0 < p <= 1.0):
        raise ValueError(f"percentile_abs: p must lie in (0, 1], got {p}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] == 0:
        raise ValueError(f"percentile_abs: expected a non-empty 1-d or 2-d input, got {x.shape}")
    tau = np.sort(np.abs(x), axis=-1)[..., math.ceil(p * x.shape[-1]) - 1]
    return float(tau) if x.ndim == 1 else tau


def pixel_unshuffle(x: np.ndarray, factor: int) -> np.ndarray:
    """(B,C,H,W) -> (B, C*factor^2, H/factor, W/factor).

    Element-bijective rearrangement; output channel index is
    c*factor^2 + i*factor + j for spatial sub-offset (i, j).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"pixel_unshuffle: expected 4-d (B,C,H,W), got shape {x.shape}")
    if factor < 1:
        raise ValueError(f"pixel_unshuffle: factor must be positive, got {factor}")
    b, c, h, w = x.shape
    if h % factor != 0 or w % factor != 0:
        raise ValueError(f"pixel_unshuffle: H={h}, W={w} not divisible by factor {factor}")
    hh, ww = h // factor, w // factor
    y = x.reshape(b, c, hh, factor, ww, factor)
    y = y.transpose(0, 1, 3, 5, 2, 4)
    return np.ascontiguousarray(y.reshape(b, c * factor * factor, hh, ww))


def pixel_shuffle(x: np.ndarray, factor: int) -> np.ndarray:
    """Inverse of pixel_unshuffle: (B, C*factor^2, H, W) -> (B, C, H*factor, W*factor)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"pixel_shuffle: expected 4-d (B,C,H,W), got shape {x.shape}")
    b, c, h, w = x.shape
    if factor < 1 or c % (factor * factor) != 0:
        raise ValueError(f"pixel_shuffle: C={c} not divisible by factor^2={factor * factor}")
    cc = c // (factor * factor)
    y = x.reshape(b, cc, factor, factor, h, w)
    y = y.transpose(0, 1, 4, 2, 5, 3)
    return np.ascontiguousarray(y.reshape(b, cc, h * factor, w * factor))


def _sqrtm_psd(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition; negative eigenvalues
    (numerical noise) are clamped to zero."""
    sym = (a + a.T) / 2.0
    w, v = np.linalg.eigh(sym)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def gaussian_frechet_distance(mu1, cov1, mu2, cov2) -> float:
    """||mu1-mu2||^2 + tr(S1 + S2 - 2 (S1 S2)^{1/2}) between two Gaussians.

    The product square-root trace is computed as tr((A S2 A)^{1/2}) with
    A = S1^{1/2}, which equals tr((S1 S2)^{1/2}) and keeps the
    eigendecomposition on a symmetric matrix.
    """
    mu1 = np.asarray(mu1, dtype=np.float64).ravel()
    mu2 = np.asarray(mu2, dtype=np.float64).ravel()
    cov1 = np.asarray(cov1, dtype=np.float64)
    cov2 = np.asarray(cov2, dtype=np.float64)
    d = mu1.size
    if mu2.size != d or cov1.shape != (d, d) or cov2.shape != (d, d):
        raise ValueError(
            f"gaussian_frechet_distance: dimension mismatch "
            f"(mu {mu1.size}/{mu2.size}, cov {cov1.shape}/{cov2.shape})"
        )
    for name, cov in (("cov1", cov1), ("cov2", cov2)):
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-8 * (1.0 + np.abs(cov).max())):
            raise ValueError(f"gaussian_frechet_distance: {name} is not symmetric")
    if np.array_equal(cov1, cov2):
        trace_term = 0.0  # sqrt(S S) = S exactly, so the trace term vanishes
    else:
        a = _sqrtm_psd(cov1)
        inner = a @ cov2 @ a
        w = np.clip(np.linalg.eigvalsh((inner + inner.T) / 2.0), 0.0, None)
        trace_term = float(np.trace(cov1) + np.trace(cov2) - 2.0 * np.sqrt(w).sum())
    dist = float(((mu1 - mu2) ** 2).sum() + trace_term)
    # tiny negatives are eigensolver noise
    return max(dist, 0.0)


# --- binary dump format -----------------------------------------------------
# little-endian: u32 rank, u64 dims[rank], f64 data in C order

def tensor_to_bytes(x: np.ndarray) -> bytes:
    x = as_tensor(x)
    header = struct.pack("<I", x.ndim) + struct.pack(f"<{x.ndim}Q", *x.shape)
    return header + x.astype("<f8").tobytes(order="C")


def tensor_from_bytes(blob: bytes) -> np.ndarray:
    if len(blob) < 4:
        raise ValueError("tensor_from_bytes: truncated header")
    (rank,) = struct.unpack_from("<I", blob, 0)
    offset = 4 + 8 * rank
    if len(blob) < offset:
        raise ValueError("tensor_from_bytes: truncated dims")
    dims = struct.unpack_from(f"<{rank}Q", blob, 4)
    count = int(np.prod(dims)) if rank > 0 else 1
    expected = offset + 8 * count
    if len(blob) != expected:
        raise ValueError(f"tensor_from_bytes: expected {expected} bytes, got {len(blob)}")
    data = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
    return as_tensor(data.reshape(dims))


def save_tensor(path, x: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_to_bytes(x))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return tensor_from_bytes(fh.read())


def write_csv(path, header: list, rows) -> None:
    """Header plus one comma-joined line per row, `\n` line ends. Float cells
    are written with repr (shortest round-trip) and other cells with str, so
    equal values always give equal bytes."""
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
