"""Dense and symmetric tensor types with the multilinear products used everywhere else.

Conventions, fixed once for the whole package:

* entries are real ``float64`` scalars in row-major layout (last index fastest);
* mode numbers are 1-based (``mode 1`` is the first axis), matching the usual
  mathematical naming, while entry indices are plain 0-based numpy indices;
* unfoldings enumerate their columns lexicographically over the remaining
  modes taken in increasing mode order;
* symmetric tensors are packed with one scalar per multi-index, in the
  descending-lex enumeration of :mod:`tensorbss.indexing`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indexing import (
    counts_from_axes,
    mindex_position,
    multiplicities,
    packed_length,
    packing_positions,
)


def _as_array(t) -> np.ndarray:
    if isinstance(t, DenseTensor):
        return t.array
    if isinstance(t, SymTensor):
        return t.expand().array
    return np.asarray(t, dtype=float)


@dataclass(frozen=True)
class DenseTensor:
    """Order-``d`` array of real scalars; order 0 is a scalar, order 1 a vector."""

    array: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.array, dtype=float))
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @property
    def order(self) -> int:
        return self.array.ndim

    @property
    def dims(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the entries."""
        return self.array.reshape(-1)

    @classmethod
    def from_flat(cls, dims, data) -> "DenseTensor":
        dims = tuple(int(n) for n in dims)
        data = np.asarray(data, dtype=float)
        if data.size != int(np.prod(dims, dtype=np.int64)):
            raise ValueError("data length does not match the product of dims")
        return cls(data.reshape(dims))

    def norm(self) -> float:
        return float(np.linalg.norm(self.array))


@dataclass(frozen=True)
class SymTensor:
    """Symmetric tensor stored by distinct entries, one per multi-index.

    ``packed[p]`` is the common value of every entry whose axis counts equal
    the ``p``-th multi-index of ``multi_indices(dim, order)``.
    """

    dim: int
    order: int
    packed: np.ndarray

    def __post_init__(self):
        packed = np.asarray(self.packed, dtype=float)
        expected = packed_length(self.dim, self.order)
        if packed.shape != (expected,):
            raise ValueError(f"packed storage must have length {expected}, got {packed.shape}")
        packed = packed.copy()
        packed.setflags(write=False)
        object.__setattr__(self, "packed", packed)

    def expand(self) -> DenseTensor:
        pos = packing_positions(self.dim, self.order)
        full = self.packed[pos].reshape((self.dim,) * self.order)
        return DenseTensor(full)

    def entry(self, *axes: int) -> float:
        """Entry at 0-based indices ``axes`` (any permutation gives the same value)."""
        j = counts_from_axes(axes, self.dim)
        return float(self.packed[mindex_position(self.dim, self.order)[j]])

    def norm(self) -> float:
        """Frobenius norm of the expanded tensor, computed from packed storage."""
        c = multiplicities(self.dim, self.order)
        return float(np.sqrt(np.sum(c * self.packed**2)))

    @classmethod
    def from_dense(cls, t, tol: float = 1e-8) -> "SymTensor":
        """Pack an (already symmetric) dense tensor; reject asymmetry beyond ``tol``."""
        arr = _as_array(t)
        dims = set(arr.shape)
        if len(dims) > 1:
            raise ValueError("symmetric tensors need equal dimensions on every mode")
        sym = symmetrize(arr)
        scale = max(1.0, float(np.abs(arr).max(initial=0.0)))
        if np.abs(sym.expand().array - arr).max(initial=0.0) > tol * scale:
            raise ValueError("input tensor is not symmetric within tolerance")
        return sym


def outer_product(a, b) -> DenseTensor:
    """Outer product; the result order is the sum of the input orders."""
    a, b = _as_array(a), _as_array(b)
    return DenseTensor(np.multiply.outer(a, b))


def contract(a, b, p: int = 1, q: int = 1) -> DenseTensor:
    """Contraction over mode ``p`` of ``a`` and mode ``q`` of ``b`` (1-based).

    The shared dimension is summed; remaining modes of ``a`` are followed by
    the remaining modes of ``b``.  With both defaults the first indices are
    contracted, so the ordinary matrix-vector product ``A u`` is
    ``contract(A.T, u)``.
    """
    a, b = _as_array(a), _as_array(b)
    if not 1 <= p <= a.ndim or not 1 <= q <= b.ndim:
        raise ValueError("contraction mode out of range")
    if a.shape[p - 1] != b.shape[q - 1]:
        raise ValueError(
            f"cannot contract: mode {p} of left operand has dimension "
            f"{a.shape[p - 1]} but mode {q} of right operand has {b.shape[q - 1]}"
        )
    return DenseTensor(np.tensordot(a, b, axes=(p - 1, q - 1)))


def tucker_transform(t, matrices) -> DenseTensor:
    """Multilinear change of coordinates ``T'_{ij..} = sum A_{ia} B_{jb} .. T_{ab..}``.

    ``matrices[k]`` acts on mode ``k+1`` and must have as many columns as that
    mode's dimension; output dimensions are the matrices' row counts.
    """
    arr = _as_array(t)
    matrices = [np.asarray(m, dtype=float) for m in matrices]
    if len(matrices) != arr.ndim:
        raise ValueError(f"expected {arr.ndim} matrices, got {len(matrices)}")
    for k, m in enumerate(matrices):
        if m.ndim != 2 or m.shape[1] != arr.shape[k]:
            raise ValueError(f"matrix {k} must have {arr.shape[k]} columns")
    out = arr
    for k, m in enumerate(matrices):
        out = np.moveaxis(np.tensordot(m, out, axes=(1, k)), 0, k)
    return DenseTensor(out)


def mode_n_unfold(t, n: int) -> np.ndarray:
    """Mode-``n`` unfolding: rows follow index ``n``, columns the remaining indices."""
    arr = _as_array(t)
    if not 1 <= n <= arr.ndim:
        raise ValueError(f"mode {n} invalid for an order-{arr.ndim} tensor")
    return np.moveaxis(arr, n - 1, 0).reshape(arr.shape[n - 1], -1)


def mode_n_rank(t, n: int, eps: float = 1e-12) -> int:
    """Numerical rank of the mode-``n`` unfolding.

    Singular values above ``max(dims) * eps * sigma_1`` count; the tensor rank
    is never smaller than any mode rank.
    """
    arr = _as_array(t)
    m = mode_n_unfold(arr, n)
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > max(arr.shape) * eps * s[0]))


def frobenius_inner(g, h) -> float:
    """Entrywise scalar product ``sum_i G_i H_i``; its square root is the norm."""
    g, h = _as_array(g), _as_array(h)
    if g.shape != h.shape:
        raise ValueError(f"shape mismatch: {g.shape} vs {h.shape}")
    return float(np.sum(g * h))


def symmetrize(t) -> SymTensor:
    """Average a cubical tensor over all index permutations and pack it."""
    arr = _as_array(t)
    if arr.ndim == 0:
        raise ValueError("cannot symmetrize a scalar")
    if len(set(arr.shape)) > 1:
        raise ValueError("symmetrize needs equal dimensions on every mode")
    n, d = arr.shape[0], arr.ndim
    pos = packing_positions(n, d)
    flat = arr.reshape(-1)
    sums = np.bincount(pos, weights=flat, minlength=packed_length(n, d))
    counts = np.bincount(pos, minlength=packed_length(n, d))
    return SymTensor(n, d, sums / counts)


def rank1_sym(w, d: int, weight: float = 1.0) -> DenseTensor:
    """Dense ``weight * w ∘ w ∘ ... ∘ w`` with ``d`` factors."""
    w = np.asarray(w, dtype=float).reshape(-1)
    out = np.array(weight, dtype=float)
    for _ in range(d):
        out = np.multiply.outer(out, w)
    return DenseTensor(out)


def greedy_match(score) -> list[int]:
    """Greedy one-to-one assignment of rows to columns by descending score.

    Repeatedly takes the largest remaining entry, the first in row-major
    order on ties, and retires its row and column.  Entry ``r`` of the result
    is the column given to row ``r``, or -1 when the columns ran out first.
    """
    s = np.array(score, dtype=float)
    match = [-1] * s.shape[0]
    for _ in range(min(s.shape)):
        r, c = divmod(int(np.argmax(s)), s.shape[1])
        match[r] = c
        s[r, :] = -np.inf
        s[:, c] = -np.inf
    return match


def real_roots(coeffs_ascending) -> np.ndarray:
    """Sorted real roots of a polynomial given by ascending coefficients.

    Coefficients below ``1e-14`` times the largest magnitude are dropped from
    the top; the roots are the eigenvalues of the companion matrix, and those
    with imaginary part within ``1e-8 * (1 + |real part|)`` count as real.
    """
    c = np.asarray(coeffs_ascending, dtype=float)
    mag = np.abs(c)
    scale = mag.max(initial=0.0)
    kept = np.flatnonzero(mag > 1e-14 * scale)
    if scale == 0.0 or kept.size == 0 or kept[-1] == 0:
        return np.array([])
    c = c[: kept[-1] + 1]
    if c.size == 2:
        roots = np.array([-c[0] / c[1]])
    else:
        # the companion matrix as numpy.polynomial's polycompanion builds it
        deg = c.size - 1
        mat = np.zeros((deg, deg))
        mat.reshape(-1)[deg :: deg + 1] = 1.0
        mat[:, -1] -= c[:-1] / c[-1]
        roots = np.linalg.eigvals(mat)
        roots.sort()
    return np.real(roots[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots.real))])
