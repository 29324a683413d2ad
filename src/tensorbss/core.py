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

import math
from dataclasses import dataclass

import numpy as np

from .indexing import multiplicities, packed_index, packed_length, packing_positions


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
        arr = np.asarray(self.array, dtype=float, order="C")  # keeps order 0 a 0-d array
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
        if min(dims, default=1) < 1:
            raise ValueError(f"every dimension must be >= 1, got {list(dims)}")
        if data.shape != (math.prod(dims),):
            raise ValueError("data length does not match the product of dims")
        return cls(data.reshape(dims))

    def norm(self) -> float:
        return float(np.linalg.norm(self.array))


def _has_packed_length(dim: int, order: int, size: int) -> bool:
    """Whether ``size == packed_length(dim, order)``, refusing a larger binomial early.

    The binomial is ``comb(m + k, k)`` with ``k = min(dim - 1, order)`` and
    ``m = max(dim - 1, order)``.  It is built as a running product of exact
    binomials ``comb(m + i, i)``, which at least doubles at each factor, and
    the build stops once it passes ``size``: a huge dim or order is refused
    after a few steps, and no binomial much larger than ``size`` is formed.
    """
    m, b = max(dim - 1, order), 1
    for i in range(1, min(dim - 1, order) + 1):
        b = b * (m + i) // i
        if b > size:
            return False
    return b == size


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
        if self.dim < 1 or self.order < 1:
            raise ValueError(f"dimension and order must be >= 1, got {self.dim} and {self.order}")
        packed = np.asarray(self.packed, dtype=float)
        if packed.ndim != 1 or not _has_packed_length(self.dim, self.order, packed.size):
            raise ValueError(f"packed storage of shape {packed.shape} does not fit "
                             f"dimension {self.dim} and order {self.order}")
        packed = packed.copy()
        packed.setflags(write=False)
        object.__setattr__(self, "packed", packed)

    def expand(self) -> DenseTensor:
        pos = packing_positions(self.dim, self.order)
        full = self.packed[pos].reshape((self.dim,) * self.order)
        return DenseTensor(full)

    def entry(self, *axes: int) -> float:
        """Entry at 0-based indices ``axes`` (any permutation gives the same value).

        Negative indices count from the end, as in numpy; an index outside
        ``-dim..dim-1``, or other than ``order`` indices, raises ``IndexError``.
        """
        if len(axes) != self.order:
            raise IndexError(f"expected {self.order} indices, got {len(axes)}")
        rows = sorted(range(self.dim)[i] for i in axes)
        return float(self.packed[packed_index(rows, self.dim)])

    def norm(self) -> float:
        """Frobenius norm of the expanded tensor, computed from packed storage."""
        c = multiplicities(self.dim, self.order)
        return float(np.sqrt(np.sum(c * self.packed**2)))

    @classmethod
    def from_dense(cls, t) -> "SymTensor":
        """Pack an (already symmetric) dense tensor.

        Rejects an entry off its symmetrization by more than ``1e-8 * max(1, max|t|)``.
        """
        arr = _as_array(t)
        dims = set(arr.shape)
        if len(dims) > 1:
            raise ValueError("symmetric tensors need equal dimensions on every mode")
        sym = symmetrize(arr)
        scale = max(1.0, float(np.abs(arr).max(initial=0.0)))
        if np.abs(sym.expand().array - arr).max(initial=0.0) > 1e-8 * scale:
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

    One BLAS product per mode, ``out.reshape(n_k, rest).T @ m.T``, moves the
    leading axis through its matrix to the end, so the axes end in order; each
    input, a ``SymTensor``'s expansion too, is rebound: at most two arrays are alive.
    """
    out = _as_array(t)
    matrices = [np.asarray(m, dtype=float) for m in matrices]
    if len(matrices) != out.ndim:
        raise ValueError(f"expected {out.ndim} matrices, got {len(matrices)}")
    for k, m in enumerate(matrices):
        # mode k+1 leads; both sizes are given, as -1 is ambiguous at a zero-size axis
        if m.ndim != 2 or m.shape[1] != out.shape[0]:
            raise ValueError(f"matrix {k} must have {out.shape[0]} columns")
        rest = out.shape[1:]
        out = (out.reshape(out.shape[0], math.prod(rest)).T @ m.T).reshape(rest + m.shape[:1])
    return DenseTensor(out)


def mode_n_unfold(t, n: int) -> np.ndarray:
    """Mode-``n`` unfolding: rows follow index ``n``, columns the remaining indices."""
    arr = _as_array(t)
    if not 1 <= n <= arr.ndim:
        raise ValueError(f"mode {n} invalid for an order-{arr.ndim} tensor")
    return np.moveaxis(arr, n - 1, 0).reshape(arr.shape[n - 1], -1)


def leading_left_vectors(mat, k: int) -> np.ndarray:
    """At most ``k`` leading left singular vectors of ``mat``, as columns.

    Only vectors whose singular value exceeds ``1e-12`` times the largest are
    usable, so a zero matrix gives none.  With ``Q R`` the QR of ``mat.T``,
    ``R^T`` has the singular values and left vectors of ``mat``, and the SVD
    runs on it alone: no right vectors of the long side are formed.
    """
    r = np.linalg.qr(np.asarray(mat, dtype=float).T, mode="r")
    u, s, _ = np.linalg.svd(r.T, full_matrices=False)
    return u[:, : min(k, int(np.sum(s > s[:1] * 1e-12)))]


def mode_n_rank(t, n: int) -> int:
    """Numerical rank of the mode-``n`` unfolding.

    Singular values above ``max(dims) * 1e-12 * sigma_1`` count; the tensor rank
    is never smaller than any mode rank.
    """
    arr = _as_array(t)
    m = mode_n_unfold(arr, n)
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > max(arr.shape) * 1e-12 * s[0]))


def frobenius_inner(g, h) -> float:
    """Entrywise scalar product ``sum_i G_i H_i``; its square root is the norm."""
    g, h = _as_array(g), _as_array(h)
    if g.shape != h.shape:
        raise ValueError(f"shape mismatch: {g.shape} vs {h.shape}")
    return float(np.sum(g * h))


def symmetrize(t) -> SymTensor:
    """Average a cubical tensor over all index permutations and pack it.

    Sums by ``np.add.at``, in ``np.bincount``'s order; ``bincount`` would copy
    the read-only ``n^d`` arrays: the cached positions and any ``DenseTensor``.
    """
    arr = _as_array(t)
    if arr.ndim == 0:
        raise ValueError("cannot symmetrize a scalar")
    if len(set(arr.shape)) > 1:
        raise ValueError("symmetrize needs equal dimensions on every mode")
    n, d = arr.shape[0], arr.ndim
    # a packed slot has as many index tuples as its multiplicity
    pos, size = packing_positions(n, d), packed_length(n, d)
    sums = np.zeros(size)
    np.add.at(sums, pos, arr.reshape(-1))
    return SymTensor(n, d, sums / multiplicities(n, d))


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


def lead_signs(m) -> np.ndarray:
    """Per column of ``m`` (or for a vector), -1.0 where the entry of largest
    magnitude (the first, on ties) is negative and 1.0 elsewhere."""
    lead = np.take_along_axis(m, np.argmax(np.abs(m), axis=0)[None], axis=0)[0]
    return np.where(lead < 0, -1.0, 1.0)


SAFE_EXPONENT = 256


def safe_exponent(peak: float) -> int:
    """The power of two ``e`` to divide an array of largest magnitude ``peak`` by,
    ``np.ldexp(arr, -e)``, so that its squared norms neither overflow nor underflow:
    0 when ``peak`` is 0 or lies within ``2**(+-SAFE_EXPONENT)``, else the binary
    exponent that brings ``peak`` into ``[0.5, 1)``.  The division is exact."""
    return 0 if 2.0**-SAFE_EXPONENT <= peak <= 2.0**SAFE_EXPONENT else int(np.frexp(peak)[1])


def poly_roots(rows) -> np.ndarray:
    """Each row's polynomial roots (ascending coefficients), sorted, as complex.

    A top coefficient at most ``1e-14`` times its row's largest magnitude is
    trimmed, and its root slot, after the row's sorted roots, is ``nan``.  The
    roots are the eigenvalues of numpy's ``polycompanion``, one stacked
    ``eigvals`` call for each degree the rows have after trimming, on the rows
    of that degree alone, so each row's result depends on that row alone.
    """
    c = np.asarray(rows, dtype=float)
    m, deg = c.shape[0], c.shape[1] - 1
    width, roots, left = max(deg, 0), None, np.arange(m)  # roots made once a row trims
    while deg >= 1 and len(c):
        mag = np.abs(c)
        trimmed = mag[:, -1] <= 1e-14 * mag.max(axis=1)
        if not trimmed.all():
            top = c[~trimmed] if trimmed.any() else c  # only the rows of this degree
            comp = np.zeros((len(top), deg, deg))
            comp.reshape(len(top), -1)[:, deg :: deg + 1] = 1.0
            comp[:, :, -1] = top[:, :-1] / -top[:, -1:]
            solved = np.sort(np.linalg.eigvals(comp), axis=1).astype(complex, copy=False)
            if deg == width and top is c:
                return solved  # no row trimmed: no nan to fill
            if roots is None:
                roots = np.full((m, width), np.nan, dtype=complex)
            roots[left[~trimmed], :deg] = solved
            left, c = left[trimmed], c[trimmed]
        c, deg = c[:, :-1], deg - 1
    return np.full((m, width), np.nan, dtype=complex) if roots is None else roots


def is_real(roots) -> np.ndarray:
    """Which roots count as real: ``|imag| <= 1e-8 * (1 + |real|)``, never a ``nan`` slot."""
    return np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots.real))


def real_roots(coeffs_ascending) -> np.ndarray:
    """Sorted real roots of one polynomial, by :func:`poly_roots` and :func:`is_real`."""
    roots = poly_roots(np.asarray(coeffs_ascending, dtype=float)[None])[0]
    return roots.real[is_real(roots)]
