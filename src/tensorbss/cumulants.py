"""Sample cumulant tensors of orders 1 to 4.

Estimators are plug-in: central moments with 1/N normalization combined by
the order-4 pairing formula

    C_ijkl = m_ijkl - m_ij m_kl - m_ik m_jl - m_il m_jk.

This choice keeps the estimators exactly multilinear, so transforming the
samples by any matrix M and transforming the tensor by the Tucker product
with M on every mode give identical results up to rounding.

The same rule lets :func:`cumulant_tensor` return the cumulant of the rows of
``z @ M.T``, for any matrix ``M`` with ``n`` columns (a whitener, say),
without forming them.  The sums run as matrix products over blocks of
``BLOCK_ROWS`` samples, and each block is centered and mapped as it is read,
``x = M (block - mean)^T`` (``M`` the identity when none is given), so ``x``
holds one transformed sensor per row and the samples are never copied whole.
The pair products ``p = [x_i x_j]``, ``i <= j``, are built row by row (each
row of ``p`` the product of two contiguous rows of ``x``): order 4 accumulates
``p p^T``, order 3 ``p x^T`` and order 2 ``x x^T``: rows the sorted
``k``-tuples of axes, ``k = d - d // 2``, and columns the sorted
``(d - k)``-tuples, in packed order.  Each distinct entry, a sorted
``d``-tuple, is gathered once at the slots of its first ``k`` axes and of the
rest, so the returned tensors are symmetric by construction.
The same input, in the same process and with the same BLAS thread count,
gives identical bytes; nothing is promised across machines, BLAS builds or
thread counts, which may sum in another order.

Samples are plain arrays with one observation per row.
"""

from __future__ import annotations

import numpy as np

from .core import SymTensor
from .indexing import packed_index, sorted_axes

MAX_ORDER = 4
# Samples per block: the pair products of a block stay small (136 x 512 at 16
# sensors) and never grow with the sample count.
BLOCK_ROWS = 512


def as_samples(z) -> np.ndarray:
    """``z`` as a float array of samples, checked without a temporary of its size."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError("samples must be a 2-D array, one observation per row")
    if z.shape[0] < 1:
        raise ValueError("at least one sample is required")
    if z.shape[1] < 1:
        raise ValueError("samples must have at least one column")
    if not np.isfinite([z.min(), z.max()]).all():  # a nan or an inf reaches one of them
        raise ValueError("samples must be finite")
    return z


def _packed_moment(z: np.ndarray, shift: np.ndarray, d: int, m: np.ndarray | None = None):
    """Packed order-``d`` moment (``d`` 2 to 4) of the rows of ``x = (z - shift) @ m.T``,
    ``m`` the identity when None, and the matrix of second moments."""
    m = np.eye(z.shape[1]) if m is None else m
    n = m.shape[0]
    iu, ju = np.triu_indices(n)
    m2 = np.zeros((n, n))
    high = np.zeros((iu.size, n if d == 3 else iu.size)) if d > 2 else None
    for start in range(0, z.shape[0], BLOCK_ROWS):
        x = m @ (z[start : start + BLOCK_ROWS] - shift).T
        m2 += x @ x.T
        if d > 2:
            p = x[iu]
            p *= x[ju]
            high += p @ (x if d == 3 else p).T
    m2 /= z.shape[0]
    if d > 2:
        high /= z.shape[0]
    a, k = sorted_axes(n, d), d - d // 2
    return (m2 if d == 2 else high)[packed_index(a[:, :k], n), packed_index(a[:, k:], n)], m2


def cumulant_tensor(z, d: int, transform=None) -> SymTensor:
    """Cumulant tensor of order ``d`` of the rows of ``z @ transform.T``, ``transform``
    a matrix with one column per column of ``z`` and one row per axis of the result
    (the identity when None); orders 2+ remove the sample mean first.

    Each block of samples is mapped by ``transform`` as it is read (see the module
    docstring), so the transformed samples are never formed; by multilinearity the
    result equals ``tucker_transform(cumulant_tensor(z, d), [transform] * d)`` up to
    rounding.  A cumulant that overflows the float range raises ``ValueError``, and so
    does one that underflows: every entry below the normal range while the samples'
    spread, raised to the power ``d``, is too.
    """
    if not 1 <= d <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}")
    z = as_samples(z)
    m = np.eye(z.shape[1]) if transform is None else np.asarray(transform, dtype=float)
    if m.ndim != 2 or m.shape[1] != z.shape[1] or not np.isfinite(m).all():
        raise ValueError(f"transform must be a finite 2-D matrix with {z.shape[1]} columns, "
                         f"got shape {m.shape}")
    n = m.shape[0]
    if d == 1:
        return SymTensor(n, 1, m @ z.mean(axis=0))
    if z.shape[0] < 2:
        raise ValueError("orders >= 2 need at least two samples")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        packed, m2 = _packed_moment(z, z.mean(axis=0), d, m)
        if d == 4:
            i, j, k, l = sorted_axes(n, 4).T
            packed = packed - m2[i, j] * m2[k, l] - m2[i, k] * m2[j, l] - m2[i, l] * m2[j, k]
    if not np.isfinite(packed).all():
        raise ValueError(f"the order-{d} cumulant overflows the float range")
    tiny = np.finfo(float).tiny
    if np.abs(packed).max() < tiny:
        # all zero or subnormal: an underflow when even the largest centred, mapped entry
        # (at most peak) has a d-th power below the normal range; constant samples (peak 0)
        # and cancellations at a representable scale keep their zeros
        peak = np.max(np.abs(m) @ np.ptp(z, axis=0))
        if 0 < peak < tiny ** (1 / d):
            raise ValueError(f"the order-{d} cumulant underflows the float range")
    return SymTensor(n, d, packed)
