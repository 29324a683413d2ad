"""Sample cumulant tensors of orders 1 to 4.

Estimators are plug-in: central moments with 1/N normalization combined by
the order-4 pairing formula

    C_ijkl = m_ijkl - m_ij m_kl - m_ik m_jl - m_il m_jk.

This choice keeps the estimators exactly multilinear, so transforming the
samples by any matrix M and transforming the tensor by the Tucker product
with M on every mode give identical results up to rounding.

The sums run as matrix products over blocks of ``BLOCK_ROWS`` rows: with the
pair products ``p = [x_i x_j]``, ``i <= j``, of a centered row ``x``, order 4
accumulates ``p p^T``, order 3 ``p x^T`` and order 2 ``x x^T``.  Each distinct
entry is then gathered once from those matrices and broadcast, so the
returned tensors are symmetric by construction.  The same input, in the same
process and with the same BLAS thread count, gives identical bytes; nothing
is promised across machines, BLAS builds or thread counts, which may sum in
another order.

Samples are plain arrays with one observation per row.
"""

from __future__ import annotations

import numpy as np

from .core import SymTensor
from .indexing import sorted_axes

MAX_ORDER = 4
# Rows per block: the pair products of a block stay small (512 x 136 at 16
# sensors) and never grow with the sample count.
BLOCK_ROWS = 512


def as_samples(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError("samples must be a 2-D array, one observation per row")
    if z.shape[0] < 1:
        raise ValueError("at least one sample is required")
    if not np.all(np.isfinite(z)):
        raise ValueError("samples must be finite")
    return z


def _packed_moment(z: np.ndarray, shift: np.ndarray, d: int):
    """Packed order-``d`` moment (``d`` 2 to 4) of the rows of ``x = z - shift``, and
    the matrix of second moments."""
    n = z.shape[1]
    iu, ju = np.triu_indices(n)
    m2 = np.zeros((n, n))
    high = np.zeros((iu.size, n if d == 3 else iu.size)) if d > 2 else None
    for start in range(0, z.shape[0], BLOCK_ROWS):
        x = z[start : start + BLOCK_ROWS] - shift
        m2 += x.T @ x
        if d > 2:
            p = x[:, iu] * x[:, ju]
            high += p.T @ (x if d == 3 else p)
    m2 /= z.shape[0]
    a = sorted_axes(n, d).T
    if d == 2:
        return m2[a[0], a[1]], m2
    pair = np.empty((n, n), dtype=np.intp)
    pair[iu, ju] = np.arange(iu.size)
    high /= z.shape[0]
    if d == 3:
        return high[pair[a[0], a[1]], a[2]], m2
    return high[pair[a[0], a[1]], pair[a[2], a[3]]], m2


def cumulant_tensor(z, d: int) -> SymTensor:
    """Cumulant tensor of order ``d``; orders 2+ remove the sample mean first."""
    if not 1 <= d <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}")
    z = as_samples(z)
    n = z.shape[1]
    if d == 1:
        return SymTensor(n, 1, z.mean(axis=0))
    if z.shape[0] < 2:
        raise ValueError("orders >= 2 need at least two samples")
    packed, m2 = _packed_moment(z, z.mean(axis=0), d)
    if d == 4:
        i, k, l, m = sorted_axes(n, 4).T
        packed = packed - m2[i, k] * m2[l, m] - m2[i, l] * m2[k, m] - m2[i, m] * m2[k, l]
    return SymTensor(n, d, packed)
