"""Multi-index bookkeeping shared by the tensor and polynomial layers.

A multi-index ``j`` is a length-``n`` tuple of nonnegative integers; its
weight ``|j|`` is the sum of the entries.  Symmetric tensors of order ``d``
and dimension ``n`` are stored with one scalar per multi-index of weight
``d``.  The slot of ``j`` is defined through the ascending tuple ``a`` of its
``d`` axes, as the number of ascending tuples lexicographically before ``a``
(the combinatorial number system), which :func:`packed_index` computes::

    slot(a) = sum_k comb(n - a[k-1] + m, m + 1) - comb(n - a[k] + m, m + 1)

with ``m = d - 1 - k`` and ``a[-1] = 0``; term ``k`` counts the tuples that
first differ from ``a`` in slot ``k``.  On multi-indices this is descending
lex order, ``(d,0,..,0)`` first and ``(0,..,0,d)`` last.

The ascending tuples and their multiplicities are enumerated once, level by
level over the degree (:func:`_enumeration`); :func:`sorted_axes`,
:func:`multiplicities` and :func:`multi_indices` all read that build.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np


@lru_cache(maxsize=None)
def _enumeration(nvars: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sorted_axes` and :func:`multiplicities` from one build, read-only.

    From the empty tuple, each level follows every ascending prefix by each
    axis from its last axis up, so the rows stay in lexicographic order.  The
    multiplicity is carried along exactly, in Python ints: the ``k``-th axis,
    closing a run of ``r`` equal axes, multiplies it by ``k / r``.  One
    variable has one row, a broadcast view, so a huge degree costs nothing.
    """
    if nvars <= 0:
        raise ValueError("nvars must be positive")
    if nvars == 1:
        axes, mult = np.broadcast_to(np.intp(0), (1, degree)), np.ones(1, dtype=object)
    else:
        axes, mult = np.empty((1, 0), np.intp), np.ones(1, dtype=object)
        last = run = np.zeros(1, np.intp)  # the empty prefix: next axis from 0, no run yet
        for k in range(1, degree + 1):
            size = nvars - last
            row = np.repeat(np.arange(len(last)), size)
            b = last[row] + np.arange(row.size) - (np.cumsum(size) - size)[row]
            run = np.where(b == last[row], run[row] + 1, 1)
            mult = mult[row] * k // run
            axes, last = np.column_stack((axes[row], b)), b
    mult = mult.astype(float)
    mult.setflags(write=False)
    axes.setflags(write=False)
    return axes, mult


@lru_cache(maxsize=None)
def multi_indices(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All weight-``degree`` multi-indices on ``nvars`` variables, descending lex order.

    Entry ``k`` of multi-index ``p`` counts axis ``k`` in row ``p`` of
    :func:`sorted_axes`; the last count is the rest of the degree, so the
    single row of one variable is never read.
    """
    axes = sorted_axes(nvars, degree)
    below = (axes[:, :, None] < np.arange(1, nvars)).sum(axis=1)  # axes below 1..nvars-1
    counts = np.diff(below, axis=1, prepend=0, append=degree)
    return tuple(map(tuple, counts.tolist()))


def packed_length(nvars: int, degree: int) -> int:
    return comb(nvars + degree - 1, degree)


def packed_index(axes, nvars: int) -> np.ndarray:
    """Packed slot of each row (the last dimension) of ascending axes in ``0..nvars-1``.

    The module docstring's sum, telescoped by Pascal's rule into
    ``packed_length - 1 - sum_k comb(n - 1 - a[k] + m, m + 1)``, each term
    gathered from a length-``n`` table: nothing of size ``n^d`` is built.
    """
    a = np.asarray(axes, dtype=np.intp)
    d = a.shape[-1]
    slot = np.full(a.shape[:-1], packed_length(nvars, d) - 1, dtype=np.intp)
    term = x = np.arange(nvars - 1, -1, -1, dtype=np.intp)  # comb(x + m, m + 1), x = n - 1 - v
    for m in range(d):
        slot -= term[a[..., d - 1 - m]]
        term = term * (x + m + 1) // (m + 2)  # exact: (m + 2) comb(x + m + 1, m + 2)
    return slot


def multiplicity(j) -> int:
    """Multinomial coefficient ``|j|! / prod(j_k!)``: how many index tuples share ``j``.

    Computed as ``prod_k comb(j_0 + .. + j_k, j_k)``, so no factorial of
    ``|j|`` is formed.
    """
    j = tuple(int(v) for v in j)
    if any(v < 0 for v in j):
        raise ValueError("multi-index entries must be nonnegative")
    num, total = 1, 0
    for v in j:
        total += v
        num *= comb(total, v)
    return num


def multiplicities(nvars: int, degree: int) -> np.ndarray:
    """Multiplicity of each packed multi-index, in enumeration order, read-only."""
    return _enumeration(nvars, degree)[1]


def sorted_axes(nvars: int, degree: int) -> np.ndarray:
    """Sorted 0-based axes of every packed multi-index, row ``p`` for slot ``p``, read-only.

    The rows are the ascending ``degree``-tuples in lexicographic order.
    """
    return _enumeration(nvars, degree)[0]


@lru_cache(maxsize=None)
def packing_positions(nvars: int, degree: int) -> np.ndarray:
    """Packed position of every full index tuple, flattened in C order.

    Entry ``t`` of the result is the :func:`packed_index` of the ``t``-th
    tuple in ``product(range(nvars), repeat=degree)``, its axes sorted.  The
    tuples are sorted one leading index's block of ``nvars^(degree-1)`` at a
    time, so the only temporaries are block sized.
    """
    width = nvars ** (degree - 1)
    block = np.empty((width, degree), dtype=np.intp)
    rest = np.indices((nvars,) * (degree - 1), dtype=np.intp).reshape(degree - 1, width)
    out = np.empty(nvars * width, dtype=np.intp)
    for i in range(nvars):
        block[:, 0] = i
        block[:, 1:] = rest.T
        block.sort(axis=1)
        out[i * width:(i + 1) * width] = packed_index(block, nvars)
    out.setflags(write=False)
    return out
