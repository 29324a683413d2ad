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
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np


@lru_cache(maxsize=None)
def multi_indices(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All weight-``degree`` multi-indices on ``nvars`` variables, descending lex order."""
    return tuple(map(tuple, _counts(nvars, degree).tolist()))


@lru_cache(maxsize=None)
def _counts(nvars: int, degree: int) -> np.ndarray:
    """:func:`multi_indices` as a read-only ``packed_length x nvars`` array.

    The counts are enumerated directly, one variable at a time: each prefix
    of the first counts is followed by every count of the next variable that
    fits its remaining weight, largest first, and the last variable takes the
    rest.  Nothing ``degree`` long is built, so a huge degree on one variable
    is one row.  The order is that of :func:`sorted_axes`' rows.
    """
    if nvars <= 0:
        raise ValueError("nvars must be positive")
    steps, rest = [], np.array([degree], dtype=np.intp)
    for _ in range(nvars - 1):
        size = rest + 1
        row = np.repeat(np.arange(rest.size), size)
        j = rest[row] - (np.arange(row.size) - (np.cumsum(size) - size)[row])
        steps.append((row, j))
        rest = rest[row] - j
    out = np.empty((nvars, rest.size), dtype=np.intp)
    out[-1], row = rest, np.arange(rest.size)
    for k in range(nvars - 2, -1, -1):  # follow each row back through its prefixes
        out[k] = steps[k][1][row]
        row = steps[k][0][row]
    out.setflags(write=False)
    return out.T


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


@lru_cache(maxsize=None)
def multiplicities(nvars: int, degree: int) -> np.ndarray:
    """Multiplicity of each packed multi-index, in enumeration order.

    A multiplicity depends only on the multiset of counts, and at most
    ``degree`` of them are nonzero, so it is computed once per distinct row
    of the largest ``min(nvars, degree)`` counts, ascending.
    """
    counts = np.sort(_counts(nvars, degree), axis=1)[:, -min(nvars, max(degree, 1)):]
    order = np.lexsort(counts.T)
    counts = counts[order]
    first = np.ones(len(counts), dtype=bool)
    first[1:] = (counts[1:] != counts[:-1]).any(axis=1)
    arr = np.empty(len(counts))
    arr[order] = np.array([multiplicity(j) for j in counts[first].tolist()], dtype=float)[
        np.cumsum(first) - 1
    ]
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def sorted_axes(nvars: int, degree: int) -> np.ndarray:
    """Sorted 0-based axes of every packed multi-index, row ``p`` for slot ``p``, read-only.

    Row ``p`` repeats each axis as often as row ``p`` of :func:`_counts`
    counts it, so the rows are the ascending tuples in lexicographic order.
    """
    counts = _counts(nvars, degree)
    out = np.repeat(np.tile(np.arange(nvars, dtype=np.intp), len(counts)), counts.ravel())
    out = out.reshape(len(counts), degree)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def packing_positions(nvars: int, degree: int) -> np.ndarray:
    """Packed position of every full index tuple, flattened in C order.

    Entry ``t`` of the result is the :func:`packed_index` of the ``t``-th
    tuple in ``product(range(nvars), repeat=degree)``, its axes sorted.
    """
    axes = np.indices((nvars,) * degree, dtype=np.intp).reshape(degree, -1)
    axes.sort(axis=0)
    out = packed_index(axes.T, nvars)
    out.setflags(write=False)
    return out

