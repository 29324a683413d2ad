"""Multi-index bookkeeping shared by the tensor and polynomial layers.

A multi-index ``j`` is a length-``n`` tuple of nonnegative integers; its
weight ``|j|`` is the sum of the entries.  Symmetric tensors of order ``d``
and dimension ``n`` are stored with one scalar per multi-index of weight
``d``, enumerated in lexicographically descending order (``(d,0,..,0)``
first, ``(0,..,0,d)`` last).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial

import numpy as np


@lru_cache(maxsize=None)
def multi_indices(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All weight-``degree`` multi-indices on ``nvars`` variables, descending lex order.

    Counts the axes of each row of :func:`sorted_axes`, so the two share one order.
    """
    if nvars <= 0:
        raise ValueError("nvars must be positive")
    axes = sorted_axes(nvars, degree)
    counts = np.zeros((len(axes), nvars), dtype=np.intp)
    np.add.at(counts, (np.arange(len(axes))[:, None], axes), 1)
    return tuple(map(tuple, counts.tolist()))


@lru_cache(maxsize=None)
def mindex_position(nvars: int, degree: int) -> dict[tuple[int, ...], int]:
    """Map each multi-index to its position in the packed enumeration."""
    return {j: p for p, j in enumerate(multi_indices(nvars, degree))}


def packed_length(nvars: int, degree: int) -> int:
    return comb(nvars + degree - 1, degree)


def counts_from_axes(idx, nvars: int) -> tuple[int, ...]:
    """Occurrence counts of 0-based array indices ``idx`` among ``0..nvars-1``.

    ``counts_from_axes([0, 0, 3], 4) == (2, 0, 0, 1)``; the result has weight
    ``len(idx)`` regardless of the ordering of ``idx``.
    """
    counts = [0] * nvars
    for i in idx:
        counts[i] += 1
    return tuple(counts)


def multiplicity(j) -> int:
    """Multinomial coefficient ``|j|! / prod(j_k!)``: how many index tuples share ``j``."""
    j = tuple(int(v) for v in j)
    if any(v < 0 for v in j):
        raise ValueError("multi-index entries must be nonnegative")
    num = factorial(sum(j))
    for v in j:
        num //= factorial(v)
    return num


@lru_cache(maxsize=None)
def multiplicities(nvars: int, degree: int) -> np.ndarray:
    """Multiplicity of each packed multi-index, in enumeration order."""
    arr = np.array([multiplicity(j) for j in multi_indices(nvars, degree)], dtype=float)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def sorted_axes(nvars: int, degree: int) -> np.ndarray:
    """Sorted 0-based axes of every packed multi-index, one row each, read-only.

    Row ``p`` lists each variable of the ``p``-th multi-index as often as it
    occurs.  Descending-lex order on axis counts is ascending-lex order on
    sorted axes, so the rows are the sorted tuples in the order
    ``combinations_with_replacement`` yields them.  Gathers index matrices
    with these columns to fill packed storage without a loop over
    multi-indices.
    """
    out = np.array(
        list(combinations_with_replacement(range(nvars), degree)), dtype=np.intp
    ).reshape(packed_length(nvars, degree), degree)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def packing_positions(nvars: int, degree: int) -> np.ndarray:
    """Packed position of every full index tuple, flattened in C order.

    Entry ``t`` of the result is the packed slot of the multi-index obtained
    by counting the axes of the ``t``-th tuple in ``product(range(nvars),
    repeat=degree)``: the tuple's axes are sorted and located among the
    rows of :func:`sorted_axes` by their row-major key.
    """
    size = nvars**degree
    key = nvars ** np.arange(degree - 1, -1, -1, dtype=np.intp)
    axes = np.indices((nvars,) * degree, dtype=np.intp).reshape(degree, size)
    axes.sort(axis=0)
    slot = np.empty(size, dtype=np.intp)
    slot[sorted_axes(nvars, degree) @ key] = np.arange(packed_length(nvars, degree))
    out = slot[key @ axes]
    out.setflags(write=False)
    return out

