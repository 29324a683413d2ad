"""Reference computations that gauge the host's speed while a workload runs.

The benchmark shares the cores of its host, whose speed drifts by a third or
more over minutes; in ten runs of one workload, wall-clock rates spread by up
to 34% between the first and third quartile.  So right after every
operation the worker also times a fixed computation built from the same
numpy routines as that workload's hot path, and ``rel_op_time`` is the
operation time over the reference time.  A slow host slows both and the
ratio stays; a faster program lowers it in full, since the reference never
calls tensorbss and its inputs are the same in every run.
"""

from __future__ import annotations

import io
import subprocess
import sys
import time
from functools import cache

import numpy as np


def _rng() -> np.random.Generator:
    return np.random.default_rng(20090903)


@cache
def _columns():
    rng = _rng()
    x = rng.standard_normal((20_000, 16))
    return x, rng.integers(0, 16, (400, 4))


def _column_products() -> None:
    """Like ``cumulant_tensor``: means of products of sample columns."""
    x, quads = _columns()
    for a, b, c, d in quads:
        float((x[:, a] * x[:, b] * x[:, c] * x[:, d]).mean())


@cache
def _small():
    rng = _rng()
    return rng.standard_normal((2500, 5)), rng.standard_normal((2500, 4, 4))


def _small_calls() -> None:
    """Like the pair sweeps: many numpy calls on a handful of numbers each."""
    polys, pairs = _small()
    for poly, pair in zip(polys, pairs):
        float(np.roots(poly).real.sum()) + float(np.trace(pair @ pair))


@cache
def _rows():
    return _rng().standard_normal((15_000, 4))


def _fresh_numpy_and_csv() -> None:
    """Like the CLI: a fresh interpreter that imports numpy, and CSV text both ways."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    text = io.StringIO()
    np.savetxt(text, _rows(), delimiter=",", fmt="%.17g")
    np.loadtxt(io.StringIO(text.getvalue()), delimiter=",")


@cache
def _factors():
    rng = _rng()
    return rng.standard_normal((50, 50, 50)), [rng.standard_normal((50, 5)) for _ in range(3)]


def _least_squares() -> None:
    """Like an ALS step and its fit: Khatri-Rao, least squares, rank-5 reconstruction."""
    tensor, (a, b, c) = _factors()
    for _ in range(25):
        kr = np.einsum("jr,kr->jkr", b, c).reshape(-1, 5)
        np.linalg.lstsq(kr, tensor.reshape(50, -1).T, rcond=None)
        np.einsum("ip,jp,kp->ijk", a, b, c)


KERNELS = {
    "ica-wide": _column_products,
    "ica-greedy": _small_calls,
    "cli-pipeline": _fresh_numpy_and_csv,
    "decompose": _least_squares,
}


def time_once(workload: str) -> float:
    """Wall time of one pass of the workload's reference computation, in seconds."""
    kernel = KERNELS[workload]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
