"""Trilinear decomposition by alternating least squares.

The model is ``G_ijk = sum_p A_ip B_jp C_kp``.  One iteration refreshes A,
then B, then C, each by a least-squares solve against the matching unfolding;
since every block update is exact least squares, the relative fit error never
increases.  Factors are returned normalized: unit-norm columns, nonnegative
weights, sign carried by the last factor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import DenseTensor, _as_array, greedy_match, mode_n_unfold


@dataclass(frozen=True)
class KruskalFactors:
    """Factor matrices of a trilinear decomposition, plus optional weights."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        a, b, c = (np.asarray(m, dtype=float) for m in (self.A, self.B, self.C))
        if not a.shape[1] == b.shape[1] == c.shape[1]:
            raise ValueError("factor matrices must share their column count")
        w = self.weights
        if w is not None:
            w = np.asarray(w, dtype=float)
            if w.shape != (a.shape[1],):
                raise ValueError("weights must have one entry per column")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "weights", w)

    @property
    def rank(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class ALSConfig:
    rank: int
    max_iters: int = 200
    rel_tol: float = 1e-12
    init: str = "svd"
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.init not in ("svd", "random"):
            raise ValueError("init must be 'svd' or 'random'")


def khatri_rao(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product, first argument major.

    Row ``(j, k)`` (``j`` major) of column ``p`` is ``x[j, p] * y[k, p]``,
    matching the column enumeration of the unfoldings.
    """
    if x.shape[1] != y.shape[1]:
        raise ValueError("operands must share their column count")
    return (x[:, None, :] * y[None, :, :]).reshape(x.shape[0] * y.shape[0], x.shape[1])


def reconstruct(f: KruskalFactors) -> DenseTensor:
    w = f.weights if f.weights is not None else np.ones(f.rank)
    return DenseTensor(np.einsum("ip,jp,kp,p->ijk", f.A, f.B, f.C, w))


def _scaled_factors(f: KruskalFactors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if f.weights is None:
        return f.A, f.B, f.C
    return f.A * f.weights, f.B, f.C


def als_step(g, f: KruskalFactors) -> tuple[KruskalFactors, dict]:
    """One A/B/C refresh cycle; reports least-squares rank deficiencies."""
    arr = _as_array(g)
    if arr.ndim != 3:
        raise ValueError("alternating least squares expects an order-3 tensor")
    a, b, c = _scaled_factors(f)
    deficient = []

    def solve(kr, unfolding, name):
        sol, _, rank, _ = np.linalg.lstsq(kr, unfolding.T, rcond=None)
        if rank < kr.shape[1]:
            deficient.append(name)
        return sol.T

    a = solve(khatri_rao(b, c), mode_n_unfold(arr, 1), "A")
    b = solve(khatri_rao(a, c), mode_n_unfold(arr, 2), "B")
    c = solve(khatri_rao(a, b), mode_n_unfold(arr, 3), "C")
    return KruskalFactors(a, b, c), {"rank_deficient": deficient}


def _symmetric_step(arr: np.ndarray, f: KruskalFactors) -> KruskalFactors:
    """Tied refresh: solve for the weighted shared factor, renormalize columns.

    Keeping the shared factor at unit column norm (weights carry scale and
    sign) removes the scale indeterminacy that makes the raw tied fixed-point
    iteration diverge.
    """
    a = f.A
    norms = np.linalg.norm(a, axis=0)
    a = a / np.where(norms > 0, norms, 1.0)
    x, _, _, _ = np.linalg.lstsq(khatri_rao(a, a), mode_n_unfold(arr, 1).T, rcond=None)
    x = x.T
    w = np.linalg.norm(x, axis=0)
    new_a = np.where(w > 0, x / np.where(w > 0, w, 1.0), a)
    weights = w.copy()
    for r in range(new_a.shape[1]):
        lead = np.argmax(np.abs(new_a[:, r]))
        if new_a[lead, r] < 0:
            new_a[:, r] *= -1
            weights[r] *= -1
    return KruskalFactors(new_a, new_a, new_a, weights)


def _init_factors(arr: np.ndarray, cfg: ALSConfig) -> KruskalFactors:
    rng = np.random.default_rng(cfg.seed)
    mats = []
    for mode in range(3):
        n = arr.shape[mode]
        if cfg.init == "svd":
            u, s, _ = np.linalg.svd(mode_n_unfold(arr, mode + 1), full_matrices=False)
            usable = min(cfg.rank, u.shape[1], int(np.sum(s > s[0] * 1e-12)) if s.size else 0)
            m = np.empty((n, cfg.rank))
            m[:, :usable] = u[:, :usable]
            if usable < cfg.rank:
                m[:, usable:] = rng.standard_normal((n, cfg.rank - usable))
        else:
            m = rng.standard_normal((n, cfg.rank))
        mats.append(m)
    return KruskalFactors(*mats)


def normalized(f: KruskalFactors) -> KruskalFactors:
    """Unit-norm columns, nonnegative weights; signs pushed into C."""
    a, b, c = _scaled_factors(f)
    a, b, c = a.copy(), b.copy(), c.copy()
    weights = np.empty(f.rank)
    for r in range(f.rank):
        norms = [np.linalg.norm(m[:, r]) for m in (a, b, c)]
        weights[r] = np.prod(norms)
        for m, nrm in zip((a, b, c), norms):
            if nrm > 0:
                m[:, r] /= nrm
        for m in (a, b):  # canonical sign on A and B, compensated in C
            lead = np.argmax(np.abs(m[:, r]))
            if m[lead, r] < 0:
                m[:, r] *= -1
                c[:, r] *= -1
    return KruskalFactors(a, b, c, weights)


def als(g, cfg: ALSConfig, tied: bool = False) -> tuple[KruskalFactors, list[float]]:
    """Iterate ALS until the relative fit stalls; never raises on non-convergence.

    Returns normalized factors and the per-iteration relative fit history
    ``norm(G - reconstruct) / norm(G)`` (first entry: the initial guess).
    With ``tied=True`` a single factor is refreshed and shared across all
    modes, preserving A = B = C for symmetric tensors.
    """
    arr = _as_array(g)
    if arr.ndim != 3:
        raise ValueError("als expects an order-3 tensor")
    pair_bound = min(
        arr.shape[i] * arr.shape[j] for i in range(3) for j in range(3) if i != j
    )
    if cfg.rank > pair_bound:
        warnings.warn(
            f"requested rank {cfg.rank} exceeds the pairwise dimension-product rank "
            f"bound {pair_bound} (see tables.howell_bound); extra columns are redundant",
            stacklevel=2,
        )
    n_min = min(arr.shape)
    if cfg.rank > 1.5 * n_min - 1:
        warnings.warn(
            f"rank {cfg.rank} is beyond the uniqueness guarantee 3/2*{n_min} - 1; "
            "the result approximates the tensor but the factors need not be unique",
            stacklevel=2,
        )

    gnorm = float(np.linalg.norm(arr))
    f = _init_factors(arr, cfg)

    def fit(fac):
        if gnorm == 0.0:
            return 0.0
        return float(np.linalg.norm(arr - reconstruct(fac).array)) / gnorm

    history = [fit(f)]
    for _ in range(cfg.max_iters):
        if tied:
            f = _symmetric_step(arr, f)
        else:
            f, _ = als_step(arr, f)
        history.append(fit(f))
        if abs(history[-2] - history[-1]) < cfg.rel_tol:
            break
    return normalized(f), history


def congruence_match(f: KruskalFactors, ref: KruskalFactors) -> tuple[list[int], np.ndarray]:
    """Greedy column assignment by factor congruence, quotienting sign and order.

    Returns the permutation mapping columns of ``f`` to columns of ``ref``
    and the matched absolute congruences (products of column cosines).
    """
    if f.rank != ref.rank:
        raise ValueError("decompositions must share their rank")

    def unit(m):
        return m / np.maximum(np.linalg.norm(m, axis=0, keepdims=True), 1e-300)

    score = np.abs(
        (unit(f.A).T @ unit(ref.A))
        * (unit(f.B).T @ unit(ref.B))
        * (unit(f.C).T @ unit(ref.C))
    )
    perm = greedy_match(score)
    return perm, score[np.arange(f.rank), perm]
