"""Trilinear decomposition by alternating least squares.

The model is ``G_ijk = sum_p A_ip B_jp C_kp``.  One iteration refreshes A,
then B, then C, each by an exact least-squares solve against the matching
unfolding.  A block update solves the normal equations: the MTTKRP
``unfolding @ khatri_rao(x, y)`` against the R x R Hadamard product of the
other two factors' Gram matrices (Kolda & Bader, SIAM Review 2009).  When
that Gram matrix is ill-conditioned (condition number at least
``GRAM_COND_LIMIT``, from its eigenvalues) the update falls back to ``lstsq``
on the Khatri-Rao product itself, which also decides rank deficiency; every
system ``lstsq`` calls rank deficient has a far larger Gram condition number,
so it always takes the fallback.

Before every cycle after the first, the iteration tries an enhanced
line search (Rajih, Comon & Harshman, SIAM J. Matrix Anal. Appl. 2008),
the remedy for the slow "swamps" of nearly collinear factors: it steps from
the current factors along their change over the previous cycle.  The squared
error along that line is a degree-6 polynomial in the step, assembled from
three MTTKRPs and the factor Grams without forming a model tensor; the step
goes to the best real root of its derivative.  The step is kept only when the
exactly recomputed fit is strictly lower, and each block update is exact
least squares, so the relative fit error never increases.  Factors are
returned normalized: unit-norm columns, nonnegative weights, sign carried by
the last factor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import DenseTensor, _as_array, greedy_match, mode_n_unfold, real_roots

# a block update whose Gram matrix has at least this condition number is
# solved by lstsq on the Khatri-Rao product instead of the normal equations
GRAM_COND_LIMIT = 1e8


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
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not (np.isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise ValueError("rel_tol must be finite and >= 0")
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
    a, b, c = _scaled_factors(f)
    dims = (a.shape[0], b.shape[0], c.shape[0])
    return DenseTensor((a @ khatri_rao(b, c).T).reshape(dims))


def _scaled_factors(f: KruskalFactors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if f.weights is None:
        return f.A, f.B, f.C
    return f.A * f.weights, f.B, f.C


def _block_solve(unfolding: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool]:
    """Least-squares ``m`` minimizing ``norm(unfolding - m @ khatri_rao(x, y).T)``.

    Also reports whether the system was rank deficient, as ``lstsq`` judges it.
    """
    kr = khatri_rao(x, y)
    gram = (x.T @ x) * (y.T @ y)
    eig = np.linalg.eigvalsh(gram)
    if eig[0] * GRAM_COND_LIMIT > eig[-1]:
        return np.linalg.solve(gram, (unfolding @ kr).T).T, False
    sol, _, rank, _ = np.linalg.lstsq(kr, unfolding.T, rcond=None)
    return sol.T, rank < kr.shape[1]


def als_step(g, f: KruskalFactors) -> tuple[KruskalFactors, dict]:
    """One A/B/C refresh cycle; reports least-squares rank deficiencies."""
    arr = _as_array(g)
    if arr.ndim != 3:
        raise ValueError("alternating least squares expects an order-3 tensor")
    a, b, c = _scaled_factors(f)
    deficient = []

    def solve(mode, x, y, name):
        sol, rank_deficient = _block_solve(mode_n_unfold(arr, mode), x, y)
        if rank_deficient:
            deficient.append(name)
        return sol

    a = solve(1, b, c, "A")
    b = solve(2, a, c, "B")
    c = solve(3, a, b, "C")
    return KruskalFactors(a, b, c), {"rank_deficient": deficient}


def _lead_signs(m: np.ndarray) -> np.ndarray:
    """Per column, -1 where the entry of largest magnitude (the first, on ties) is negative."""
    lead = m[np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])]
    return np.where(lead < 0, -1.0, 1.0)


def _poly_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of polynomials whose ascending coefficients are arrays, taken entrywise."""
    out = np.zeros((len(p) + len(q) - 1,) + p.shape[1:])
    for i, coef in enumerate(p):
        out[i : i + len(q)] += coef * q
    return out


def _line_search(arr: np.ndarray, f: KruskalFactors, prev: KruskalFactors) -> KruskalFactors | None:
    """The factors ``f + mu (f - prev)`` whose model is closest to ``arr``.

    Enhanced line search for unweighted factors; ``None`` when the squared
    error has no stationary point along the line.
    """
    a, b, c = f.A, f.B, f.C
    da, db, dc = a - prev.A, b - prev.B, c - prev.C
    unfolding = mode_n_unfold(arr, 1)
    # <G, model(mu)> = sum((A + mu dA) * (P0 + mu P1 + mu^2 P2)), P the mode-1 MTTKRPs
    mttkrp = [
        unfolding @ khatri_rao(b, c),
        unfolding @ (khatri_rao(db, c) + khatri_rao(b, dc)),
        unfolding @ khatri_rao(db, dc),
    ]
    cross = np.zeros(4)
    for k, p in enumerate(mttkrp):
        cross[k] += np.sum(a * p)
        cross[k + 1] += np.sum(da * p)
    # norm(model(mu))^2 = sum(GA(mu) * GB(mu) * GC(mu)), each Gram quadratic in mu
    grams = [
        np.stack([m.T @ m, m.T @ d + d.T @ m, d.T @ d]) for m, d in ((a, da), (b, db), (c, dc))
    ]
    # the squared error along the line, less its constant norm(G)^2
    err = _poly_product(_poly_product(grams[0], grams[1]), grams[2]).sum(axis=(1, 2))
    err[:4] -= 2.0 * cross
    roots = real_roots(err[1:] * np.arange(1, err.size))
    if roots.size == 0:
        return None
    mu = roots[np.argmin(np.vander(roots, err.size, increasing=True) @ err)]
    return KruskalFactors(a + mu * da, b + mu * db, c + mu * dc)


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
    mats = _scaled_factors(f)
    norms = [np.linalg.norm(m, axis=0) for m in mats]
    a, b, c = (m / np.where(n > 0, n, 1.0) for m, n in zip(mats, norms))
    # canonical sign on A and B, compensated in C
    sign_a, sign_b = _lead_signs(a), _lead_signs(b)
    weights = norms[0] * norms[1] * norms[2]
    return KruskalFactors(a * sign_a, b * sign_b, c * (sign_a * sign_b), weights)


def als(g, cfg: ALSConfig) -> tuple[KruskalFactors, list[float]]:
    """Iterate ALS until the relative fit stalls; never raises on non-convergence.

    Returns normalized factors and the per-iteration relative fit history
    ``norm(G - reconstruct) / norm(G)`` (first entry: the initial guess).
    """
    arr = _as_array(g)
    if arr.ndim != 3:
        raise ValueError("als expects an order-3 tensor")
    pair_bound = min(
        arr.shape[i] * arr.shape[j] for i in range(3) for j in range(3) if i != j
    )
    if cfg.rank > pair_bound:
        warnings.warn(
            f"requested rank {cfg.rank} exceeds the rank bound {pair_bound} "
            "(min over mode pairs of n_i*n_j); extra columns are redundant",
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
    prev = None
    for _ in range(cfg.max_iters):
        step = _line_search(arr, f, prev) if prev is not None else None
        if step is not None and fit(step) < history[-1]:
            f = step
        prev = f
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
