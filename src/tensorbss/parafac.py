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
so it always takes the fallback.  Each factor's Gram ``m.T @ m`` is formed
once, right after its update, and serves the next block updates and the fit.
The ``svd`` initial guess takes each mode's leading left singular vectors
``U_n`` by ``core.leading_left_vectors``, from the QR of the transposed
unfolding.

With that guess the iteration first runs on a core: CANDELINC compression
(Carroll, Pruzansky & Kruskal, Psychometrika 1980) onto the HOSVD basis (De
Lathauwer, De Moor & Vandewalle, SIMAX 2000).  Each mode longer than the
rank whose ``U_n`` has R columns, and so is its initial factor, is projected
onto it: ``core = G x_n U_n^T``, at most R x R x R, and the initial factors lie
in its subspace.  The loop below runs on the core unchanged, then the factors
are multiplied back by ``U_n`` and the same loop finishes on the full tensor,
whose optimum may leave the subspace.  Each loop stops when its own fit
changes by less than ``rel_tol``.  The history is the full tensor's fit all
along: ``sqrt(norm(G - P(G))^2 + norm(core - M_c)^2) / norm(G)``, with ``P(G)``
the core expanded back, exact for an orthogonal projection of a model in the
subspace.  ``norm(G - P(G))`` is taken once from that residual, as
``norm(G)^2 - norm(core)^2`` cancels on near-exact tensors.

An R x R x R core starts its loop from the pencil (Jennrich) solution of the
core, which is exact for a core of rank R (Harshman 1970; Leurgans, Ross &
Abel, SIAM J. Matrix Anal. Appl. 1993), instead of from the projected initial
factors, ``U_n^T U_n = I`` when every mode is compressed: the identity start
spends most of its iterations in the swamp described below.  The projected
factors stay the start when a solve of the pencil fails, an eigenvalue is
complex (a real core whose rank-R factors are complex) or the pencil's core
fit is not below theirs.  ``history[0]`` is the full tensor's fit of the
start the loop takes.

Before every cycle after the first, the iteration tries an enhanced line
search (Rajih, Comon & Harshman, SIAM J. Matrix Anal. Appl. 2008), the
remedy for the slow "swamps" of nearly collinear factors: it steps from the
current factors along their change over the previous cycle.  The squared
error along that line is a degree-6 polynomial in the step, built without a
model tensor from ``h = [m, dm]`` per factor ``m``: one MTTKRP over the
Khatri-Rao products of B's and C's pieces, a Gram per ``h``, a degree table.
Its step, the best real root of the derivative, is kept only when its fit is
strictly lower; block updates are exact least squares, so the fit never rises.

No fit forms a model tensor either: ``norm(G - M)^2 = norm(G)^2 - 2 <G, M> +
sum(A'A * B'B * C'C)``, with ``<G, M>`` read off the C update's MTTKRP, or off
a line-search step's mode-1 MTTKRP, which then serves the A update.  The
identity rounds to within ``GRAM_ROUNDING s``, ``s = max(norm(G)^2,
sum|A'A * B'B * C'C|)``, so the initial fit, a squared error ``e`` with ``e
norm(G)^2 <= GRAM_FIT_FLOOR s^2`` and the verdict on a step that close to the
current fit come from the residual: a Gram fit stays within 1e-12 of it.  A
tensor whose largest entry lies outside ``2**(+-core.SAFE_EXPONENT)`` is fitted
divided by a power of two, weights multiplied back, so that no squared norm
overflows or underflows.  Factors are returned normalized: unit-norm columns,
nonnegative weights, sign carried by the last factor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    DenseTensor,
    _as_array,
    greedy_match,
    lead_signs,
    leading_left_vectors,
    mode_n_unfold,
    real_roots,
    safe_exponent,
    tucker_transform,
)

# a block update whose Gram matrix has at least this condition number is
# solved by lstsq on the Khatri-Rao product instead of the normal equations
GRAM_COND_LIMIT = 1e8
# the Gram fit's limits, explained in the module docstring
GRAM_ROUNDING = 1e-14  # its rounding error was measured at most 1.4e-15
GRAM_FIT_FLOOR = 1e-6
_DEGREE_3, _DEGREE_6 = (np.indices((2,) * k).sum(0).ravel() for k in (3, 6))  # see _line_search


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
    return np.einsum("jr,kr->jkr", x, y).reshape(x.shape[0] * y.shape[0], x.shape[1])


def reconstruct(f: KruskalFactors) -> DenseTensor:
    a, b, c = _scaled_factors(f)
    dims = (a.shape[0], b.shape[0], c.shape[0])
    return DenseTensor((a @ khatri_rao(b, c).T).reshape(dims))


def _scaled_factors(f: KruskalFactors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if f.weights is None:
        return f.A, f.B, f.C
    return f.A * f.weights, f.B, f.C


def _block_solve(unfolding, x, y, mttkrp, gram) -> tuple[np.ndarray, bool]:
    """Least-squares ``m`` minimizing ``norm(unfolding - m @ khatri_rao(x, y).T)``.

    ``mttkrp`` and ``gram`` are ``unfolding @ khatri_rao(x, y)`` and ``x.T @ x * y.T @ y``.
    Also reports whether the system was rank deficient, as ``lstsq`` judges it.
    """
    eig = np.linalg.eigvalsh(gram)
    if eig[0] * GRAM_COND_LIMIT > eig[-1]:
        return np.linalg.solve(gram, mttkrp.T).T, False
    kr = khatri_rao(x, y)
    sol, _, rank, _ = np.linalg.lstsq(kr, unfolding.T, rcond=None)
    return sol.T, rank < kr.shape[1]


def als_step(
    g, f: KruskalFactors, *, _unfolded=None, _mttkrp=None, _grams=None
) -> tuple[KruskalFactors, dict]:
    """One A/B/C refresh cycle; reports rank deficiencies, ``inner = <G, model>``, ``grams``.

    ``als`` passes the unfoldings of ``g``, the A update's MTTKRP and f's Grams, which it has.
    """
    arr = _as_array(g)
    if arr.ndim != 3:
        raise ValueError("alternating least squares expects an order-3 tensor")
    if _unfolded is None:
        _unfolded = tuple(mode_n_unfold(arr, mode) for mode in (1, 2, 3))
    a, b, c = _scaled_factors(f)
    _, gb, gc = _grams if _grams is not None else (None, b.T @ b, c.T @ c)
    deficient = []

    def solve(mode, x, y, gx, gy, name, mttkrp=None):
        unfolding = _unfolded[mode - 1]
        if mttkrp is None:
            mttkrp = unfolding @ khatri_rao(x, y)
        sol, rank_deficient = _block_solve(unfolding, x, y, mttkrp, gx * gy)
        if rank_deficient:
            deficient.append(name)
        return sol, sol.T @ sol, mttkrp

    a, ga, _ = solve(1, b, c, gb, gc, "A", _mttkrp)
    b, gb, _ = solve(2, a, c, ga, gc, "B")
    c, gc, mttkrp = solve(3, a, b, ga, gb, "C")
    # <G, model> = sum(C * MTTKRP_3) for any C, the lstsq one included
    inner = float(np.sum(c * mttkrp))
    report = {"rank_deficient": deficient, "inner": inner, "grams": (ga, gb, gc)}
    return KruskalFactors(a, b, c), report


def _line_search(
    arr: np.ndarray, f: KruskalFactors, prev: KruskalFactors, *, _unfolded=None, _mttkrp=None
) -> KruskalFactors | None:
    """The factors ``f + mu (f - prev)`` whose model is closest to ``arr``.

    Enhanced line search for unweighted factors; ``None`` when the squared error has no
    stationary point along the line.  ``als`` passes the unfoldings of ``arr`` and the mode-1
    MTTKRP ``unfolding_1 @ khatri_rao(f.B, f.C)``, which it has.  Each factor ``m`` enters
    as ``h = [m, m - prev]``; a product of one piece of ``h`` per factor, 3 or 6 pieces,
    has the degree in ``mu`` of its ``m - prev`` pieces, ``_DEGREE_3`` or ``_DEGREE_6``.
    """
    ha, hb, hc = (np.array((m, m - p)) for m, p in zip((f.A, f.B, f.C), (prev.A, prev.B, prev.C)))
    unfolding = mode_n_unfold(arr, 1) if _unfolded is None else _unfolded[0]
    known = unfolding @ khatri_rao(f.B, f.C) if _mttkrp is None else _mttkrp
    rank = ha.shape[2]
    # the mode-1 MTTKRPs against khatri_rao(hb[j], hc[k]), columns ordered (j, k, r)
    kr = np.einsum("jbr,kcr->bcjkr", hb, hc).reshape(-1, 4 * rank)[:, rank:]
    mttkrp = np.hstack((known, unfolding @ kr))
    # <G, model(mu)> term by term, and norm(model(mu))^2 = sum(GA(mu) * GB(mu) * GC(mu))
    cross = np.einsum("iar,ajkr->ijk", ha, mttkrp.reshape(-1, 2, 2, rank))
    ga, gb, gc = (np.einsum("iar,jas->ijrs", h, h).reshape(4, -1) for h in (ha, hb, hc))
    # the squared error along the line, less its constant norm(G)^2
    err = np.bincount(_DEGREE_6, np.einsum("ax,bx,cx->abc", ga, gb, gc).ravel())
    err[:4] -= 2.0 * np.bincount(_DEGREE_3, cross.ravel())
    roots = real_roots(err[1:] * np.arange(1, err.size))
    if roots.size == 0:
        return None
    mu = roots[np.argmin(np.vander(roots, err.size, increasing=True) @ err)]
    return KruskalFactors(*(h[0] + mu * h[1] for h in (ha, hb, hc)))


def _init_factors(arr: np.ndarray, cfg: ALSConfig) -> tuple[KruskalFactors, list[np.ndarray]]:
    """The initial factors and, per mode, the leading left singular vectors they start with."""
    rng = np.random.default_rng(cfg.seed)
    mats, bases = [], []
    for mode in range(3):
        u = np.empty((arr.shape[mode], 0))
        if cfg.init == "svd":
            u = leading_left_vectors(mode_n_unfold(arr, mode + 1), cfg.rank)
        bases.append(u)
        mats.append(np.hstack([u, rng.standard_normal((u.shape[0], cfg.rank - u.shape[1]))]))
    return KruskalFactors(*mats), bases


def _pencil_start(
    core: np.ndarray, fit: float, gnorm: float
) -> tuple[KruskalFactors, float] | None:
    """The pencil solution of an R x R x R ``core`` and its fit, if below ``fit``; else None.

    For ``core = sum_r a_r o b_r o c_r`` with invertible A and B, the slice mixtures
    ``X = core @ w1`` and ``Y = core @ w2`` give ``X Y^-1 = A D A^-1`` and ``X^T Y^-T = B D
    B^-1``, D diagonal: A and B are their eigenvectors, paired by sorting the shared
    eigenvalues, and C is one least-squares solve.  None when a solve fails or an
    eigenvalue is complex, as for a real core whose rank-R factors are complex.
    """
    rank = core.shape[0]
    x, y = core @ np.ones(rank), core @ np.arange(1.0, rank + 1)
    try:
        va, a = np.linalg.eig(np.linalg.solve(y.T, x.T).T)  # X Y^-1
        vb, b = np.linalg.eig(np.linalg.solve(y, x).T)  # X^T Y^-T
        if np.iscomplexobj(va) or np.iscomplexobj(vb):
            return None
        a, b = a[:, np.argsort(va)], b[:, np.argsort(vb)]
        c = np.linalg.lstsq(khatri_rao(a, b), core.reshape(-1, rank), rcond=None)[0].T
    except np.linalg.LinAlgError:
        return None
    start = KruskalFactors(a, b, c)
    start_fit = _relative_norm(core - reconstruct(start).array, gnorm)
    return (start, start_fit) if start_fit < fit else None


def normalized(f: KruskalFactors) -> KruskalFactors:
    """Unit-norm columns, nonnegative weights; signs pushed into C."""
    mats = _scaled_factors(f)
    norms = [np.linalg.norm(m, axis=0) for m in mats]
    a, b, c = (m / np.where(n > 0, n, 1.0) for m, n in zip(mats, norms))
    # canonical sign on A and B, compensated in C
    sign_a, sign_b = lead_signs(a), lead_signs(b)
    weights = norms[0] * norms[1] * norms[2]
    return KruskalFactors(a * sign_a, b * sign_b, c * (sign_a * sign_b), weights)


def _relative_norm(x: np.ndarray, gnorm: float) -> float:
    return float(np.linalg.norm(x)) / gnorm if gnorm else 0.0


def _iterate(arr, f, fit, history, gnorm, outside, iters, rel_tol) -> KruskalFactors:
    """Up to ``iters`` line-search and ALS cycles on ``arr`` from unweighted factors ``f``.

    ``fit`` is ``norm(arr - model(f)) / gnorm``.  Each cycle takes the new model's fit as
    the module docstring says, appends ``hypot(outside, fit)`` to ``history`` and stops
    the loop once the fit differs from the one before by less than ``rel_tol``.  Returns
    the last unweighted factors.
    """
    tnorm = float(np.linalg.norm(arr))
    tsq = tnorm * tnorm
    unfoldings = tuple(mode_n_unfold(arr, mode) for mode in (1, 2, 3))

    def direct_fit(fac):
        return _relative_norm(arr - reconstruct(fac).array, gnorm)

    def squared_error(grams, inner):  # from the factor Grams and inner = <arr, model>
        prod = grams[0] * grams[1] * grams[2]  # also returns the rounding scale
        return tsq - 2.0 * inner + float(np.sum(prod)), max(tsq, float(np.sum(np.abs(prod))))

    # the loop's factors are unweighted, as _init_factors, _line_search and als_step return them
    prev = sq = scale = guarded = grams = None
    for _ in range(iters):
        mttkrp = unfoldings[0] @ khatri_rao(f.B, f.C)
        step = _line_search(arr, f, prev, _unfolded=unfoldings, _mttkrp=mttkrp) if prev else None
        if step is not None:
            step_mttkrp = unfoldings[0] @ khatri_rao(step.B, step.C)
            step_grams = tuple(m.T @ m for m in (step.A, step.B, step.C))
            step_sq, step_scale = squared_error(step_grams, np.sum(step.A * step_mttkrp))
            if abs(step_sq - sq) > GRAM_ROUNDING * (step_scale + scale):
                keep = step_sq < sq
            else:  # closer than the formula's rounding: compare the residuals
                keep = direct_fit(step) < (fit if guarded else direct_fit(f))
            if keep:
                f, mttkrp, grams = step, step_mttkrp, step_grams
        prev = f
        f, report = als_step(arr, f, _unfolded=unfoldings, _mttkrp=mttkrp, _grams=grams)
        grams = report["grams"]
        sq, scale = squared_error(grams, report["inner"])
        guarded = sq * tsq <= GRAM_FIT_FLOOR * scale * scale
        last, fit = fit, direct_fit(f) if guarded else float(np.sqrt(sq)) / gnorm
        history.append(float(np.hypot(outside, fit)))  # exactly fit when outside is 0
        if abs(last - fit) < rel_tol:
            break
    return f


def als(g, cfg: ALSConfig) -> tuple[KruskalFactors, list[float]]:
    """Iterate ALS until the relative fit stalls; never raises on non-convergence.

    Returns normalized factors and the per-iteration relative fit history
    ``norm(G - reconstruct) / norm(G)`` (first entry: the start the loop takes,
    the initial guess or, on an R x R x R core, its pencil solution), later
    entries from the Gram identity, guarded and rescaled, core phase first, as
    the module docstring says.  ``max_iters`` bounds both phases together.
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

    exponent = safe_exponent(np.max(np.abs(arr), initial=0.0))
    if exponent:
        arr = np.ldexp(arr, -exponent)
    gnorm = float(np.linalg.norm(arr))
    f, bases = _init_factors(arr, cfg)
    history = [_relative_norm(arr - reconstruct(f).array, gnorm)]
    # a mode longer than the rank whose initial factor is its R leading singular vectors is
    # compressed onto them, so the initial model lies in the core's subspace
    to_core = [u.T if u.shape[0] > u.shape[1] == cfg.rank else np.eye(u.shape[0]) for u in bases]
    if any(m.shape[0] < m.shape[1] for m in to_core):
        core = tucker_transform(arr, to_core).array
        back = [m.T for m in to_core]
        outside = _relative_norm(arr - tucker_transform(core, back).array, gnorm)
        f = KruskalFactors(*(m @ x for m, x in zip(to_core, (f.A, f.B, f.C))))
        fit = _relative_norm(core - reconstruct(f).array, gnorm)
        pencil = _pencil_start(core, fit, gnorm) if core.shape == (cfg.rank,) * 3 else None
        if pencil is not None:
            f, fit = pencil
            history[0] = float(np.hypot(outside, fit))
        f = _iterate(core, f, fit, history, gnorm, outside, cfg.max_iters, cfg.rel_tol)
        f = KruskalFactors(*(m @ x for m, x in zip(back, (f.A, f.B, f.C))))
    iters = cfg.max_iters + 1 - len(history)
    f = _iterate(arr, f, history[-1], history, gnorm, 0.0, iters, cfg.rel_tol)
    f = normalized(f)
    with np.errstate(over="ignore"):
        weights = np.ldexp(f.weights, exponent)
    if not np.isfinite(weights).all():
        raise ValueError("the weights overflow the float range")
    return KruskalFactors(f.A, f.B, f.C, weights), history


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
