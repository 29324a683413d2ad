"""Best rank-1 approximation of symmetric tensors by symmetric power iteration.

The iteration contracts the tensor ``d - 1`` times with the current unit
vector and renormalizes; its fixed points satisfy ``C . w^(d-1) = lambda w``.
Minimizing the approximation error ``|C - sigma w^..^w|`` is equivalent to
maximizing the full contraction ``|C . w^d|``, and the two criteria satisfy
the exact identity ``err^2 + contraction^2 = |C|^2`` at ``sigma`` equal to
the full contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import _as_array, lead_signs, rank1_sym


@dataclass
class Rank1Approx:
    """Unit direction and scale of a rank-1 approximation ``sigma * w^(outer d)``."""

    w: np.ndarray
    sigma: float
    order: int
    iterations: int = 0
    converged: bool = False
    restarts: int = 0
    omega_d_history: list[float] = field(default_factory=list, repr=False)

    def canonical(self) -> tuple[np.ndarray, float]:
        """Sign-fixed representative: largest-magnitude component positive."""
        w = np.asarray(self.w, dtype=float)
        sign = float(lead_signs(w))
        return w * sign, self.sigma * sign**self.order

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rank1Approx):
            return NotImplemented
        if self.order != other.order:
            return False
        w1, s1 = self.canonical()
        w2, s2 = other.canonical()
        return (
            w1.shape == w2.shape
            and np.abs(w1 - w2).max() <= 1e-10
            and abs(s1 - s2) <= 1e-10 * (1.0 + abs(s1))
        )


def contract_to_vector(c, w) -> np.ndarray:
    """``C`` contracted ``d - 1`` times with ``w``; matrix-vector product at d = 2."""
    arr = _as_array(c)
    w = np.asarray(w, dtype=float).reshape(-1)
    if np.linalg.norm(w) == 0.0:
        raise ValueError("contraction vector must be nonzero")
    out = arr
    for _ in range(arr.ndim - 1):
        out = out @ w
    return out


def sigma_of(c, w) -> float:
    """Full contraction of ``C`` with ``d`` copies of ``w``."""
    return float(contract_to_vector(c, w) @ np.asarray(w, dtype=float).reshape(-1))


def omega_criteria(c, w, sigma: float) -> tuple[float, float, float]:
    """Approximation error, stationarity residual, and contraction magnitude.

    Returns ``(norm(C - sigma w^d), norm(C.w^(d-1) - lambda w), |lambda|)``
    with ``lambda`` the full contraction at ``w``.
    """
    arr = _as_array(c)
    w = np.asarray(w, dtype=float).reshape(-1)
    d = arr.ndim
    omega0 = float(np.linalg.norm(arr - rank1_sym(w, d, sigma).array))
    v = contract_to_vector(arr, w)
    lam = float(v @ w)
    omega_dm1 = float(np.linalg.norm(v - lam * w))
    return omega0, omega_dm1, abs(lam)


def _shifted_polish(arr, w, tol, budget):
    """Shifted power update sharing the plain iteration's fixed points.

    The plain update can settle into a period-2 orbit on indefinite
    even-order tensors; adding ``alpha * w`` before normalizing makes the
    ascent monotone for large enough ``alpha`` without moving any stationary
    point, so it finishes the job whenever the plain loop stalls.
    """
    alpha = max(float(np.linalg.norm(arr)), 1e-12)
    steps = 0
    while steps < budget:
        v = contract_to_vector(arr, w)
        s = 1.0 if float(v @ w) >= 0 else -1.0
        shifted = s * v + alpha * w
        nv = np.linalg.norm(shifted)
        if nv == 0.0:
            alpha *= 2.0
            continue
        w_new = shifted / nv
        delta = np.linalg.norm(w_new - w)
        w = w_new
        steps += 1
        if delta < tol:
            return w, steps, True
        if steps % (budget // 4 or 1) == 0:
            alpha *= 2.0  # slow spiral: damp harder
    return w, steps, False


def rayleigh_iterate(
    c,
    init,
    tol: float = 1e-10,
    max_iter: int = 500,
    seed: int = 0,
) -> Rank1Approx:
    """Symmetric power iteration from ``init``.

    Stops when consecutive iterates agree up to sign within ``tol``; a
    vanishing contraction restarts from a perturbed vector (counted in the
    result).  If the plain update oscillates instead of settling, a shifted
    update with identical fixed points takes over, so returned points always
    satisfy the stationarity relation with residual of order
    ``tol * norm(C)``.
    """
    arr = _as_array(c)
    d = arr.ndim
    w = np.asarray(init, dtype=float).reshape(-1)
    nrm = np.linalg.norm(w)
    if nrm == 0.0:
        raise ValueError("initial vector must be nonzero")
    w = w / nrm
    rng = np.random.default_rng(seed)
    tiny = 1e-14 * max(1.0, float(np.abs(arr).max()))
    restarts = 0
    converged = False
    history = []
    it = 0
    for it in range(1, max_iter + 1):
        v = contract_to_vector(arr, w)
        nv = np.linalg.norm(v)
        if nv <= tiny:
            w = w + 0.1 * rng.standard_normal(w.size)
            w /= np.linalg.norm(w)
            restarts += 1
            continue
        w_new = v / nv
        history.append(abs(float(v @ w)))
        s = 1.0 if float(w_new @ w) >= 0 else -1.0
        delta = np.linalg.norm(w_new - s * w)
        w = w_new
        if delta < tol:
            converged = True
            break
    if not converged:
        w, extra, converged = _shifted_polish(arr, w, tol, budget=20 * max_iter)
        it += extra
    sign = float(lead_signs(w))
    w, sigma = w * sign, sigma_of(arr, w) * sign**d
    return Rank1Approx(
        w=w, sigma=sigma, order=d, iterations=it, converged=converged,
        restarts=restarts, omega_d_history=history,
    )


def hosvd_init(c) -> np.ndarray:
    """Dominant left singular vector of the first unfolding."""
    arr = _as_array(c)
    u, _, _ = np.linalg.svd(arr.reshape(arr.shape[0], -1), full_matrices=False)
    return u[:, 0]


def best_rank1(
    c,
    init: str = "hosvd",
    restarts: int = 5,
    seed: int = 0,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> Rank1Approx:
    """Power iteration with restarts; the largest final contraction wins, ties
    by earliest start."""
    arr = _as_array(c)
    rng = np.random.default_rng(seed)
    starts = []
    if init == "hosvd":
        starts.append(hosvd_init(arr))
    elif init != "random":
        raise ValueError("init must be 'hosvd' or 'random'")
    while len(starts) < max(1, restarts if init == "random" else restarts + 1):
        starts.append(rng.standard_normal(arr.shape[0]))
    best = None
    for w0 in starts:
        cand = rayleigh_iterate(arr, w0, tol=tol, max_iter=max_iter, seed=seed)
        if best is None or abs(cand.sigma) > abs(best.sigma) + 1e-12:
            best = cand
    return best
