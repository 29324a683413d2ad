"""Best rank-1 approximation of symmetric tensors by symmetric power iteration.

The iteration contracts the tensor ``d - 1`` times with the current unit
vector and renormalizes; its fixed points satisfy ``C . w^(d-1) = lambda w``.
Minimizing the approximation error ``|C - sigma w^..^w|`` is equivalent to
maximizing the full contraction ``|C . w^d|``, and the two criteria satisfy
the exact identity ``err^2 + contraction^2 = |C|^2`` at ``sigma`` equal to
the full contraction.  Every contraction, in ``contract_to_vector`` and in the
iteration, is one matrix-vector product per contracted axis, with the tensor
read as an ``(n^(d-1), n)`` matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _as_array, lead_signs, leading_left_vectors, rank1_sym


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


def _contract(arr: np.ndarray, w: np.ndarray, times: int) -> np.ndarray:
    """``arr`` contracted ``times`` times with ``w``, each time as a ``(-1, w.size)`` matrix."""
    for _ in range(times):
        arr = arr.reshape(-1, w.size) @ w
    return arr


def contract_to_vector(c, w) -> np.ndarray:
    """``C`` contracted ``d - 1`` times with ``w``; matrix-vector product at d = 2."""
    arr = _as_array(c)
    w = np.asarray(w, dtype=float).reshape(-1)
    if np.linalg.norm(w) == 0.0 or arr.shape[1:] != (w.size,) * (arr.ndim - 1):
        raise ValueError("contraction vector must be nonzero and match the tensor's last axes")
    return _contract(arr, w, arr.ndim - 1)


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


def rayleigh_iterate(
    c,
    init,
    tol: float = 1e-10,
    max_iter: int = 500,
    seed: int = 0,
) -> Rank1Approx:
    """Symmetric power iteration from ``init``; one update, shifted once it stalls.

    Each step is ``w <- x / norm(x)`` with ``x = v + s alpha w``, ``v = C.w^(d-1)``
    and ``s`` the sign of ``v . w``; it stops when ``norm(w_new - s w) < tol``,
    consecutive iterates agreeing up to sign.  The shift ``alpha`` is 0 for
    the first ``max_iter`` steps, the plain iteration: there a contraction at
    or below ``1e-14 * max(1, max|C|)`` restarts from a perturbed vector
    (counted in ``restarts``), and every other step records ``|v . w|`` in
    ``omega_d_history``.  The plain update can settle into a period-2 orbit on
    indefinite even-order tensors, so at most ``20 * max_iter`` further steps
    take ``alpha = max(norm(C), 1e-12)``, doubled every ``5 * max_iter`` steps:
    the shift moves no fixed point of ``C.w^(d-1) = lambda w`` and makes the
    ascent monotone for large enough ``alpha`` (Kolda & Mayo, *SIAM J. Matrix
    Anal. Appl.* 2011), so returned points satisfy the stationarity relation
    with residual of order ``tol * norm(C)``.  As ``s v . w >= 0``,
    ``norm(x) >= alpha``, which exceeds the restart threshold: no restart
    happens once ``alpha > 0``.
    """
    arr = _as_array(c)
    d = arr.ndim
    w = np.asarray(init, dtype=float).reshape(-1)
    nrm = np.linalg.norm(w)
    if nrm == 0.0 or arr.shape != (w.size,) * d:
        raise ValueError("initial vector must be nonzero and match every axis of the tensor")
    w = w / nrm
    flat = arr.reshape(-1, w.size) if d > 1 else arr  # C as (n^(d-1), n), reshaped once
    rng = np.random.default_rng(seed)
    tiny = 1e-14 * max(1.0, float(np.abs(arr).max()))
    shift = max(float(np.linalg.norm(arr)), 1e-12)
    restarts, converged, history, it = 0, False, [], 0
    for it in range(1, 21 * max_iter + 1):
        alpha = 0.0 if it <= max_iter else shift * 2.0 ** ((it - max_iter - 1) // (5 * max_iter))
        v = _contract(flat, w, d - 1)
        vw = float(v @ w)
        s = 1.0 if vw >= 0 else -1.0
        x = v + s * alpha * w if alpha else v  # the plain steps keep v's sign
        nx = math.sqrt(x @ x)  # np.linalg.norm of a real vector, without its dispatch
        if nx <= tiny:
            w = w + 0.1 * rng.standard_normal(w.size)
            w /= np.sqrt(w @ w)
            restarts += 1
            continue
        if alpha == 0.0:
            history.append(abs(vw))
        w_new = x / nx
        delta = w_new - w if s > 0 else w_new + w  # w_new - s w, as s w is exact
        w = w_new
        if math.sqrt(delta @ delta) < tol:
            converged = True
            break
    sign = float(lead_signs(w))
    w, sigma = w * sign, sigma_of(arr, w) * sign**d
    return Rank1Approx(
        w=w, sigma=sigma, order=d, iterations=it, converged=converged,
        restarts=restarts, omega_d_history=history,
    )


def hosvd_init(c) -> np.ndarray:
    """Dominant left singular vector of the first unfolding; the first unit vector for zero."""
    arr = _as_array(c)
    u = leading_left_vectors(arr.reshape(arr.shape[0], -1), 1)
    return u[:, 0] if u.shape[1] else np.eye(arr.shape[0])[0]


def best_rank1(
    c,
    init: str = "hosvd",
    restarts: int = 5,
    seed: int = 0,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> Rank1Approx:
    """Power iteration with restarts; the largest final contraction wins, ties
    by earliest start.  ``restarts`` must be ``>= 0``."""
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
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
