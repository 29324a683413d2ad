"""Independent checks of the workloads' outputs.

Each check recomputes what it needs with plain numpy from the inputs the
benchmark drew itself, or tests a property the method must have; none calls
into tensorbss.  A check returns a list of problems, empty when the output
passes, so a wrong output fails its operation without stopping the run.
"""

from __future__ import annotations

import numpy as np

MIN_DOMINANCE = 0.95  # acceptance criterion 5 of the test suite
ORTHOGONALITY_TOL = 1e-10
# Sample covariance of unit-variance independent sources: every entry of
# A^-1 cov A^-T - I has standard deviation at most 1/sqrt(N).
COVARIANCE_SIGMAS = 6.0
DOMINANCE_ROUNDING = 1e-12
FIT_SLACK = 1e-3  # the ALS fit may exceed the planted factors' fit by 0.1 %
FIT_HISTORY_SLACK = 1e-12  # relative rounding allowed between fit iterates
REPORTED_FIT_TOL = 1e-8
STATIONARITY_TOL = 1e-8
IDENTITY_TOL = 1e-10
WARING_TOL = 1e-8


def dominance(separator, mixing) -> np.ndarray:
    """Per-row dominance of the gain ``separator @ mixing``: largest |entry| over the row norm."""
    g = np.asarray(separator, dtype=float) @ np.asarray(mixing, dtype=float)
    return np.abs(g).max(axis=1) / np.linalg.norm(g, axis=1)


def _separation_problems(separator, mixing) -> list[str]:
    separator = np.asarray(separator, dtype=float)
    mixing = np.asarray(mixing, dtype=float)
    if separator.shape != (mixing.shape[1], mixing.shape[0]):
        return [f"separator has shape {separator.shape}, expected {mixing.shape[::-1]}"]
    worst = float(dominance(separator, mixing).min())
    if not worst >= MIN_DOMINANCE:
        return [f"min dominance {worst:.4f} below {MIN_DOMINANCE}"]
    return []


def check_ica(separator, mixing, q, trace) -> list[str]:
    """Separation of the drawn mixing, a never-decreasing contrast trace, orthogonal Q."""
    problems = _separation_problems(separator, mixing)
    if np.any(np.diff(np.asarray(trace, dtype=float)) < 0):
        problems.append("contrast trace decreases")
    q = np.asarray(q, dtype=float)
    drift = float(np.abs(q.T @ q - np.eye(q.shape[1])).max())
    if not drift <= ORTHOGONALITY_TOL:
        problems.append(f"Q is not orthogonal: max |Q'Q - I| = {drift:.2e}")
    return problems


def check_exit_codes(codes) -> list[str]:
    """All three subcommands of the pipeline ran and exited with 0."""
    if list(codes) != [0, 0, 0]:
        return [f"exit codes {list(codes)}, expected [0, 0, 0]"]
    return []


def check_cli(samples, mixing, separator, score_min_dominance) -> list[str]:
    """The files of the gen -> ica -> score pipeline: manifest covariance, dominance."""
    samples = np.asarray(samples, dtype=float)
    mixing = np.asarray(mixing, dtype=float)
    problems = []
    centered = samples - samples.mean(axis=0)
    cov = centered.T @ centered / samples.shape[0]
    inv = np.linalg.inv(mixing)
    deviation = float(np.abs(inv @ cov @ inv.T - np.eye(mixing.shape[0])).max())
    tolerance = COVARIANCE_SIGMAS / np.sqrt(samples.shape[0])
    if not deviation <= tolerance:
        problems.append(
            f"cov(samples) differs from A A': whitened deviation {deviation:.2e} > {tolerance:.2e}"
        )
    problems += _separation_problems(separator, mixing)
    if not problems:
        own = float(dominance(separator, mixing).min())
        if not abs(own - score_min_dominance) <= DOMINANCE_ROUNDING:
            problems.append(f"score reports min dominance {score_min_dominance}, recomputed {own}")
    return problems


def check_als(tensor, planted_fit, weights, a, b, c, history) -> list[str]:
    """Monotone fit history; the returned factors fit no worse than the planted ones."""
    tensor = np.asarray(tensor, dtype=float)
    history = np.asarray(history, dtype=float)
    problems = []
    if np.any(np.diff(history) > FIT_HISTORY_SLACK * history[:-1]):
        problems.append("ALS fit history increases")
    model = np.einsum("ip,jp,kp,p->ijk", a, b, c, weights)
    fit = float(np.linalg.norm(tensor - model) / np.linalg.norm(tensor))
    if not fit <= planted_fit * (1.0 + FIT_SLACK):
        problems.append(f"ALS fit {fit:.6e} worse than the planted factors' {planted_fit:.6e}")
    if not abs(fit - history[-1]) <= REPORTED_FIT_TOL:
        problems.append(f"reported final fit {history[-1]:.6e}, recomputed {fit:.6e}")
    return problems


def check_rank1(tensor, w, sigma) -> list[str]:
    """Stationarity ``C.w^3 = lambda w`` and the identity ``err^2 + lambda^2 = |C|^2``."""
    tensor = np.asarray(tensor, dtype=float)
    w = np.asarray(w, dtype=float)
    norm = float(np.linalg.norm(tensor))
    problems = []
    if not abs(float(np.linalg.norm(w)) - 1.0) <= 1e-12:
        problems.append("rank-1 direction is not a unit vector")
    v = np.einsum("ijkl,j,k,l->i", tensor, w, w, w)
    lam = float(v @ w)
    residual = float(np.linalg.norm(v - lam * w))
    if not residual <= STATIONARITY_TOL * norm:
        problems.append(f"rank-1 stationarity residual {residual:.2e} > {STATIONARITY_TOL} |C|")
    err = float(np.linalg.norm(tensor - lam * np.einsum("i,j,k,l->ijkl", w, w, w, w)))
    gap = abs(err**2 + lam**2 - norm**2)
    if not gap <= IDENTITY_TOL * norm**2:
        problems.append(f"err^2 + lambda^2 misses |C|^2 by {gap:.2e}")
    if not abs(sigma - lam) <= IDENTITY_TOL * norm:
        problems.append(f"reported sigma {sigma} differs from the contraction {lam}")
    return problems


def check_waring(gamma, terms) -> list[str]:
    """The terms rebuild the quantic's coefficients at Sylvester's generic rank."""
    gamma = np.asarray(gamma, dtype=float)
    d = gamma.size - 1
    i = np.arange(d + 1)
    rebuilt = sum(w * a**i * b ** (d - i) for w, a, b in terms)
    error = float(np.linalg.norm(rebuilt - gamma) / np.linalg.norm(gamma))
    problems = []
    if not error <= WARING_TOL:
        problems.append(f"degree {d}: terms rebuild the coefficients to {error:.2e}")
    if len(terms) != d // 2 + 1:
        problems.append(f"degree {d}: rank {len(terms)}, generic rank is {d // 2 + 1}")
    return problems
