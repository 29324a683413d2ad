"""Standardization (whitening) and eigenvalue-based source-count detection.

Whiteners are built from the symmetric EVD square root, which is canonical
under rotations of the input basis: for the covariance they were built from,
``T R T' = I`` holds on the signal part.  When a noise covariance is supplied
it is normalized so the noise-whitened noise has unit scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Whitener:
    """Linear map sending observations to standardized coordinates.

    ``T`` has ``source_count`` rows; applying it to samples (rows) is
    ``samples @ T.T``.  ``noise_variance`` is the estimated (or given) noise
    level in noise-whitened units, 0 when no noise model was used.
    """

    T: np.ndarray
    source_count: int
    noise_variance: float = 0.0

    def apply(self, samples: np.ndarray) -> np.ndarray:
        return np.asarray(samples, dtype=float) @ self.T.T


def _check_covariance(r, name: str) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if np.abs(r - r.T).max(initial=0.0) > 1e-8 * max(1.0, np.abs(r).max(initial=0.0)):
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (r + r.T)


def _inv_sqrt(r: np.ndarray, name: str, tol: float = 1e-10) -> np.ndarray:
    lam, u = np.linalg.eigh(r)
    if lam[0] <= 0.0:
        raise ValueError(f"{name} is not positive definite (smallest eigenvalue {lam[0]:.3e})")
    if lam[0] <= tol * lam[-1]:
        raise ValueError(f"{name} is too ill-conditioned to whiten (condition number "
                         f"{lam[-1] / lam[0]:.3e} exceeds {1 / tol:.0e})")
    return (u / np.sqrt(lam)) @ u.T


def standardize(r_y) -> Whitener:
    """Whitener ``T`` with ``T R_y T' = I``, from the symmetric EVD square root."""
    r_y = _check_covariance(r_y, "covariance")
    t = _inv_sqrt(r_y, "covariance")
    return Whitener(T=t, source_count=r_y.shape[0], noise_variance=0.0)


def standardize_with_noise(r_y, r_v) -> Whitener:
    """Whiten the signal part ``R_y - R_v``; unbiased when the noise floor is known."""
    r_y = _check_covariance(r_y, "observation covariance")
    r_v = _check_covariance(r_v, "noise covariance")
    if np.abs(r_v).max(initial=0.0) == 0.0:
        return standardize(r_y)
    r_s = r_y - r_v
    try:
        t = _inv_sqrt(r_s, "signal covariance")
    except ValueError as exc:
        raise ValueError(f"signal covariance is numerically indefinite: {exc}") from exc
    return Whitener(T=t, source_count=r_y.shape[0], noise_variance=1.0)


def detect_sources(r_y, r_v=None, threshold: float = 0.1, noise_scale: float | None = None):
    """Count sources by the eigenvalue spectrum and build the reduced whitener.

    The observation covariance is noise-whitened (identity noise shape when
    ``r_v`` is None), eigendecomposed, and eigenvalues exceeding
    ``sigma * (1 + threshold)`` are counted as signal, ``sigma`` being
    ``noise_scale`` when given.  With ``r_v`` and no ``noise_scale``, ``sigma``
    is the mean of the discarded eigenvalues, iterated to a fixed point.
    With neither, the data is taken as noiseless: ``sigma = 0`` and the
    eigenvalues above ``n * 1e-12`` times the largest count.

    Returns ``(P, Whitener)`` where the whitener has ``P`` rows and maps the
    observations to a P-dimensional vector whose signal part has unit
    covariance.
    """
    r_y = _check_covariance(r_y, "observation covariance")
    n = r_y.shape[0]
    if r_v is None:
        t_v = np.eye(n)
    else:
        r_v = _check_covariance(r_v, "noise covariance")
        t_v = _inv_sqrt(r_v, "noise covariance")
    m = t_v @ r_y @ t_v.T
    mu, u = np.linalg.eigh(m)
    mu, u = mu[::-1], u[:, ::-1]

    if noise_scale is not None:
        sigma = float(noise_scale)
        p = int(np.sum(mu > sigma * (1.0 + threshold)))
    elif r_v is None:
        # noiseless convention: numerical-rank count
        sigma = 0.0
        p = int(np.sum(mu > max(mu[0], 0.0) * n * 1e-12)) if mu[0] > 0 else 0
    else:
        sigma = mu[-1]
        for _ in range(n + 1):
            p = int(np.sum(mu > sigma * (1.0 + threshold)))
            new_sigma = float(mu[p:].mean()) if p < n else 0.0
            if new_sigma == sigma:
                break
            sigma = new_sigma

    if p == 0:
        return 0, Whitener(T=np.zeros((0, n)), source_count=0, noise_variance=sigma)
    gaps = np.clip(mu[:p] - sigma, a_min=np.finfo(float).tiny, a_max=None)
    t = (u[:, :p] / np.sqrt(gaps)).T @ t_v
    return p, Whitener(T=t, source_count=p, noise_variance=sigma)
