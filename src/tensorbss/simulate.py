"""Synthetic mixtures for experiments, and permutation/scale-invariant scoring.

Sources are drawn i.i.d. per the configured distribution (all with unit
variance), mixed by a square matrix, and optionally buried in white Gaussian
noise.  All randomness flows through ``numpy.random.default_rng`` (PCG64)
seeded from the config, so a (seed, config) pair reproduces its streams
byte-for-byte under the same numpy build; across other generators only the
distributional statistics are guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import greedy_match

DISTRIBUTIONS = ("bpsk", "uniform", "gaussian")
MIXINGS = ("orthogonal", "general", "given")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a generated dataset."""

    nsources: int
    nsamples: int
    distribution: str = "uniform"
    mixing: str = "orthogonal"
    noise_variance: float = 0.0
    seed: int = 0
    mixing_matrix: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.nsources < 1 or self.nsamples < 1:
            raise ValueError("need at least one source and one sample")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.mixing not in MIXINGS:
            raise ValueError(f"unknown mixing {self.mixing!r}")
        if not 0 <= self.noise_variance < np.inf:
            raise ValueError("noise variance must be finite and nonnegative")
        if self.mixing == "given":
            m = np.asarray(self.mixing_matrix, dtype=float)
            if m.shape != (self.nsources, self.nsources):
                raise ValueError("given mixing must be square of the source count")
            object.__setattr__(self, "mixing_matrix", m)


def draw_sources(rng: np.random.Generator, dist: str, shape) -> np.ndarray:
    if dist == "bpsk":
        return rng.integers(0, 2, size=shape) * 2.0 - 1.0
    if dist == "uniform":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=shape)
    if dist == "gaussian":
        return rng.standard_normal(shape)
    raise ValueError(f"unknown distribution {dist!r}")


def draw_mixing(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    if kind == "orthogonal":
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        return q * np.sign(np.diag(r))  # sign-fixed for determinism
    if kind == "general":
        return rng.standard_normal((n, n))
    raise ValueError(f"unknown mixing {kind!r}")


def gen(config: ExperimentConfig) -> tuple[np.ndarray, dict]:
    """Draw sources, mix, add noise; return samples and the ground-truth manifest."""
    rng = np.random.default_rng(config.seed)
    x = draw_sources(rng, config.distribution, (config.nsamples, config.nsources))
    if config.mixing == "given":
        a = config.mixing_matrix
    else:
        a = draw_mixing(rng, config.mixing, config.nsources)
    y = x @ a.T
    if config.noise_variance > 0:
        y = y + np.sqrt(config.noise_variance) * rng.standard_normal(y.shape)
    manifest = {
        "mixing": a.tolist(),
        "seed": config.seed,
        "distributions": [config.distribution] * config.nsources,
        "noise_variance": config.noise_variance,
        "nsamples": config.nsamples,
        "generator": "numpy.random.default_rng (PCG64)",
    }
    return y, manifest


def score(separator: np.ndarray, mixing: np.ndarray) -> dict:
    """Separation metrics of the gain matrix ``separator @ mixing``.

    Per-row dominance (largest entry magnitude over the row norm) and a
    greedily permutation-matched angle error; both are invariant under row
    permutation and nonzero rescaling of the separator.
    """
    separator = np.asarray(separator, dtype=float)
    mixing = np.asarray(mixing, dtype=float)
    if separator.shape[1] != mixing.shape[0]:
        raise ValueError(
            f"separator with {separator.shape[1]} columns cannot score a "
            f"mixing with {mixing.shape[0]} rows"
        )
    g = separator @ mixing
    norms = np.linalg.norm(g, axis=1)
    if np.any(norms == 0):
        raise ValueError("separator has a zero row")
    dominance = np.abs(g).max(axis=1) / norms

    score_matrix = np.abs(g) / norms[:, None]
    matching = greedy_match(score_matrix)
    angles = [
        float(np.degrees(np.arccos(min(1.0, score_matrix[r, c]))))
        for r, c in enumerate(matching)
        if c >= 0
    ]
    return {
        "dominance": dominance.tolist(),
        "min_dominance": float(dominance.min()),
        "matching": matching,
        "angle_errors_deg": angles,
        "mean_angle_error_deg": float(np.mean(angles)),
    }
