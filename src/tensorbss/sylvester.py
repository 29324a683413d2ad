"""Exact decomposition of binary forms into sums of d-th powers of linear forms.

A binary quantic ``p(x, y) = sum_i gamma_i c(i) x^i y^(d-i)`` admits a
decomposition into ``w`` distinct d-th powers exactly when the sliding-window
Hankel matrix of its coefficients has a kernel vector ``g`` whose associated
polynomial ``q(x, y) = sum_l g_l x^l y^(w-l)`` has ``w`` distinct projective
roots; the roots are the linear forms and the weights follow from a
generalized Vandermonde solve.  The driver ascends ``w`` from 1 and returns
the first admissible decomposition, so the reported rank is minimal under the
kernel-search policy documented in :func:`cand_binary`.

Roots are taken over the complex numbers (conjugate pairs keep the
reconstruction real); each decomposition records whether real forms sufficed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import lead_signs, poly_roots

KERNEL_TOL = 1e-10
DISTINCT_TOL = 1e-8
RESIDUAL_TOL = 1e-8
PENCIL_ANGLES = 181


@dataclass(frozen=True)
class BinaryQuantic:
    """Degree-``d`` form in two variables, coefficients in the weighted basis."""

    degree: int
    gamma: np.ndarray

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        g = np.asarray(self.gamma, dtype=float)
        if g.shape != (self.degree + 1,):
            raise ValueError(
                f"gamma must hold degree + 1 = {self.degree + 1} coefficients, got shape {g.shape}"
            )
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)

    def __call__(self, x: float, y: float) -> float:
        d = self.degree
        return float(
            sum(self.gamma[i] * comb(d, i) * x**i * y ** (d - i) for i in range(d + 1))
        )

    @classmethod
    def from_poly(cls, p) -> "BinaryQuantic":
        if p.nvars != 2:
            raise ValueError("binary quantics have exactly two variables")
        gamma = np.array([p.gamma((i, p.degree - i)) for i in range(p.degree + 1)])
        return cls(p.degree, gamma)

    def to_poly(self):
        from .poly import HomogPoly

        d = self.degree
        return HomogPoly(
            2, d, {(i, d - i): float(self.gamma[i]) for i in range(d + 1)}
        )


@dataclass(frozen=True)
class WaringDecomposition:
    """Weighted d-th powers of pairwise non-proportional linear forms."""

    degree: int
    terms: tuple[tuple[complex, complex, complex], ...]  # (weight, alpha, beta)
    field: str  # 'real' | 'complex'
    residual: float

    @property
    def rank(self) -> int:
        return len(self.terms)

    def reconstruct(self) -> np.ndarray:
        """Coefficient vector of ``sum_j w_j (a_j x + b_j y)^d`` in the gamma basis."""
        d = self.degree
        out = np.zeros(d + 1, dtype=complex)
        for w, a, b in self.terms:
            out += w * np.array([a**i * b ** (d - i) for i in range(d + 1)])
        return np.real_if_close(out, tol=1e6)


def hankel_matrix(p: BinaryQuantic, omega: int) -> np.ndarray:
    """Sliding windows of the coefficients: shape (d - w + 1, w + 1)."""
    d = p.degree
    if not 1 <= omega <= d:
        raise ValueError(f"candidate rank must lie in 1..{d}")
    return np.array([p.gamma[r : r + omega + 1] for r in range(d - omega + 1)])


def kernel_vectors(h: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical kernel, one column per direction."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    _, s, vh = np.linalg.svd(h, full_matrices=True)
    ncols = h.shape[1]
    cutoff = KERNEL_TOL * s[0] if s.size and s[0] > 0 else 0.0
    rank = int(np.sum(s > cutoff))
    basis = vh[rank:].T
    return basis * lead_signs(basis)  # canonical signs for reproducibility


def roots_of_q(g) -> tuple[list[tuple[complex, complex]], bool]:
    """Projective roots of ``q(x, y) = sum_l g_l x^l y^(w-l)`` and a distinctness flag.

    Roots at ``x = 0`` and ``y = 0`` come from vanishing extreme coefficients;
    the remaining ones are the :func:`~tensorbss.core.poly_roots` of the
    dehomogenized polynomial.  Exactly ``w`` roots (with multiplicity) are returned.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    omega = g.size - 1
    scale = np.abs(g).max(initial=0.0)
    if scale == 0.0:
        raise ValueError("kernel vector must be nonzero")
    support = np.nonzero(np.abs(g) > 1e-13 * scale)[0]
    lo, hi = int(support[0]), int(support[-1])
    roots: list[tuple[complex, complex]] = []
    roots.extend([(0.0 + 0j, 1.0 + 0j)] * lo)  # x divides q
    roots.extend([(1.0 + 0j, 0.0 + 0j)] * (omega - hi))  # y divides q
    # |g[hi]| is above 1e-13 of the largest |g|, so poly_roots trims no root of tau = x / y
    roots.extend((complex(t), 1.0 + 0j) for t in poly_roots(g[None, lo : hi + 1])[0])
    return roots, _all_distinct(roots)


def _chordal(f1, f2) -> float:
    a1, b1 = f1
    a2, b2 = f2
    num = abs(a1 * b2 - a2 * b1)
    return num / (np.hypot(abs(a1), abs(b1)) * np.hypot(abs(a2), abs(b2)))


def _all_distinct(roots) -> bool:
    return all(
        _chordal(roots[i], roots[j]) > DISTINCT_TOL
        for i in range(len(roots))
        for j in range(i + 1, len(roots))
    )


def _all_real(roots) -> bool:
    return all(
        abs(a.imag) <= 1e-9 * (1.0 + abs(a)) and abs(b.imag) <= 1e-9 * (1.0 + abs(b))
        for a, b in roots
    )


def solve_weights(p: BinaryQuantic, forms) -> tuple[np.ndarray, float]:
    """Weights matching coefficients of ``p`` against the forms' d-th powers.

    Solves the generalized Vandermonde system in the least-squares sense and
    reports the relative residual; proportional forms make the system
    singular and are rejected.  Each form enters the system scaled to
    max(|a|, |b|) = 1, so a root far from the origin does not swamp the
    columns, and the returned weight absorbs the d-th power of that scale.
    """
    d = p.degree
    forms = [(complex(a), complex(b)) for a, b in forms]
    if not _all_distinct(forms):
        raise ValueError("forms must be pairwise non-proportional")
    scales = np.array([max(abs(a), abs(b)) for a, b in forms])
    v = np.array(
        [[(a / m) ** i * (b / m) ** (d - i) for (a, b), m in zip(forms, scales)]
         for i in range(d + 1)]
    )
    weights, _, rank, _ = np.linalg.lstsq(v, p.gamma.astype(complex), rcond=None)
    if rank < len(forms):
        raise ValueError("singular weight system: forms too close to proportional")
    scale = float(np.linalg.norm(p.gamma))
    residual = float(np.linalg.norm(v @ weights - p.gamma)) / (scale if scale > 0 else 1.0)
    return weights / scales**d, residual


def _normalize_terms(weights, roots, degree):
    """Scale each form so max(|a|, |b|) = 1 with a positive real leading
    component; the weight absorbs the d-th power of the scaling."""
    terms = []
    for w, (a, b) in zip(weights, roots):
        m = max(abs(a), abs(b))
        lead = a if abs(a) > 1e-10 * m else b
        phase = lead / abs(lead)
        u = np.conj(phase) / m
        terms.append((complex(w / u**degree), complex(a * u), complex(b * u)))
    return tuple(terms)


def _rref_nullspace(h: np.ndarray) -> np.ndarray:
    """Sparse canonical kernel basis (one vector per free column) via RREF."""
    m = np.array(h, dtype=float)
    rows, cols = m.shape
    scale = np.abs(m).max(initial=0.0)
    if scale == 0.0:
        return np.eye(cols)
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        lead = r + int(np.argmax(np.abs(m[r:, c])))
        if abs(m[lead, c]) <= KERNEL_TOL * scale:
            continue
        m[[r, lead]] = m[[lead, r]]
        m[r] /= m[r, c]
        for other in range(rows):
            if other != r:
                m[other] -= m[other, c] * m[r]
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)))
    for k, fc in enumerate(free):
        basis[fc, k] = 1.0
        for rr, pc in enumerate(pivots):
            basis[pc, k] = -m[rr, fc]
    return basis


def _kernel_candidates(h: np.ndarray, basis: np.ndarray):
    """Deterministic sequence of kernel vectors to try for distinct roots.

    Dimension 1: the vector itself.  Dimension 2: a 1-parameter pencil over a
    fixed grid of angles (any admissible member is a valid decomposition, the
    grid pins the choice).  Dimension 3+: the sparse canonical basis first,
    then its pairwise sums and differences, then pencil grids over each pair,
    then seeded random combinations.
    """
    dim = basis.shape[1]
    if dim == 1:
        yield basis[:, 0]
        return
    angles = np.linspace(0.0, np.pi, PENCIL_ANGLES)
    if dim == 2:
        b1, b2 = basis[:, 0], basis[:, 1]
        for t in angles:
            yield np.cos(t) * b1 + np.sin(t) * b2
        return
    sparse = _rref_nullspace(h)
    if sparse.shape[1] != dim:
        sparse = basis
    cols = [sparse[:, k] for k in range(sparse.shape[1])]
    for v in cols:
        yield v
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            yield cols[i] + cols[j]
            yield cols[i] - cols[j]
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            for t in angles:
                yield np.cos(t) * cols[i] + np.sin(t) * cols[j]
    rng = np.random.default_rng(0)
    for _ in range(20):
        yield basis @ rng.standard_normal(dim)


class NoDecompositionError(ValueError):
    """No admissible kernel vector found at any candidate rank up to the degree."""


def cand_binary(p: BinaryQuantic) -> WaringDecomposition:
    """Minimal-rank decomposition of ``p`` into distinct d-th powers.

    Ranks are tried in increasing order; at each rank the kernel candidates of
    :func:`_kernel_candidates` are scanned.  For kernels of dimension 3 and
    above, candidates whose roots are all real take precedence over complex
    ones; the 1- and 2-dimensional cases accept the first candidate with
    distinct roots.  The returned decomposition reproduces the coefficients
    to a relative residual of 1e-8 or better.
    """
    scale = np.abs(p.gamma).max(initial=0.0)
    if scale == 0.0:
        raise ValueError("the zero form has no decomposition")
    for omega in range(1, p.degree + 1):
        h = hankel_matrix(p, omega)
        basis = kernel_vectors(h)
        if basis.shape[1] == 0:
            continue
        prefer_real = basis.shape[1] >= 3
        fallback = None
        for g in _kernel_candidates(h, basis):
            if np.abs(g).max(initial=0.0) == 0.0:
                continue
            roots, distinct = roots_of_q(g)
            if not distinct:
                continue
            candidate = _assemble(p, roots)
            if candidate is None:
                continue
            if not prefer_real or candidate.field == "real":
                return candidate
            if fallback is None:
                fallback = candidate
        if fallback is not None:
            return fallback
    raise NoDecompositionError(
        f"no decomposition with distinct forms found for degree {p.degree} "
        "within the degree bound"
    )


def _assemble(p: BinaryQuantic, roots) -> WaringDecomposition | None:
    try:
        weights, residual = solve_weights(p, roots)
    except ValueError:
        return None
    if residual > RESIDUAL_TOL:
        return None
    terms = _normalize_terms(weights, roots, p.degree)
    is_real = _all_real([(a, b) for _, a, b in terms]) and all(
        abs(w.imag) <= 1e-9 * (1.0 + abs(w)) for w, _, _ in terms
    )
    if is_real:
        terms = tuple(
            (complex(w.real), complex(a.real), complex(b.real)) for w, a, b in terms
        )
    return WaringDecomposition(
        degree=p.degree,
        terms=terms,
        field="real" if is_real else "complex",
        residual=residual,
    )


def generic_rank_binary(d: int) -> tuple[int, int]:
    """Generic rank and kernel multiplicity for degree ``d``: odd degrees have a
    unique kernel vector, even degrees a 2-dimensional pencil."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d % 2 == 1:
        return (d + 1) // 2, 1
    return d // 2 + 1, 2
