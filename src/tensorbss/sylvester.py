"""Exact decomposition of binary forms into sums of d-th powers of linear forms.

A binary quantic ``p(x, y) = sum_i gamma_i c(i) x^i y^(d-i)`` is a sum of ``w``
distinct d-th powers exactly when the sliding-window Hankel matrix of its
coefficients has a kernel vector ``g`` whose polynomial ``q(x, y) = sum_l g_l
x^l y^(w-l)`` has ``w`` distinct projective roots: the linear forms, whose
weights a generalized Vandermonde solve gives.  By the theorem of Sylvester and
of Comas & Seiguer, the border rank ``r`` is the rank of the middle
catalecticant and the rank is ``r`` or ``d - r + 2``, so :func:`cand_binary`
computes at most two kernels.

``w`` linear forms are one ``(w, 2)`` complex array of rows ``(a, b)`` (conjugate
pairs keep the reconstruction real) in a fixed order: ``x = 0``, then ``y = 0``,
then the sorted finite roots.  One power matrix (:func:`_powers`), one rank rule
(:func:`_rank`), one chordal distinctness test (:func:`_distinct`) and one
realness rule (:func:`tensorbss.core.is_real`) serve the whole module.  The
weight solve divides the coefficients by a power of two, so they may reach the
float range.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import is_real, lead_signs, poly_roots

KERNEL_TOL = 1e-10
DISTINCT_TOL = 1e-8
RESIDUAL_TOL = 1e-8
CANCELLATION_LIMIT = 1e4
PENCIL_ANGLES = 181
_ANGLES = np.linspace(0.0, np.pi, PENCIL_ANGLES)[:, None]
_COS, _SIN = np.cos(_ANGLES), np.sin(_ANGLES)


def _powers(forms, d: int) -> np.ndarray:
    """Row ``i``, column ``k``: ``a_k^i b_k^(d-i)`` for the rows ``(a_k, b_k)`` of ``forms``."""
    i = np.arange(d + 1)[:, None]
    return forms[:, 0] ** i * forms[:, 1] ** (d - i)


@dataclass(frozen=True)
class BinaryQuantic:
    """Degree-``d`` form in two variables, coefficients in the weighted basis."""

    degree: int
    gamma: np.ndarray

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        g = np.array(self.gamma, dtype=float)
        if g.shape != (self.degree + 1,):
            raise ValueError(f"gamma must hold degree + 1 = {self.degree + 1} coefficients, "
                             f"got shape {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("gamma must hold finite coefficients")
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)

    def __call__(self, x: float, y: float) -> float:
        d = self.degree
        binom = np.array([comb(d, i) for i in range(d + 1)], dtype=float)
        return float((self.gamma * binom) @ _powers(np.array([[x, y]], dtype=float), d)[:, 0])

    @classmethod
    def from_poly(cls, p) -> "BinaryQuantic":
        if p.nvars != 2:
            raise ValueError("binary quantics have exactly two variables")
        gamma = np.array([p.gamma((i, p.degree - i)) for i in range(p.degree + 1)])
        return cls(p.degree, gamma)

    def to_poly(self):
        from .poly import HomogPoly

        d = self.degree
        return HomogPoly(2, d, {(i, d - i): float(self.gamma[i]) for i in range(d + 1)})


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
        terms = np.array(self.terms, dtype=complex).reshape(-1, 3)
        return np.real_if_close(_powers(terms[:, 1:], self.degree) @ terms[:, 0], tol=1e6)


def hankel_matrix(p: BinaryQuantic, omega: int) -> np.ndarray:
    """Sliding windows of the coefficients: shape (d - w + 1, w + 1)."""
    d = p.degree
    if not 1 <= omega <= d:
        raise ValueError(f"candidate rank must lie in 1..{d}")
    return p.gamma[np.arange(d - omega + 1)[:, None] + np.arange(omega + 1)]


def _rank(s, top) -> int:
    """Numerical rank: how many singular values ``s`` exceed ``KERNEL_TOL * top``."""
    return int(np.count_nonzero(s > KERNEL_TOL * top))


def kernel_vectors(h: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical kernel, one column per direction."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    _, s, vh = np.linalg.svd(h, full_matrices=True)
    basis = vh[_rank(s, s.max(initial=0.0)) :].T
    return basis * lead_signs(basis)  # canonical signs for reproducibility


def _sparse_kernel(h: np.ndarray, dim: int) -> np.ndarray | None:
    """Kernel basis with one vector per free column, ``None`` unless ``dim`` columns are free.

    A column is a pivot when it raises the rank of the pivots before it.  A free
    column's vector is 1 there and, on the pivots, minus the pivot columns'
    least-squares solve against it, by QR: an SVD ``lstsq`` rounds exact zeros.
    """
    top = np.linalg.norm(h, 2)
    pivots: list[int] = []
    free: list[int] = []
    for c in range(h.shape[1]):
        s = np.linalg.svd(h[:, pivots + [c]], compute_uv=False)
        (pivots if _rank(s, top) > len(pivots) else free).append(c)
    if len(free) != dim:
        return None
    basis = np.zeros((h.shape[1], dim))
    basis[free, range(dim)] = 1.0
    q, r = np.linalg.qr(h[:, pivots])
    basis[pivots] = -np.linalg.solve(r, q.T @ h[:, free])
    return basis


def roots_of_q(g) -> tuple[np.ndarray, bool]:
    """Projective roots of ``q(x, y) = sum_l g_l x^l y^(w-l)`` and a distinctness flag.

    The roots are the rows ``(a, b)`` of a ``(w, 2)`` complex array, ``w``
    of them with multiplicity: first ``(0, 1)`` and ``(1, 0)`` for the
    vanishing low and high coefficients, then ``(tau, 1)`` for the
    :func:`~tensorbss.core.poly_roots` of the dehomogenized polynomial.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    omega = g.size - 1
    scale = np.abs(g).max(initial=0.0)
    if scale == 0.0:
        raise ValueError("kernel vector must be nonzero")
    support = np.nonzero(np.abs(g) > 1e-13 * scale)[0]
    lo, hi = int(support[0]), int(support[-1])
    roots = np.ones((omega, 2), dtype=complex)
    roots[:lo, 0] = 0.0  # x divides q
    roots[lo : lo + omega - hi, 1] = 0.0  # y divides q
    # |g[hi]| is above 1e-13 of the largest |g|, so poly_roots trims no root of tau = x / y
    roots[lo + omega - hi :, 0] = poly_roots(g[None, lo : hi + 1])[0]
    return roots, _distinct(roots)


def _distinct(forms) -> bool:
    """Whether every two rows ``(a, b)`` of ``forms`` are more than ``DISTINCT_TOL`` apart
    in the chordal distance ``|a1 b2 - a2 b1| / (|(a1, b1)| |(a2, b2)|)``."""
    a, b = forms[:, 0], forms[:, 1]
    norms = np.hypot(np.abs(a), np.abs(b))
    chord = np.abs(a[:, None] * b - a * b[:, None]) / (norms[:, None] * norms)
    np.fill_diagonal(chord, np.inf)
    return bool((chord > DISTINCT_TOL).all())


def solve_weights(p: BinaryQuantic, forms) -> tuple[np.ndarray, float]:
    """Weights matching coefficients of ``p`` against the forms' d-th powers.

    Solves the generalized Vandermonde system in the least-squares sense and
    reports the relative residual; proportional forms raise ``ValueError``, a
    rank-deficient system ``LinAlgError``.  Each form enters scaled to
    max(|a|, |b|) = 1, so a far root does not swamp the columns, and the
    coefficients divided by a power of two, which is exact; the weights absorb
    both scales, and weights beyond the float range raise ``ValueError``.
    """
    weights, exponent, residual, _ = _relative_weights(p, forms)
    with np.errstate(over="ignore"):
        weights = np.ldexp(weights.view(float), exponent).view(complex)
    if not np.isfinite(weights).all():
        raise ValueError("the weights overflow the float range")
    return weights, residual


def _relative_weights(p: BinaryQuantic, forms) -> tuple[np.ndarray, int, float, float]:
    """:func:`solve_weights` before it multiplies by ``2**e``, ``e`` the exponent of max|gamma|;
    with ``e``, the residual and the cancellation ratio ``sum |w_k| / max|gamma|``."""
    forms = np.asarray(forms, dtype=complex).reshape(-1, 2)
    if not _distinct(forms):
        raise ValueError("forms must be pairwise non-proportional")
    scales = np.abs(forms).max(axis=1)
    v = _powers(forms / scales[:, None], p.degree)
    exponent = int(np.frexp(np.abs(p.gamma).max())[1])
    gamma = np.ldexp(p.gamma, -exponent)
    weights, _, rank, _ = np.linalg.lstsq(v, gamma.astype(complex), rcond=None)
    if rank < len(forms):
        raise np.linalg.LinAlgError("singular weight system: forms too close to proportional")
    scale = float(np.linalg.norm(gamma))
    residual = float(np.linalg.norm(v @ weights - gamma)) / (scale if scale > 0 else 1.0)
    cancellation = np.abs(weights).sum() / (np.abs(gamma).max() or 1.0)  # |w_k| = 2**e |weights[k]|
    with np.errstate(over="ignore"):  # beyond the float range only for forms far below 1
        return weights / scales**p.degree, exponent, residual, cancellation


def _kernel_candidates(h: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Deterministic sequence of kernel vectors to try for distinct roots, one per row.

    Dimension 0 or 1: the basis itself.  Dimension 2: a 1-parameter pencil over a
    fixed grid of angles (any admissible member is a valid decomposition, the
    grid pins the choice).  Dimension 3+: the sparse canonical basis first,
    then its pairwise sums and differences, then pencil grids over each pair,
    then seeded random combinations.
    """
    dim = basis.shape[1]
    if dim <= 1:
        return basis.T
    sparse = _sparse_kernel(h, dim) if dim >= 3 else None
    cols = basis.T if sparse is None else sparse.T
    i, j = np.nonzero(np.arange(dim)[:, None] < np.arange(dim))  # the pairs i < j in order
    pencils = (_COS * cols[i][:, None] + _SIN * cols[j][:, None]).reshape(-1, cols.shape[1])
    if dim == 2:
        return pencils
    sums = np.stack([cols[i] + cols[j], cols[i] - cols[j]], axis=1).reshape(-1, cols.shape[1])
    spread = np.random.default_rng(0).standard_normal((20, dim)) @ basis.T
    return np.concatenate([cols, sums, pencils, spread])


class NoDecompositionError(ValueError):
    """No admissible kernel vector found at the border rank ``r`` nor at ``d - r + 2``."""


def cand_binary(p: BinaryQuantic) -> WaringDecomposition:
    """Minimal-rank decomposition of ``p`` into distinct d-th powers.

    Scans the candidates of :func:`_kernel_candidates` at the border rank ``r``
    (the middle catalecticant's rank, on ``gamma`` over a power of two), then at
    ``min(d, d - r + 2)``.  At rank ``r < d - r + 2``, a candidate whose ``sum_k
    |w_k| / max |gamma|`` exceeds ``CANCELLATION_LIMIT`` is a multiple root split
    by rounding (measured: 1.7e5 and up where such a split lowered the rank of a
    sheared integer form, 1.1e2 at most on Gaussian quantics of degrees 3 to 16).
    Kernels of dimension 3 and above prefer all-real candidates.  Residuals are
    at most 1e-8; weights beyond the float range raise ``ValueError``.
    """
    top = np.abs(p.gamma).max(initial=0.0)
    if not top:
        raise ValueError("the zero form has no decomposition")
    d = p.degree
    middle = np.ldexp(hankel_matrix(p, (d + 1) // 2), -int(np.frexp(top)[1]))
    r = _rank(s := np.linalg.svd(middle, compute_uv=False), s[0])
    for omega in dict.fromkeys((r, min(d, d - r + 2))):
        h = hankel_matrix(p, omega)
        basis = kernel_vectors(h)
        prefer_real = basis.shape[1] >= 3
        limit = CANCELLATION_LIMIT if omega == r < d - r + 2 else np.inf
        found = None
        for g in _kernel_candidates(h, basis):
            roots, distinct = roots_of_q(g)
            candidate = _assemble(p, roots, limit) if distinct else None
            if candidate is not None and (not prefer_real or candidate.field == "real"):
                found = candidate
                break
            found = found or candidate
        if found is not None:
            if not np.isfinite(np.array(found.terms)).all():
                raise ValueError("the weights overflow the float range")
            return found
    raise NoDecompositionError(f"degree {d}: no decomposition at rank {r} or {min(d, d - r + 2)}")


def _assemble(p: BinaryQuantic, forms: np.ndarray, limit: float) -> WaringDecomposition | None:
    """The decomposition over ``forms``, or ``None`` if their weights miss ``p`` or cancel,
    ``sum |w_k| / max|gamma|`` above ``limit``; each form scaled to max(|a|, |b|) = 1 with a
    positive real leading entry, the weight absorbing it, infinite beyond the float range."""
    try:
        weights, exponent, residual, cancellation = _relative_weights(p, forms)
    except np.linalg.LinAlgError:
        return None
    if not residual <= RESIDUAL_TOL or cancellation > limit:
        return None
    m = np.abs(forms).max(axis=1)
    lead = np.where(np.abs(forms[:, 0]) > 1e-10 * m, forms[:, 0], forms[:, 1])
    u = np.conj(lead / np.abs(lead)) / m
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        weights = np.ldexp(weights.view(float), exponent).view(complex)
        terms = np.column_stack([weights / u**p.degree, forms * u[:, None]])
    field = "real" if is_real(terms).all() else "complex"
    terms = terms.real.astype(complex) if field == "real" else terms
    return WaringDecomposition(p.degree, tuple(map(tuple, terms.tolist())), field, residual)


def generic_rank_binary(d: int) -> tuple[int, int]:
    """Generic rank and kernel multiplicity for degree ``d``: odd degrees have a
    unique kernel vector, even degrees a 2-dimensional pencil."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return ((d + 1) // 2, 1) if d % 2 else (d // 2 + 1, 2)
