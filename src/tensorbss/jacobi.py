"""Orthogonal tensor diagonalization by Givens pair sweeps.

The driver maximizes a contrast — the sum of (powers of) diagonal entries of
a symmetric order-2/3/4 tensor — one index pair at a time.  Restricted to one
pair, the contrast is a trigonometric polynomial of the rotation angle:

* for ``(alpha, d)`` in ``{(2, 2), (2, 3), (1, 4)}`` it is a quadratic form
  in ``u = (cos 2*phi, sin 2*phi)``, maximized by the dominant eigenvector of
  a 2x2 matrix reconstructed exactly from three angle samples;
* for ``(1, 3)`` it has first and third harmonics; stationary angles are the
  real roots of a degree-6 polynomial in ``h = tan(phi/2)``, for
  ``phi`` in ``[-pi/2, pi/2]``;
* for ``(2, 4)`` it is ``H(xi) / (xi^2 + 4)^2`` with ``xi = t - 1/t``,
  ``t = tan(phi)``, and ``H`` a quartic whose coefficients are quadratic
  forms in the pair's five entries (Comon, *Independent component analysis,
  a new concept?*, Signal Processing 1994).  Its stationary points are the
  real roots of the quartic ``H'(xi) (xi^2 + 4) - 4 xi H(xi)``, and each one
  is taken as the root ``t`` of ``t^2 - xi t - 1 = 0`` with ``|t| <= 1``, so
  angles lie in ``[-pi/4, pi/4]``; the other root is the same rotation
  shifted by ``pi/2``, with the same contrast.

The angle solve, :func:`_best_angles`, takes one row of pair entries per
pair and solves them all at once: fixed tables turn each row into its
samples or polynomial coefficients, the roots of all rows come from
:func:`~tensorbss.core.poly_roots` (one stacked companion-matrix ``eigvals``
call for each degree the rows have after trimming), and each row's result
depends on that row alone.  The quadratic forms count their off-diagonal
coefficient and their diagonal difference as zero within the rounding floor
of the samples each is made of, so a pair diagonal up to rounding is not
rotated, not even by the ``pi/4`` swap that a rounding residue in its
diagonal difference would favour.  The candidate with the largest
restricted contrast wins, and candidates within ``1e-12`` of the best are
ties that go to the smallest angle.  A rotation is applied only when its
contrast gain is strictly positive, so the recorded contrast trace never
decreases.  Sweeps stop once no accepted rotation of a whole sweep reaches
``angle_tol`` (cyclic), once the best pair's angle falls below it or no pair
gains (greedy), or after ``max_sweeps`` sweeps (``max_sweeps`` times the pair
count in rotations, for greedy); the result's ``stop_reason`` says which.
``angle_tol`` is ``ANGLE_TOL``, the rounding floor, on a given tensor, and
``max(ANGLE_TOL, 1 / (100 sqrt(N)))`` in :func:`ica`, whose cumulant is
estimated from ``N`` samples: JADE's threshold (Cardoso & Souloumiac, *IEE
Proc. F*, 1993), below which an angle only fits estimation noise.  It only
ends the sweeps sooner, so ``ica``'s trace is a prefix of the ``ANGLE_TOL`` run's.

A rotation of ``(p, q)`` rewrites only tensor slices indexed by ``p`` or
``q``, and a pair's angle reads only the entries indexed within that pair.
Cyclic sweeps use this through the round-robin (parallel Jacobi) ordering
of Brent & Luk (*SIAM J. Sci. Stat. Comput.*, 1985): each sweep is ``n - 1``
rounds (``n`` for odd ``n``, with one index idle per round) of ``n // 2``
disjoint pairs, and every pair comes once per sweep.  A round is solved in
one call, and its accepted pairs (positive gain, nonzero angle) are then
rotated together: Givens rotations of disjoint pairs commute, and no
rotation of the round touches another pair's entries, so each angle is the
one a solve made just before its own rotation would return, and the result
is that of one rotation at a time up to rounding.

Greedy sweeps rotate the pair of largest gain, and solve lazily (Minoux,
*Accelerated greedy algorithms for maximizing submodular set functions*,
1978): a pair is solved only when its gain might win.  The first pick solves
every pair in one call.  A rotation of ``(p, q)`` makes the ``2n - 4`` pairs
sharing exactly one index with it dirty, and gives each an upper bound on its
gain, :func:`_gain_bounds`: restricted to one pair, the contrast is
``c + sum_k a_k cos(k phi) + b_k sin(k phi)`` over the harmonics ``k`` in
``{4, 8}`` for ``(2, 4)``, ``{1, 3}`` for ``(1, 3)`` and ``{4}`` for the
quadratic forms; fixed tables turn the pair's row into the contrast at
``2 D + 1`` equispaced angles (``D`` the highest harmonic over the
harmonics' gcd) and those samples into the coefficients, and no angle gains
more than ``sum_k hypot(a_k, b_k) - a_k`` (for the quadratic forms, the gain
itself).
Before each pick, one call solves the dirty pairs whose bound plus the
rounding slack ``1e-12 (1 + max |sample|)`` reaches the best clean gain; the
rest keep their bounds and cannot win, since a solve's gain never exceeds its
bound by the slack.  A solve only raises the best clean gain, so one call
suffices.  The pick is then the one an eager sweep, re-solving every touched
pair after each rotation, would make, bit for bit: each pair's row is read
after the last rotation, and by the exactness rule below its bytes, and
hence its solve, are those it had when it was last touched.  ``read()`` runs
once per rotation and serves both the bounds and the solves.  Under ``(2, 4)``
the rotated pair itself is cached as ``(0, 0)`` unsolved: it now sits at its
global optimum, ``phi = 0``, where no candidate beats the current contrast by
the ``1e-15`` margin, so a fresh solve returns exactly ``(0, 0)`` (its
quartic's leading coefficient would also trim and cost a second ``eigvals``
call).  The other specs make it dirty with the rest: ``(1, 3)`` searches only
half its period, and the quadratic forms return ``(0, 0)`` only when the
rotation's own rounding leaves the pair's off-diagonal coefficient within its
rounding floor.

Both strategies rotate the basis, not the tensor, through one engine,
:func:`_pair_reader`.  It keeps the input SymTensor ``t`` fixed and accumulates
the rotation ``v``, whose row ``v_p`` is the ``p``-th rotated basis vector,
so the rotated tensor's entry ``z[p^(d-j) q^j]`` is ``t(v_p^(d-j), v_q^j)``.
It gathers ``t`` once from ``packed`` as a matrix ``m`` between half-powers
(at order 4, ``t`` as a quadratic form on pair products: the cumulant
matrices of Cardoso & Souloumiac's JADE, 1993), keeps every basis vector's
left half ``y_r = h(v_r) @ m``, and reads the rotated tensor's pair matrices
off ``y`` and ``v``: ``g[p, q] = z[ppqq]`` and ``f[p, q] = z[pppq]`` at order
4, ``f[p, q] = z[ppq]`` at order 3 and ``z[pq]`` at order 2.  Every pair row
is gathered from them.  A rotation rewrites the rows of ``v`` it rotates and
refreshes only their left halves; a round with no accepted pair changes
nothing.  Only the final rotation, ``symmetrize(tucker_transform(t, [v] * d))``,
builds the ``n^d`` array; with no accepted pair it is skipped, so an unrotated
input is returned as given.

The exactness rule: each pair matrix is a product of fixed shape, so the bits
of its entry ``(p, q)`` depend on ``y_p``, ``v_p`` and ``v_q`` alone.  A
rotation of ``(p, q)`` therefore leaves the row of every pair disjoint from
``{p, q}`` bit for bit, and the angle solve, whose rows are copied to C order
first, gives each row's bits from that row alone, whatever the batch.

The pair matrices and the final rotation's ``tucker_transform`` sum through
BLAS, so both strategies reproduce as far as BLAS does: the same input, in the
same process and with the same BLAS build and thread count, gives identical
bytes; nothing is promised across machines, BLAS builds or thread counts,
which may sum in another order.

The diagnostics (``contrast_value``, ``stationarity_residual``,
``convexity_margin``, ``ica``'s low-confidence floor) read O(n^2) entries of
``packed``: the diagonal and the pair rows the sweep reads.  They and the
sweeps pack a dense input by ``SymTensor.from_dense``, refused unless symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import ceil, cos, gcd, pi, sin, sqrt

import numpy as np

from .core import SymTensor, is_real, poly_roots, safe_exponent, symmetrize, tucker_transform
from .cumulants import as_samples, cumulant_tensor
from .indexing import multiplicities, packed_index, packing_positions, sorted_axes
from .whiten import Whitener, standardize

SUPPORTED_SPECS = {(1, 3), (1, 4), (2, 3), (2, 4), (2, 2)}
QUADRATIC_FORM_SPECS = {(2, 2), (2, 3), (1, 4)}
ANGLE_TOL = 1e-8

# (1, 3), columns over the pair entries (a, b, e, g): rows 0-6 are the
# ascending coefficients in h = tan(phi/2) of d/dphi of the contrast times
# (1 + h^2)^3 / 3, rows 7-13 those of the contrast times (1 + h^2)^3
_TABLE_13 = np.array([
    [0.0, 1.0, -1.0, 0.0],
    [-2.0, 4.0, 4.0, -2.0],
    [-4.0, -11.0, 11.0, 4.0],
    [4.0, -16.0, -16.0, 4.0],
    [4.0, 11.0, -11.0, -4.0],
    [-2.0, 4.0, 4.0, -2.0],
    [0.0, -1.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, 1.0],
    [0.0, 6.0, -6.0, 0.0],
    [-3.0, 12.0, 12.0, -3.0],
    [-8.0, -12.0, 12.0, 8.0],
    [3.0, -12.0, -12.0, 3.0],
    [0.0, 6.0, -6.0, 0.0],
    [-1.0, 0.0, 0.0, -1.0],
])
# (2, 4): coefficient k of H, as an upper-triangular quadratic form over the
# pair entries (a, b, e, f, g); H4 = a^2 + g^2 is the contrast at phi = 0
_H_24 = np.array([
    [[2, 0, 24, 0, 4], [0, 32, 0, 64, 0], [0, 0, 72, 0, 24], [0, 0, 0, 32, 0], [0, 0, 0, 0, 2]],
    [[0, -24, 0, -8, 0], [0, 0, -48, 0, 8], [0, 0, 0, 48, 0], [0, 0, 0, 0, 24], [0, 0, 0, 0, 0]],
    [[4, 0, 12, 0, 0], [0, 16, 0, 0, 0], [0, 0, 0, 0, 12], [0, 0, 0, 16, 0], [0, 0, 0, 0, 4]],
    [[0, -8, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 8], [0, 0, 0, 0, 0]],
    [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 1]],
], dtype=float).reshape(5, 25)
# rows 0-4: H'(xi) (xi^2 + 4) - 4 xi H(xi), ascending in xi; rows 5-9: H
_TABLE_24 = np.vstack([
    4 * _H_24[1],
    8 * _H_24[2] - 4 * _H_24[0],
    12 * _H_24[3] - 3 * _H_24[1],
    16 * _H_24[4] - 2 * _H_24[2],
    -_H_24[3],
    _H_24,
])


@dataclass(frozen=True)
class ContrastSpec:
    """Exponent and cumulant order of the diagonal contrast."""

    alpha: int = 2
    order: int = 4

    def __post_init__(self):
        if (self.alpha, self.order) not in SUPPORTED_SPECS:
            raise ValueError(
                f"unsupported contrast (alpha={self.alpha}, order={self.order}); "
                f"supported pairs: {sorted(SUPPORTED_SPECS)}"
            )


@dataclass
class ICAResult:
    """Outcome of a sweep: accumulated rotation, rotated tensor, diagnostics.

    ``Q`` is the estimated orthogonal mixing matrix; the rotated sources are
    ``Q.T @ y`` for standardized observations ``y``.  ``trace`` holds the
    contrast after the initial state and after every accepted rotation.
    ``stop_reason`` says why the sweeps ended: ``"angle_tol"``, ``"no_gain"``
    or ``"max_sweeps"`` (a tensor without pairs is already stationary).
    ``largest_angles`` holds the largest accepted ``|phi|`` of each sweep (for
    greedy, of each block of pair-count rotations), one entry per sweep.
    ``sweeps`` and ``rotations`` are read from these two lists, and
    ``angle_tol`` is the tolerance of the ``"angle_tol"`` stop.
    """

    Q: np.ndarray
    Z: SymTensor
    trace: list[float]
    low_confidence: bool = False
    stop_reason: str = "angle_tol"
    largest_angles: list[float] = field(default_factory=list)
    angle_tol: float = ANGLE_TOL

    @property
    def sweeps(self) -> int:
        return len(self.largest_angles)

    @property
    def rotations(self) -> int:
        return len(self.trace) - 1


def _pair_layout(p, q, d: int) -> np.ndarray:
    """Axes of the pair rows of index arrays ``p``, ``q``: row ``j`` holds ``j`` trailing ``q``s."""
    trailing_q = np.arange(d) >= d - np.arange(d + 1)[:, None]
    return np.where(trailing_q, np.asarray(q)[..., None, None], np.asarray(p)[..., None, None])


def _read(z, d: int):
    """Diagonal of the order-``d`` tensor ``z``, and a reader of its entries at rows of
    axes, from ``packed`` by :func:`packed_index`; a dense ``z`` is packed first."""
    z = z if isinstance(z, SymTensor) else SymTensor.from_dense(z)
    if z.order != d:
        raise ValueError(f"tensor order {z.order} does not match the stated order {d}")

    def read(axes):
        return z.packed[packed_index(np.sort(axes, axis=-1), z.dim)]

    return read(np.repeat(np.arange(z.dim), d).reshape(z.dim, d)), read


def contrast_value(z, spec: ContrastSpec) -> float:
    """Sum of |diagonal| entries to the alpha; the signed sum when alpha is 1."""
    diag, _ = _read(z, spec.order)
    if spec.alpha == 1:
        return float(np.sum(diag))
    return float(np.sum(np.abs(diag) ** spec.alpha))


def _pairs(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs ``p < q`` in row-major order, and their rows' positions in ``_pair_reader``'s read."""
    p, q = np.triu_indices(n, 1)
    matrix, row, column = np.array(_ENTRIES[d]).T
    pq = np.stack([p, q], axis=1)
    return p, q, (matrix * n + pq[:, row]) * n + pq[:, column]


@cache
def _rounds(n: int) -> np.ndarray:
    """One cyclic sweep as rounds of disjoint pairs: row ``r`` lists round ``r``'s pairs.

    A pair is given by its index into :func:`_pairs`.  The circle method on
    ``m = n + n % 2`` players: player 0 stays put and round ``r`` pairs it
    with ``r + 1``, and ``1 + (r + i) % (m - 1)`` with ``1 + (r - i) % (m - 1)``
    for ``0 < i < m / 2``.  For odd ``n`` the player ``n`` is the bye, so its
    pair is dropped.  Each round is sorted, so round ``r`` starts with
    ``(0, r + 1)`` wherever that pair is not the bye, and for ``n <= 3`` the
    schedule is row order.  The result is read-only, since every caller
    shares it.
    """
    m = n + n % 2
    r = np.arange(m - 1)[:, None]
    i = np.arange(m // 2)
    p, q = 1 + (r + i) % (m - 1), 1 + (r - i) % (m - 1)
    p[:, 0] = 0
    index = np.full((m, m), -1, dtype=np.intp)
    index[np.triu_indices(n, 1)] = np.arange(n * (n - 1) // 2)
    rounds = index[np.minimum(p, q), np.maximum(p, q)]
    rounds = np.sort(rounds[rounds >= 0].reshape(m - 1, n // 2), axis=1)
    rounds.flags.writeable = False
    return rounds


def _rotated_diag(vals, d: int, phi: float) -> tuple[float, float]:
    """The two affected diagonal entries after rotating the pair by ``phi``."""
    c, s = cos(phi), sin(phi)
    if d == 2:
        a, b, g = vals
        zp = c * c * a + 2 * c * s * b + s * s * g
        zq = s * s * a - 2 * c * s * b + c * c * g
    elif d == 3:
        a, b, e, g = vals
        zp = c**3 * a + 3 * c * c * s * b + 3 * c * s * s * e + s**3 * g
        zq = -(s**3) * a + 3 * s * s * c * b - 3 * s * c * c * e + c**3 * g
    else:
        a, b, e, f, g = vals
        zp = c**4 * a + 4 * c**3 * s * b + 6 * c * c * s * s * e + 4 * c * s**3 * f + s**4 * g
        zq = s**4 * a - 4 * s**3 * c * b + 6 * s * s * c * c * e - 4 * s * c**3 * f + c**4 * g
    return zp, zq


def _sample_table(d: int) -> np.ndarray:
    """Rows: the weights of ``z_pp`` at ``phi = 0, pi/4, pi/8``, then of ``z_qq``."""
    zp, zq = zip(*(_rotated_diag(np.eye(d + 1), d, phi) for phi in (0.0, pi / 4, pi / 8)))
    return np.array(zp + zq)


_SAMPLE_TABLES = {d: _sample_table(d) for d in (2, 3, 4)}
# the frequencies of the nonconstant harmonics of each spec's restricted contrast
_HARMONICS = {(2, 4): (4, 8), (1, 3): (1, 3), (2, 2): (4,), (2, 3): (4,), (1, 4): (4,)}


def _bound_table(alpha: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights of ``z_pp`` then ``z_qq`` at ``2 D + 1`` equispaced angles over the
    contrast's period ``2 pi / w``, one column each, ``w`` the frequencies' gcd and ``D``
    the highest over ``w``; and the table taking the contrast's values there to the
    coefficients ``a_k`` then ``b_k`` of its harmonics."""
    ks = _HARMONICS[alpha, d]
    w = gcd(*ks)
    phi = 2.0 * pi / w * np.arange(2 * max(ks) // w + 1) / (2 * max(ks) // w + 1)
    zp, zq = zip(*(_rotated_diag(np.eye(d + 1), d, t) for t in phi))
    harmonic = np.outer(ks, phi)
    return np.array(zp + zq).T, 2.0 / phi.size * np.vstack([np.cos(harmonic), np.sin(harmonic)]).T


_BOUND_TABLES = {spec: _bound_table(*spec) for spec in SUPPORTED_SPECS}
# entry j of a pair row, z[p^(d-j) q^j], in the pair matrices of
# :func:`_pair_reader`: (matrix, row, column), with 0 for p and 1 for q
_ENTRIES = {2: [(0, 0, 0), (0, 0, 1), (0, 1, 1)],
            3: [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)],
            4: [(0, 0, 0), (1, 0, 1), (0, 0, 1), (1, 1, 0), (0, 1, 1)]}


def _forms(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Row ``i`` is ``table @ x[i]``, summed per row so that its bits depend on ``x[i]`` alone."""
    return (x[:, None, :] * table).sum(axis=2)


def _select(x: np.ndarray, val: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row by row, the winning candidate ``x`` and its gain over ``x = 0``.

    Candidates are taken in column order after ``x = 0`` (value ``base``): one
    wins when it beats the best so far by more than ``1e-15`` relative, or
    ties within ``1e-12`` relative with a smaller ``|x|``.
    """
    best_x, gain = [], []
    for xs, vs, b in zip(x.tolist(), val.tolist(), base.tolist()):
        bx, bv = 0.0, b
        for xj, vj in zip(xs, vs):
            tol = 1.0 + abs(bv)
            if vj > bv + 1e-15 * tol or (abs(vj - bv) <= 1e-12 * tol and abs(xj) < abs(bx)):
                bx, bv = xj, vj
        best_x.append(bx)
        gain.append(bv - b)
    return np.array(best_x), np.array(gain)


def _best_angles(vals, d: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Globally optimal angle of each row of pair entries, and its contrast gain over ``phi = 0``."""
    # in C order: numpy sums a strided layout in an order set by the row count
    vals = np.ascontiguousarray(vals, dtype=float)
    m = vals.shape[0]

    if (alpha, d) in QUADRATIC_FORM_SPECS:
        # reconstruct the exact quadratic form in (cos 2phi, sin 2phi) from
        # three samples; its dominant eigenvector gives the angle, and the
        # gain over phi = 0 has a cancellation-free closed form; b12 and the
        # diagonal difference are zero within the rounding floor of the
        # samples each is made of
        z = _forms(vals, _SAMPLE_TABLES[d])
        if alpha == 2:
            z = z * z
        b11, b22, f = (z[:, :3] + z[:, 3:]).T
        eps4 = 4.0 * np.finfo(float).eps
        b12 = f - 0.5 * (b11 + b22)
        b12[np.abs(b12) <= eps4 * (np.abs(b11) + np.abs(b22) + np.abs(f))] = 0.0
        delta = 0.5 * (b11 - b22)
        delta[np.abs(delta) <= eps4 * (np.abs(b11) + np.abs(b22))] = 0.0
        radius = np.hypot(delta, b12)
        phi = np.where(radius > 0.0, 0.25 * np.arctan2(b12, delta), 0.0)
        gain = np.divide(b12 * b12, radius + delta, out=radius - delta, where=delta > 0.0)
        return phi, gain

    if (alpha, d) == (1, 3):
        # candidates h = 1, -1 (phi = +-pi/2), then the stationary h in [-1, 1]
        coeffs = _forms(vals, _TABLE_13)
        h = poly_roots(coeffs[:, :7])
        real = np.c_[np.ones((m, 2), bool), is_real(h) & (np.abs(h.real) <= 1.0 + 1e-12)]
        h = np.c_[np.tile([1.0, -1.0], (m, 1)), h.real]
        val = coeffs[:, 13:14]
        for k in range(12, 6, -1):
            val = val * h + coeffs[:, k : k + 1]
        one_h2 = 1.0 + h * h
        val = np.where(real, val / (one_h2 * one_h2 * one_h2), -np.inf)
        h, gain = _select(h, val, coeffs[:, 7])
        return 2.0 * np.arctan(h), gain

    coeffs = _forms((vals[:, :, None] * vals[:, None, :]).reshape(m, 25), _TABLE_24)
    xi = poly_roots(coeffs[:, :5])
    real, xi = is_real(xi), xi.real
    val = coeffs[:, 9:10]
    for k in range(8, 4, -1):
        val = val * xi + coeffs[:, k : k + 1]
    xi2_4 = xi * xi + 4.0
    val = np.where(real, val / (xi2_4 * xi2_4), -np.inf)
    t = -2.0 / (xi + np.copysign(np.sqrt(xi2_4), xi))
    # candidates in ascending t
    order = (np.arange(m)[:, None], np.argsort(t, axis=1))
    t, gain = _select(t[order], val[order], coeffs[:, 9])
    return np.arctan(t), gain


def _gain_bounds(vals, d: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """An upper bound on each row's contrast gain over ``phi = 0``, and the rounding slack
    within which :func:`_best_angles`'s gain may exceed it.

    The restricted contrast is ``c + sum_k a_k cos(k phi) + b_k sin(k phi)`` over the
    frequencies ``k`` of ``_HARMONICS``; its samples at the angles of :func:`_bound_table`
    give the coefficients exactly, and no angle gains more than
    ``sum_k hypot(a_k, b_k) - a_k``.  The slack is ``1e-12 (1 + max |sample|)``.
    """
    weights, harmonics = _BOUND_TABLES[alpha, d]
    z = vals @ weights
    if alpha == 2:
        z = z * z
    s, k = weights.shape[1] // 2, harmonics.shape[1] // 2
    samples = z[:, :s] + z[:, s:]
    ab = samples @ harmonics
    a = ab[:, :k]
    return (np.hypot(a, ab[:, k:]) - a).sum(axis=1), 1e-12 * (1.0 + np.abs(samples).max(axis=1))


def _rotate_rows(v: np.ndarray, p, q, phi) -> None:
    """Rotate rows ``p`` and ``q`` of ``v`` by ``phi``, in place; index arrays of
    disjoint pairs rotate each pair by its own angle."""
    c, s = np.cos(phi)[..., None], np.sin(phi)[..., None]
    vp, vq = v[p], v[q]
    v[p], v[q] = c * vp + s * vq, c * vq - s * vp


def _pair_reader(g: SymTensor):
    """The basis ``v``, a reader of the pair matrices of ``g`` rotated by ``v``,
    and the rotation of ``v`` (see the module docstring).

    ``m`` is ``g`` between half-powers, gathered from ``packed``: rows the sorted
    ``k``-tuples of axes, ``k = d - d // 2``, columns the sorted ``(d - k)``-tuples,
    each weighted by its multiplicity (order 4: ``P x P``, ``P = n (n + 1) / 2``;
    order 3: ``P x n``; order 2: ``n x n``).  With ``h(x, y)[i, j]`` the mean of
    ``x_i y_j`` and ``x_j y_i`` on ``i <= j``, and ``h(x) = h(x, x)`` (order 2:
    ``h(x) = x``), each basis vector keeps ``y_r = h(v_r) @ m``; ``read()``
    returns the pair matrices stacked and flattened: ``f = y @ v.T`` at orders 2
    and 3; at order 4 ``g = y @ h(v).T`` and ``f[p, q] = y_p @ h(v_p, v_q)``, two
    products over the columns of ``v`` at the ``i`` and the ``j``.
    ``rotate(p, q, phi)`` rotates rows ``p`` and ``q`` of ``v`` (one pair, or
    index arrays of disjoint pairs) and refreshes their left halves.
    """
    n, d = g.dim, g.order
    k = d - d // 2
    # the sorted tuples' rows and columns in the n^k x n^(d - k) unfolding
    at = np.ix_(np.ravel_multi_index(sorted_axes(n, k).T, (n,) * k),
                np.ravel_multi_index(sorted_axes(n, d - k).T, (n,) * (d - k)))
    m = g.packed[packing_positions(n, d).reshape(n**k, -1)[at]]
    m *= np.outer(multiplicities(n, k), multiplicities(n, d - k))
    i, j = sorted_axes(n, 2).T

    def h(x):
        return x if d == 2 else x.take(i, axis=1) * x.take(j, axis=1)

    v = np.eye(n)
    y = h(v) @ m

    def read():
        if d < 4:
            return (y @ v.T).ravel()
        g, f = out = np.empty((2, n, n))
        vi, vj = v.take(i, axis=1), v.take(j, axis=1)
        np.matmul(y, (vi * vj).T, out=g)
        np.matmul(y * vi, vj.T, out=f)
        f += (y * vj) @ vi.T
        f *= 0.5
        return out.ravel()

    def rotate(p, q, phi):
        _rotate_rows(v, p, q, phi)
        rows = np.hstack((p, q))
        y[rows] = h(v[rows]) @ m

    return v, read, rotate


def _run_sweeps(g, spec: ContrastSpec, greedy: bool, max_sweeps: int | None,
                angle_tol: float = ANGLE_TOL) -> ICAResult:
    if max_sweeps is not None and max_sweeps < 0:
        raise ValueError(f"max_sweeps must be >= 0, got {max_sweeps}")
    g = g if isinstance(g, SymTensor) else SymTensor.from_dense(g)
    trace = [contrast_value(g, spec)]
    n, d = g.dim, g.order
    if n < 2:
        return ICAResult(Q=np.eye(n), Z=g, trace=trace, angle_tol=angle_tol)

    first, second, positions = _pairs(n, d)
    npairs = len(first)
    if max_sweeps is None:
        max_sweeps = ceil(sqrt(n)) + 3
    v, read, rotate = _pair_reader(g)

    stop_reason, largest = "max_sweeps", []
    if greedy:
        # pair_index[i, j] is the index of pair {i, j}, -1 where i == j; a
        # rotated (2, 4) pair is cached as (0, 0); a dirty pair's gain is -inf
        # and its bound its gain bound plus slack, a solved pair's bound is -inf
        # (see the module docstring)
        pair_index = np.full((n, n), -1, dtype=np.intp)
        pair_index[first, second] = pair_index[second, first] = np.arange(npairs)
        skip_rotated = (spec.alpha, d) == (2, 4)
        phis, gains, bound = np.zeros(npairs), np.full(npairs, -np.inf), np.full(npairs, np.inf)
        rows = read()[positions]
        angles = []
        while len(angles) < npairs * max_sweeps:
            solve = np.flatnonzero(~(bound < gains.max()))  # a nan bound is solved
            if solve.size:
                phis[solve], gains[solve] = _best_angles(rows[solve], d, spec.alpha)
                bound[solve] = -np.inf
            k = int(np.argmax(gains))
            phi, gain = float(phis[k]), float(gains[k])
            if gain <= 0.0 or abs(phi) < angle_tol:
                stop_reason = "no_gain" if gain <= 0.0 else "angle_tol"
                break
            p, q = int(first[k]), int(second[k])
            rotate(p, q, phi)
            trace.append(trace[-1] + gain)
            angles.append(abs(phi))
            touched = np.concatenate([pair_index[p], pair_index[q]])
            touched = touched[(touched >= 0) & (touched != k)]
            if skip_rotated:
                phis[k], gains[k] = 0.0, 0.0
            else:
                touched = np.append(touched, k)
            rows = read()[positions]
            bound[touched] = np.add(*_gain_bounds(rows[touched], d, spec.alpha))
            gains[touched] = -np.inf
        largest = [max(angles[i : i + npairs]) for i in range(0, len(angles), npairs)]
    else:
        for _ in range(max_sweeps):
            largest_phi = 0.0
            for rows in _rounds(n):
                phis, gains = _best_angles(read()[positions[rows]], d, spec.alpha)
                ok = (gains > 0.0) & (phis != 0.0)
                if not ok.any():
                    continue
                rotate(first[rows[ok]], second[rows[ok]], phis[ok])
                for gain in gains[ok].tolist():
                    trace.append(trace[-1] + gain)
                largest_phi = max(largest_phi, float(np.abs(phis[ok]).max()))
            largest.append(largest_phi)
            if largest_phi < angle_tol:
                stop_reason = "angle_tol"
                break

    # free m and y before the final rotation's n^d arrays
    del read, rotate
    if len(trace) > 1:
        g = symmetrize(tucker_transform(g, [v] * d))

    return ICAResult(
        Q=v.T.copy(), Z=g, trace=trace, stop_reason=stop_reason,
        largest_angles=largest, angle_tol=angle_tol,
    )


def sweep_cyclic(g, spec: ContrastSpec, max_sweeps: int | None = None) -> ICAResult:
    """Sweep all pairs in round-robin rounds until angles fall below ``ANGLE_TOL``.

    Each sweep visits every pair once, as rounds of disjoint pairs (see
    :func:`_rounds`); at most ``max_sweeps`` sweeps, which must be ``>= 0``.
    A dense ``g`` is packed by ``SymTensor.from_dense``, which refuses a non-symmetric one.
    """
    return _run_sweeps(g, spec, greedy=False, max_sweeps=max_sweeps)


def sweep_greedy(g, spec: ContrastSpec, max_sweeps: int | None = None) -> ICAResult:
    """Rotate the pair with the largest contrast gain until no pair improves.

    Stops after at most ``max_sweeps`` (``>= 0``) times the pair count rotations.
    A dense ``g`` is packed by ``SymTensor.from_dense``, which refuses a non-symmetric one.
    """
    return _run_sweeps(g, spec, greedy=True, max_sweeps=max_sweeps)


def stationarity_residual(z, d: int) -> float:
    """Largest violation of the pairwise stationarity relations; 0 when diagonal."""
    if d not in (2, 3, 4):
        raise ValueError("stationarity defined for orders 2, 3, 4")
    diag, read = _read(z, d)
    p, q = np.triu_indices(len(diag), 1)
    rows = read(_pair_layout(p, q, d))
    if d == 2:
        val = (diag[p] - diag[q]) * rows[:, 1]
    else:  # z[p, .., p, q] and z[p, q, .., q]; the (q, p) relation is its negative
        val = diag[p] * rows[:, 1] - diag[q] * rows[:, d - 1]
    return float(np.abs(val).max(initial=0.0))


def convexity_margin(z, d: int, q: int, r: int) -> float:
    """Second-differential expression for the pair; negative at strict local maxima."""
    if d not in (2, 3, 4):
        raise ValueError("convexity margin defined for orders 2, 3, 4")
    diag, read = _read(z, d)
    q, r = range(len(diag))[q], range(len(diag))[r]
    if q == r:
        raise ValueError("pair indices must be distinct")
    row = read(_pair_layout(q, r, d))  # row[j] = z[q, .., q, r, .., r], j r's
    if d == 2:
        a, b, g = row
        return float(4.0 * b**2 - (a - g) ** 2)
    if d == 3:
        a, b, e, g = row
        return float(4.0 * b**2 + 4.0 * e**2 - (a - e) ** 2 - (g - b) ** 2)
    a, b, e, f, g = row
    return float(4.5 * e**2 + 4.0 * b**2 + 4.0 * f**2 - (a - 1.5 * e) ** 2 - (g - 1.5 * e) ** 2)


def ica(
    samples,
    spec: ContrastSpec = ContrastSpec(2, 4),
    *,
    strategy: str = "cyclic",
    max_sweeps: int | None = None,
) -> tuple[Whitener, ICAResult]:
    """Standardize, estimate the cumulant tensor, and sweep it diagonal.

    Returns the whitener and the sweep result; the composite separator is
    ``result.Q.T @ whitener.T`` (rotated sources are ``samples @ separator.T``
    after centering).  The result is flagged low-confidence when every rotated
    diagonal cumulant is smaller than five standard errors of a diagonal
    cumulant estimate under the Gaussian null (marginal cumulant variances
    2, 6, 24 over the sample count, for orders 2, 3, 4), as happens for
    Gaussian data.  Sweeps stop below the angle ``max(ANGLE_TOL, 1 / (100
    sqrt(N)))`` for ``N`` samples, JADE's threshold (see the module docstring).
    ``max_sweeps`` must be ``>= 0``; ``0`` returns the whitened problem
    unrotated.  ``N <= n`` samples of ``n`` columns raise
    ``ValueError`` before the (singular) covariance is formed.

    The samples are read twice, block by block, and never copied: once for
    their covariance, once for the cumulant of the whitened samples, each
    block whitened as it is read (``cumulant_tensor``'s ``transform``), so the
    peak is the samples plus ``O(P^2 + BLOCK_ROWS * P)`` floats, ``P =
    n(n+1)/2``.  The one exception is scale: when the largest ``|sample|``
    lies outside ``2**(+-core.SAFE_EXPONENT)``, ``ica`` works on the samples
    divided by a power of two ``2**e`` (a copy), whose whitener is returned
    multiplied by ``2**-e``, exactly, so any float scale separates alike.
    """
    z = as_samples(samples)
    if strategy not in ("cyclic", "greedy"):
        raise ValueError("strategy must be 'cyclic' or 'greedy'")
    if z.shape[0] <= z.shape[1]:
        raise ValueError(f"ica needs more samples than columns: N = {z.shape[0]} samples "
                         f"of n = {z.shape[1]} columns")

    e = safe_exponent(max(-z.min(), z.max()))
    if e:
        z = np.ldexp(z, -e)
    wh = standardize(cumulant_tensor(z, 2).expand().array)
    g = cumulant_tensor(z, spec.order, transform=wh.T)
    if e:
        with np.errstate(over="ignore"):
            wh = Whitener(T=np.ldexp(wh.T, -e), source_count=wh.source_count)
        if not np.isfinite(wh.T).all():
            raise ValueError("the whitener overflows the float range")

    res = _run_sweeps(g, spec, greedy=(strategy == "greedy"), max_sweeps=max_sweeps,
                      angle_tol=max(ANGLE_TOL, 1.0 / (100.0 * sqrt(z.shape[0]))))
    null_var = {2: 2.0, 3: 6.0, 4: 24.0}[spec.order]
    confidence_floor = 5.0 * sqrt(null_var / z.shape[0])
    diag, _ = _read(res.Z, spec.order)
    res.low_confidence = bool(np.max(np.abs(diag), initial=0.0) < confidence_floor)
    return wh, res
