"""Orthogonal tensor diagonalization by Givens pair sweeps.

The driver maximizes a contrast — the sum of (powers of) diagonal entries of
a symmetric order-2/3/4 tensor — one index pair at a time.  Restricted to one
pair, the contrast is a trigonometric polynomial of the rotation angle:

* for ``(alpha, d)`` in ``{(2, 2), (2, 3), (1, 4)}`` it is a quadratic form
  in ``u = (cos 2*phi, sin 2*phi)``, maximized by the dominant eigenvector of
  a 2x2 matrix reconstructed exactly from three angle samples;
* for ``(1, 3)`` it has first and third harmonics; stationary angles are the
  real roots of a degree-6 polynomial in ``tan(phi/2)``;
* for ``(2, 4)`` it is a quartic of the doubled angle; stationary angles are
  the real roots of a degree-8 polynomial in ``tan(phi)``.

Root finding uses companion matrices throughout, and the candidate with the
largest restricted contrast (ties going to the smallest angle) wins.  A
rotation is applied only when its contrast gain is strictly positive, so the
recorded contrast trace never decreases.  Sweeps stop once no rotation of
a whole sweep exceeds ``ANGLE_TOL`` (cyclic), once the best pair's angle
falls below it or no pair gains (greedy), or after ``max_sweeps`` sweeps
(``max_sweeps`` times the pair count in rotations, for greedy); the result's
``stop_reason`` says which.

Greedy sweeps solve every pair once and then, after each rotation of
``(p, q)``, only the ``2n - 3`` pairs touching ``p`` or ``q``: the rotation
rewrites only tensor slices indexed by ``p`` or ``q``, and a pair's angle
reads only entries indexed within that pair, so every other cached angle is
exactly what a fresh solve would return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import atan, atan2, ceil, cos, pi, sin, sqrt

import numpy as np

from .core import SymTensor, _as_array, real_roots, symmetrize
from .cumulants import as_samples, cumulant_tensor
from .whiten import Whitener, standardize

SUPPORTED_SPECS = {(1, 3), (1, 4), (2, 3), (2, 4), (2, 2)}
QUADRATIC_FORM_SPECS = {(2, 2), (2, 3), (1, 4)}
ANGLE_TOL = 1e-8

# (1, 3): sin(phi) / 2, cos(phi), sin(3 phi) and cos(3 phi) times
# (1 + h^2)^3, as ascending coefficients in h = tan(phi/2)
_HALF_SIN1 = np.array([0.0, 1.0, 0.0, 2.0, 0.0, 1.0])
_COS1 = np.array([1.0, 0.0, 1.0, 0.0, -1.0, 0.0, -1.0])
_SIN3 = np.array([0.0, 6.0, 0.0, -20.0, 0.0, 6.0])
_COS3 = np.array([1.0, 0.0, -15.0, 0.0, 15.0, 0.0, -1.0])
# (2, 4): derivative weights of a quartic, 1 + t^2 and 4t
_QUARTIC_DER = np.arange(1.0, 5.0)
_ONE_T2 = np.array([1.0, 0.0, 1.0])
_FOUR_T = np.array([0.0, 4.0])


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


@dataclass(frozen=True)
class PairRotation:
    """A Givens rotation acting on indices ``p`` and ``q`` (0-based, distinct).

    Angles live in [-pi/2, pi/2]; the endpoints describe the same rotation up
    to a global sign, which only the signed order-3 contrast distinguishes,
    so sign-invariant contrasts never produce ``-pi/2``.
    """

    p: int
    q: int
    phi: float

    def __post_init__(self):
        if self.p == self.q:
            raise ValueError("pair indices must be distinct")
        if not -pi / 2 - 1e-15 <= self.phi <= pi / 2 + 1e-15:
            raise ValueError("angle must lie in [-pi/2, pi/2]")


@dataclass
class ICAResult:
    """Outcome of a sweep: accumulated rotation, rotated tensor, diagnostics.

    ``Q`` is the estimated orthogonal mixing matrix; the rotated sources are
    ``Q.T @ y`` for standardized observations ``y``.  ``trace`` holds the
    contrast after the initial state and after every accepted rotation.
    ``stop_reason`` says why the sweeps ended: ``"angle_tol"``, ``"no_gain"``
    or ``"max_sweeps"`` (a tensor without pairs is already stationary).
    """

    Q: np.ndarray
    Z: SymTensor
    trace: list[float] = field(default_factory=list)
    sweeps: int = 0
    rotations: int = 0
    low_confidence: bool = False
    stop_reason: str = "angle_tol"


def contrast_value(z, spec: ContrastSpec) -> float:
    """Sum of |diagonal| entries to the alpha; the signed sum when alpha is 1."""
    arr = _as_array(z)
    if arr.ndim != spec.order:
        raise ValueError(f"tensor order {arr.ndim} does not match contrast order {spec.order}")
    n = arr.shape[0]
    diag = arr[tuple([np.arange(n)] * spec.order)]
    if spec.alpha == 1:
        return float(np.sum(diag))
    return float(np.sum(np.abs(diag) ** spec.alpha))


def _pair_vals(zd: np.ndarray, p: int, q: int) -> tuple[float, ...]:
    d = zd.ndim
    if d == 2:
        return zd[p, p], zd[p, q], zd[q, q]
    if d == 3:
        return zd[p, p, p], zd[p, p, q], zd[p, q, q], zd[q, q, q]
    return zd[p, p, p, p], zd[p, p, p, q], zd[p, p, q, q], zd[p, q, q, q], zd[q, q, q, q]


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


def _restricted(vals, d: int, alpha: int, phi: float) -> float:
    zp, zq = _rotated_diag(vals, d, phi)
    if alpha == 1:
        return zp + zq
    return abs(zp) ** alpha + abs(zq) ** alpha


def _best_angle(vals, d: int, alpha: int) -> tuple[float, float]:
    """Globally optimal pair angle and its contrast gain over ``phi = 0``."""
    base = _restricted(vals, d, alpha, 0.0)

    if (alpha, d) in QUADRATIC_FORM_SPECS:
        # reconstruct the exact quadratic form in (cos 2phi, sin 2phi) from
        # three samples; its dominant eigenvector gives the angle, and the
        # gain over phi = 0 has a cancellation-free closed form so rotations
        # far below the contrast's own float resolution are still accepted
        b11 = base
        b22 = _restricted(vals, d, alpha, pi / 4)
        b12 = _restricted(vals, d, alpha, pi / 8) - 0.5 * (b11 + b22)
        delta = 0.5 * (b11 - b22)
        radius = np.hypot(delta, b12)
        if radius == 0.0:
            return 0.0, 0.0
        phi = 0.25 * atan2(b12, delta)
        gain = b12 * b12 / (radius + delta) if delta > 0 else radius - delta
        return phi, float(gain)

    if (alpha, d) == (1, 3):
        # harmonics cos/sin of phi and 3*phi; solve for the four coefficients
        v1, v2 = base, _restricted(vals, d, alpha, pi / 2)
        v3 = _restricted(vals, d, alpha, pi / 4)
        v4 = _restricted(vals, d, alpha, -pi / 4)
        a1 = 0.5 * (v1 + (v3 + v4) / sqrt(2.0))
        a3 = v1 - a1
        b1 = 0.5 * (v2 + (v3 - v4) / sqrt(2.0))
        b3 = b1 - v2
        # d/dphi = 0 as a polynomial in h = tan(phi/2), multiplied by (1+h^2)^3
        first = b1 * _COS1
        first[:6] += -2.0 * a1 * _HALF_SIN1
        third = 3.0 * b3 * _COS3
        third[:6] += -3.0 * a3 * _SIN3
        candidates = [0.0, pi / 2, -pi / 2]
        candidates.extend(
            2.0 * atan(h) for h in real_roots(first + third) if -1.0 - 1e-12 <= h <= 1.0 + 1e-12
        )
    else:
        # (2, 4): stationary angles are roots of a degree-8 polynomial in tan(phi)
        a, b, e, f, g = vals
        p1 = np.array([a, 4 * b, 6 * e, 4 * f, g])
        p2 = np.array([g, -4 * f, 6 * e, -4 * b, a])
        grad = np.convolve(p1, p1[1:] * _QUARTIC_DER) + np.convolve(p2, p2[1:] * _QUARTIC_DER)
        norm = np.convolve(p1, p1) + np.convolve(p2, p2)
        stat = np.convolve(grad, _ONE_T2) - np.convolve(_FOUR_T, norm)
        candidates = [0.0]
        candidates.extend(atan(t) for t in real_roots(stat))

    best_phi, best_val = 0.0, base
    for phi in candidates:
        val = _restricted(vals, d, alpha, phi)
        better = val > best_val + 1e-15 * (1.0 + abs(best_val))
        tied = abs(val - best_val) <= 1e-12 * (1.0 + abs(best_val))
        if better or (tied and abs(phi) < abs(best_phi)):
            best_phi, best_val = phi, val
    return best_phi, best_val - base


def pair_rotation_optimal(g, p: int, q: int, spec: ContrastSpec) -> PairRotation:
    """Angle in [-pi/2, pi/2] maximizing the contrast restricted to the pair."""
    if p == q:
        raise ValueError("pair indices must be distinct")
    zd = _as_array(g)
    if zd.ndim != spec.order:
        raise ValueError("tensor order does not match the contrast order")
    phi, _ = _best_angle(_pair_vals(zd, p, q), spec.order, spec.alpha)
    return PairRotation(p, q, phi)


def _apply_rotation(zd: np.ndarray, p: int, q: int, phi: float) -> None:
    """In-place Tucker update by the Givens matrix; touches only p/q slices."""
    c, s = cos(phi), sin(phi)
    d = zd.ndim
    for axis in range(d):
        idx_p = [slice(None)] * d
        idx_q = [slice(None)] * d
        idx_p[axis], idx_q[axis] = p, q
        zp = zd[tuple(idx_p)].copy()
        zq = zd[tuple(idx_q)].copy()
        zd[tuple(idx_p)] = c * zp + s * zq
        zd[tuple(idx_q)] = -s * zp + c * zq


def _rotate_rows(v: np.ndarray, p: int, q: int, phi: float) -> None:
    c, s = cos(phi), sin(phi)
    vp, vq = v[p].copy(), v[q].copy()
    v[p] = c * vp + s * vq
    v[q] = -s * vp + c * vq


def _run_sweeps(g, spec: ContrastSpec, greedy: bool, max_sweeps: int | None) -> ICAResult:
    zd = _as_array(g).copy()
    if zd.ndim != spec.order:
        raise ValueError("tensor order does not match the contrast order")
    n = zd.shape[0]
    v = np.eye(n)
    trace = [contrast_value(zd, spec)]
    result = ICAResult(Q=np.eye(n), Z=symmetrize(zd), trace=trace)
    if n < 2:
        return result

    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    if max_sweeps is None:
        max_sweeps = ceil(sqrt(n)) + 3

    def accept(p, q, phi, gain):
        _apply_rotation(zd, p, q, phi)
        _rotate_rows(v, p, q, phi)
        trace.append(trace[-1] + gain)
        result.rotations += 1

    def solve(p, q):
        return _best_angle(_pair_vals(zd, p, q), spec.order, spec.alpha)

    result.stop_reason = "max_sweeps"
    if greedy:
        touching = [[k for k, pair in enumerate(pairs) if i in pair] for i in range(n)]
        solved = [solve(p, q) for p, q in pairs]
        while result.rotations < len(pairs) * max_sweeps:
            k = max(range(len(pairs)), key=lambda j: solved[j][1])
            phi, gain = solved[k]
            if gain <= 0.0 or abs(phi) < ANGLE_TOL:
                result.stop_reason = "no_gain" if gain <= 0.0 else "angle_tol"
                break
            p, q = pairs[k]
            accept(p, q, phi, gain)
            for j in set(touching[p] + touching[q]):
                solved[j] = solve(*pairs[j])
        result.sweeps = ceil(result.rotations / len(pairs))
    else:
        for _ in range(max_sweeps):
            largest_phi = 0.0
            for p, q in pairs:
                phi, gain = solve(p, q)
                if gain > 0.0 and phi != 0.0:
                    accept(p, q, phi, gain)
                    largest_phi = max(largest_phi, abs(phi))
            result.sweeps += 1
            if largest_phi < ANGLE_TOL:
                result.stop_reason = "angle_tol"
                break

    result.Q = v.T.copy()
    result.Z = symmetrize(zd)
    return result


def sweep_cyclic(g, spec: ContrastSpec, max_sweeps: int | None = None) -> ICAResult:
    """Process all pairs cyclically by rows until angles fall below ``ANGLE_TOL``."""
    return _run_sweeps(g, spec, greedy=False, max_sweeps=max_sweeps)


def sweep_greedy(g, spec: ContrastSpec, max_sweeps: int | None = None) -> ICAResult:
    """Rotate the pair with the largest contrast gain until no pair improves.

    Stops after at most ``max_sweeps`` times the pair count rotations.
    """
    return _run_sweeps(g, spec, greedy=True, max_sweeps=max_sweeps)


def stationarity_residual(z, d: int) -> float:
    """Largest violation of the pairwise stationarity relations; 0 when diagonal."""
    if d not in (2, 3, 4):
        raise ValueError("stationarity defined for orders 2, 3, 4")
    zd = _as_array(z)
    if zd.ndim != d:
        raise ValueError(f"tensor order {zd.ndim} does not match the stated order {d}")
    i = np.arange(zd.shape[0])
    diag = zd[(i,) * d]
    if d == 2:
        val = (diag[:, None] - diag[None, :]) * zd
    else:
        head = zd[(i,) * (d - 1)]  # head[q, r] = z[q, .., q, r]
        tail = zd[(slice(None),) + (i,) * (d - 1)]  # tail[q, r] = z[q, r, .., r]
        val = diag[:, None] * head - diag[None, :] * tail
    val[i, i] = 0.0
    return float(np.abs(val).max(initial=0.0))


def convexity_margin(z, d: int, q: int, r: int) -> float:
    """Second-differential expression for the pair; negative at strict local maxima."""
    if q == r:
        raise ValueError("pair indices must be distinct")
    zd = _as_array(z)
    if d == 2:
        return 4.0 * zd[q, r] ** 2 - (zd[q, q] - zd[r, r]) ** 2
    if d == 3:
        return (
            4.0 * zd[q, q, r] ** 2
            + 4.0 * zd[q, r, r] ** 2
            - (zd[q, q, q] - zd[q, r, r]) ** 2
            - (zd[r, r, r] - zd[q, q, r]) ** 2
        )
    if d == 4:
        return (
            4.5 * zd[q, q, r, r] ** 2
            + 4.0 * zd[q, q, q, r] ** 2
            + 4.0 * zd[q, r, r, r] ** 2
            - (zd[q, q, q, q] - 1.5 * zd[q, q, r, r]) ** 2
            - (zd[r, r, r, r] - 1.5 * zd[q, q, r, r]) ** 2
        )
    raise ValueError("convexity margin defined for orders 2, 3, 4")


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
    Gaussian data.
    """
    z = as_samples(samples)
    n = z.shape[1]
    if strategy not in ("cyclic", "greedy"):
        raise ValueError("strategy must be 'cyclic' or 'greedy'")

    zc = z - z.mean(axis=0)
    r_y = zc.T @ zc / z.shape[0]
    wh = standardize(r_y)
    y = wh.apply(zc)
    g = cumulant_tensor(y, spec.order)

    if n == 1:
        res = ICAResult(Q=np.eye(1), Z=g, trace=[contrast_value(g, spec)])
    else:
        res = _run_sweeps(g, spec, greedy=(strategy == "greedy"), max_sweeps=max_sweeps)
    null_var = {2: 2.0, 3: 6.0, 4: 24.0}[spec.order]
    confidence_floor = 5.0 * sqrt(null_var / z.shape[0])
    diag = res.Z.expand().array[tuple([np.arange(n)] * spec.order)]
    res.low_confidence = bool(np.max(np.abs(diag), initial=0.0) < confidence_floor)
    return wh, res
