import tracemalloc
from math import atan, atan2, ceil, cos, gcd, pi, sin, sqrt

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from tensorbss import jacobi
from tensorbss.core import real_roots, symmetrize, tucker_transform
from tensorbss.cumulants import cumulant_tensor
from tensorbss.simulate import score
from tensorbss.jacobi import (
    ANGLE_TOL,
    _HARMONICS,
    ContrastSpec,
    _best_angles,
    _gain_bounds,
    _pair_reader,
    _pairs,
    _rotate_rows,
    _rotated_diag,
    contrast_value,
    convexity_margin,
    ica,
    stationarity_residual,
    sweep_cyclic,
    sweep_greedy,
)

# the specs whose restricted contrast has one harmonic: a quadratic form in
# (cos 4 phi, sin 4 phi)
QUADRATIC_FORM_SPECS = {spec for spec, ks in _HARMONICS.items() if len(ks) == 1}

rng = np.random.default_rng(1234)


def diag_tensor(kappa, d):
    n = len(kappa)
    t = np.zeros((n,) * d)
    for i, k in enumerate(kappa):
        t[(i,) * d] = k
    return t


def rotated_diag(kappa, d, seed):
    q0, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(kappa), len(kappa))))
    g = tucker_transform(diag_tensor(kappa, d), [q0] * d)
    return symmetrize(g.array), q0


def offdiag_max(z):
    full = z.expand().array if hasattr(z, "expand") else np.asarray(z)
    full = full.copy()
    n = full.shape[0]
    full[tuple([np.arange(n)] * full.ndim)] = 0.0
    return np.abs(full).max()


def row_max(m):
    return np.abs(m).max(axis=1) / np.linalg.norm(m, axis=1)


class TestContrastValue:
    def test_diagonal_order4(self):
        kappa = np.array([1.0, -2.0, 0.5])
        val = contrast_value(diag_tensor(kappa, 4), ContrastSpec(2, 4))
        assert val == pytest.approx(np.sum(kappa**2))

    def test_zero(self):
        assert contrast_value(np.zeros((3,) * 4), ContrastSpec(2, 4)) == 0.0

    def test_no_diagonal_entries(self):
        t = np.zeros((2, 2, 2))
        t[0, 1, 1] = t[1, 0, 1] = t[1, 1, 0] = 1.0
        assert contrast_value(t, ContrastSpec(2, 3)) == 0.0

    def test_unsupported_spec(self):
        with pytest.raises(ValueError, match="unsupported"):
            ContrastSpec(3, 4)
        with pytest.raises(ValueError, match="unsupported"):
            ContrastSpec(1, 2)


# The scalar angle solve that the batched ``_best_angles`` replaced, kept
# verbatim as the reference: one pair at a time, harmonics sampled at fixed
# angles, and the (2, 4) stationary angles as roots of a degree-8
# polynomial in tan(phi).

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
        # gain over phi = 0 has a cancellation-free closed form.  b12 within
        # the rounding floor of its three samples is zero, and so is the
        # diagonal difference within that of its two
        b11 = base
        b22 = _restricted(vals, d, alpha, pi / 4)
        f = _restricted(vals, d, alpha, pi / 8)
        b12 = f - 0.5 * (b11 + b22)
        if abs(b12) <= 4.0 * np.finfo(float).eps * (abs(b11) + abs(b22) + abs(f)):
            b12 = 0.0
        delta = 0.5 * (b11 - b22)
        if abs(delta) <= 4.0 * np.finfo(float).eps * (abs(b11) + abs(b22)):
            delta = 0.0
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


def _pair_vals(zd, p, q):
    d = zd.ndim
    if d == 2:
        return zd[p, p], zd[p, q], zd[q, q]
    if d == 3:
        return zd[p, p, p], zd[p, p, q], zd[p, q, q], zd[q, q, q]
    return zd[p, p, p, p], zd[p, p, p, q], zd[p, p, q, q], zd[p, q, q, q], zd[q, q, q, q]


def solve_one(vals, d, alpha):
    """The batched solve on a single row of pair values."""
    phi, gain = _best_angles(np.array([vals], dtype=float), d, alpha)
    return phi[0], gain[0]


def pair_angle(arr, d, alpha):
    """Optimal angle of the pair (0, 1) of a dense tensor."""
    return solve_one(_pair_vals(arr, 0, 1), d, alpha)[0]


class TestPairRotation:
    def test_already_diagonal(self):
        phi = pair_angle(diag_tensor([2.0, 1.0, -1.0], 4), 4, 2)
        assert phi == 0.0

    @pytest.mark.parametrize("alpha,d", [(2, 2), (2, 3), (2, 4), (1, 3), (1, 4)])
    def test_grid_oracle(self, alpha, d):
        # independent oracle: dense scan of the restricted contrast
        r = np.random.default_rng(10 * d + alpha)
        for _ in range(25):
            z = symmetrize(r.standard_normal((2,) * d)).expand().array
            vals = _pair_vals(z, 0, 1)
            phi, gain = solve_one(vals, d, alpha)
            base = _restricted(vals, d, alpha, 0.0)
            grid_best = max(
                _restricted(vals, d, alpha, t) for t in np.linspace(-np.pi / 2, np.pi / 2, 4001)
            )
            assert base + gain >= grid_best - 1e-8

    def test_recovers_planted_angle(self):
        phi0 = 0.31
        c, s = np.cos(phi0), np.sin(phi0)
        q = np.array([[c, s], [-s, c]])
        g = tucker_transform(diag_tensor([3.0, 1.0], 4), [q] * 4)
        phi = pair_angle(symmetrize(g.array).expand().array, 4, 2)
        # equivalent angles repeat every pi/2
        delta = (phi + phi0) % (np.pi / 2)
        assert min(delta, np.pi / 2 - delta) < 1e-8

    def test_signed_order3_reaches_minus_half_pi(self):
        # vals (a, b, e, g) = (1, 0, 0, -1): the signed contrast is 2 at
        # -pi/2 and -2 at +pi/2, so the closed end of the range is needed
        z = np.zeros((2, 2, 2))
        z[0, 0, 0], z[1, 1, 1] = 1.0, -1.0
        assert pair_angle(symmetrize(z).expand().array, 3, 1) == -pi / 2
        assert _restricted((1.0, 0.0, 0.0, -1.0), 3, 1, -pi / 2) == pytest.approx(2.0)
        assert _restricted((1.0, 0.0, 0.0, -1.0), 3, 1, pi / 2) == pytest.approx(-2.0)

    def test_order2_matches_eigensolver(self):
        a = np.array([[2.0, 1.2], [1.2, -1.0]])
        phi = pair_angle(symmetrize(a).expand().array, 2, 2)
        c, s = np.cos(phi), np.sin(phi)
        q = np.array([[c, s], [-s, c]])
        z = q @ a @ q.T
        assert abs(z[0, 1]) < 1e-12  # off-diagonal annihilated
        assert abs((z[0, 0] - z[1, 1]) * z[0, 1]) < 1e-12
        np.testing.assert_allclose(
            sorted(np.diag(z)), sorted(np.linalg.eigvalsh(a)), atol=1e-10
        )


class TestSweepCyclic:
    def test_diagonal_input_identity(self):
        g = symmetrize(diag_tensor([2.0, -1.0, 0.5], 4))
        res = sweep_cyclic(g, ContrastSpec(2, 4))
        np.testing.assert_array_equal(res.Q, np.eye(3))
        assert res.sweeps == 1 and res.rotations == 0

    def test_counts_are_read_from_trace_and_angles(self):
        g, _ = rotated_diag([1.0, -2.0, 0.7], 4, seed=5)
        for res in (sweep_cyclic(g, ContrastSpec(2, 4)), sweep_greedy(g, ContrastSpec(2, 4))):
            assert res.sweeps == len(res.largest_angles) > 0
            assert res.rotations == len(res.trace) - 1 > 0
            with pytest.raises(AttributeError):
                res.rotations = 0

    def test_two_uniform_sources_exact(self):
        g, q0 = rotated_diag([-1.2, -1.2], 4, seed=3)
        res = sweep_cyclic(g, ContrastSpec(2, 4))
        assert offdiag_max(res.Z) <= 1e-10
        assert np.min(row_max(res.Q.T @ q0)) > 0.999

    def test_converges_in_expected_sweeps(self):
        g, _ = rotated_diag([-1.2, -2.0, 1.5, -0.7], 4, seed=11)
        res = sweep_cyclic(g, ContrastSpec(2, 4))
        assert res.sweeps <= 4  # ceil(sqrt(4)) + 2

    def test_trace_nondecreasing_and_orthogonal(self):
        g, _ = rotated_diag([1.0, -2.0, 0.7], 4, seed=5)
        res = sweep_cyclic(g, ContrastSpec(2, 4))
        assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
        np.testing.assert_allclose(res.Q @ res.Q.T, np.eye(3), atol=1e-10)

    def test_final_trace_matches_recomputed_contrast(self):
        g, _ = rotated_diag([1.0, -2.0, 0.7], 3, seed=6)
        spec = ContrastSpec(2, 3)
        res = sweep_cyclic(g, spec)
        assert res.trace[-1] == pytest.approx(contrast_value(res.Z, spec), rel=1e-10)

    def test_order2_matches_eigendecomposition(self):
        for seed in range(50):
            r = np.random.default_rng(seed)
            n = int(r.integers(2, 9))
            a = r.standard_normal((n, n))
            a = (a + a.T) / 2
            res = sweep_cyclic(symmetrize(a), ContrastSpec(2, 2))
            assert offdiag_max(res.Z) <= 1e-10
            np.testing.assert_allclose(
                np.sort(res.Z.expand().array[np.arange(n), np.arange(n)]),
                np.sort(np.linalg.eigvalsh(a)),
                atol=1e-8,
            )

    def test_signed_order3_contrast(self):
        # positive-skew sources keep the signed sum meaningful
        g, q0 = rotated_diag([2.0, 1.0], 3, seed=9)
        res = sweep_cyclic(g, ContrastSpec(1, 3))
        assert res.trace[-1] >= res.trace[0]
        assert offdiag_max(res.Z) <= 1e-8


class TestSweepGreedy:
    def test_diagonal_no_rotations(self):
        g = symmetrize(diag_tensor([2.0, -1.0, 0.5], 4))
        res = sweep_greedy(g, ContrastSpec(2, 4))
        assert res.rotations == 0

    def test_same_class_as_cyclic(self):
        g, q0 = rotated_diag([-1.2, -2.0, 1.5], 4, seed=21)
        res_c = sweep_cyclic(g, ContrastSpec(2, 4))
        res_g = sweep_greedy(g, ContrastSpec(2, 4))
        # both land in the same signed-permutation class of rotations
        assert np.min(row_max(res_c.Q.T @ res_g.Q)) > 0.999

    @pytest.mark.parametrize("n", [4, 7])
    def test_signed_order3_same_class_as_cyclic(self, n):
        # (1, 3) keeps its own candidate rule: the angles in [-pi/2, pi/2]
        # with both ends; positive skews keep the signed contrast meaningful
        for seed in range(50):
            kappa = np.random.default_rng(seed).uniform(0.5, 2.0, n)
            g, _ = rotated_diag(kappa, 3, seed=100 + seed)
            res_c = sweep_cyclic(g, ContrastSpec(1, 3))
            res_g = sweep_greedy(g, ContrastSpec(1, 3))
            assert np.min(row_max(res_c.Q.T @ res_g.Q)) > 0.999, seed

    def test_trace_strictly_increasing(self):
        g, _ = rotated_diag([-1.2, -2.0, 1.5], 4, seed=22)
        res = sweep_greedy(g, ContrastSpec(2, 4))
        assert all(b > a for a, b in zip(res.trace, res.trace[1:]))


class TestStopReason:
    def test_max_sweeps(self):
        g, _ = rotated_diag([-1.2, -2.0, 1.5], 4, seed=0)
        assert sweep_cyclic(g, ContrastSpec(2, 4), max_sweeps=1).stop_reason == "max_sweeps"
        res = sweep_greedy(g, ContrastSpec(2, 4), max_sweeps=1)
        assert res.stop_reason == "max_sweeps" and res.rotations == 3

    def test_converged(self):
        g, _ = rotated_diag([-1.2, -2.0, 1.5], 4, seed=0)
        assert sweep_cyclic(g, ContrastSpec(2, 4)).stop_reason == "angle_tol"
        assert sweep_greedy(g, ContrastSpec(2, 4)).stop_reason == "no_gain"

    def test_diagonal(self):
        g = symmetrize(diag_tensor([2.0, -1.0, 0.5], 4))
        assert sweep_cyclic(g, ContrastSpec(2, 4)).stop_reason == "angle_tol"
        assert sweep_greedy(g, ContrastSpec(2, 4)).stop_reason == "no_gain"

    def test_greedy_angle_below_tolerance(self):
        # a positive gain whose angle is below ANGLE_TOL is not taken
        g = symmetrize(np.array([[2.0, 1e-12], [1e-12, 1.0]]))
        phi, gain = solve_one(_pair_vals(g.expand().array, 0, 1), 2, 2)
        assert gain > 0.0 and abs(phi) < ANGLE_TOL
        res = sweep_greedy(g, ContrastSpec(2, 2))
        assert res.stop_reason == "angle_tol" and res.rotations == 0

    def test_negative_max_sweeps_refused(self):
        g, _ = rotated_diag([-1.2, -2.0, 1.5], 4, seed=0)
        for sweep in (sweep_cyclic, sweep_greedy):
            with pytest.raises(ValueError, match="max_sweeps must be >= 0"):
                sweep(g, ContrastSpec(2, 4), max_sweeps=-1)
        z = np.random.default_rng(9).uniform(-1.0, 1.0, (500, 3))
        with pytest.raises(ValueError, match="max_sweeps must be >= 0"):
            ica(z, ContrastSpec(2, 4), max_sweeps=-1)
        for strategy in ("cyclic", "greedy"):
            _, res = ica(z, ContrastSpec(2, 4), strategy=strategy, max_sweeps=0)
            np.testing.assert_array_equal(res.Q, np.eye(3))
            assert (res.sweeps, res.rotations, res.stop_reason) == (0, 0, "max_sweeps")

    @pytest.mark.parametrize("strategy", [sweep_cyclic, sweep_greedy])
    def test_largest_angles(self, strategy):
        g, _ = rotated_diag([-1.2, -2.0, 1.5, 0.8], 4, seed=2)
        res = strategy(g, ContrastSpec(2, 4))
        assert len(res.largest_angles) == res.sweeps > 1
        assert res.largest_angles[0] > 1e-2
        assert all(0.0 <= a <= pi / 4 for a in res.largest_angles)
        if strategy is sweep_cyclic:
            assert res.largest_angles[-1] < ANGLE_TOL <= res.largest_angles[-2]
        one = strategy(g, ContrastSpec(2, 4), max_sweeps=1)
        assert one.largest_angles == res.largest_angles[:1]

    def test_no_pairs(self):
        assert sweep_greedy(np.ones((1,) * 4), ContrastSpec(2, 4)).stop_reason == "angle_tol"
        assert sweep_cyclic(np.ones((1,) * 4), ContrastSpec(2, 4)).stop_reason == "angle_tol"
        _, res = ica(np.random.default_rng(9).standard_normal((500, 1)), ContrastSpec(2, 4))
        assert res.stop_reason == "angle_tol"


def uniform_mixture(n, samples, seed):
    r = np.random.default_rng(seed)
    s = r.uniform(-sqrt(3.0), sqrt(3.0), (samples, n))
    return s @ r.standard_normal((n, n)).T


def ica_with_cumulant(monkeypatch, x, strategy):
    """``ica``'s result and the whitened cumulant it swept."""
    seen, run = [], jacobi._run_sweeps

    def spy(g, *args, **kwargs):
        seen.append(g)
        return run(g, *args, **kwargs)

    monkeypatch.setattr(jacobi, "_run_sweeps", spy)
    _, res = ica(x, ContrastSpec(2, 4), strategy=strategy)
    monkeypatch.undo()
    return res, seen[0]


class TestSampleAngleTol:
    def test_cyclic_stops_at_the_sample_resolution(self, monkeypatch):
        res, g = ica_with_cumulant(monkeypatch, uniform_mixture(16, 20000, 1), "cyclic")
        assert res.angle_tol == 1 / (100 * sqrt(20000))
        assert res.stop_reason == "angle_tol" and res.sweeps < ceil(sqrt(16)) + 3
        assert res.largest_angles[-1] < res.angle_tol <= res.largest_angles[-2]
        # the rule only truncates the ANGLE_TOL run, which goes on sweeping
        full = jacobi._run_sweeps(g, ContrastSpec(2, 4), greedy=False, max_sweeps=None)
        assert full.sweeps > res.sweeps
        assert res.trace == full.trace[: len(res.trace)]
        cut = jacobi._run_sweeps(g, ContrastSpec(2, 4), greedy=False, max_sweeps=res.sweeps)
        assert res.Q.tobytes() == cut.Q.tobytes()
        assert res.Z.packed.tobytes() == cut.Z.packed.tobytes()

    def test_greedy_trace_is_a_prefix_with_fewer_rotations(self, monkeypatch):
        res, g = ica_with_cumulant(monkeypatch, uniform_mixture(10, 5000, 1), "greedy")
        assert (res.stop_reason, res.angle_tol) == ("angle_tol", 1 / (100 * sqrt(5000)))
        full = jacobi._run_sweeps(g, ContrastSpec(2, 4), greedy=True, max_sweeps=None)
        assert res.rotations < full.rotations
        assert res.trace == full.trace[: len(res.trace)]

    def test_given_tensors_keep_the_rounding_floor(self):
        g, _ = rotated_diag([-1.2, -2.0, 1.5, 0.8], 4, seed=2)
        for sweep in (sweep_cyclic, sweep_greedy):
            assert sweep(g, ContrastSpec(2, 4)).angle_tol == ANGLE_TOL
            assert sweep(np.ones((1,) * 4), ContrastSpec(2, 4)).angle_tol == ANGLE_TOL


# The angle solve as numpy.polynomial wrote it, before the solve built its
# polynomials with np.convolve and its companion matrix by hand.
def _real_roots_polynomial(coeffs_ascending):
    c = npoly.polytrim(np.asarray(coeffs_ascending, dtype=float), tol=0.0)
    scale = np.abs(c).max(initial=0.0)
    if scale == 0.0 or c.size <= 1:
        return np.array([])
    c = npoly.polytrim(c, tol=1e-14 * scale)
    if c.size <= 1:
        return np.array([])
    roots = npoly.polyroots(c)
    return np.real(roots[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots.real))])


def best_angle_polynomial(vals, d, alpha):
    if (alpha, d) in QUADRATIC_FORM_SPECS:
        return _best_angle(vals, d, alpha)  # no polynomial on this path
    base = _restricted(vals, d, alpha, 0.0)
    if (alpha, d) == (1, 3):
        v1, v2 = base, _restricted(vals, d, alpha, pi / 2)
        v3 = _restricted(vals, d, alpha, pi / 4)
        v4 = _restricted(vals, d, alpha, -pi / 4)
        a1 = 0.5 * (v1 + (v3 + v4) / sqrt(2.0))
        a3 = v1 - a1
        b1 = 0.5 * (v2 + (v3 - v4) / sqrt(2.0))
        b3 = b1 - v2
        one_h2_sq = np.array([1.0, 0.0, 2.0, 0.0, 1.0])
        deriv = npoly.polyadd(
            npoly.polyadd(
                -2.0 * a1 * npoly.polymul([0.0, 1.0], one_h2_sq),
                b1 * npoly.polymul([1.0, 0.0, -1.0], one_h2_sq),
            ),
            npoly.polyadd(
                -3.0 * a3 * np.array([0.0, 6.0, 0.0, -20.0, 0.0, 6.0]),
                3.0 * b3 * np.array([1.0, 0.0, -15.0, 0.0, 15.0, 0.0, -1.0]),
            ),
        )
        candidates = [0.0, pi / 2, -pi / 2]
        candidates.extend(
            2.0 * atan(h) for h in _real_roots_polynomial(deriv) if -1.0 - 1e-12 <= h <= 1.0 + 1e-12
        )
    else:
        a, b, e, f, g = vals
        p1 = np.array([a, 4 * b, 6 * e, 4 * f, g])
        p2 = np.array([g, -4 * f, 6 * e, -4 * b, a])
        lead = npoly.polymul(
            npoly.polyadd(
                npoly.polymul(p1, npoly.polyder(p1)), npoly.polymul(p2, npoly.polyder(p2))
            ),
            [1.0, 0.0, 1.0],
        )
        tail = npoly.polymul([0.0, 4.0], npoly.polyadd(npoly.polymul(p1, p1), npoly.polymul(p2, p2)))
        candidates = [0.0]
        candidates.extend(atan(t) for t in _real_roots_polynomial(npoly.polysub(lead, tail)))
    best_phi, best_val = 0.0, base
    for phi in candidates:
        val = _restricted(vals, d, alpha, phi)
        better = val > best_val + 1e-15 * (1.0 + abs(best_val))
        tied = abs(val - best_val) <= 1e-12 * (1.0 + abs(best_val))
        if better or (tied and abs(phi) < abs(best_phi)):
            best_phi, best_val = phi, val
    return best_phi, best_val - base


def apply_rotation(zd, p, q, phi):
    """In-place Tucker update of the dense ``zd`` by the Givens matrix; touches only p/q slices."""
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


def sweep_greedy_all_pairs(g, spec, max_sweeps=None, dense=False):
    """The greedy sweep that solves every pair again before each rotation (SymTensor ``g``).

    It reads the pair rows through :func:`_pair_reader`, as the sweep does, or
    with ``dense`` off the expanded tensor, rotated slice by slice.
    """
    zd = g.expand().array.copy()
    n, d = g.dim, g.order
    first, second, positions = _pairs(n, d)
    v, read, rotate = _pair_reader(g)
    trace = [contrast_value(g, spec)]
    pairs = list(zip(first.tolist(), second.tolist()))
    if max_sweeps is None:
        max_sweeps = ceil(sqrt(n)) + 3
    rotations, largest = 0, []
    while rotations < len(pairs) * max_sweeps:
        if dense:
            vals = np.array([_pair_vals(zd, p, q) for p, q in pairs])
        else:
            vals = read()[positions]
        phis, gains = _best_angles(vals, d, spec.alpha)
        k = max(range(len(pairs)), key=lambda j: gains[j])
        (p, q), phi, gain = pairs[k], float(phis[k]), float(gains[k])
        if gain <= 0.0 or abs(phi) < ANGLE_TOL:
            break
        if dense:
            apply_rotation(zd, p, q, phi)
        rotate(p, q, phi)
        trace.append(trace[-1] + gain)
        if rotations % len(pairs) == 0:
            largest.append(0.0)
        largest[-1] = max(largest[-1], abs(phi))
        rotations += 1
    return v.T, trace, rotations, ceil(rotations / len(pairs)), largest


def sweep_cyclic_one_pair(g, spec, max_sweeps=None):
    """The round-robin cyclic sweep solving each pair alone, just before its own rotation."""
    zd = g.copy()
    n = zd.shape[0]
    v = np.eye(n)
    trace = [contrast_value(zd, spec)]
    pairs = list(zip(*np.triu_indices(n, 1)))
    if max_sweeps is None:
        max_sweeps = ceil(sqrt(n)) + 3
    largest, stop_reason = [], "max_sweeps"
    for _ in range(max_sweeps):
        largest.append(0.0)
        for k in jacobi._rounds(n).ravel():
            p, q = (int(i) for i in pairs[k])
            phi, gain = (float(x) for x in solve_one(_pair_vals(zd, p, q), spec.order, spec.alpha))
            if gain > 0.0 and phi != 0.0:
                apply_rotation(zd, p, q, phi)
                _rotate_rows(v, p, q, phi)
                trace.append(trace[-1] + gain)
                largest[-1] = max(largest[-1], abs(phi))
        if largest[-1] < ANGLE_TOL:
            stop_reason = "angle_tol"
            break
    return v.T, trace, len(trace) - 1, len(largest), stop_reason, largest


def rotate_round(zd, v, p, q, phi):
    """Rotate the disjoint pairs ``(p[i], q[i])`` by ``phi[i]`` at once, in place.

    The round's Givens matrices compose to one block-diagonal ``g``, applied
    along each axis by a matrix product over plain reshapes; the result is
    written back into ``zd``'s own buffer.  This is how cyclic sweeps rotated
    the whole tensor every round, before they read the rounds off the fixed
    tensor.
    """
    n, d = zd.shape[0], zd.ndim
    c, s = np.cos(phi), np.sin(phi)
    g = np.eye(n)
    g[p, p], g[q, q], g[p, q], g[q, p] = c, c, s, -s
    x = zd
    for k in range(d - 1):
        x = np.matmul(g, x.reshape(n**k, n, -1))
    np.matmul(x.reshape(-1, n), g.T, out=zd.reshape(-1, n))
    v[...] = g @ v


ALL_SPECS = [(2, 2), (2, 3), (2, 4), (1, 3), (1, 4)]
PAIR_SIZE = {2: 3, 3: 4, 4: 5}


def same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def degenerate_vals(alpha, d):
    m = PAIR_SIZE[d]
    inner = np.zeros(m - 2)
    cases = [
        np.zeros(m),
        np.r_[1.0, inner, -1.0],
        np.r_[2.0, inner, 1.0],  # already diagonal
        np.r_[1.0, np.linspace(0.3, -0.2, m - 2), 1.0],  # a = g
    ]
    # small integers leave exact zeros at the top of the polynomials
    r = np.random.default_rng(800 + 10 * d + alpha)
    return np.array(cases + list(r.integers(-2, 3, size=(500, m)).astype(float)))


def angle_gap(phi, phi_ref, alpha, d):
    """How far apart two angles are; modulo pi/2 where the contrast has that period."""
    if (alpha, d) == (1, 3):
        return abs(phi - phi_ref)
    gap = (phi - phi_ref) % (pi / 2)
    return min(gap, pi / 2 - gap)


def check_against_reference(rows, alpha, d, allow_equal_optimum):
    """The batched solve against the scalar reference, row by row.

    Gains agree within 1e-13 relative and angles within 1e-12.  Where
    ``allow_equal_optimum`` is set, a different angle is also accepted when
    the reference's own contrast there is tied with its optimum: mirror-image
    maxima tie exactly, and at a flat (triple-root) maximum the degree-8
    reference places the angle only to about 1e-6.
    """
    phis, gains = _best_angles(rows, d, alpha)
    other_optimum = 0
    for vals, phi, gain in zip(rows, phis, gains):
        vals = tuple(vals)
        phi_ref, gain_ref = _best_angle(vals, d, alpha)
        phi_poly, gain_poly = best_angle_polynomial(vals, d, alpha)
        assert same_bits(phi_ref, phi_poly) and same_bits(gain_ref, gain_poly), vals
        assert abs(gain - gain_ref) <= 1e-13 * (1.0 + abs(gain_ref)), vals
        if angle_gap(phi, phi_ref, alpha, d) > 1e-12:
            best_ref = _restricted(vals, d, alpha, 0.0) + gain_ref
            assert allow_equal_optimum, vals
            assert _restricted(vals, d, alpha, phi) >= best_ref - 1e-12 * (1.0 + abs(best_ref)), vals
            other_optimum += 1
    return other_optimum


class TestSolveOracle:
    @pytest.mark.parametrize("alpha,d", ALL_SPECS)
    def test_random_vals(self, alpha, d):
        r = np.random.default_rng(700 + 10 * d + alpha)
        check_against_reference(r.standard_normal((2000, PAIR_SIZE[d])), alpha, d, False)

    @pytest.mark.parametrize("alpha,d", ALL_SPECS)
    def test_degenerate_vals(self, alpha, d):
        rows = degenerate_vals(alpha, d)
        assert check_against_reference(rows, alpha, d, True) <= 5

    @pytest.mark.parametrize("alpha,d", ALL_SPECS)
    def test_rows_independent_of_batch(self, alpha, d):
        r = np.random.default_rng(1000 + 10 * d + alpha)
        rows = np.vstack([r.standard_normal((1500, PAIR_SIZE[d])), degenerate_vals(alpha, d)])
        whole = _best_angles(rows, d, alpha)
        alone = zip(*(_best_angles(rows[i : i + 1], d, alpha) for i in range(len(rows))))
        order = r.permutation(len(rows))
        chunked = zip(*(_best_angles(rows[order[i : i + 17]], d, alpha)
                        for i in range(0, len(rows), 17)))
        # a strided layout, as fancy indexing by a transposed index table gives
        fortran = zip(*(_best_angles(np.asfortranarray(rows[order[i : i + 17]]), d, alpha)
                        for i in range(0, len(rows), 17)))
        for batch, single, chunks, strided in zip(whole, alone, chunked, fortran):
            assert batch.tobytes() == np.concatenate(single).tobytes()
            assert batch[order].tobytes() == np.concatenate(chunks).tobytes()
            assert batch[order].tobytes() == np.concatenate(strided).tobytes()

    def test_trimmed_real_roots(self):
        for coeffs in ([0.0, 0.0], [3.0, 0.0, 0.0], [1.0, 2.0, 0.0], [2.0, -3.0, 1.0, 1e-20],
                       [2.0, -3.0, 1.0, 2e-14], [2.0, -3.0, 1.0, 5e-14],
                       [0.0, 1.0, 0.0, -1.0, 0.0], [1.0, 0.0, 1.0]):
            np.testing.assert_array_equal(
                real_roots(coeffs), _real_roots_polynomial(coeffs)
            )


def count_solve_rows(monkeypatch):
    """The row count of every ``_best_angles`` call the sweeps make from now on."""
    rows = []

    def counted(vals, d, alpha):
        rows.append(len(vals))
        return _best_angles(vals, d, alpha)

    monkeypatch.setattr(jacobi, "_best_angles", counted)
    return rows


class TestGreedyOracle:
    @pytest.mark.parametrize("alpha,d", ALL_SPECS)
    def test_matches_all_pairs_selection(self, alpha, d):
        # bit for bit against the oracle reading through the same reader: a
        # rotation leaves every other pair's row bytes, so no cached angle is
        # stale; within rounding of the dense slice update
        spec = ContrastSpec(alpha, d)
        r = np.random.default_rng(900 + 10 * d + alpha)
        for n in range(2, 13):
            for max_sweeps in (None, 1):
                g = symmetrize(r.standard_normal((n,) * d))
                res = sweep_greedy(g, spec, max_sweeps=max_sweeps)
                q, trace, rotations, sweeps, largest = sweep_greedy_all_pairs(g, spec, max_sweeps)
                np.testing.assert_array_equal(res.Q, q)
                assert res.trace == trace
                assert (res.rotations, res.sweeps) == (rotations, sweeps)
                assert res.largest_angles == largest
                q, trace, rotations, sweeps, largest = sweep_greedy_all_pairs(
                    g, spec, max_sweeps, dense=True
                )
                assert (res.rotations, res.sweeps) == (rotations, sweeps)
                np.testing.assert_allclose(res.Q, q, rtol=0, atol=1e-12)
                np.testing.assert_allclose(res.trace, trace, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(res.largest_angles, largest, rtol=0, atol=1e-12)

    @staticmethod
    def check_solves_only_stale_pairs(monkeypatch, spec, rotated_is_stale):
        """Every solve takes distinct pairs touched by a rotation since their last solve.

        A rotation of (p, q) touches the pairs sharing exactly one index with it,
        and itself where ``rotated_is_stale``.  Solved rows are told apart by
        their bytes in a fresh read.  Returns, per solve call, the pairs solved
        and whether the pair rotated last is among them.
        """
        n = 7
        first, second, positions = _pairs(n, spec.order)
        pairs = list(zip(first.tolist(), second.tolist()))
        stale, last, readers, calls = set(range(len(pairs))), [None], [], []

        def spied_reader(t):
            v, read, rotate = _pair_reader(t)
            readers.append(read)

            def rotate_and_touch(p, q, phi):
                rotate(p, q, phi)
                last[0] = pairs.index((p, q))
                stale.update(k for k, pair in enumerate(pairs) if len({p, q} & set(pair)) == 1)
                if rotated_is_stale:
                    stale.add(last[0])

            return v, read, rotate_and_touch

        def spied_solve(vals, d, alpha):
            index = {row.tobytes(): k for k, row in enumerate(readers[0]()[positions])}
            solved = [index[row.tobytes()] for row in np.ascontiguousarray(vals)]
            assert len(set(solved)) == len(solved)
            assert stale.issuperset(solved)
            stale.difference_update(solved)
            calls.append((solved, last[0] in solved))
            return _best_angles(vals, d, alpha)

        monkeypatch.setattr(jacobi, "_pair_reader", spied_reader)
        monkeypatch.setattr(jacobi, "_best_angles", spied_solve)
        g = symmetrize(np.random.default_rng(950).standard_normal((n,) * spec.order))
        res = sweep_greedy(g, spec)
        assert res.rotations > 0
        assert sorted(calls[0][0]) == list(range(len(pairs)))  # the first solve takes every pair
        assert sum(len(solved) for solved, _ in calls) < len(pairs) * (1 + res.rotations)
        return calls

    def test_solves_only_touched_pairs(self, monkeypatch):
        # a rotated (2, 4) pair is cached as (0, 0), so only another rotation makes it stale
        calls = self.check_solves_only_stale_pairs(monkeypatch, ContrastSpec(2, 4), False)
        assert not any(rotated for _, rotated in calls)

    @pytest.mark.parametrize("alpha,d", [(1, 3), (2, 3)])
    def test_solves_rotated_pair_again(self, monkeypatch, alpha, d):
        # and the rotated pair itself: (1, 3) and the quadratic forms do not
        # solve it back to exactly (0, 0)
        calls = self.check_solves_only_stale_pairs(monkeypatch, ContrastSpec(alpha, d), True)
        assert any(rotated for _, rotated in calls)

    @pytest.mark.parametrize("source", ["ica", "random"])
    def test_solves_at_most_half_the_eager_rows(self, monkeypatch, source):
        # an eager sweep solves all pairs, then the 2n - 4 pairs each rotation touches
        n = 16
        r = np.random.default_rng(1300)
        if source == "ica":
            s = r.uniform(-sqrt(3.0), sqrt(3.0), (5000, n))
            rows = count_solve_rows(monkeypatch)
            _, res = ica(s @ r.standard_normal((n, n)).T, strategy="greedy")
        else:
            g = symmetrize(r.standard_normal((n,) * 4))
            rows = count_solve_rows(monkeypatch)
            res = sweep_greedy(g, ContrastSpec(2, 4))
        assert res.rotations > 100
        assert sum(rows) <= 0.5 * (n * (n - 1) // 2 + res.rotations * (2 * n - 4))

    def test_matches_all_pairs_selection_on_greedy_ica(self, monkeypatch):
        # the whitened cumulant greedy ica sweeps at n = 16, bit for bit
        swept, run = [], jacobi._run_sweeps

        def spied_run(g, *args, **kwargs):
            swept.append(g)
            return run(g, *args, **kwargs)

        monkeypatch.setattr(jacobi, "_run_sweeps", spied_run)
        r = np.random.default_rng(1310)
        s = r.uniform(-sqrt(3.0), sqrt(3.0), (5000, 16))
        ica(s @ r.standard_normal((16, 16)).T, strategy="greedy")
        (g,) = swept
        res = sweep_greedy(g, ContrastSpec(2, 4))
        q, trace, rotations, sweeps, largest = sweep_greedy_all_pairs(g, ContrastSpec(2, 4))
        assert res.rotations > 100
        assert res.Q.tobytes() == q.tobytes()
        assert res.trace == trace
        assert (res.rotations, res.sweeps, res.largest_angles) == (rotations, sweeps, largest)

    def test_rotated_pair_solves_to_zero(self, monkeypatch):
        """The premise of caching a rotated (2, 4) pair as (0, 0) instead of solving it."""
        solved = []

        def spied_reader(t):
            v, read, rotate = _pair_reader(t)
            first, second, positions = _pairs(t.dim, 4)
            index = {(p, q): k for k, (p, q) in enumerate(zip(first.tolist(), second.tolist()))}

            def rotate_then_solve(p, q, phi):
                rotate(p, q, phi)
                solved.append(solve_one(read()[positions[index[p, q]]], 4, 2))

            return v, read, rotate_then_solve

        monkeypatch.setattr(jacobi, "_pair_reader", spied_reader)
        r = np.random.default_rng(970)
        for n in range(2, 8):
            for _ in range(6):
                sweep_greedy(symmetrize(r.standard_normal((n,) * 4)), ContrastSpec(2, 4))
        assert len(solved) > 300
        for phi, gain in solved:
            assert same_bits(phi, 0.0) and same_bits(gain, 0.0)

    def test_greedy_ica_takes_no_trimmed_roots(self, monkeypatch):
        # a trimmed top coefficient would cost poly_roots a second eigvals call
        rows = count_solve_rows(monkeypatch)
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        r = np.random.default_rng(980)
        s = r.uniform(-sqrt(3.0), sqrt(3.0), (5000, 6))
        _, res = ica(s @ r.standard_normal((6, 6)).T, strategy="greedy")
        assert res.rotations > 0
        assert calls == [(m, 4, 4) for m in rows]


def monomial_weights(alpha, d, phi):
    """The restricted contrast at ``phi`` as weights on a row's monomials, by polarization."""
    eye = np.eye(d + 1)
    single = [_restricted(e, d, alpha, phi) for e in eye]
    if alpha == 1:
        return single
    # x_i x_j weighs C(e_i + e_j) - C(e_i) - C(e_j) for i < j, and x_i^2 C(e_i)
    return [_restricted(eye[i] + eye[j], d, alpha, phi) - single[i] - single[j] if i < j
            else single[i] for i, j in zip(*np.triu_indices(d + 1))]


class TestHarmonicTable:
    """The tables the angle solve and the gain bound read, generated at import."""

    @pytest.mark.parametrize("alpha,d", ALL_SPECS)
    def test_harmonics_are_exact_multiples(self, alpha, d):
        # a least-squares fit from 64 angles: the spec's harmonics model the
        # contrast, and every coefficient is within 1e-9 2^-8 of a multiple of
        # 2^-8, which the table holds
        ks = _HARMONICS[alpha, d]
        w, D = gcd(*ks), max(ks) // gcd(*ks)
        theta = np.linspace(0.0, 2.0 * pi, 64, endpoint=False)
        samples = np.array([monomial_weights(alpha, d, t / w) for t in theta])
        j = np.arange(1, D + 1) * theta[:, None]
        design = np.hstack([np.ones((theta.size, 1)), np.cos(j), np.sin(j)])
        fit = np.linalg.lstsq(design, samples, rcond=None)[0]
        assert np.abs(design @ fit - samples).max() <= 1e-12
        assert np.abs(256.0 * fit - np.round(256.0 * fit)).max() <= 1e-9
        table = jacobi._TABLES[alpha, d]
        np.testing.assert_array_equal(np.round(256.0 * fit) / 256.0, table[: 2 * D + 1])

    def test_signed_order3_stationary_rows(self):
        # the hand-derived table the generator replaced: d/dphi of the contrast
        # times (1 + h^2)^3 / 3, ascending in h = tan(phi / 2), over (a, b, e, g)
        reference = np.array([
            [0.0, 1.0, -1.0, 0.0],
            [-2.0, 4.0, 4.0, -2.0],
            [-4.0, -11.0, 11.0, 4.0],
            [4.0, -16.0, -16.0, 4.0],
            [4.0, 11.0, -11.0, -4.0],
            [-2.0, 4.0, 4.0, -2.0],
            [0.0, -1.0, 1.0, 0.0],
        ])
        np.testing.assert_array_equal(jacobi._TABLES[1, 3][7:14], reference)

    def test_order4_base_is_the_diagonal_squares(self):
        # the contrast polynomial's constant term, the contrast at phi = 0, is a^2 + g^2
        i, j = np.triu_indices(5)
        expected = ((i == j) & ((i == 0) | (i == 4))).astype(float)
        np.testing.assert_array_equal(jacobi._TABLES[2, 4][10], expected)


class TestGainBound:
    @pytest.mark.parametrize("alpha,d", ALL_SPECS)
    def test_bounds_the_solved_gain(self, alpha, d):
        r = np.random.default_rng(1400 + 10 * d + alpha)
        rows = np.vstack([r.standard_normal((10**4, PAIR_SIZE[d])), degenerate_vals(alpha, d)])
        _, gain = _best_angles(rows, d, alpha)
        bound, slack = _gain_bounds(rows, d, alpha)
        assert np.all(bound >= 0.0)
        assert np.all(gain <= bound + slack)
        # with a margin: the excess over the bound stays within 1% of the slack
        assert np.all(gain - bound <= 0.01 * slack)
        if (alpha, d) in QUADRATIC_FORM_SPECS:
            # one harmonic: the bound is the gain itself
            assert np.all(bound - gain <= slack)

    @pytest.mark.parametrize("alpha,d", ALL_SPECS)
    def test_bounds_the_contrast_on_a_grid(self, alpha, d):
        # the harmonic sets hold: no angle of a fine grid gains more than the bound
        r = np.random.default_rng(1500 + 10 * d + alpha)
        rows = r.standard_normal((20, PAIR_SIZE[d]))
        bound, slack = _gain_bounds(rows, d, alpha)
        grid = np.linspace(-pi, pi, 721)
        for vals, b, e in zip(rows, bound, slack):
            base = _restricted(vals, d, alpha, 0.0)
            gains = [_restricted(vals, d, alpha, phi) - base for phi in grid]
            assert max(gains) <= b + e


class TestCyclicOracle:
    @pytest.mark.parametrize("n", range(2, 18))
    def test_round_robin_schedule(self, n):
        rounds = jacobi._rounds(n)
        assert rounds.shape == (n - 1 + n % 2, n // 2)
        assert sorted(rounds.ravel().tolist()) == list(range(n * (n - 1) // 2))
        p, q = np.triu_indices(n, 1)
        for row in rounds:
            assert len(set(p[row]) | set(q[row])) == 2 * len(row)
        # round r opens with (0, r + 1), so up to n = 3 this is row order
        assert p[rounds[: n - 1, 0]].tolist() == [0] * (n - 1)
        assert q[rounds[: n - 1, 0]].tolist() == list(range(1, n))
        assert not rounds.flags.writeable

    @pytest.mark.parametrize("alpha,d", ALL_SPECS)
    def test_matches_one_pair_per_solve(self, alpha, d):
        # a round is rotated by one matrix product, so the results agree with
        # one rotation at a time up to rounding
        spec = ContrastSpec(alpha, d)
        r = np.random.default_rng(1100 + 10 * d + alpha)
        for n in range(2, 8):
            for max_sweeps in (None, 1):
                g = symmetrize(r.standard_normal((n,) * d))
                res = sweep_cyclic(g, spec, max_sweeps=max_sweeps)
                q, trace, rotations, sweeps, stop_reason, largest = sweep_cyclic_one_pair(
                    g.expand().array, spec, max_sweeps
                )
                assert (res.sweeps, res.rotations) == (sweeps, rotations)
                assert res.stop_reason == stop_reason
                np.testing.assert_allclose(res.Q, q, rtol=0, atol=1e-12)
                np.testing.assert_allclose(res.largest_angles, largest, rtol=0, atol=1e-12)
                assert res.trace[-1] == pytest.approx(trace[-1], rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [6, 7])
    def test_one_solve_per_round(self, monkeypatch, n):
        rows = count_solve_rows(monkeypatch)
        g = symmetrize(np.random.default_rng(960 + n).standard_normal((n,) * 4))
        res = sweep_cyclic(g, ContrastSpec(2, 4))
        assert res.rotations > 0
        assert rows == [n // 2] * (res.sweeps * (n - 1 + n % 2))


class TestRotateRound:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_one_rotation_at_a_time(self, d, n):
        # odd n leave one index idle in every round
        r = np.random.default_rng(1200 + 10 * n + d)
        first, second = np.triu_indices(n, 1)
        for rows in jacobi._rounds(n):
            rows = rows[r.random(len(rows)) < 0.7]
            phis = r.uniform(-pi / 2, pi / 2, len(rows))
            zd = symmetrize(r.standard_normal((n,) * d)).expand().array.copy()
            v = np.linalg.qr(r.standard_normal((n, n)))[0]
            z_seq, v_seq = zd.copy(), v.copy()
            for k, phi in zip(rows.tolist(), phis.tolist()):
                apply_rotation(z_seq, int(first[k]), int(second[k]), phi)
                _rotate_rows(v_seq, int(first[k]), int(second[k]), phi)
            norm = np.linalg.norm(zd)
            rotate_round(zd, v, first[rows], second[rows], phis)
            assert np.abs(zd - z_seq).max() <= 1e-13 * norm
            assert np.abs(v - v_seq).max() <= 1e-13
            assert abs(np.linalg.norm(zd) - norm) <= 1e-13 * norm

    def test_rounds_without_accepted_pair_change_nothing(self, monkeypatch):
        # (2, 4) solves a diagonal pair to exactly (0, 0), so no pair is accepted
        calls = []
        monkeypatch.setattr(jacobi, "_rotate_rows", lambda *args: calls.append(args))
        g = diag_tensor([2.0, -1.5, 0.5, 3.0, 0.0], 4)
        res = sweep_cyclic(g, ContrastSpec(2, 4))
        assert calls == []
        assert res.Q.tobytes() == np.eye(5).tobytes()
        assert res.Z.packed.tobytes() == symmetrize(g).packed.tobytes()
        assert (res.rotations, res.stop_reason) == (0, "angle_tol")

    @pytest.mark.parametrize("d", [2, 3])
    def test_quadratic_forms_leave_a_diagonal_tensor(self, d):
        # the off-diagonal coefficient of a diagonal pair is a rounding residue,
        # within the floor of its samples, so no rotation is made for no gain
        res = sweep_cyclic(diag_tensor([2.0, -1.5, 0.5, 3.0, 0.0], d), ContrastSpec(2, d))
        assert res.Q.tobytes() == np.eye(5).tobytes()
        assert (res.rotations, res.largest_angles) == (0, [0.0])

    def test_only_rounds_with_accepted_pairs_rotate(self, monkeypatch):
        # only the pair (0, 1) is coupled, and rotating it keeps it so: each
        # update of the basis rotates that one accepted pair
        sizes = []

        def counted(v, p, q, phi):
            sizes.append((p.tolist(), q.tolist(), len(phi)))
            _rotate_rows(v, p, q, phi)

        monkeypatch.setattr(jacobi, "_rotate_rows", counted)
        g = diag_tensor([0.0, 0.0, 0.5, 3.0, -1.0], 4)
        g[:2, :2, :2, :2] = rotated_diag([2.0, -1.0], 4, 1320)[0].expand().array
        res = sweep_cyclic(g, ContrastSpec(2, 4))
        assert res.rotations > 0
        assert sizes == [([0], [1], 1)] * res.rotations


def pair_rows(z, n, d):
    """Every pair's row of the dense ``z``, in the order of :func:`_pairs`."""
    p, q = np.triu_indices(n, 1)
    return z[tuple(np.moveaxis(jacobi._pair_layout(p, q, d), -1, 0))]


def rotate_random_rounds(rotate, n, r):
    """Rotate each round's pairs through ``rotate``, by random angles."""
    first, second = np.triu_indices(n, 1)
    for rows in jacobi._rounds(n):
        rotate(first[rows], second[rows], r.uniform(-pi / 2, pi / 2, len(rows)))


class TestRoundReader:
    """The pair reader that both strategies share, :func:`_pair_reader`."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_rows_match_the_rotated_tensor(self, d, n):
        # odd n leave one index idle in every round
        r = np.random.default_rng(1400 + 10 * n + d)
        g = symmetrize(r.standard_normal((n,) * d))
        t = g.expand().array
        v, read, rotate = _pair_reader(g)
        positions = _pairs(n, d)[2]
        for _ in range(2):
            rotate_random_rounds(rotate, n, r)
            z = tucker_transform(t, [v] * d).array
            assert np.abs(read()[positions] - pair_rows(z, n, d)).max() <= 1e-13 * np.linalg.norm(t)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [4, 5, 9])
    def test_rotation_keeps_the_bytes_of_disjoint_pairs(self, d, n):
        # the premise of greedy's cached angles: a pair's row reads only its
        # own two basis vectors and their left halves
        r = np.random.default_rng(1420 + 10 * n + d)
        v, read, rotate = _pair_reader(symmetrize(r.standard_normal((n,) * d)))
        first, second, positions = _pairs(n, d)
        rotate_random_rounds(rotate, n, r)
        for k in r.permutation(len(first))[:6].tolist():
            p, q = int(first[k]), int(second[k])
            before = read()[positions]
            rotate(p, q, r.uniform(-pi / 2, pi / 2))
            after = read()[positions]
            disjoint = ~np.isin(first, [p, q]) & ~np.isin(second, [p, q])
            assert before[disjoint].tobytes() == after[disjoint].tobytes()
            assert not np.array_equal(before[k], after[k])

    @pytest.mark.parametrize("alpha,d", ALL_SPECS)
    def test_result_is_the_input_rotated_by_q(self, alpha, d):
        r = np.random.default_rng(1450 + 10 * d + alpha)
        for n in range(2, 8):
            t = symmetrize(r.standard_normal((n,) * d)).expand().array
            res = sweep_cyclic(t, ContrastSpec(alpha, d))
            assert res.rotations > 0
            expected = tucker_transform(t, [res.Q.T] * d).array
            assert np.abs(res.Z.expand().array - expected).max() <= 1e-13 * np.linalg.norm(t)

    @pytest.mark.parametrize("strategy", [sweep_cyclic, sweep_greedy])
    @pytest.mark.parametrize("n, d", [(5, 3), (5, 4), (16, 4)])
    def test_unrotated_result_is_the_input(self, strategy, n, d):
        # max_sweeps=0 returns the input as given: no expand and symmetrize
        # round trip moves its packed entries by an ulp
        g = cumulant_tensor(np.random.default_rng(3).standard_normal((2000, n)), d)
        res = strategy(g, ContrastSpec(2, d), max_sweeps=0)
        assert res.rotations == 0
        assert res.Z.packed.tobytes() == g.packed.tobytes()

    def test_non_symmetric_cube_refused(self):
        # the reader reads only the entries at sorted axes, while the final
        # rotation would rotate the whole cube: the reported contrast and
        # the returned Z would disagree
        t = np.random.default_rng(0).standard_normal((4,) * 4)
        spec = ContrastSpec(2, 4)
        for call in (lambda: sweep_cyclic(t, spec), lambda: sweep_greedy(t, spec),
                     lambda: contrast_value(t, spec), lambda: stationarity_residual(t, 4),
                     lambda: convexity_margin(t, 4, 0, 1)):
            with pytest.raises(ValueError, match="not symmetric"):
                call()

    @pytest.mark.parametrize("greedy", [False, True], ids=["cyclic", "greedy"])
    @pytest.mark.parametrize("n", [16, 32])
    def test_peak_memory_within_three_dense_tensors(self, n, greedy):
        # the input is expanded once and not copied; the final rotation's
        # tucker_transform holds at most two arrays at once
        g = symmetrize(np.random.default_rng(1500 + n).standard_normal((n,) * 4))
        tracemalloc.start()
        try:
            res = jacobi._run_sweeps(g, ContrastSpec(2, 4), greedy=greedy, max_sweeps=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.rotations > 0
        assert peak <= 3 * n**4 * 8


def stationarity_oracle(zd, d):
    """The pairwise stationarity relations, one (q, r) pair at a time."""
    n = zd.shape[0]
    worst = 0.0
    for q in range(n):
        for r in range(n):
            if q == r:
                continue
            if d == 2:
                val = (zd[q, q] - zd[r, r]) * zd[q, r]
            elif d == 3:
                val = zd[q, q, q] * zd[q, q, r] - zd[r, r, r] * zd[q, r, r]
            else:
                val = zd[q, q, q, q] * zd[q, q, q, r] - zd[r, r, r, r] * zd[q, r, r, r]
            worst = max(worst, abs(val))
    return worst


class TestStationarity:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_pairwise_oracle(self, d):
        r = np.random.default_rng(300 + d)
        for n in range(1, 6):
            for _ in range(5):
                z = symmetrize(r.standard_normal((n,) * d))
                assert stationarity_residual(z, d) == stationarity_oracle(z.expand().array, d)

    def test_diagonal_zero(self):
        assert stationarity_residual(diag_tensor([1.0, 2.0, 3.0], 4), 4) == 0.0

    def test_equal_diagonal_matrix(self):
        assert stationarity_residual(np.eye(3) * 2.0, 2) == 0.0

    def test_converged_sweep_small_residual(self):
        g, _ = rotated_diag([-1.2, -0.7, 1.9], 4, seed=31)
        res = sweep_cyclic(g, ContrastSpec(2, 4))
        assert stationarity_residual(res.Z, 4) <= 1e-6

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            stationarity_residual(np.zeros((2,) * 5), 5)


class TestPackedDiagnostics:
    """The diagnostics read a SymTensor's packed entries, never its n^d expansion."""

    DIAGNOSTICS = [
        pytest.param(lambda z: stationarity_residual(z, 4), id="stationarity_residual"),
        pytest.param(lambda z: contrast_value(z, ContrastSpec(2, 4)), id="contrast_value"),
        pytest.param(lambda z: convexity_margin(z, 4, 17, 3), id="convexity_margin"),
    ]

    @pytest.mark.parametrize("diagnostic", DIAGNOSTICS)
    def test_peak_memory_below_a_dense_tensor(self, diagnostic):
        n = 24
        z = symmetrize(np.random.default_rng(1200).standard_normal((n,) * 4))
        tracemalloc.start()
        try:
            value = diagnostic(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n**4 * 8 / 4
        assert value == diagnostic(z.expand().array)

    @pytest.mark.parametrize("alpha,d", ALL_SPECS)
    def test_packed_and_dense_agree_bit_for_bit(self, alpha, d):
        r = np.random.default_rng(1210 + 10 * d + alpha)
        for n in range(1, 6):
            z = symmetrize(r.standard_normal((n,) * d))
            zd = z.expand().array
            assert same_bits(contrast_value(z, ContrastSpec(alpha, d)),
                             contrast_value(zd, ContrastSpec(alpha, d)))
            assert same_bits(stationarity_residual(z, d), stationarity_residual(zd, d))
            for q in range(-n, n):
                for s in range(n):
                    if q % n != s:
                        assert same_bits(convexity_margin(z, d, q, s),
                                         convexity_margin(zd, d, q, s))


class TestConvexity:
    def test_diagonal_matrix_negative(self):
        z = np.diag([3.0, 1.0])
        assert convexity_margin(z, 2, 0, 1) == pytest.approx(-4.0)

    def test_equal_diagonal_positive(self):
        z = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert convexity_margin(z, 2, 0, 1) == pytest.approx(4 * 0.25)

    def test_converged_run_all_pairs_nonpositive(self):
        g, _ = rotated_diag([-1.2, -0.7, 1.9], 4, seed=41)
        res = sweep_cyclic(g, ContrastSpec(2, 4))
        zd = res.Z.expand().array
        for q in range(3):
            for r in range(3):
                if q != r:
                    assert convexity_margin(zd, 4, q, r) <= 1e-9


class TestIcaPipeline:
    def test_bpsk_separation(self):
        r = np.random.default_rng(7)
        x = r.integers(0, 2, size=(10_000, 2)) * 2.0 - 1.0
        q0, _ = np.linalg.qr(r.standard_normal((2, 2)))
        y = x @ q0.T
        wh, res = ica(y, ContrastSpec(2, 4))
        assert np.min(row_max(res.Q.T @ q0)) >= 0.95
        assert not res.low_confidence

    def test_gaussian_low_confidence(self):
        z = np.random.default_rng(8).standard_normal((5000, 3))
        _, res = ica(z, ContrastSpec(2, 4))
        assert res.low_confidence
        assert abs(res.trace[-1]) < 0.1

    def test_single_channel(self):
        z = np.random.default_rng(9).standard_normal((500, 1))
        wh, res = ica(z, ContrastSpec(2, 4))
        np.testing.assert_array_equal(res.Q, np.eye(1))

    def test_rotated_samples_reproduce_rotated_tensor(self):
        # the estimator is multilinear, so rotating the cumulant tensor and
        # re-estimating it from rotated samples agree (acceptance 1's bound)
        r = np.random.default_rng(17)
        x = r.uniform(-np.sqrt(3), np.sqrt(3), size=(4000, 3))
        q0, _ = np.linalg.qr(r.standard_normal((3, 3)))
        y = x @ q0.T
        wh, res = ica(y, ContrastSpec(2, 4))
        assert res.rotations > 0
        sources = wh.apply(y - y.mean(axis=0)) @ res.Q
        g = cumulant_tensor(sources, 4)
        assert np.abs(g.packed - res.Z.packed).max() <= 1e-10

    def test_separation_metric_lambda_p_invariant(self):
        r = np.random.default_rng(27)
        q0, _ = np.linalg.qr(r.standard_normal((3, 3)))
        q = np.linalg.qr(r.standard_normal((3, 3)))[0]
        base = row_max(q.T @ q0)
        perm = np.eye(3)[[2, 0, 1]]
        signs = np.diag([1.0, -1.0, 1.0])
        transformed = row_max(q.T @ (q0 @ perm @ signs))
        np.testing.assert_allclose(np.sort(base), np.sort(transformed), atol=1e-12)

    def test_repeated_run_gives_identical_bytes(self):
        # the promise: the same input in the same process, with the same BLAS
        # build and thread count, gives the same bytes
        r = np.random.default_rng(47)
        s = r.uniform(-np.sqrt(3), np.sqrt(3), size=(20_000, 16))
        y = s @ r.standard_normal((16, 16)).T
        (_, first), (_, second) = ica(y), ica(y)
        assert first.rotations > 0
        assert first.Q.tobytes() == second.Q.tobytes()
        assert first.Z.packed.tobytes() == second.Z.packed.tobytes()
        assert np.array(first.trace).tobytes() == np.array(second.trace).tobytes()

    def test_peak_memory_within_two_and_a_half_sample_arrays(self):
        # the samples are read block by block and never copied; the input is
        # the caller's and not counted
        r = np.random.default_rng(48)
        y = r.uniform(-np.sqrt(3), np.sqrt(3), size=(20_000, 16)) @ r.standard_normal((16, 16)).T
        ica(y[:2000])  # fills the per-size index caches
        tracemalloc.start()
        try:
            _, res = ica(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.rotations > 0
        assert peak <= 2.5 * y.nbytes

    @pytest.mark.parametrize("strategy", ["cyclic", "greedy"])
    @pytest.mark.parametrize("n,samples,bound", [(4, 200_000, 0.1), (16, 20_000, 0.6)])
    def test_peak_memory_holds_no_copy_of_the_samples(self, strategy, n, samples, bound):
        # the covariance and the whitened cumulant accumulate block by block
        # from the caller's array; at n = 16 the rest is the final rotation's
        # two n^4 arrays
        y = uniform_mixture(n, samples, 49)
        ica(y[:2000], strategy=strategy)  # fills the per-size index caches
        tracemalloc.start()
        try:
            _, res = ica(y, strategy=strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.rotations > 0
        assert peak <= bound * y.nbytes

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_any_float_scale_separates_alike(self, scale):
        # squares of these samples overflow or underflow; ica divides them by
        # a power of two and multiplies the whitener back, exactly
        r = np.random.default_rng(1)
        s = r.uniform(-sqrt(3.0), sqrt(3.0), (3000, 3))
        a = r.standard_normal((3, 3))
        wh, res = ica(s @ a.T)
        separator = res.Q.T @ wh.T
        wh, res = ica((s @ a.T) * scale)
        scaled = res.Q.T @ wh.T
        assert np.abs(scaled * scale - separator).max() <= 1e-12 * np.abs(separator).max()
        assert score(scaled, a * scale)["min_dominance"] >= 0.95

    def test_powers_of_two_give_the_same_rotation(self):
        x = uniform_mixture(3, 3000, 2)
        (wh_up, up), (wh_down, down) = ica(x * 2.0**600), ica(x * 2.0**-600)
        assert up.Q.tobytes() == down.Q.tobytes()
        assert np.array_equal(np.ldexp(wh_up.T, 1200), wh_down.T)

    def test_subnormal_samples_refused_naming_the_overflow(self):
        with pytest.raises(ValueError, match="the whitener overflows the float range"):
            ica(uniform_mixture(3, 3000, 3) * 1e-315)

    def test_rejects_samples_without_columns(self):
        with pytest.raises(ValueError, match="at least one column"):
            ica(np.zeros((10, 0)))

    def test_fewer_samples_than_columns_refused_before_the_covariance(self):
        # the covariance of 20000 columns alone would take 3.2 GB
        z = np.random.default_rng(5).standard_normal((5, 20_000))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="N = 5 samples of n = 20000 columns"):
                ica(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_as_many_samples_as_columns_refused(self):
        with pytest.raises(ValueError, match="more samples than columns"):
            ica(np.random.default_rng(6).standard_normal((3, 3)))

    @pytest.mark.parametrize("strategy", ["cyclic", "greedy"])
    def test_second_order_contrast_makes_no_rounding_swaps(self, strategy):
        # whitened data is diagonal at order 2 up to rounding, so every pair's
        # diagonal difference is a rounding residue: counted as zero, it no
        # longer favours a pi/4 swap for a gain of twice that residue
        r = np.random.default_rng(1)
        s = r.uniform(-np.sqrt(3), np.sqrt(3), size=(20_000, 16))
        y = s @ r.standard_normal((16, 16)).T
        _, res = ica(y, ContrastSpec(2, 2), strategy=strategy)
        assert res.rotations == 0
        assert res.stop_reason != "max_sweeps"

    def test_separator_composition(self):
        r = np.random.default_rng(37)
        x = r.integers(0, 2, size=(8000, 3)) * 2.0 - 1.0
        a = r.standard_normal((3, 3))  # general invertible mixing
        y = x @ a.T
        wh, res = ica(y, ContrastSpec(2, 4))
        separator = res.Q.T @ wh.T
        gain = separator @ a
        assert np.min(row_max(gain)) >= 0.95
