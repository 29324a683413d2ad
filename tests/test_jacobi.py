from math import atan, ceil, pi, sqrt

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from tensorbss import jacobi
from tensorbss.core import real_roots, symmetrize, tucker_transform
from tensorbss.cumulants import cumulant_tensor
from tensorbss.jacobi import (
    ANGLE_TOL,
    QUADRATIC_FORM_SPECS,
    ContrastSpec,
    _apply_rotation,
    _best_angle,
    _pair_vals,
    _restricted,
    _rotate_rows,
    contrast_value,
    convexity_margin,
    ica,
    stationarity_residual,
    sweep_cyclic,
    sweep_greedy,
)

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


def pair_angle(arr, d, alpha):
    """Optimal angle of the pair (0, 1) of a dense tensor."""
    return jacobi._best_angle(jacobi._pair_vals(arr, 0, 1), d, alpha)[0]


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
            phi, gain = _best_angle(vals, d, alpha)
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
        phi, gain = _best_angle(_pair_vals(g.expand().array, 0, 1), 2, 2)
        assert gain > 0.0 and abs(phi) < ANGLE_TOL
        res = sweep_greedy(g, ContrastSpec(2, 2))
        assert res.stop_reason == "angle_tol" and res.rotations == 0

    def test_no_pairs(self):
        assert sweep_greedy(np.ones((1,) * 4), ContrastSpec(2, 4)).stop_reason == "angle_tol"
        assert sweep_cyclic(np.ones((1,) * 4), ContrastSpec(2, 4)).stop_reason == "angle_tol"
        _, res = ica(np.random.default_rng(9).standard_normal((500, 1)), ContrastSpec(2, 4))
        assert res.stop_reason == "angle_tol"


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


def sweep_greedy_all_pairs(g, spec, max_sweeps=None):
    """The greedy sweep that solves every pair again before each rotation (dense ``g``)."""
    zd = g.copy()
    n = zd.shape[0]
    v = np.eye(n)
    trace = [contrast_value(zd, spec)]
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    if max_sweeps is None:
        max_sweeps = ceil(sqrt(n)) + 3
    rotations = 0
    while rotations < len(pairs) * max_sweeps:
        p, q, phi, gain = max(
            ((p, q, *_best_angle(_pair_vals(zd, p, q), spec.order, spec.alpha)) for p, q in pairs),
            key=lambda t: t[3],
        )
        if gain <= 0.0 or abs(phi) < ANGLE_TOL:
            break
        _apply_rotation(zd, p, q, phi)
        _rotate_rows(v, p, q, phi)
        trace.append(trace[-1] + gain)
        rotations += 1
    return v.T, trace, rotations, ceil(rotations / len(pairs))


ALL_SPECS = [(2, 2), (2, 3), (2, 4), (1, 3), (1, 4)]
PAIR_SIZE = {2: 3, 3: 4, 4: 5}


def same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


class TestSolveOracle:
    @pytest.mark.parametrize("alpha,d", ALL_SPECS)
    def test_random_vals(self, alpha, d):
        r = np.random.default_rng(700 + 10 * d + alpha)
        for vals in r.standard_normal((2000, PAIR_SIZE[d])):
            vals = tuple(vals)
            phi, gain = _best_angle(vals, d, alpha)
            phi_ref, gain_ref = best_angle_polynomial(vals, d, alpha)
            assert same_bits(phi, phi_ref) and same_bits(gain, gain_ref), vals

    @pytest.mark.parametrize("alpha,d", ALL_SPECS)
    def test_degenerate_vals(self, alpha, d):
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
        cases += list(r.integers(-2, 3, size=(500, m)).astype(float))
        for vals in cases:
            vals = tuple(np.float64(x) for x in vals)
            phi, gain = _best_angle(vals, d, alpha)
            phi_ref, gain_ref = best_angle_polynomial(vals, d, alpha)
            assert same_bits(phi, phi_ref) and same_bits(gain, gain_ref), vals

    def test_trimmed_real_roots(self):
        for coeffs in ([0.0, 0.0], [3.0, 0.0, 0.0], [1.0, 2.0, 0.0], [2.0, -3.0, 1.0, 1e-20],
                       [2.0, -3.0, 1.0, 2e-14], [2.0, -3.0, 1.0, 5e-14],
                       [0.0, 1.0, 0.0, -1.0, 0.0], [1.0, 0.0, 1.0]):
            np.testing.assert_array_equal(
                real_roots(coeffs), _real_roots_polynomial(coeffs)
            )


class TestGreedyOracle:
    @pytest.mark.parametrize("alpha,d", ALL_SPECS)
    def test_matches_all_pairs_selection(self, alpha, d):
        spec = ContrastSpec(alpha, d)
        r = np.random.default_rng(900 + 10 * d + alpha)
        for n in range(2, 7):
            for max_sweeps in (None, 1):
                g = symmetrize(r.standard_normal((n,) * d))
                res = sweep_greedy(g, spec, max_sweeps=max_sweeps)
                q, trace, rotations, sweeps = sweep_greedy_all_pairs(
                    g.expand().array, spec, max_sweeps
                )
                np.testing.assert_array_equal(res.Q, q)
                assert res.trace == trace
                assert (res.rotations, res.sweeps) == (rotations, sweeps)

    def test_solves_only_touched_pairs(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _best_angle(*args)

        monkeypatch.setattr(jacobi, "_best_angle", counted)
        n = 5
        g = symmetrize(np.random.default_rng(950).standard_normal((n,) * 4))
        res = sweep_greedy(g, ContrastSpec(2, 4))
        assert res.rotations > 0
        assert len(calls) == n * (n - 1) // 2 + res.rotations * (2 * n - 3)


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

    def test_separator_composition(self):
        r = np.random.default_rng(37)
        x = r.integers(0, 2, size=(8000, 3)) * 2.0 - 1.0
        a = r.standard_normal((3, 3))  # general invertible mixing
        y = x @ a.T
        wh, res = ica(y, ContrastSpec(2, 4))
        separator = res.Q.T @ wh.T
        gain = separator @ a
        assert np.min(row_max(gain)) >= 0.95
