import itertools

import numpy as np
import pytest

from tensorbss.core import rank1_sym, symmetrize
from tensorbss.rank1 import (
    Rank1Approx,
    best_rank1,
    contract_to_vector,
    hosvd_init,
    omega_criteria,
    rayleigh_iterate,
    sigma_of,
)

rng = np.random.default_rng(555)


def contract_brute(c, w, times):
    """Nested-loop contraction oracle."""
    c = np.asarray(c)
    for _ in range(times):
        out = np.zeros(c.shape[:-1])
        for idx in itertools.product(*(range(n) for n in c.shape)):
            out[idx[:-1]] += c[idx] * w[idx[-1]]
        c = out
    return c


def unit(v):
    return v / np.linalg.norm(v)


class TestContractions:
    def test_identity_matrix(self):
        w = rng.standard_normal(4)
        np.testing.assert_allclose(contract_to_vector(np.eye(4), w), w)

    def test_rank1_order3(self):
        v = rng.standard_normal(3)
        w = rng.standard_normal(3)
        c = rank1_sym(v, 3).array
        np.testing.assert_allclose(
            contract_to_vector(c, w), (v @ w) ** 2 * v, atol=1e-12
        )

    def test_matches_brute_force(self):
        c = symmetrize(rng.standard_normal((3, 3, 3, 3))).expand().array
        w = rng.standard_normal(3)
        np.testing.assert_allclose(
            contract_to_vector(c, w), contract_brute(c, w, 3), atol=1e-10
        )

    def test_sigma_diagonal(self):
        c = np.zeros((3,) * 4)
        for i in range(3):
            c[(i,) * 4] = i + 1.0
        assert sigma_of(c, np.array([0.0, 1.0, 0.0])) == pytest.approx(2.0)

    def test_sigma_brute(self):
        c = symmetrize(rng.standard_normal((3, 3, 3))).expand().array
        w = unit(rng.standard_normal(3))
        assert sigma_of(c, w) == pytest.approx(float(contract_brute(c, w, 3)), rel=1e-10)


class TestOmegaCriteria:
    def test_exact_rank1(self):
        w = unit(rng.standard_normal(4))
        c = rank1_sym(w, 4, 2.5)
        o0, o3, od = omega_criteria(c, w, 2.5)
        assert o0 == pytest.approx(0.0, abs=1e-10)
        assert o3 == pytest.approx(0.0, abs=1e-10)
        assert od == pytest.approx(2.5)

    def test_orthogonal_direction(self):
        v = np.array([1.0, 0.0])
        w = np.array([0.0, 1.0])
        c = rank1_sym(v, 4, 3.0)
        _, _, od = omega_criteria(c, w, 0.0)
        assert od == pytest.approx(0.0, abs=1e-12)

    def test_pythagorean_identity(self):
        for seed in range(10):
            c = symmetrize(np.random.default_rng(seed).standard_normal((3,) * 4))
            w = unit(np.random.default_rng(seed + 1).standard_normal(3))
            sig = sigma_of(c, w)
            o0, _, od = omega_criteria(c, w, sig)
            lhs = o0**2 + od**2
            assert lhs == pytest.approx(c.norm() ** 2, rel=1e-10)


class TestRayleigh:
    def test_rank1_immediate(self):
        v = unit(rng.standard_normal(3))
        c = rank1_sym(v, 4, 2.0)
        w0 = unit(v + 0.3 * rng.standard_normal(3))
        res = rayleigh_iterate(c, w0)
        assert res.converged and res.iterations <= 2
        assert min(np.linalg.norm(res.w - v), np.linalg.norm(res.w + v)) <= 1e-12

    def test_order2_dominant_eigenpair(self):
        for seed in range(10):
            a = np.random.default_rng(seed).standard_normal((5, 5))
            a = (a + a.T) / 2
            res = rayleigh_iterate(a, hosvd_init(a), tol=1e-12, max_iter=2000)
            lam = np.linalg.eigvalsh(a)
            dominant = lam[np.argmax(np.abs(lam))]
            assert res.sigma == pytest.approx(dominant, abs=1e-8)

    def test_diagonal_order3_winner_prediction(self):
        # winner oracle: the scaled coordinate dynamics make |kappa_i w_i|
        # decide the limit from any generic start
        kappa = np.array([5.0, 1.0, 0.5])
        c = np.zeros((3, 3, 3))
        for i in range(3):
            c[(i,) * 3] = kappa[i]
        wins = 0
        for t in range(100):
            w0 = np.random.default_rng(t).standard_normal(3)
            predicted = int(np.argmax(np.abs(kappa * w0)))
            res = rayleigh_iterate(c, w0, max_iter=2000)
            got = int(np.argmax(np.abs(res.w)))
            assert got == predicted
            wins += got == 0
        assert wins > 60  # the dominant diagonal wins from most generic starts

    def test_stationarity_residual_at_convergence(self):
        for seed in range(10):
            c = symmetrize(np.random.default_rng(seed).standard_normal((4,) * 3))
            res = best_rank1(c)
            _, o_dm1, _ = omega_criteria(c, res.w, res.sigma)
            assert o_dm1 <= 1e-8

    def test_zero_contraction_restarts(self):
        # start orthogonal to the only factor: the first contraction vanishes
        c = rank1_sym(np.array([1.0, 0.0]), 3, 1.0)
        res = rayleigh_iterate(c, np.array([0.0, 1.0]), max_iter=200)
        assert res.restarts >= 1
        assert abs(res.w[0]) > 0.99

    def test_zero_init_rejected(self):
        with pytest.raises(ValueError):
            rayleigh_iterate(np.eye(2), np.zeros(2))


class TestHosvdInit:
    def test_rank1_recovers_factor(self):
        v = unit(rng.standard_normal(4))
        c = rank1_sym(v, 3, -2.0)
        w = hosvd_init(c)
        assert min(np.linalg.norm(w - v), np.linalg.norm(w + v)) <= 1e-10

    def test_order2_dominant_eigvec(self):
        a = np.diag([3.0, -1.0, 0.5])
        w = hosvd_init(a)
        assert abs(abs(w[0]) - 1.0) <= 1e-12


class TestEquivalenceQuotient:
    def test_sign_quotient_even_order(self):
        w = unit(rng.standard_normal(3))
        a = Rank1Approx(w=w, sigma=1.5, order=4)
        b = Rank1Approx(w=-w, sigma=1.5, order=4)
        assert a == b

    def test_sign_quotient_odd_order(self):
        w = unit(rng.standard_normal(3))
        a = Rank1Approx(w=w, sigma=1.5, order=3)
        b = Rank1Approx(w=-w, sigma=-1.5, order=3)
        assert a == b
        c = Rank1Approx(w=-w, sigma=1.5, order=3)
        assert a != c
