import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorbss.core import symmetrize
from tensorbss.indexing import counts_from_axes, multi_indices
from tensorbss.poly import (
    HomogPoly,
    apolar_inner,
    evaluate,
    linear_form_power,
    monomial,
    multiplicity,
    poly_to_tensor,
)

def random_poly(nvars, degree, seed):
    r = np.random.default_rng(seed)
    coeffs = {j: float(r.standard_normal()) for j in multi_indices(nvars, degree)}
    return HomogPoly(nvars, degree, coeffs)


class TestIndexMap:
    def test_paper_example(self):
        assert counts_from_axes([0, 0, 3], 4) == (2, 0, 0, 1)

    def test_single(self):
        assert counts_from_axes([1], 3) == (0, 1, 0)

    def test_permutation_free(self):
        assert counts_from_axes([2, 0, 1, 0], 4) == counts_from_axes([0, 0, 1, 2], 4)


class TestMultiplicity:
    def test_values(self):
        assert multiplicity([3, 1]) == 4
        assert multiplicity([2, 2]) == 6

    def test_pure_power(self):
        for d in range(1, 6):
            assert multiplicity([d, 0, 0]) == 1


class TestBijection:
    def test_binary_cubic_example(self):
        # tensor with ones at every permutation of axes (0, 1, 1): three equal
        # entries summing into the single coefficient of x*y**2
        t = np.zeros((2, 2, 2))
        t[0, 1, 1] = t[1, 0, 1] = t[1, 1, 0] = 1.0
        p = HomogPoly(2, 3, {(1, 2): 1.0})
        np.testing.assert_array_equal(poly_to_tensor(p).packed, symmetrize(t).packed)
        assert evaluate(p, [2.0, 3.0]) == pytest.approx(3 * 2.0 * 9.0)

    def test_pure_cube(self):
        p = HomogPoly(2, 3, {(3, 0): 1.0})
        g = poly_to_tensor(p)
        full = g.expand().array
        assert full[0, 0, 0] == 1.0
        assert np.sum(np.abs(full)) == 1.0

    def test_roundtrip_random(self):
        for seed in range(5):
            g = symmetrize(np.random.default_rng(seed).standard_normal((3,) * 4))
            back = poly_to_tensor(HomogPoly(3, 4, dict(zip(multi_indices(3, 4), g.packed))))
            np.testing.assert_array_equal(back.packed, g.packed)

    def test_poly_roundtrip(self):
        p = random_poly(3, 3, 11)
        packed = poly_to_tensor(p).packed
        assert dict(zip(multi_indices(3, 3), packed.tolist())) == p.coeffs


class TestApolar:
    def test_monomial_norms(self):
        for j in [(3, 0), (2, 1), (2, 2), (1, 1, 1)]:
            m = monomial(len(j), j)
            assert apolar_inner(m, m) == pytest.approx(1.0 / multiplicity(j))

    def test_disjoint_monomials(self):
        assert apolar_inner(monomial(2, (3, 0)), monomial(2, (0, 3))) == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_reproducing_property(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 5))
        d = int(r.integers(1, 7))
        a = r.standard_normal(n)
        q = random_poly(n, d, seed + 1)
        lhs = apolar_inner(linear_form_power(a, d), q)
        rhs = evaluate(q, a)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_symmetric_bilinear_positive(self):
        p = random_poly(3, 4, 41)
        q = random_poly(3, 4, 42)
        r_ = random_poly(3, 4, 43)
        assert apolar_inner(p, q) == pytest.approx(apolar_inner(q, p))
        two_pq = HomogPoly(
            3,
            4,
            {
                j: 2.0 * p.gamma(j) + q.gamma(j)
                for j in set(p.coeffs) | set(q.coeffs)
            },
        )
        assert apolar_inner(two_pq, r_) == pytest.approx(
            2.0 * apolar_inner(p, r_) + apolar_inner(q, r_), rel=1e-10
        )
        assert apolar_inner(p, p) > 0.0

    def test_matches_frobenius(self):
        p = random_poly(3, 3, 51)
        q = random_poly(3, 3, 52)
        lhs = apolar_inner(p, q)
        rhs = np.vdot(poly_to_tensor(p).expand().array, poly_to_tensor(q).expand().array)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apolar_inner(random_poly(2, 2, 1), random_poly(2, 3, 2))


class TestEvaluate:
    def test_sum_of_cubes(self):
        p = HomogPoly(2, 3, {(3, 0): 1.0, (0, 3): 1.0})
        assert evaluate(p, [1.0, 1.0]) == pytest.approx(2.0)

    def test_weighted_monomial(self):
        # 6 x^2 y  =>  gamma([2,1]) = 2 with c = 3
        p = HomogPoly(2, 3, {(2, 1): 2.0})
        assert evaluate(p, [1.0, 2.0]) == pytest.approx(12.0)

    def test_zero_point(self):
        p = random_poly(3, 2, 61)
        assert evaluate(p, np.zeros(3)) == 0.0

    def test_bad_point(self):
        with pytest.raises(ValueError):
            evaluate(random_poly(2, 2, 71), [1.0, 2.0, 3.0])


class TestValidation:
    def test_wrong_weight_rejected(self):
        with pytest.raises(ValueError):
            HomogPoly(2, 3, {(1, 1): 1.0})

    def test_zero_coeffs_pruned(self):
        p = HomogPoly(2, 2, {(2, 0): 0.0, (1, 1): 1.0})
        assert (2, 0) not in p.coeffs
