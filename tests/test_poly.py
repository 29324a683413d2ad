import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorbss.core import outer_product, symmetrize
from tensorbss.indexing import count_index, multi_indices
from tensorbss.poly import (
    HomogPoly,
    apolar_inner,
    evaluate,
    linear_form_power,
    monomial,
    multiplicity,
    poly_multiply,
    poly_to_tensor,
    tensor_to_poly,
)

rng = np.random.default_rng(7)


def random_poly(nvars, degree, seed):
    r = np.random.default_rng(seed)
    coeffs = {j: float(r.standard_normal()) for j in multi_indices(nvars, degree)}
    return HomogPoly(nvars, degree, coeffs)


class TestIndexMap:
    def test_paper_example(self):
        assert count_index([1, 1, 4], 4) == (2, 0, 0, 1)

    def test_single(self):
        assert count_index([2], 3) == (0, 1, 0)

    def test_permutation_free(self):
        assert count_index([3, 1, 2, 1], 4) == count_index([1, 1, 2, 3], 4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            count_index([0, 1], 3)
        with pytest.raises(ValueError):
            count_index([4], 3)


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
        p = tensor_to_poly(symmetrize(t))
        assert p.coeffs == {(1, 2): 1.0}
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
            back = poly_to_tensor(tensor_to_poly(g))
            np.testing.assert_array_equal(back.packed, g.packed)

    def test_poly_roundtrip(self):
        p = random_poly(3, 3, 11)
        q = tensor_to_poly(poly_to_tensor(p))
        assert q.coeffs == p.coeffs


class TestMultiply:
    def test_x_times_y(self):
        x = HomogPoly(2, 1, {(1, 0): 1.0})
        y = HomogPoly(2, 1, {(0, 1): 1.0})
        xy = poly_multiply(x, y)
        assert xy.degree == 2
        # x*y = gamma * c([1,1]) * xy with c = 2
        assert xy.gamma([1, 1]) == pytest.approx(0.5)
        assert evaluate(xy, [3.0, 5.0]) == pytest.approx(15.0)

    def test_difference_of_squares(self):
        xp = HomogPoly(2, 1, {(1, 0): 1.0, (0, 1): 1.0})
        xm = HomogPoly(2, 1, {(1, 0): 1.0, (0, 1): -1.0})
        prod = poly_multiply(xp, xm)
        assert prod.gamma([2, 0]) == pytest.approx(1.0)
        assert prod.gamma([0, 2]) == pytest.approx(-1.0)
        assert prod.gamma([1, 1]) == pytest.approx(0.0)

    def test_pointwise_oracle(self):
        p = random_poly(3, 2, 21)
        q = random_poly(3, 3, 22)
        prod = poly_multiply(p, q)
        pts = rng.uniform(-2, 2, size=(20, 3))
        for x in pts:
            assert evaluate(prod, x) == pytest.approx(evaluate(p, x) * evaluate(q, x), rel=1e-10)

    def test_matches_outer_symmetrize(self):
        p = random_poly(2, 2, 31)
        q = random_poly(2, 1, 32)
        lhs = poly_to_tensor(poly_multiply(p, q)).packed
        rhs = symmetrize(
            outer_product(poly_to_tensor(p).expand(), poly_to_tensor(q).expand())
        ).packed
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_nvars_mismatch(self):
        with pytest.raises(ValueError):
            poly_multiply(random_poly(2, 1, 1), random_poly(3, 1, 2))


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
        from tensorbss.core import frobenius_inner

        p = random_poly(3, 3, 51)
        q = random_poly(3, 3, 52)
        lhs = apolar_inner(p, q)
        rhs = frobenius_inner(poly_to_tensor(p).expand(), poly_to_tensor(q).expand())
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
