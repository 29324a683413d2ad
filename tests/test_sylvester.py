from math import comb

import numpy as np
import pytest

from tensorbss import sylvester
from tensorbss.sylvester import (
    DISTINCT_TOL,
    KERNEL_TOL,
    BinaryQuantic,
    NoDecompositionError,
    WaringDecomposition,
    cand_binary,
    generic_rank_binary,
    hankel_matrix,
    kernel_vectors,
    roots_of_q,
    solve_weights,
    _distinct,
    _kernel_candidates,
    _sparse_kernel,
)
from tensorbss.tables import generic_rank, orbit_class, orbit_polynomial

rng = np.random.default_rng(161803)

X2Y = BinaryQuantic(3, [0.0, 0.0, 1.0 / 3.0, 0.0])  # x^2 y
SUM_CUBES = BinaryQuantic(3, [1.0, 0.0, 0.0, 1.0])  # x^3 + y^3


def canonical_terms(terms, d):
    """Quotient a decomposition by term order for set-style comparison."""
    out = []
    for w, a, b in terms:
        out.append((complex(w), complex(a), complex(b)))
    return sorted(out, key=lambda t: (round(t[1].real, 6), round(t[1].imag, 6),
                                      round(t[2].real, 6), round(t[2].imag, 6)))


def assert_same_decomposition(terms1, terms2, d, tol=1e-8):
    t1, t2 = canonical_terms(terms1, d), canonical_terms(terms2, d)
    assert len(t1) == len(t2)
    for (w1, a1, b1), (w2, a2, b2) in zip(t1, t2):
        assert abs(w1 - w2) <= tol
        assert abs(a1 - a2) <= tol and abs(b1 - b2) <= tol


def random_decomposable(d, omega, seed):
    """Forward-constructed quantic with a known decomposition."""
    r = np.random.default_rng(seed)
    weights = r.standard_normal(omega)
    forms = r.standard_normal((omega, 2))
    gamma = np.zeros(d + 1)
    for w, (a, b) in zip(weights, forms):
        gamma += w * np.array([a**i * b ** (d - i) for i in range(d + 1)])
    return BinaryQuantic(d, gamma), weights, forms


class TestHankel:
    def test_sum_of_cubes(self):
        np.testing.assert_array_equal(
            hankel_matrix(SUM_CUBES, 2), [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        )

    def test_omega_one_shape(self):
        g = rng.standard_normal(4)
        p = BinaryQuantic(3, g)
        h = hankel_matrix(p, 1)
        np.testing.assert_array_equal(h, [[g[0], g[1]], [g[1], g[2]], [g[2], g[3]]])

    def test_omega_full_row(self):
        g = rng.standard_normal(4)
        h = hankel_matrix(BinaryQuantic(3, g), 3)
        np.testing.assert_array_equal(h, [g])

    def test_omega_out_of_range(self):
        with pytest.raises(ValueError):
            hankel_matrix(SUM_CUBES, 4)


class TestKernel:
    def test_sum_of_cubes_kernel(self):
        basis = kernel_vectors(hankel_matrix(SUM_CUBES, 2))
        assert basis.shape == (3, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [0.0, 1.0, 0.0], atol=1e-12)

    def test_generic_cubic_no_kernel_at_rank1(self):
        for seed in range(5):
            p = BinaryQuantic(3, np.random.default_rng(seed).standard_normal(4))
            assert kernel_vectors(hankel_matrix(p, 1)).shape[1] == 0

    def test_generic_odd_degree_unique_kernel(self):
        for d in (3, 5, 7):
            p = BinaryQuantic(d, rng.standard_normal(d + 1))
            basis = kernel_vectors(hankel_matrix(p, (d + 1) // 2))
            assert basis.shape[1] == 1

    def test_generic_even_degree_pencil(self):
        for d in (4, 6):
            p = BinaryQuantic(d, rng.standard_normal(d + 1))
            basis = kernel_vectors(hankel_matrix(p, d // 2 + 1))
            assert basis.shape[1] == 2


class TestRoots:
    def test_xy_kernel_vector(self):
        roots, distinct = roots_of_q([0.0, 1.0, 0.0])
        assert distinct
        pts = {(round(a.real, 9), round(b.real, 9)) for a, b in roots}
        assert pts == {(1.0, 0.0), (0.0, 1.0)}

    def test_double_root_flagged(self):
        # q = x^2: the point (0, 1) twice
        roots, distinct = roots_of_q([0.0, 0.0, 1.0])
        assert not distinct
        assert len(roots) == 2

    def test_root_order(self):
        # x = 0 roots first, then y = 0 roots, then the finite ones
        roots, distinct = roots_of_q([0.0, 0.0, 1.0, 1.0, 0.0])  # x^2 y (x + y)
        np.testing.assert_array_equal(roots, [[0, 1], [0, 1], [1, 0], [-1, 1]])
        assert roots.dtype == complex and not distinct

    def test_random_roots_annihilate_q(self):
        g = rng.standard_normal(4)
        roots, _ = roots_of_q(g)
        assert len(roots) == 3
        for a, b in roots:
            val = sum(g[l] * a**l * b ** (3 - l) for l in range(4))
            assert abs(val) <= 1e-10 * (1 + np.abs(g).max())

    def test_matches_np_roots(self):
        # the finite roots tau = x / y against numpy's own companion rooting;
        # zeros at the ends of g put roots at x = 0 and y = 0
        r = np.random.default_rng(271)
        for w in range(1, 10):
            for trial in range(20):
                g = r.standard_normal(w + 1)
                lo, top = (trial % 3, trial % 2) if w > 3 else (0, 0)
                g[:lo] = 0.0
                g[w + 1 - top :] = 0.0
                roots, _ = roots_of_q(g)
                assert len(roots) == w
                tau = np.sort_complex([a / b for a, b in roots if b != 0])
                expect = np.sort_complex(np.roots(g[::-1]))
                assert tau.size == expect.size == w - top
                assert np.abs(tau - expect).max() <= 1e-12 * (1.0 + np.abs(expect).max())

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            roots_of_q([0.0, 0.0])


class TestWeights:
    def test_sum_of_cubes(self):
        weights, res = solve_weights(SUM_CUBES, [(1.0, 0.0), (0.0, 1.0)])
        np.testing.assert_allclose(weights.real, [1.0, 1.0], atol=1e-12)
        assert res <= 1e-12

    def test_worked_example_weights(self):
        # 6 x^2 y decomposes over (1,1), (-1,1), (0,1) with weights (1, 1, -2)
        p = BinaryQuantic(3, [0.0, 0.0, 2.0, 0.0])
        weights, res = solve_weights(p, [(1.0, 1.0), (-1.0, 1.0), (0.0, 1.0)])
        np.testing.assert_allclose(weights.real, [1.0, 1.0, -2.0], atol=1e-10)
        assert res <= 1e-12

    def test_forward_construction_recovered(self):
        p, weights, forms = random_decomposable(5, 3, seed=42)
        got, res = solve_weights(p, [tuple(f) for f in forms])
        np.testing.assert_allclose(got.real, weights, atol=1e-10)
        assert res <= 1e-10

    def test_proportional_forms_rejected(self):
        with pytest.raises(ValueError, match="proportional"):
            solve_weights(SUM_CUBES, [(1.0, 1.0), (2.0, 2.0)])

    def test_zero_form_has_zero_weights(self):
        # no coefficient to divide by: the weights are zero, with no warning
        weights, res = solve_weights(BinaryQuantic(3, np.zeros(4)), [(1.0, 0.0), (0.0, 1.0)])
        assert weights.tolist() == [0.0, 0.0] and res == 0.0


class TestCandBinary:
    def test_pure_power(self):
        dec = cand_binary(BinaryQuantic(3, [0.0, 0.0, 0.0, 1.0]))
        assert dec.rank == 1
        assert dec.field == "real"

    def test_sum_of_cubes_rank2(self):
        dec = cand_binary(SUM_CUBES)
        assert dec.rank == 2
        assert_same_decomposition(
            dec.terms, [(1.0, 1.0, 0.0), (1.0, 0.0, 1.0)], d=3
        )

    def test_x2y_worked_example(self):
        dec = cand_binary(X2Y)
        assert dec.rank == 3 and dec.field == "real"
        # the classical identity 6 x^2 y = (x+y)^3 + (-x+y)^3 - 2 y^3, scaled
        # by 1/6 and normalized (signs absorbed into weights)
        expected = [
            (1.0 / 6.0, 1.0, 1.0),
            (-1.0 / 6.0, 1.0, -1.0),
            (-1.0 / 3.0, 0.0, 1.0),
        ]
        assert_same_decomposition(dec.terms, expected, d=3, tol=1e-10)
        assert dec.residual <= 1e-10

    def test_x2y_rank2_rejected_by_double_root(self):
        basis = kernel_vectors(hankel_matrix(X2Y, 2))
        assert basis.shape[1] == 1
        _, distinct = roots_of_q(basis[:, 0])
        assert not distinct

    def test_reconstruction_residual(self):
        for seed in range(10):
            p = BinaryQuantic(4, np.random.default_rng(seed).standard_normal(5))
            dec = cand_binary(p)
            rec = dec.reconstruct()
            assert np.linalg.norm(rec - p.gamma) <= 1e-8 * np.linalg.norm(p.gamma)

    def test_minimality_small_degrees(self):
        # the rank below the returned one admits no distinct-root kernel vector
        for seed in range(10):
            d = 3 + seed % 3
            p = BinaryQuantic(d, np.random.default_rng(seed + 100).standard_normal(d + 1))
            dec = cand_binary(p)
            if dec.rank == 1:
                continue
            h = hankel_matrix(p, dec.rank - 1)
            basis = kernel_vectors(h)
            for k in range(basis.shape[1]):
                _, distinct = roots_of_q(basis[:, k])
                assert not distinct

    def test_generic_ranks_sampled(self):
        r = np.random.default_rng(7)
        for d in (3, 4, 5, 6, 7):
            expected = generic_rank_binary(d)[0]
            for _ in range(20):
                dec = cand_binary(BinaryQuantic(d, r.standard_normal(d + 1)))
                assert dec.rank == expected

    def test_generic_rank_with_a_far_root(self):
        # the kernel polynomial has a root with |tau| about 50; unscaled forms
        # made the weight system look rank deficient and the rank came out 6
        p = BinaryQuantic(9, np.random.default_rng([0, 9]).standard_normal(10))
        dec = cand_binary(p)
        assert dec.rank == generic_rank_binary(9)[0]
        assert dec.residual <= 1e-8
        assert np.linalg.norm(dec.reconstruct() - p.gamma) <= 1e-8 * np.linalg.norm(p.gamma)

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError, match="zero form"):
            cand_binary(BinaryQuantic(2, [0.0, 0.0, 0.0]))

    def test_degree_one(self):
        dec = cand_binary(BinaryQuantic(1, [2.0, 3.0]))
        assert dec.rank == 1
        np.testing.assert_allclose(dec.reconstruct(), [2.0, 3.0], atol=1e-12)

    def test_sum_of_fourth_powers_is_real(self):
        dec = cand_binary(BinaryQuantic(4, [1.0, 0.0, 0.0, 0.0, 1.0]))  # x^4 + y^4
        assert dec.rank == 2 and dec.field == "real"
        assert_same_decomposition(dec.terms, [(1.0, 1.0, 0.0), (1.0, 0.0, 1.0)], d=4)

    def test_complex_field_recorded(self):
        # x^3 - 3 x y^2 = Re((x + iy)^3) needs the conjugate forms (1, +-i)
        dec = cand_binary(BinaryQuantic(3, [0.0, -1.0, 0.0, 1.0]))
        assert dec.rank == 2 and dec.field == "complex"
        assert_same_decomposition(dec.terms, [(0.5, 1.0, 1j), (0.5, 1.0, -1j)], d=3, tol=1e-12)
        np.testing.assert_allclose(dec.reconstruct(), [0.0, -1.0, 0.0, 1.0], atol=1e-12)

    def test_non_finite_coefficients_refused(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                BinaryQuantic(3, [bad, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("k", [-990, -300, 300, 1020])
    def test_far_scales_decompose_as_the_unit_scale(self, k):
        # the weight solve divides by a power of two, which is exact
        gamma = np.array([1.0, -3.0, 2.0, 0.5])
        ref = cand_binary(BinaryQuantic(3, gamma))
        dec = cand_binary(BinaryQuantic(3, np.ldexp(gamma, k)))
        assert (dec.rank, dec.field) == (ref.rank, ref.field)
        assert dec.residual <= 1e-8
        for (w, a, b), (w0, a0, b0) in zip(dec.terms, ref.terms):
            assert abs(a - a0) <= 1e-15 and abs(b - b0) <= 1e-15
            assert abs(w - w0 * 2.0**k) <= 1e-14 * abs(w0 * 2.0**k)

    @pytest.mark.parametrize("k", [1000, 1010])
    def test_split_root_candidate_near_the_float_range_is_refused(self, k):
        # the rank-2 candidate of -3 (x + y)^2 y has weights about 1.9e7 max|gamma|, which
        # overflow here; the cancellation ratio, not the overflow, must reject it
        gamma = np.ldexp(np.array([-3.0, -2.0, -1.0, 0.0]), k)
        dec = cand_binary(BinaryQuantic(3, gamma))
        assert (dec.rank, dec.field) == (3, "real") and dec.residual <= 1e-8
        assert max(abs(w) for w, _, _ in dec.terms) <= 1.1 * np.abs(gamma).max()

    def test_weights_beyond_the_float_range_refused(self):
        # nearly proportional forms: the weights are about 3e310
        forms = [(1.0, 1.0), (1.0, 1.001)]
        diff = np.array([1.0 - 1.001 ** (3 - i) for i in range(4)])  # x^i y^(3-i) per form
        p = BinaryQuantic(3, 1e308 * diff / np.abs(diff).max())
        with pytest.raises(ValueError, match="overflow the float range"):
            solve_weights(p, forms)
        with pytest.raises(ValueError, match="overflow the float range"):
            cand_binary(p)


def shear(gamma):
    """Coefficients of ``p(x + y, y)``, through the monomial coefficients ``gamma_i C(d, i)``."""
    d = len(gamma) - 1
    binom = np.array([comb(d, i) for i in range(d + 1)], dtype=float)
    c = np.asarray(gamma, dtype=float) * binom
    return np.array([sum(comb(i, j) * c[i] for i in range(j, d + 1)) for j in range(d + 1)]) / binom


CHANGES_OF_VARIABLES = {
    "x <-> y": lambda g: g[::-1].copy(),
    "y -> -y": lambda g: g * (-1.0) ** np.arange(len(g) - 1, -1, -1),
    "x -> x + y": shear,
}


class TestCatalecticantRank:
    def test_rank_invariant_under_exact_changes_of_variables(self):
        # a split double root of the generator gave a lower, border-rank answer
        r = np.random.default_rng(2009)
        moved = []
        for d in range(2, 10):
            for _ in range(20):
                g = r.integers(-1, 2, size=d + 1).astype(float)
                if not g.any():
                    continue
                rank = cand_binary(BinaryQuantic(d, g)).rank
                for name, change in CHANGES_OF_VARIABLES.items():
                    if cand_binary(BinaryQuantic(d, change(g))).rank != rank:
                        moved.append((name, g.tolist()))
        assert moved == []

    def test_monomial_ranks_in_own_and_sheared_coordinates(self):
        wrong = []
        for d in range(2, 10):
            for a in range(1, d):
                g = np.zeros(d + 1)
                g[a] = 1.0 / comb(d, a)  # x^a y^(d-a)
                for coords, gamma in (("own", g), ("sheared", shear(g))):
                    if cand_binary(BinaryQuantic(d, gamma)).rank != max(a, d - a) + 1:
                        wrong.append((d, a, coords))
        assert wrong == []

    def test_sheared_x2y_is_real_rank_3(self):
        dec = cand_binary(BinaryQuantic(3, [-3.0, -2.0, -1.0, 0.0]))  # -3 (x + y)^2 y
        assert dec.rank == 3 and dec.field == "real"
        assert max(abs(w) for w, _, _ in dec.terms) <= 10.0
        assert dec.residual <= 1e-8

    @pytest.fixture
    def kernel_shapes(self, monkeypatch):
        shapes = []
        monkeypatch.setattr(sylvester, "kernel_vectors",
                            lambda h: shapes.append(h.shape) or kernel_vectors(h))
        return shapes

    def test_at_most_two_kernels(self, kernel_shapes):
        dec = cand_binary(BinaryQuantic(12, np.random.default_rng(12).standard_normal(13)))
        assert dec.rank == generic_rank_binary(12)[0]
        assert len(kernel_shapes) <= 2

    def test_second_rank_when_the_generator_is_not_squarefree(self, kernel_shapes):
        # x^2 y: border rank 2, generator y^2; the rank is d - r + 2 = 3
        assert cand_binary(X2Y).rank == 3
        assert kernel_shapes == [(2, 3), (1, 4)]


def rref_nullspace(h):
    """Sparse kernel basis by Gauss-Jordan elimination, pivots cut at KERNEL_TOL * max|h|."""
    m = np.array(h, dtype=float)
    rows, cols = m.shape
    scale = np.abs(m).max(initial=0.0)
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


def chordal_distinct(forms):
    """Pairwise non-proportionality, one chordal distance per pair."""
    def chordal(f1, f2):
        (a1, b1), (a2, b2) = f1, f2
        num = abs(a1 * b2 - a2 * b1)
        return num / (np.hypot(abs(a1), abs(b1)) * np.hypot(abs(a2), abs(b2)))

    forms = [(complex(a), complex(b)) for a, b in forms]
    return all(
        chordal(forms[i], forms[j]) > DISTINCT_TOL
        for i in range(len(forms))
        for j in range(i + 1, len(forms))
    )


def integer_quantics(count=60):
    r = np.random.default_rng(2718)
    for k in range(count):
        d = 4 + k % 7
        g = r.integers(-1, 2, size=d + 1).astype(float)
        if np.any(g):
            yield BinaryQuantic(d, g)


class TestOracles:
    def test_sparse_kernel_matches_elimination(self):
        checked = 0
        for p in integer_quantics():
            for omega in range(1, p.degree + 1):
                h = hankel_matrix(p, omega)
                dim = kernel_vectors(h).shape[1]
                if dim < 3:
                    continue
                sparse = _sparse_kernel(h, dim)
                assert sparse is not None
                np.testing.assert_allclose(sparse, rref_nullspace(h), rtol=0, atol=1e-11)
                checked += 1
        assert checked >= 100

    def test_distinct_matches_pairwise_loop(self):
        flags = []
        for p in integer_quantics():
            for omega in range(1, p.degree + 1):
                h = hankel_matrix(p, omega)
                basis = kernel_vectors(h)
                if basis.shape[1] == 0:
                    continue
                for g in _kernel_candidates(h, basis)[:40]:
                    roots, distinct = roots_of_q(g)
                    assert distinct == chordal_distinct(roots)
                    flags.append(distinct)
        assert any(flags) and not all(flags)

    def test_distinct_at_the_tolerance(self):
        r = np.random.default_rng(5)
        for _ in range(200):
            forms = r.standard_normal((4, 2)) + 1j * r.standard_normal((4, 2)) * (r.random() < 0.5)
            forms[3] = forms[0] * (2.0 + 1e-8 * r.standard_normal(2))  # within about DISTINCT_TOL
            assert _distinct(forms) == chordal_distinct(forms)


class TestGenericRankBinary:
    def test_values(self):
        assert generic_rank_binary(3) == (2, 1)
        assert generic_rank_binary(4) == (3, 2)
        assert generic_rank_binary(7) == (4, 1)

    def test_agrees_with_rank_table(self):
        for d in (3, 4):
            assert generic_rank_binary(d)[0] == generic_rank(d, 2)


class TestOrbitCrossChecks:
    def test_tabulated_binary_ranks_via_cand(self):
        for label in ("x^3", "x^3+y^3", "x^2y"):
            o = orbit_class(label, nvars=2)
            p = BinaryQuantic.from_poly(orbit_polynomial(label, nvars=2))
            assert cand_binary(p).rank == o.rank


class TestQuanticType:
    def test_poly_roundtrip(self):
        p = BinaryQuantic(4, rng.standard_normal(5))
        back = BinaryQuantic.from_poly(p.to_poly())
        np.testing.assert_allclose(back.gamma, p.gamma, atol=1e-14)

    def test_evaluation(self):
        # 6 x^2 y at (1, 2): gamma = [0, 0, 2, 0]
        p = BinaryQuantic(3, [0.0, 0.0, 2.0, 0.0])
        assert p(1.0, 2.0) == pytest.approx(12.0)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            BinaryQuantic(3, [1.0, 2.0])
