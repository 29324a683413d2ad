import itertools

import numpy as np
import pytest

from tensorbss.core import (
    DenseTensor,
    SymTensor,
    contract,
    frobenius_inner,
    greedy_match,
    mode_n_rank,
    mode_n_unfold,
    outer_product,
    rank1_sym,
    symmetrize,
    tucker_transform,
)
from tensorbss.indexing import (
    counts_from_axes,
    mindex_position,
    multi_indices,
    packing_positions,
)

rng = np.random.default_rng(20240811)


def contract_brute(a, b, p, q):
    """Index-level oracle for the contraction product (0-based loops)."""
    a, b = np.asarray(a), np.asarray(b)
    out_shape = a.shape[: p - 1] + a.shape[p:] + b.shape[: q - 1] + b.shape[q:]
    out = np.zeros(out_shape)
    for ia in itertools.product(*(range(n) for n in a.shape)):
        for ib in itertools.product(*(range(n) for n in b.shape)):
            if ia[p - 1] != ib[q - 1]:
                continue
            ra = ia[: p - 1] + ia[p:]
            rb = ib[: q - 1] + ib[q:]
            out[ra + rb] += a[ia] * b[ib]
    return out


def tucker_brute(t, mats):
    """Plain summation oracle for the multilinear transform."""
    t = np.asarray(t)
    out_shape = tuple(m.shape[0] for m in mats)
    out = np.zeros(out_shape)
    for oi in itertools.product(*(range(n) for n in out_shape)):
        for ii in itertools.product(*(range(n) for n in t.shape)):
            w = 1.0
            for m, o, i in zip(mats, oi, ii):
                w *= m[o, i]
            out[oi] += w * t[ii]
    return out


class TestOuterProduct:
    def test_unit_vectors(self):
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        m = outer_product(e1, e2).array
        assert m[0, 1] == 1.0 and np.sum(np.abs(m)) == 1.0

    def test_definition_expansion(self):
        m = outer_product([1.0, 2.0], [3.0, 4.0]).array
        np.testing.assert_allclose(m, [[3.0, 4.0], [6.0, 8.0]])

    def test_scalar_identity(self):
        t = rng.standard_normal((2, 3, 2))
        np.testing.assert_array_equal(outer_product(np.array(1.0), t).array, t)

    def test_order_adds(self):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((4,))
        assert outer_product(a, b).order == 3


class TestContract:
    def test_identity_times_vector(self):
        v = rng.standard_normal(4)
        np.testing.assert_allclose(contract(np.eye(4), v).array, v)

    def test_matrix_case_is_At_B(self):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 4))
        np.testing.assert_allclose(contract(a, b, 1, 1).array, a.T @ b, atol=1e-12)

    def test_triple_contraction_picks_entry(self):
        t = rng.standard_normal((3, 3, 3))
        w = np.array([1.0, 0.0, 0.0])
        out = contract(contract(contract(t, w), w), w).array
        assert out == pytest.approx(t[0, 0, 0])

    def test_matches_index_oracle(self):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((5, 3))
        got = contract(a, b, 2, 2).array
        np.testing.assert_allclose(got, contract_brute(a, b, 2, 2), atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cannot contract"):
            contract(np.zeros((2, 3)), np.zeros((4, 5)), 1, 1)


class TestTuckerTransform:
    def test_identity_matrices(self):
        t = rng.standard_normal((2, 3, 2))
        out = tucker_transform(t, [np.eye(2), np.eye(3), np.eye(2)]).array
        np.testing.assert_array_equal(out, t)

    def test_matrix_congruence(self):
        t = rng.standard_normal((3, 4))
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((5, 4))
        np.testing.assert_allclose(tucker_transform(t, [a, b]).array, a @ t @ b.T, atol=1e-12)

    def test_diagonal_order4_matches_summation_oracle(self):
        # C_ijkl = sum_p A_ip A_jp A_kp A_lp kappa_p
        n, p = 3, 2
        kappa = rng.standard_normal(p)
        diag = np.zeros((p,) * 4)
        for i in range(p):
            diag[i, i, i, i] = kappa[i]
        a = rng.standard_normal((n, p))
        got = tucker_transform(diag, [a] * 4).array
        expected = np.zeros((n,) * 4)
        for q in range(p):
            expected += kappa[q] * np.einsum("i,j,k,l->ijkl", a[:, q], a[:, q], a[:, q], a[:, q])
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(got, tucker_brute(diag, [a] * 4), atol=1e-12)

    def test_composition(self):
        t = rng.standard_normal((3, 3, 3))
        ms = [rng.standard_normal((3, 3)) for _ in range(3)]
        ns = [rng.standard_normal((3, 3)) for _ in range(3)]
        one = tucker_transform(tucker_transform(t, ms), ns).array
        two = tucker_transform(t, [n @ m for n, m in zip(ns, ms)]).array
        np.testing.assert_allclose(one, two, rtol=1e-12, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tucker_transform(np.zeros((2, 2)), [np.eye(3), np.eye(2)])


class TestUnfold:
    def test_order2(self):
        t = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(mode_n_unfold(t, 1), t)
        np.testing.assert_array_equal(mode_n_unfold(t, 2), t.T)

    def test_rank1_unfolding_is_rank1(self):
        a, b, c = rng.standard_normal(2), rng.standard_normal(3), rng.standard_normal(4)
        t = outer_product(outer_product(a, b), c)
        m = mode_n_unfold(t, 1)
        np.testing.assert_allclose(m, np.outer(a, np.multiply.outer(b, c).reshape(-1)), atol=1e-12)
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] <= 1e-10 * s[0]

    def test_222_binary_cubic_pattern(self):
        # entries at every permutation of axes (0, 0, 1); rows enumerated by
        # hand below agree with the lexicographic column convention
        t = np.zeros((2, 2, 2))
        t[0, 0, 1] = t[0, 1, 0] = t[1, 0, 0] = 1.0
        np.testing.assert_array_equal(mode_n_unfold(t, 1), [[0, 1, 1, 0], [1, 0, 0, 0]])

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="mode"):
            mode_n_unfold(np.zeros((2, 2)), 3)


class TestModeRank:
    def test_rank1(self):
        t = rank1_sym(rng.standard_normal(4), 3)
        assert all(mode_n_rank(t, n) == 1 for n in (1, 2, 3))

    def test_binary_cubic_has_mode_rank_2(self):
        t = np.zeros((2, 2, 2))
        t[0, 1, 1] = t[1, 0, 1] = t[1, 1, 0] = 1.0
        assert [mode_n_rank(t, n) for n in (1, 2, 3)] == [2, 2, 2]

    def test_zero(self):
        assert mode_n_rank(np.zeros((3, 3, 3)), 2) == 0


class TestFrobenius:
    def test_norm_positive(self):
        t = rng.standard_normal((2, 2, 2))
        assert frobenius_inner(t, t) >= 0
        assert frobenius_inner(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0

    def test_orthogonal_rank1(self):
        e1, e2 = np.eye(2)
        assert frobenius_inner(outer_product(e1, e1), outer_product(e2, e2)) == 0.0

    def test_rank1_factorization(self):
        u, v, w, z = (rng.standard_normal(3) for _ in range(4))
        lhs = frobenius_inner(outer_product(u, v), outer_product(w, z))
        assert lhs == pytest.approx(float(u @ w) * float(v @ z))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_inner(np.zeros((2, 2)), np.zeros(4))


class TestSymmetrize:
    def test_symmetric_input_unchanged(self):
        t = np.zeros((2, 2)) + np.diag([1.0, 2.0])
        t[0, 1] = t[1, 0] = 0.5
        np.testing.assert_allclose(symmetrize(t).expand().array, t)

    def test_e12_plus_e21(self):
        e1, e2 = np.eye(2)
        t = outer_product(e1, e2).array + outer_product(e2, e1).array
        np.testing.assert_allclose(symmetrize(t).expand().array, t)

    def test_expansion_permutation_invariant(self):
        t = rng.standard_normal((3, 3, 3))
        s = symmetrize(t).expand().array
        for perm in itertools.permutations(range(3)):
            np.testing.assert_allclose(np.transpose(s, perm), s, atol=1e-12)

    def test_idempotent(self):
        t = rng.standard_normal((3, 3, 3, 3))
        s1 = symmetrize(t)
        s2 = symmetrize(s1.expand().array)
        np.testing.assert_allclose(s1.packed, s2.packed, atol=1e-14)

    def test_unequal_dims_rejected(self):
        with pytest.raises(ValueError):
            symmetrize(np.zeros((2, 3)))


class TestSymTensor:
    def test_packed_length_enforced(self):
        with pytest.raises(ValueError, match="packed"):
            SymTensor(2, 3, np.zeros(5))

    def test_norm_matches_expansion(self):
        s = symmetrize(rng.standard_normal((4, 4, 4)))
        assert s.norm() == pytest.approx(np.linalg.norm(s.expand().array), rel=1e-12)

    def test_entry_access(self):
        s = symmetrize(rng.standard_normal((3, 3, 3)))
        full = s.expand().array
        assert s.entry(2, 0, 1) == pytest.approx(full[2, 0, 1])

    def test_from_dense_rejects_asymmetric(self):
        t = rng.standard_normal((3, 3, 3))
        with pytest.raises(ValueError, match="not symmetric"):
            SymTensor.from_dense(t)


class TestIndexTables:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("d", range(1, 5))
    def test_packing_positions_match_tuple_definition(self, n, d):
        pos = mindex_position(n, d)
        expected = [
            pos[counts_from_axes(idx, n)] for idx in itertools.product(range(n), repeat=d)
        ]
        np.testing.assert_array_equal(packing_positions(n, d), expected)


    @pytest.mark.parametrize("n", range(1, 7))
    def test_multi_indices_match_recursive_definition(self, n):
        def recursive(nvars, degree):
            if nvars == 1:
                return [(degree,)]
            return [
                (first,) + rest
                for first in range(degree, -1, -1)
                for rest in recursive(nvars - 1, degree - first)
            ]

        for d in range(6):
            assert multi_indices(n, d) == tuple(recursive(n, d))


def greedy_match_oracle(score):
    """Python ``max`` over the remaining (row, column) pairs in row-major order."""
    rows, cols = score.shape
    remaining = set(range(cols))
    match = [-1] * rows
    for _ in range(min(rows, cols)):
        r, c = max(
            ((r, c) for r in range(rows) if match[r] < 0 for c in sorted(remaining)),
            key=lambda rc: score[rc],
        )
        match[r] = c
        remaining.remove(c)
    return match


class TestGreedyMatch:
    def test_ties_go_to_first_in_row_major_order(self):
        score = np.array([[1.0, 2.0, 2.0], [2.0, 2.0, 1.0], [0.0, 2.0, 2.0]])
        assert greedy_match(score) == [1, 0, 2]

    def test_fewer_rows_than_columns(self):
        score = np.array([[0.1, 0.9, 0.9, 0.2], [0.3, 0.9, 0.4, 0.8]])
        assert greedy_match(score) == [1, 3]

    def test_fewer_columns_than_rows(self):
        score = np.array([[0.5, 0.1], [0.9, 0.7], [0.2, 0.8]])
        assert greedy_match(score) == [-1, 0, 1]

    def test_matches_oracle(self):
        r = np.random.default_rng(5)
        for trial in range(300):
            shape = tuple(int(v) for v in r.integers(1, 7, size=2))
            if trial % 2:
                score = r.integers(0, 3, size=shape).astype(float)  # many ties
            else:
                score = r.random(shape)
            assert greedy_match(score) == greedy_match_oracle(score)


class TestDenseTensor:
    def test_flat_roundtrip(self):
        t = DenseTensor.from_flat([2, 3], range(6))
        assert t.dims == (2, 3)
        np.testing.assert_array_equal(t.data, np.arange(6.0))

    def test_bad_flat_length(self):
        with pytest.raises(ValueError):
            DenseTensor.from_flat([2, 3], range(5))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor(np.array([np.nan, 1.0]))
