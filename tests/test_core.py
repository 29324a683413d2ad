import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from tensorbss import core, indexing
from tensorbss.core import (
    DenseTensor,
    SymTensor,
    contract,
    frobenius_inner,
    greedy_match,
    leading_left_vectors,
    mode_n_rank,
    mode_n_unfold,
    outer_product,
    rank1_sym,
    symmetrize,
    tucker_transform,
)
from tensorbss.indexing import (
    multi_indices,
    multiplicities,
    packed_index,
    packed_length,
    packing_positions,
    sorted_axes,
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

    # its own generator: drawing from rng at collection would move every later test's draws
    edge = np.random.default_rng(2009)

    @pytest.mark.parametrize("t, mats", [
        (np.array(2.0), []),
        (edge.standard_normal(3), [edge.standard_normal((4, 3))]),
        (edge.standard_normal((1, 3, 1)), [edge.standard_normal((2, 1)), np.eye(3), np.ones((1, 1))]),
        (np.zeros((0, 3)), [np.zeros((2, 0)), np.eye(3)]),
        (edge.standard_normal((2, 3)), [np.zeros((0, 2)), np.eye(3)]),
        (edge.standard_normal((2, 3, 4)), [edge.standard_normal((3, 2)), edge.standard_normal((1, 3)),
                                           edge.standard_normal((5, 4))]),
    ], ids=["order0", "order1", "size1", "empty-in", "empty-out", "non-square"])
    def test_edges_match_summation_oracle(self, t, mats):
        # a reshape to (n, -1) is ambiguous when an axis has size 0
        got = tucker_transform(t, mats).array
        assert got.shape == tuple(m.shape[0] for m in mats)
        np.testing.assert_allclose(got, tucker_brute(t, mats), rtol=0, atol=1e-12)

    def test_tensor_inputs_match_summation_oracle(self):
        sym = symmetrize(self.edge.standard_normal((3, 3, 3)))
        mats = [self.edge.standard_normal((2, 3)) for _ in range(3)]
        expected = tucker_brute(sym.expand().array, mats)
        for t in (sym, sym.expand()):
            np.testing.assert_allclose(tucker_transform(t, mats).array, expected, atol=1e-12)


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


class TestLeadingLeftVectors:
    @pytest.mark.parametrize("rows, cols", [(6, 40), (6, 4), (1, 9), (5, 1)])
    def test_matches_full_svd(self, rows, cols):
        r = np.random.default_rng(rows * 100 + cols)
        # singular values 1, 1/2, ..., and one below the usable rule when there is room
        s = 0.5 ** np.arange(min(rows, cols))
        s[3:] = 1e-13
        q1 = np.linalg.qr(r.standard_normal((rows, s.size)))[0]
        q2 = np.linalg.qr(r.standard_normal((cols, s.size)))[0]
        mat = (q1 * s) @ q2.T
        usable = int(np.sum(s > 1e-12))
        for k in range(1, 6):
            u = leading_left_vectors(mat, k)
            ref = np.linalg.svd(mat, full_matrices=False)[0][:, : min(k, usable)]
            assert u.shape == ref.shape
            np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), rtol=0, atol=1e-12)
            for j in range(u.shape[1]):  # distinct singular values: one vector each, up to sign
                np.testing.assert_allclose(np.outer(u[:, j], u[:, j]),
                                           np.outer(ref[:, j], ref[:, j]), rtol=0, atol=1e-12)

    def test_zero_matrix_has_none(self):
        assert leading_left_vectors(np.zeros((3, 8)), 2).shape == (3, 0)


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

    @pytest.mark.parametrize("n,d", [(4, 3), (16, 4), (7, 2)])
    def test_divides_by_the_counted_tuples(self, n, d):
        # the multiplicities are exactly the tuple counts, so dividing by
        # them gives the bytes of dividing by a count of the positions
        t = np.random.default_rng(n + d).standard_normal((n,) * d)
        pos, size = packing_positions(n, d), packed_length(n, d)
        counts = np.bincount(pos, minlength=size)
        np.testing.assert_array_equal(multiplicities(n, d), counts)
        expected = np.bincount(pos, weights=t.reshape(-1), minlength=size) / counts
        assert symmetrize(t).packed.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_bytes_of_bincount_on_plain_and_read_only_input(self, d):
        n = 9 - d
        x = np.random.default_rng(d).standard_normal((n,) * d)
        pos, size = packing_positions(n, d), packed_length(n, d)
        expected = np.bincount(pos, x.ravel(), size) / multiplicities(n, d)
        for t in (x, DenseTensor(x)):
            assert symmetrize(t).packed.tobytes() == expected.tobytes()

    def test_read_only_input_is_not_copied(self):
        # np.bincount copies a read-only argument: the cached positions and
        # the DenseTensor's array, two n^d arrays
        n, d = 16, 4
        x = DenseTensor(np.random.default_rng(7).standard_normal((n,) * d))
        symmetrize(x)  # caches packing_positions(n, d)
        tracemalloc.start()
        try:
            symmetrize(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * n**d * 8


class TestSymTensor:
    def test_packed_length_enforced(self):
        with pytest.raises(ValueError, match="packed"):
            SymTensor(2, 3, np.zeros(5))

    def test_huge_dim_and_order_refused_from_cheap_bounds(self):
        # the exact length, comb(2 * 10**5 - 1, 10**5), has 60206 digits
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="packed") as info:
            SymTensor(10**5, 10**5, np.zeros(1))
        assert time.perf_counter() - t0 < 0.1
        assert len(str(info.value)) < 200

    def test_length_refused_before_its_binomial(self, monkeypatch):
        # comb(199999, 100000) has 60205 digits and took most of a second
        def refuse(*args):
            raise AssertionError("the exact packed length was computed")

        monkeypatch.setattr(core, "packed_length", refuse)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="packed storage of shape") as info:
            SymTensor(10**5, 10**5, np.zeros(10**5 + 1))
        assert time.perf_counter() - t0 < 0.1
        assert str(info.value) == (
            "packed storage of shape (100001,) does not fit dimension 100000 and order 100000"
        )

    def test_dimension_one_has_one_entry_at_any_order(self):
        assert SymTensor(1, 10**9, [2.5]).packed.tolist() == [2.5]
        assert SymTensor(1, 10**9, [2.5]).norm() == 2.5

    def test_norm_matches_expansion(self):
        s = symmetrize(rng.standard_normal((4, 4, 4)))
        assert s.norm() == pytest.approx(np.linalg.norm(s.expand().array), rel=1e-12)

    def test_entry_access(self):
        s = symmetrize(rng.standard_normal((3, 3, 3)))
        full = s.expand().array
        assert s.entry(2, 0, 1) == pytest.approx(full[2, 0, 1])

    def test_entry_reads_every_index_tuple(self):
        s = symmetrize(rng.standard_normal((3, 3, 3, 3)))
        full = s.expand().array
        for idx in itertools.product(range(-3, 3), repeat=4):
            assert s.entry(*idx) == full[idx]

    @pytest.mark.parametrize("idx", [(0, 1), (0, 1, 2, 0), (0, 3, 1), (-4, 0, 0)])
    def test_entry_rejects_bad_indices(self, idx):
        with pytest.raises(IndexError):
            symmetrize(rng.standard_normal((3, 3, 3))).entry(*idx)

    def test_from_dense_rejects_asymmetric(self):
        t = rng.standard_normal((3, 3, 3))
        with pytest.raises(ValueError, match="not symmetric"):
            SymTensor.from_dense(t)


class TestIndexTables:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("d", range(1, 5))
    def test_packing_positions_match_tuple_definition(self, n, d):
        pos = {j: p for p, j in enumerate(multi_indices(n, d))}
        expected = [
            pos[tuple(np.bincount(idx, minlength=n).tolist())]
            for idx in itertools.product(range(n), repeat=d)
        ]
        np.testing.assert_array_equal(packing_positions(n, d), expected)

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("d", range(1, 6))
    def test_packed_index_is_the_sorted_axes_row(self, n, d):
        rows = sorted_axes(n, d)
        np.testing.assert_array_equal(packed_index(rows, n), np.arange(len(rows)))
        for slot, row in enumerate(rows.tolist()):
            assert packed_index(row, n) == slot

    def test_packed_index_builds_nothing_dense(self):
        n = 10**4
        tracemalloc.start()
        try:
            slot = packed_index((n - 1,) * 4, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert slot == packed_length(n, 4) - 1
        assert peak < 10**6  # a few length-n tables; n^4 would be 10^16 entries


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

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("d", range(6))
    def test_multi_indices_count_the_sorted_axes(self, n, d):
        # the definition, counted here independently of multi_indices: the
        # axis counts of each sorted_axes row
        axes = sorted_axes(n, d)
        counts = np.zeros((len(axes), n), dtype=np.intp)
        np.add.at(counts, (np.arange(len(axes))[:, None], axes), 1)
        assert multi_indices(n, d) == tuple(map(tuple, counts.tolist()))

    @pytest.mark.parametrize(
        "d,n",
        # past 2^53, where an int64 or float running product is no longer exact
        [*itertools.product(range(7), range(1, 7)), (60, 2), (62, 2), (70, 2), (25, 3)],
    )
    def test_multiplicities_match_factorials(self, n, d):
        expected = [
            math.factorial(d) / math.prod(math.factorial(v) for v in j)
            for j in multi_indices(n, d)
        ]
        assert multiplicities(n, d).tolist() == expected

    def test_tables_peak_near_their_own_size(self):
        # built with the caches cleared; nothing O(n^(d+1)) or d x n^d is held
        n, d = 32, 4
        for f in vars(indexing).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
        peaks = []
        for build in (lambda: (sorted_axes(n, d), multiplicities(n, d)),
                      lambda: packing_positions(n, d)):
            tracemalloc.start()
            try:
                build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 5 * sorted_axes(n, d).nbytes
        assert peaks[1] <= 2 * packing_positions(n, d).nbytes

    def test_one_variable_at_a_huge_degree_is_one_count(self):
        t0 = time.perf_counter()
        assert multi_indices(1, 10**9) == ((10**9,),)
        assert time.perf_counter() - t0 < 0.1

    @pytest.mark.parametrize("table", [multi_indices, sorted_axes, multiplicities])
    @pytest.mark.parametrize("nvars", [0, -1])
    def test_no_variables_refused(self, table, nvars):
        with pytest.raises(ValueError, match="nvars"):
            table(nvars, 3)


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


def mixed_trim_rows(seed):
    """Degree-5 rows: full degree, trimmed by 1 and by 2, a 1e-20 top coefficient, all zero."""
    r = np.random.default_rng(seed)
    rows = r.standard_normal((18, 6))
    rows[6:10, -1] = 0.0
    rows[10:14, -2:] = 0.0
    rows[14:16, -1] = 1e-20
    rows[16:] = 0.0
    return rows, [0] * 6 + [1] * 4 + [2] * 4 + [1] * 2 + [5] * 2


def poly_roots_oracle(rows):
    """``core.poly_roots`` as a recursion on the rows whose top coefficient trims: a frozen copy."""
    c = np.asarray(rows, dtype=float)
    m, deg = c.shape[0], c.shape[1] - 1
    if deg < 1:
        return np.empty((m, 0), dtype=complex)
    mag = np.abs(c)
    trimmed = mag[:, -1] <= 1e-14 * mag.max(axis=1)
    if trimmed.all():
        return np.c_[poly_roots_oracle(c[:, :-1]), np.full(m, np.nan)]
    comp = np.zeros((m, deg, deg))
    comp.reshape(m, -1)[:, deg :: deg + 1] = 1.0
    comp[:, :, -1] = c[:, :-1] / -np.where(trimmed, 1.0, c[:, -1])[:, None]
    roots = np.sort(np.linalg.eigvals(comp), axis=1).astype(complex, copy=False)
    if trimmed.any():
        roots[trimmed, -1] = np.nan
        roots[trimmed, :-1] = poly_roots_oracle(c[trimmed, :-1])
    return roots


class TestPolyRoots:
    def test_rows_independent_of_batch(self):
        rows, trims = mixed_trim_rows(31)
        order = np.random.default_rng(32).permutation(len(rows))
        batch = core.poly_roots(rows[order])
        assert batch.shape == (len(rows), 5) and batch.dtype == complex
        for row, roots, trim in zip(rows[order], batch, np.array(trims)[order]):
            assert roots.tobytes() == core.poly_roots(row[None])[0].tobytes()
            assert np.isnan(roots).tolist() == [False] * (5 - trim) + [True] * trim

    @pytest.mark.parametrize("seed", range(3))
    def test_byte_identical_to_the_recursive_oracle(self, seed):
        rows, _ = mixed_trim_rows(seed)  # none, 1 and 2 trimmed, a 1e-20 top, all zero
        constant = np.zeros((2, 6))
        constant[:, 0] = [2.5, -1.0]  # every top coefficient trims, down to the constant
        r = np.random.default_rng(seed)
        cases = [rows, rows[:6], rows[6:10], rows[10:14], rows[14:16], rows[16:], constant,
                 np.vstack([rows, constant]), rows[:, :1], rows[:, :2]]
        cases += [rows[r.choice(len(rows), size=int(r.integers(1, 8)))] for _ in range(20)]
        for c in cases:
            roots, ref = core.poly_roots(c), poly_roots_oracle(c)
            assert roots.shape == ref.shape and roots.dtype == ref.dtype
            assert roots.tobytes() == ref.tobytes()

    def test_roots_rebuild_the_polynomial(self):
        rows, trims = mixed_trim_rows(33)
        for row, roots, trim in zip(rows, core.poly_roots(rows), trims):
            if trim == 5:
                continue
            kept = row[: row.size - trim]
            rebuilt = kept[-1] * np.polynomial.polynomial.polyfromroots(roots[: kept.size - 1])
            np.testing.assert_allclose(rebuilt, kept, rtol=0, atol=1e-10 * np.abs(kept).max())

    def test_one_eigvals_call_per_degree_after_trimming(self, monkeypatch):
        rows, _ = mixed_trim_rows(34)
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        core.poly_roots(rows[:6])
        assert calls == [(6, 5, 5)]
        calls.clear()
        core.poly_roots(rows[:16])
        assert calls == [(6, 5, 5), (6, 4, 4), (4, 3, 3)]  # only the rows of each degree
        calls.clear()
        core.poly_roots(rows[10:11])  # a degree where every row trims makes no call
        core.poly_roots(rows[16:])
        assert calls == [(1, 3, 3)]

    def test_real_roots_and_degenerate_rows(self):
        # (x - 1)(x + 2)(x^2 + 1): two real roots, sorted; a 1e-20 top is trimmed
        np.testing.assert_allclose(core.real_roots([-2.0, 1.0, -1.0, 1.0, 1.0, 1e-20]), [-2.0, 1.0])
        assert core.real_roots([0.0, 0.0]).size == 0
        assert core.real_roots([3.0]).size == 0
        assert core.poly_roots(np.zeros((3, 1))).shape == (3, 0)
        roots = np.array([np.nan, 1.0 + 1e-8j, 1.0 + 3e-8j, np.nan + 0j])
        assert core.is_real(roots).tolist() == [False, True, False, False]


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
