import itertools
import re
import tracemalloc
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorbss.core import tucker_transform
from tensorbss.cumulants import BLOCK_ROWS, _packed_moment, as_samples, cumulant_tensor
from tensorbss.indexing import packed_index, sorted_axes

rng = np.random.default_rng(99)


def kurtosis_oracle(x):
    """Marginal fourth cumulant from raw sample moments (independent route)."""
    x = x - x.mean()
    return np.mean(x**4) - 3 * np.mean(x**2) ** 2


def einsum_moment(x, d):
    """Mean over rows of the d-fold outer products, summed by einsum."""
    subs = "ijkl"[:d]
    return np.einsum(",".join("n" + c for c in subs) + "->" + subs, *[x] * d) / len(x)


def einsum_cumulant(z, d):
    """Plug-in cumulant of order d from centered einsum moments (pairing formula at 4)."""
    if d == 1:
        return z.mean(axis=0)
    x = z - z.mean(axis=0)
    out = einsum_moment(x, d)
    if d == 4:
        m2 = einsum_moment(x, 2)
        for pairing in ("ij,kl->ijkl", "ik,jl->ijkl", "il,jk->ijkl"):
            out = out - np.einsum(pairing, m2, m2)
    return out


def offdiag_ratio(c):
    """Norm fraction carried by the off-diagonal entries of a symmetric tensor."""
    full = c.expand().array
    diag = full[(np.arange(full.shape[0]),) * full.ndim]
    total = np.linalg.norm(full)
    return np.sqrt(max(total**2 - np.sum(diag**2), 0.0)) / total


def assert_close_to_oracle(actual, oracle):
    # rtol 1e-12 against the largest entry: cumulant entries that cancel to
    # near zero carry the rounding of the whole sum
    np.testing.assert_allclose(actual, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max())


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize(
    "nsamples",
    [1, 7, BLOCK_ROWS, 2 * BLOCK_ROWS + 37],
    ids=["one", "under-a-block", "one-block", "tail-block"],
)
def test_blocked_kernel_matches_einsum(n, nsamples):
    r = np.random.default_rng([n, nsamples])
    z = r.exponential(size=(nsamples, n)) + r.standard_normal(n)
    for d in range(1, 5):
        if d == 1 or nsamples >= 2:
            assert_close_to_oracle(cumulant_tensor(z, d).expand().array, einsum_cumulant(z, d))


def column_gather_moment(z, shift, d):
    """The packed order-d moment and the second moments, summed over the same
    blocks with one sample per row: pair products gathered as columns,
    ``p^T p`` at order 4, ``p^T x`` at order 3, ``x^T x``."""
    n = z.shape[1]
    iu, ju = np.triu_indices(n)
    m2 = np.zeros((n, n))
    high = np.zeros((iu.size, n if d == 3 else iu.size))
    for start in range(0, len(z), BLOCK_ROWS):
        x = z[start : start + BLOCK_ROWS] - shift
        m2 += x.T @ x
        if d > 2:
            p = x[:, iu] * x[:, ju]
            high += p.T @ (x if d == 3 else p)
    m2 /= len(z)
    high /= len(z)
    a = sorted_axes(n, d).T
    if d == 2:
        return m2[a[0], a[1]], m2
    rows = packed_index(a[:2].T, n)
    return high[rows, a[2] if d == 3 else packed_index(a[2:].T, n)], m2


MOMENT_SIZES = [(1, 7), (4, 100), (5, BLOCK_ROWS), (10, 2 * BLOCK_ROWS + 37), (16, 5000)]


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("n,nsamples", MOMENT_SIZES)
def test_row_gathered_moment_has_the_column_gathered_bytes(n, nsamples, d):
    # the same products summed in the same order: the layout of the pair
    # products is all that differs
    z = np.random.default_rng([n, nsamples, d]).exponential(size=(nsamples, n))
    shift = z.mean(axis=0)
    packed, m2 = _packed_moment(z, shift, d)
    expected, expected_m2 = column_gather_moment(z, shift, d)
    assert m2.tobytes() == expected_m2.tobytes()
    assert packed.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n,nsamples", MOMENT_SIZES)
def test_row_gathered_third_moment_within_the_summation_bound(n, nsamples):
    # BLAS may sum p x^T and p^T x in different orders.  Each sum of N terms
    # x_i x_j x_k is rounded at most h = BLOCK_ROWS + ceil(N / BLOCK_ROWS) + 1
    # times per term, so each lies within gamma_h * S of the exact sum, S the
    # sum of the terms' magnitudes; after the division by N the two differ by
    # at most 2 gamma_h S / N plus the division's own rounding of each
    z = np.random.default_rng([n, nsamples, 3]).exponential(size=(nsamples, n))
    shift = z.mean(axis=0)
    packed, m2 = _packed_moment(z, shift, 3)
    expected, expected_m2 = column_gather_moment(z, shift, 3)
    assert m2.tobytes() == expected_m2.tobytes()
    u = np.finfo(float).eps / 2
    h = BLOCK_ROWS + ceil(nsamples / BLOCK_ROWS) + 1
    gamma = h * u / (1 - h * u)
    x = np.abs(z - shift)
    i, j, k = sorted_axes(n, 3).T
    s = np.einsum("te,te,te->e", x[:, i], x[:, j], x[:, k])
    bound = 2 * gamma * s / nsamples + 2 * u * np.maximum(np.abs(packed), np.abs(expected))
    assert np.all(np.abs(packed - expected) <= bound)


@pytest.mark.parametrize("d", [3, 4])
def test_same_input_gives_identical_bytes(d):
    # the promise: same input, same process, same BLAS thread count
    z = np.random.default_rng(5).standard_normal((3 * BLOCK_ROWS + 11, 7))
    first = cumulant_tensor(z, d).packed.tobytes()
    assert cumulant_tensor(z.copy(), d).packed.tobytes() == first


class TestCumulants:
    def test_two_point_law_kurtosis(self):
        # the empirical two-point law {-1, +1} has E{x^4} - 3 E{x^2}^2 = -2
        z = np.array([[1.0], [-1.0]])
        c4 = cumulant_tensor(z, 4)
        assert c4.entry(0, 0, 0, 0) == pytest.approx(-2.0)

    def test_uniform_kurtosis(self):
        # midpoint grid of uniform[-sqrt(3), sqrt(3)]: kurtosis -> -1.2
        n = 4000
        edges = np.linspace(-np.sqrt(3), np.sqrt(3), n + 1)
        z = (0.5 * (edges[:-1] + edges[1:]))[:, None]
        c4 = cumulant_tensor(z, 4)
        assert c4.entry(0, 0, 0, 0) == pytest.approx(-1.2, abs=1e-3)
        assert c4.entry(0, 0, 0, 0) == pytest.approx(kurtosis_oracle(z[:, 0]), rel=1e-12)

    @pytest.mark.parametrize("d", [3, 4])
    def test_gaussian_cumulants_shrink(self, d):
        norms = []
        for n_samp in (1000, 16000):
            z = np.random.default_rng(123).standard_normal((n_samp, 3))
            norms.append(cumulant_tensor(z, d).norm())
        assert norms[1] < norms[0]
        assert norms[1] < 25.0 / np.sqrt(16000)

    @pytest.mark.parametrize("d", [3, 4])
    def test_independent_columns_offdiag_decay(self, d):
        # independent non-Gaussian columns: cross entries fall at the
        # statistical rate while the diagonal stays put
        ratios = []
        for n_samp in (500, 32_000):
            r = np.random.default_rng(17)
            if d == 3:
                z = r.exponential(size=(n_samp, 3)) - 1.0  # skewed
            else:
                z = r.uniform(-1, 1, size=(n_samp, 3)) ** 3  # skew-free, kurtotic
            ratios.append(offdiag_ratio(cumulant_tensor(z, d)))
        assert ratios[1] < ratios[0] / 3

    def test_order1_is_mean(self):
        z = rng.standard_normal((50, 3)) + np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(cumulant_tensor(z, 1).packed, z.mean(axis=0))

    def test_order2_is_covariance(self):
        z = rng.standard_normal((300, 3))
        zc = z - z.mean(axis=0)
        np.testing.assert_allclose(
            cumulant_tensor(z, 2).expand().array, zc.T @ zc / len(z), rtol=1e-10, atol=1e-12
        )

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            cumulant_tensor(np.ones((1, 2)), 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_needs_a_column(self, d):
        with pytest.raises(ValueError, match="at least one column"):
            cumulant_tensor(np.zeros((10, 0)), d)

    def test_symmetry_exact(self):
        z = rng.standard_normal((64, 3))
        full = cumulant_tensor(z, 4).expand().array
        for perm in itertools.permutations(range(4)):
            assert np.array_equal(np.transpose(full, perm), full)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_multilinearity_exact(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 5))
        d = int(r.integers(3, 5))
        z = r.standard_normal((60, n))
        m = r.standard_normal((n, n))
        lhs = cumulant_tensor(z @ m.T, d).expand().array
        rhs = tucker_transform(cumulant_tensor(z, d).expand(), [m] * d).array
        scale = max(np.abs(rhs).max(), 1e-30)
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale


class TestOffdiagRatio:
    def test_mixed_bpsk_matches_transformed_diagonal(self):
        # mixing BPSK sources by Q makes the sample cumulant the Tucker
        # transform of the diagonal source cumulant: exact, not asymptotic
        r = np.random.default_rng(3)
        x = r.integers(0, 2, size=(500, 3)) * 2.0 - 1.0
        q, _ = np.linalg.qr(r.standard_normal((3, 3)))
        y = x @ q.T
        lhs = cumulant_tensor(y, 4).expand().array
        rhs = tucker_transform(cumulant_tensor(x, 4).expand(), [q] * 4).array
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)
        assert offdiag_ratio(cumulant_tensor(y, 4)) > 0.1


class TestTransform:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("rows", [5, 2], ids=["square", "two-rows"])
    def test_matches_the_transformed_samples(self, d, rows):
        r = np.random.default_rng([d, rows])
        z = r.exponential(size=(2 * BLOCK_ROWS + 37, 5)) + r.standard_normal(5)
        m = r.standard_normal((rows, 5))
        got = cumulant_tensor(z, d, transform=m)
        assert (got.dim, got.order) == (rows, d)
        assert_close_to_oracle(got.packed, cumulant_tensor(z @ m.T, d).packed)

    def test_equals_the_tucker_transform(self):
        # the module docstring's multilinearity, with a 2 x n whitener-like map
        r = np.random.default_rng(31)
        z = r.uniform(-1.0, 1.0, (700, 4)) ** 3
        m = r.standard_normal((2, 4))
        got = cumulant_tensor(z, 4, transform=m).expand().array
        assert_close_to_oracle(got, tucker_transform(cumulant_tensor(z, 4), [m] * 4).array)

    @pytest.mark.parametrize(
        "m", [np.ones(3), np.ones((2, 4)), np.array([[1.0, np.nan, 0.0]])],
        ids=["1-D", "wrong-columns", "not-finite"],
    )
    def test_bad_transform_names_its_shape(self, m):
        z = np.random.default_rng(32).standard_normal((50, 3))
        with pytest.raises(ValueError, match=re.escape(f"with 3 columns, got shape {m.shape}")):
            cumulant_tensor(z, 4, transform=m)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_overflow_raises_naming_the_order(self, d):
        z = np.random.default_rng(33).uniform(-1.0, 1.0, (100, 3)) * 1e160
        with pytest.raises(ValueError, match=f"the order-{d} cumulant overflows"):
            cumulant_tensor(z, d)

    @pytest.mark.parametrize("scale, d", [(1e-170, 2), (1e-170, 3), (1e-170, 4), (1e-90, 4)])
    def test_underflow_raises_naming_the_order(self, scale, d):
        z = np.random.default_rng(1).uniform(-1.0, 1.0, (3000, 3)) * scale
        with pytest.raises(ValueError, match=f"the order-{d} cumulant underflows"):
            cumulant_tensor(z, d)

    def test_small_scales_above_the_underflow_kept(self):
        # at 1e-90 the order-3 entries, near 1e-271, are still normal floats
        z = np.random.default_rng(1).uniform(-1.0, 1.0, (3000, 3))
        for d in (2, 3):
            small = cumulant_tensor(z * 1e-90, d).packed
            assert_close_to_oracle(small * 1e90**d, cumulant_tensor(z, d).packed)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_constant_samples_keep_exact_zeros(self, d):
        assert not cumulant_tensor(np.full((100, 3), 2.0**-600), d).packed.any()

    def test_cancelling_samples_keep_exact_zeros(self):
        # the odd moment of a symmetric sample cancels exactly at a representable scale
        assert not cumulant_tensor(np.array([[-1.0], [1.0]]), 3).packed.any()


class TestAsSamples:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_one_non_finite_entry_in_the_last_row(self, bad):
        z = np.random.default_rng(34).standard_normal((100, 4))
        z[-1, 2] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            as_samples(z)

    def test_checks_without_a_temporary_of_the_samples(self):
        z = np.random.default_rng(35).standard_normal((10**6, 4))
        tracemalloc.start()
        try:
            as_samples(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
