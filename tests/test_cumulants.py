import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorbss.core import tucker_transform
from tensorbss.cumulants import BLOCK_ROWS, cumulant_tensor

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
            z = r.uniform(-1, 1, size=(n_samp, 3)) ** 3  # skew-free, kurtotic
            ratios.append(offdiag_ratio(cumulant_tensor(z, 4)))
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
