import numpy as np
import pytest

from tensorbss.whiten import Whitener, detect_sources, standardize, standardize_with_noise

rng = np.random.default_rng(2718)


def random_spd(n, r):
    a = r.standard_normal((n, n))
    return a @ a.T + 0.5 * np.eye(n)


class TestStandardize:
    def test_identity_covariance(self):
        w = standardize(np.eye(4))
        np.testing.assert_allclose(w.T, np.eye(4), atol=1e-12)

    def test_diagonal_covariance(self):
        lam = np.array([4.0, 1.0, 0.25])
        w = standardize(np.diag(lam))
        np.testing.assert_allclose(w.T, np.diag(lam**-0.5), atol=1e-12)

    def test_random_spd(self):
        for seed in range(5):
            r = random_spd(5, np.random.default_rng(seed))
            w = standardize(r)
            np.testing.assert_allclose(w.T @ r @ w.T.T, np.eye(5), atol=1e-10)

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            standardize(np.diag([1.0, 0.0]))

    def test_negative_eigenvalue_named_not_positive_definite(self):
        with pytest.raises(ValueError, match=r"^covariance is not positive definite "
                                             r"\(smallest eigenvalue -1\.000e-03\)$"):
            standardize(np.diag([1.0, -1e-3]))

    def test_ill_conditioned_named_as_such(self):
        # a square mixing of condition 1e7: its covariance is positive definite,
        # with condition 1e14, past the whitening limit of 1e10
        r = np.random.default_rng(8)
        u, _ = np.linalg.qr(r.standard_normal((8, 8)))
        w, _ = np.linalg.qr(r.standard_normal((8, 8)))
        a = (u * np.logspace(0, -7, 8)) @ w.T
        cov = a @ a.T
        assert np.linalg.eigvalsh(cov)[0] > 0.0
        with pytest.raises(ValueError, match=r"^covariance is too ill-conditioned to whiten "
                                             r"\(condition number \d\.\d{3}e\+14 exceeds 1e\+10\)$"):
            standardize(cov)
        with pytest.raises(ValueError, match=r"^covariance is too ill-conditioned .* exceeds 1e\+10\)$"):
            standardize(np.diag([1.0, 1e-11]))
        standardize(np.diag([1.0, 1e-9]))  # within the limit

    def test_whitened_samples_have_unit_covariance(self):
        z = rng.standard_normal((2000, 4)) @ rng.standard_normal((4, 4))
        zc = z - z.mean(axis=0)
        r = zc.T @ zc / len(z)
        y = standardize(r).apply(zc)
        np.testing.assert_allclose(y.T @ y / len(y), np.eye(4), atol=1e-8)


class TestStandardizeWithNoise:
    def test_zero_noise_reduces_to_plain(self):
        r = random_spd(3, rng)
        a = standardize_with_noise(r, np.zeros((3, 3)))
        b = standardize(r)
        np.testing.assert_allclose(a.T, b.T, atol=1e-12)

    def test_signal_whitening(self):
        r = np.random.default_rng(12)
        a = r.standard_normal((4, 4))
        sigma = 0.1
        ry = a @ a.T + sigma * np.eye(4)
        w = standardize_with_noise(ry, sigma * np.eye(4))
        ta = w.T @ a
        np.testing.assert_allclose(ta @ ta.T, np.eye(4), atol=1e-8)

    def test_excess_noise_rejected(self):
        ry = np.eye(3)
        with pytest.raises(ValueError, match="indefinite"):
            standardize_with_noise(ry, 2.0 * np.eye(3))


class TestDetectSources:
    def test_low_rank_plus_noise(self):
        r = np.random.default_rng(5)
        a = r.standard_normal((5, 3))
        ry = a @ a.T + 0.01 * np.eye(5)
        p, w = detect_sources(ry, np.eye(5))
        assert p == 3
        assert w.T.shape == (3, 5)

    def test_pure_noise(self):
        p, w = detect_sources(0.3 * np.eye(4), np.eye(4))
        assert p == 0
        assert w.T.shape == (0, 4)

    def test_noiseless_full_rank(self):
        r = random_spd(4, np.random.default_rng(8))
        p, _ = detect_sources(r, None, noise_scale=0.0)
        assert p == 4

    def test_noiseless_rank_deficient(self):
        # no noise model: the numerical rank is the source count, and the
        # reduced whitener standardizes the covariance on its range
        a = np.random.default_rng(13).standard_normal((5, 3))
        ry = a @ a.T
        p, w = detect_sources(ry)
        assert (p, w.source_count, w.noise_variance) == (3, 3, 0.0)
        np.testing.assert_allclose(w.T @ ry @ w.T.T, np.eye(3), atol=1e-10)

    def test_reduced_whitener_standardizes_signal(self):
        r = np.random.default_rng(21)
        a = r.standard_normal((6, 2))
        sigma = 0.05
        ry = a @ a.T + sigma * np.eye(6)
        p, w = detect_sources(ry, np.eye(6))
        assert p == 2
        g = w.T @ a
        np.testing.assert_allclose(g @ g.T, np.eye(2), atol=1e-6)

    def test_rank_recovery_50_trials(self):
        hits = 0
        for seed in range(50):
            r = np.random.default_rng(seed)
            n = int(r.integers(3, 7))
            k = int(r.integers(1, n))
            a = r.standard_normal((n, k))
            # SNR >= 10 dB: noise floor well under the signal eigenvalues
            sigma = 0.1 * np.linalg.svd(a, compute_uv=False)[-1] ** 2
            ry = a @ a.T + sigma * np.eye(n)
            p, _ = detect_sources(ry, np.eye(n), threshold=0.1)
            hits += p == k
        assert hits == 50

    def test_known_noise_scale(self):
        a = np.random.default_rng(3).standard_normal((4, 2))
        ry = a @ a.T + 0.2 * np.eye(4)
        p, w = detect_sources(ry, np.eye(4), noise_scale=0.2)
        assert p == 2
        assert w.noise_variance == pytest.approx(0.2)


class TestWhitenerType:
    def test_apply_shape(self):
        w = Whitener(T=np.ones((2, 4)), source_count=2)
        out = w.apply(np.ones((7, 4)))
        assert out.shape == (7, 2)
