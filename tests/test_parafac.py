import itertools
import warnings

import numpy as np
import pytest

from tensorbss import parafac
from tensorbss.core import mode_n_unfold
from tensorbss.parafac import (
    GRAM_COND_LIMIT,
    ALSConfig,
    KruskalFactors,
    _block_solve,
    _init_factors,
    als,
    als_step,
    congruence_match,
    khatri_rao,
    normalized,
    reconstruct,
)

rng = np.random.default_rng(314)


def reconstruct_brute(f):
    """Triple-loop oracle for the trilinear sum."""
    w = f.weights if f.weights is not None else np.ones(f.rank)
    n1, n2, n3 = f.A.shape[0], f.B.shape[0], f.C.shape[0]
    out = np.zeros((n1, n2, n3))
    for i, j, k in itertools.product(range(n1), range(n2), range(n3)):
        out[i, j, k] = sum(
            w[p] * f.A[i, p] * f.B[j, p] * f.C[k, p] for p in range(f.rank)
        )
    return out


def random_factors(dims, r, seed, weights=None):
    rr = np.random.default_rng(seed)
    return KruskalFactors(
        rr.standard_normal((dims[0], r)),
        rr.standard_normal((dims[1], r)),
        rr.standard_normal((dims[2], r)),
        weights,
    )


class TestReconstruct:
    def test_unit_rank1(self):
        e1 = np.array([[1.0], [0.0]])
        f = KruskalFactors(e1, e1, e1)
        t = reconstruct(f).array
        assert t[0, 0, 0] == 1.0 and np.sum(np.abs(t)) == 1.0

    def test_two_orthogonal_terms(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        f = KruskalFactors(a, a, a, np.array([2.0, -3.0]))
        t = reconstruct(f).array
        assert t[0, 0, 0] == 2.0 and t[1, 1, 1] == -3.0
        assert np.sum(np.abs(t)) == 5.0

    def test_matches_brute_force_and_unfolding(self):
        f = random_factors((3, 4, 2), 3, seed=5)
        t = reconstruct(f).array
        np.testing.assert_allclose(t, reconstruct_brute(f), atol=1e-12)
        np.testing.assert_allclose(
            mode_n_unfold(t, 1), f.A @ khatri_rao(f.B, f.C).T, atol=1e-12
        )

    def test_column_count_mismatch(self):
        with pytest.raises(ValueError):
            KruskalFactors(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))


def lstsq_als_step(arr, a, b, c):
    """The A/B/C refresh as lstsq on the Khatri-Rao products, with lstsq's rank verdicts."""
    deficient = []

    def solve(kr, unfolding, name):
        sol, _, rank, _ = np.linalg.lstsq(kr, unfolding.T, rcond=None)
        if rank < kr.shape[1]:
            deficient.append(name)
        return sol.T

    a = solve(khatri_rao(b, c), mode_n_unfold(arr, 1), "A")
    b = solve(khatri_rao(a, c), mode_n_unfold(arr, 2), "B")
    c = solve(khatri_rao(a, b), mode_n_unfold(arr, 3), "C")
    return (a, b, c), deficient


def lstsq_als(arr, cfg):
    """Plain ALS with lstsq updates and an einsum fit: the oracle for ``als``."""
    gnorm = np.linalg.norm(arr)
    f = _init_factors(arr, cfg)
    mats = (f.A, f.B, f.C)

    def fit(a, b, c):
        return np.linalg.norm(arr - np.einsum("ip,jp,kp->ijk", a, b, c)) / gnorm

    history = [fit(*mats)]
    for _ in range(cfg.max_iters):
        mats, _ = lstsq_als_step(arr, *mats)
        history.append(fit(*mats))
        if abs(history[-2] - history[-1]) < cfg.rel_tol:
            break
    return history


def swamp_tensor(seed, n=20, rank=3, cosine=0.8, noise=0.01):
    """Planted unit columns with equal pairwise cosines in every mode, plus noise."""
    r = np.random.default_rng(seed)
    root = np.linalg.cholesky((1.0 - cosine) * np.eye(rank) + cosine)
    mats = [np.linalg.qr(r.standard_normal((n, rank)))[0] @ root.T for _ in range(3)]
    clean = np.einsum("ip,jp,kp->ijk", *mats)
    e = r.standard_normal(clean.shape)
    return clean + noise * np.linalg.norm(clean) / np.linalg.norm(e) * e


class TestBlockSolve:
    def test_matches_lstsq_when_well_conditioned(self):
        for seed in range(50):
            r = np.random.default_rng(600 + seed)
            rank = int(r.integers(1, 6))
            x, y = r.standard_normal((7, rank)), r.standard_normal((6, rank))
            unfolding = r.standard_normal((5, 42))
            sol, deficient = _block_solve(unfolding, x, y)
            ref = np.linalg.lstsq(khatri_rao(x, y), unfolding.T, rcond=None)[0].T
            assert not deficient
            np.testing.assert_allclose(sol, ref, rtol=1e-10, atol=1e-12)

    def test_ill_conditioned_gram_takes_lstsq(self, monkeypatch):
        x = np.array([[1.0, 1.0], [0.0, 1e-5]])
        y = np.array([[1.0, 1.0], [0.0, 1e-5]])
        gram = (x.T @ x) * (y.T @ y)
        assert np.linalg.cond(gram) > GRAM_COND_LIMIT
        calls = []
        real = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or real(*a, **k))
        unfolding = np.arange(8.0).reshape(2, 4)
        sol, deficient = _block_solve(unfolding, x, y)
        assert calls and not deficient
        np.testing.assert_allclose(
            sol, real(khatri_rao(x, y), unfolding.T, rcond=None)[0].T, rtol=1e-12
        )


class TestAlsStep:
    def test_duplicated_column_is_rank_deficient(self):
        r = np.random.default_rng(21)
        g = r.standard_normal((4, 5, 3))
        a, b, c = (r.standard_normal((n, 3)) for n in (4, 5, 3))
        b[:, 1], c[:, 1] = b[:, 0], c[:, 0]
        out, diag = als_step(g, KruskalFactors(a, b, c))
        ref, ref_deficient = lstsq_als_step(g, a, b, c)
        assert ref_deficient == ["A", "B", "C"]
        assert diag["rank_deficient"] == ref_deficient
        for m, m_ref in zip((out.A, out.B, out.C), ref):
            np.testing.assert_allclose(m, m_ref, rtol=1e-12, atol=1e-12)

    def test_matches_lstsq_step(self):
        for seed in range(20):
            r = np.random.default_rng(700 + seed)
            g = r.standard_normal((4, 5, 6))
            mats = [r.standard_normal((n, 3)) for n in (4, 5, 6)]
            out, diag = als_step(g, KruskalFactors(*mats))
            ref, ref_deficient = lstsq_als_step(g, *mats)
            assert diag["rank_deficient"] == ref_deficient == []
            for m, m_ref in zip((out.A, out.B, out.C), ref):
                np.testing.assert_allclose(m, m_ref, rtol=1e-9, atol=1e-12)

    def test_fixed_point_at_truth(self):
        truth = random_factors((4, 4, 4), 2, seed=8)
        g = reconstruct(truth).array
        out, diag = als_step(g, truth)
        np.testing.assert_allclose(reconstruct(out).array, g, atol=1e-10)
        assert diag["rank_deficient"] == []

    def test_fit_monotone(self):
        g = rng.standard_normal((4, 5, 3))
        f = random_factors((4, 5, 3), 2, seed=9)
        prev = np.linalg.norm(g - reconstruct(f).array)
        for _ in range(6):
            f, _ = als_step(g, f)
            cur = np.linalg.norm(g - reconstruct(f).array)
            assert cur <= prev + 1e-12
            prev = cur

    def test_rank1_monte_carlo(self):
        hits = 0
        for seed in range(100):
            r = np.random.default_rng(seed)
            truth = KruskalFactors(
                r.standard_normal((3, 1)), r.standard_normal((3, 1)), r.standard_normal((3, 1))
            )
            g = reconstruct(truth).array
            f = random_factors((3, 3, 3), 1, seed=seed + 1000)
            for _ in range(50):
                f, _ = als_step(g, f)
            err = np.linalg.norm(g - reconstruct(f).array)
            hits += err < 1e-6
        assert hits == 100


class TestAls:
    def test_exact_rank2_recovery(self):
        truth = random_factors((4, 4, 4), 2, seed=101)
        g = reconstruct(truth).array
        f, history = als(g, ALSConfig(rank=2, init="svd", seed=0))
        assert history[-1] <= 1e-8
        _, congruences = congruence_match(f, truth)
        assert np.min(congruences) >= 0.99

    def test_history_non_increasing(self):
        g = rng.standard_normal((4, 4, 4))
        _, history = als(g, ALSConfig(rank=3, init="random", seed=1))
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_rank_bound_warning(self):
        # both ranks are beyond the uniqueness guarantee too, which warns separately
        g = rng.standard_normal((2, 2, 2))
        with pytest.warns(UserWarning, match="uniqueness"):
            with pytest.warns(UserWarning, match=r"bound 4 \(min over mode pairs of n_i\*n_j\)"):
                als(g, ALSConfig(rank=5, max_iters=2))
        g = rng.standard_normal((3, 4, 5))
        with pytest.warns(UserWarning, match="uniqueness"):
            with pytest.warns(UserWarning, match=r"bound 12 \(min over mode pairs"):
                als(g, ALSConfig(rank=13, max_iters=2))

    def test_rank_at_pair_bound_does_not_warn(self):
        g = rng.standard_normal((3, 4, 5))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            als(g, ALSConfig(rank=12, max_iters=2))
        messages = [str(w.message) for w in caught]
        assert not any("min over mode pairs" in m for m in messages)
        assert any("uniqueness" in m for m in messages)  # the other warning still fires

    def test_noise_plateau(self):
        truth = random_factors((4, 4, 4), 2, seed=55)
        clean = reconstruct(truth).array
        noise = 0.01 * np.linalg.norm(clean) * _unit_noise(clean.shape, 56)
        g = clean + noise
        _, history = als(g, ALSConfig(rank=2, init="svd"))
        assert history[-1] == pytest.approx(0.01, abs=5e-3)

    def test_normalized_output(self):
        truth = random_factors((3, 3, 3), 2, seed=7, weights=np.array([2.0, -1.0]))
        f, _ = als(reconstruct(truth).array, ALSConfig(rank=2))
        for m in (f.A, f.B, f.C):
            np.testing.assert_allclose(np.linalg.norm(m, axis=0), 1.0, atol=1e-10)
        assert np.all(f.weights >= 0)

    def test_order_check(self):
        with pytest.raises(ValueError):
            als(np.zeros((2, 2)), ALSConfig(rank=1))

    @pytest.mark.parametrize("seed", range(5))
    def test_swamp_against_lstsq_oracle(self, seed):
        g = swamp_tensor(seed)
        cfg = ALSConfig(rank=3, max_iters=1000, rel_tol=1e-10)
        ref = lstsq_als(g, cfg)
        _, history = als(g, cfg)
        assert history[-1] <= ref[-1] * (1 + 1e-9)
        assert len(history) - 1 < (len(ref) - 1) / 2
        assert all(b <= a * (1 + 1e-12) for a, b in zip(history, history[1:]))

    def test_line_search_steps_are_taken(self, monkeypatch):
        taken = []
        search = parafac._line_search

        def spy(arr, f, prev):
            step = search(arr, f, prev)
            taken.append(step is not None)
            return step

        monkeypatch.setattr(parafac, "_line_search", spy)
        _, history = als(swamp_tensor(0), ALSConfig(rank=3, max_iters=20, rel_tol=0.0))
        assert len(taken) == len(history) - 2 == 19 and any(taken)

    @staticmethod
    def _line_error(g, f, prev, mu):
        mats = (m + mu * (m - p) for m, p in zip((f.A, f.B, f.C), (prev.A, prev.B, prev.C)))
        return np.linalg.norm(g - reconstruct(KruskalFactors(*mats)).array)

    def test_line_search_finds_the_line_minimum(self):
        # along this line the model is [mu^2, mu] and G is [1, 0.1]: the squared
        # error has local minima near +1 (the lower) and -1, a maximum near 0
        cases = [(
            np.array([1.0, 0.1]).reshape(2, 1, 1),
            KruskalFactors(np.array([[0.0], [1.0]]), np.zeros((1, 1)), np.ones((1, 1))),
            KruskalFactors(np.array([[-1.0], [1.0]]), -np.ones((1, 1)), np.ones((1, 1))),
        )]
        for seed in range(5):
            r = np.random.default_rng(40 + seed)
            cases.append((swamp_tensor(seed, n=6), *(
                KruskalFactors(*(r.standard_normal((6, 3)) for _ in range(3))) for _ in range(2)
            )))
        for g, f, prev in cases:
            step = parafac._line_search(g, f, prev)
            mu = (step.B[0, 0] - f.B[0, 0]) / (f.B[0, 0] - prev.B[0, 0])
            grid = np.linspace(mu - 5.0, mu + 5.0, 2001)
            best = min(self._line_error(g, f, prev, t) for t in grid)
            assert self._line_error(g, f, prev, mu) <= best * (1 + 1e-9)

    def test_rejected_line_step_changes_nothing(self, monkeypatch):
        g = swamp_tensor(2, n=8)
        cfg = ALSConfig(rank=3, max_iters=30, rel_tol=0.0)
        histories = []
        for search in (
            lambda arr, f, prev: None,
            lambda arr, f, prev: KruskalFactors(f.A, f.B + 1.0, f.C),
        ):
            monkeypatch.setattr(parafac, "_line_search", search)
            histories.append(als(g, cfg)[1])
        assert histories[0] == histories[1]

    @pytest.mark.parametrize(
        "kwargs",
        [{"rank": 0}, {"rank": 1, "max_iters": -1}, {"rank": 1, "rel_tol": -1.0},
         {"rank": 1, "rel_tol": float("nan")}, {"rank": 1, "rel_tol": float("inf")},
         {"rank": 1, "init": "hosvd"}],
    )
    def test_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ALSConfig(**kwargs)

    def test_zero_iterations(self):
        g = rng.standard_normal((3, 3, 3))
        _, history = als(g, ALSConfig(rank=2, max_iters=0))
        assert len(history) == 1


def normalized_loop(f):
    """Column-by-column normalization: the oracle for ``normalized``."""
    w = f.weights if f.weights is not None else np.ones(f.rank)
    a, b, c = f.A * w, f.B.copy(), f.C.copy()
    weights = np.empty(f.rank)
    for r in range(f.rank):
        norms = [np.linalg.norm(m[:, r]) for m in (a, b, c)]
        weights[r] = np.prod(norms)
        for m, nrm in zip((a, b, c), norms):
            if nrm > 0:
                m[:, r] /= nrm
        for m in (a, b):
            lead = np.argmax(np.abs(m[:, r]))
            if m[lead, r] < 0:
                m[:, r] *= -1
                c[:, r] *= -1
    return a, b, c, weights


class TestNormalization:
    def test_matches_column_loop(self):
        for seed in range(200):
            r = np.random.default_rng(900 + seed)
            dims, rank = r.integers(1, 6, 3), int(r.integers(1, 5))
            if seed % 2:  # small integers: tied leads, zero columns
                mats = [r.integers(-2, 3, (n, rank)).astype(float) for n in dims]
            else:
                mats = [r.standard_normal((n, rank)) for n in dims]
            weights = r.standard_normal(rank) if seed % 3 else None
            f = normalized(KruskalFactors(*mats, weights))
            ref = normalized_loop(KruskalFactors(*mats, weights))
            for m, m_ref in zip((f.A, f.B, f.C, f.weights), ref):
                np.testing.assert_array_equal(np.sign(m), np.sign(m_ref))
                np.testing.assert_allclose(m, m_ref, rtol=1e-14, atol=0)

    def test_roundtrip_value(self):
        f = random_factors((3, 4, 2), 2, seed=77, weights=np.array([-1.5, 0.5]))
        g = reconstruct(f).array
        np.testing.assert_allclose(reconstruct(normalized(f)).array, g, atol=1e-12)

    def test_congruence_match_quotient(self):
        truth = random_factors((4, 4, 4), 3, seed=88)
        # permute columns and flip signs: congruence must still be exactly 1
        perm = [2, 0, 1]
        flip = np.array([1.0, -1.0, -1.0])
        shuffled = KruskalFactors(
            truth.A[:, perm] * flip, truth.B[:, perm], truth.C[:, perm]
        )
        order, congruences = congruence_match(shuffled, truth)
        assert order == perm
        np.testing.assert_allclose(congruences, 1.0, atol=1e-12)


def _unit_noise(shape, seed):
    e = np.random.default_rng(seed).standard_normal(shape)
    return e / np.linalg.norm(e)
