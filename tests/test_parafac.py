import itertools
import warnings

import numpy as np
import pytest

from tensorbss import parafac
from tensorbss.core import SAFE_EXPONENT, mode_n_unfold, real_roots, tucker_transform
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

    @pytest.mark.parametrize(
        "rows, rank", [((4, 5), 3), ((6, 7), 1), ((1, 5), 2), ((5, 1), 4), ((1, 1), 1), ((50, 50), 5)]
    )
    def test_khatri_rao_bit_identical_to_broadcast(self, rows, rank):
        r = np.random.default_rng(sum(rows) + rank)
        x, y = r.standard_normal((rows[0], rank)), r.standard_normal((rows[1], rank))
        ref = (x[:, None, :] * y[None, :, :]).reshape(rows[0] * rows[1], rank)
        out = khatri_rao(x, y)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


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
    f, _ = _init_factors(arr, cfg)
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


def direct_als(arr, cfg):
    """``als`` with every fit taken from the full tensor's residual through ``reconstruct``.

    Its oracle: like ``als``, it iterates on the core of the modes whose initial factor
    is R singular vectors of a longer mode, then on the full tensor; each phase stops on
    the change of its own tensor's residual.
    """
    gnorm = float(np.linalg.norm(arr))
    f, bases = parafac._init_factors(arr, cfg)
    basis = [u if u.shape[0] > u.shape[1] == cfg.rank else np.eye(u.shape[0]) for u in bases]
    # projected as als projects: in a degenerate run a rounding-level change to the core
    # moves the factors along a flat valley of the core's fit, and the full phase, which
    # leaves the core's subspace, turns that into fits 1e-9 apart
    core = tucker_transform(arr, [m.T for m in basis]).array

    def fit(t, fac):
        if gnorm == 0.0:
            return 0.0
        return float(np.linalg.norm(t - reconstruct(fac).array)) / gnorm

    def expand(fac, mats):
        return KruskalFactors(*(m @ x for m, x in zip(mats, (fac.A, fac.B, fac.C))))

    history = [fit(arr, f)]
    eyes = [np.eye(n) for n in arr.shape]
    phases = [(arr, eyes)]
    if core.shape != arr.shape:
        phases.insert(0, (core, basis))
        f = expand(f, [m.T for m in basis])
        # the start als takes: the pencil solution of an R x R x R core, when it fits better
        rank_cube = core.shape == (cfg.rank,) * 3
        pencil = parafac._pencil_start(core, fit(core, f), gnorm) if rank_cube else None
        if pencil is not None:
            f = pencil[0]
            history[0] = fit(arr, expand(f, basis))
    for t, mats in phases:
        prev, own = None, fit(t, f)
        for _ in range(cfg.max_iters + 1 - len(history)):
            step = parafac._line_search(t, f, prev) if prev is not None else None
            if step is not None and fit(t, step) < own:
                f = step
            prev = f
            f, _ = als_step(t, f)
            last, own = own, fit(t, f)
            history.append(fit(arr, expand(f, mats)))
            if abs(last - own) < cfg.rel_tol:
                break
        f = expand(f, mats)
    return normalized(f), history


def uncompressed_als(g, cfg):
    """``als`` as it was before the core phase, one loop on the full tensor: a frozen copy."""
    arr = np.asarray(g, dtype=float)
    peak = np.max(np.abs(arr), initial=0.0)
    limit = SAFE_EXPONENT
    exponent = 0 if 2.0**-limit <= peak <= 2.0**limit else int(np.frexp(peak)[1])
    if exponent:
        arr = np.ldexp(arr, -exponent)
    gnorm = float(np.linalg.norm(arr))
    gsq = gnorm * gnorm
    unfoldings = tuple(mode_n_unfold(arr, mode) for mode in (1, 2, 3))
    f, _ = _init_factors(arr, cfg)

    def direct_fit(fac):
        if gnorm == 0.0:
            return 0.0
        return float(np.linalg.norm(arr - reconstruct(fac).array)) / gnorm

    def squared_error(grams, inner):
        prod = grams[0] * grams[1] * grams[2]
        return gsq - 2.0 * inner + float(np.sum(prod)), max(gsq, float(np.sum(np.abs(prod))))

    history = [direct_fit(f)]
    prev = sq = scale = guarded = grams = None
    for _ in range(cfg.max_iters):
        mttkrp = unfoldings[0] @ khatri_rao(f.B, f.C)
        step = None
        if prev:
            step = parafac._line_search(arr, f, prev, _unfolded=unfoldings, _mttkrp=mttkrp)
        if step is not None:
            step_mttkrp = unfoldings[0] @ khatri_rao(step.B, step.C)
            step_grams = tuple(m.T @ m for m in (step.A, step.B, step.C))
            step_sq, step_scale = squared_error(step_grams, np.sum(step.A * step_mttkrp))
            if abs(step_sq - sq) > parafac.GRAM_ROUNDING * (step_scale + scale):
                keep = step_sq < sq
            else:
                keep = direct_fit(step) < (history[-1] if guarded else direct_fit(f))
            if keep:
                f, mttkrp, grams = step, step_mttkrp, step_grams
        prev = f
        f, report = als_step(arr, f, _unfolded=unfoldings, _mttkrp=mttkrp, _grams=grams)
        grams = report["grams"]
        sq, scale = squared_error(grams, report["inner"])
        guarded = sq * gsq <= parafac.GRAM_FIT_FLOOR * scale * scale
        history.append(direct_fit(f) if guarded else float(np.sqrt(sq)) / gnorm)
        if abs(history[-2] - history[-1]) < cfg.rel_tol:
            break
    f = normalized(f)
    return KruskalFactors(f.A, f.B, f.C, np.ldexp(f.weights, exponent)), history


def swamp_tensor(seed, n=20, rank=3, cosine=0.8, noise=0.01):
    """Planted unit columns with equal pairwise cosines in every mode, plus noise."""
    r = np.random.default_rng(seed)
    root = np.linalg.cholesky((1.0 - cosine) * np.eye(rank) + cosine)
    mats = [np.linalg.qr(r.standard_normal((n, rank)))[0] @ root.T for _ in range(3)]
    clean = np.einsum("ip,jp,kp->ijk", *mats)
    e = r.standard_normal(clean.shape)
    return clean + noise * np.linalg.norm(clean) / np.linalg.norm(e) * e


def line_search_oracle(arr, f, prev, *, _unfolded=None, _mttkrp=None):
    """``parafac._line_search`` as three MTTKRPs and a product of Gram polynomials: a frozen copy."""

    def poly_product(p, q):  # ascending coefficients that are arrays, multiplied entrywise
        out = np.zeros((len(p) + len(q) - 1,) + p.shape[1:])
        for i, coef in enumerate(p):
            out[i : i + len(q)] += coef * q
        return out

    a, b, c = f.A, f.B, f.C
    da, db, dc = a - prev.A, b - prev.B, c - prev.C
    unfolding = mode_n_unfold(arr, 1) if _unfolded is None else _unfolded[0]
    mttkrp = [
        unfolding @ khatri_rao(b, c) if _mttkrp is None else _mttkrp,
        unfolding @ (khatri_rao(db, c) + khatri_rao(b, dc)),
        unfolding @ khatri_rao(db, dc),
    ]
    cross = np.zeros(4)
    for k, p in enumerate(mttkrp):
        cross[k] += np.sum(a * p)
        cross[k + 1] += np.sum(da * p)
    grams = []
    for h in (np.hstack([m, d]) for m, d in ((a, da), (b, db), (c, dc))):
        h = (h.T @ h).reshape(2, a.shape[1], 2, a.shape[1])
        grams.append(np.stack([h[0, :, 0], h[0, :, 1] + h[1, :, 0], h[1, :, 1]]))
    err = poly_product(poly_product(grams[0], grams[1]), grams[2]).sum(axis=(1, 2))
    err[:4] -= 2.0 * cross
    roots = real_roots(err[1:] * np.arange(1, err.size))
    if roots.size == 0:
        return None
    mu = roots[np.argmin(np.vander(roots, err.size, increasing=True) @ err)]
    return KruskalFactors(a + mu * da, b + mu * db, c + mu * dc)


class TestBlockSolve:
    def test_matches_lstsq_when_well_conditioned(self):
        for seed in range(50):
            r = np.random.default_rng(600 + seed)
            rank = int(r.integers(1, 6))
            x, y = r.standard_normal((7, rank)), r.standard_normal((6, rank))
            unfolding = r.standard_normal((5, 42))
            sol, deficient = _block_solve(
                unfolding, x, y, unfolding @ khatri_rao(x, y), (x.T @ x) * (y.T @ y)
            )
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
        sol, deficient = _block_solve(unfolding, x, y, unfolding @ khatri_rao(x, y), gram)
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

    def test_report_grams_are_the_returned_factors(self, monkeypatch):
        r = np.random.default_rng(23)
        g = r.standard_normal((4, 5, 3))
        mats = [r.standard_normal((n, 3)) for n in (4, 5, 3)]
        duplicated = [m.copy() for m in mats]
        duplicated[1][:, 1], duplicated[2][:, 1] = duplicated[1][:, 0], duplicated[2][:, 0]
        calls = []
        real = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or real(*a, **k))
        for fallback, factors in ((False, mats), (True, duplicated)):
            calls.clear()
            f = KruskalFactors(*factors)
            out, diag = als_step(g, f)
            assert bool(calls) == fallback
            for m, gram in zip((out.A, out.B, out.C), diag["grams"]):
                assert (m.T @ m).tobytes() == gram.tobytes()
            # the Grams of f, passed in as als passes them, change no bit
            grams = tuple(m.T @ m for m in (f.A, f.B, f.C))
            out2, diag2 = als_step(g, f, _grams=grams)
            for m, m2 in zip((out.A, out.B, out.C), (out2.A, out2.B, out2.C)):
                assert m.tobytes() == m2.tobytes()
            assert diag2["inner"] == diag["inner"]

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


def full_svd_init(arr, cfg):
    """``_init_factors`` from the full SVD of each unfolding: its oracle."""
    rr = np.random.default_rng(cfg.seed)
    mats = []
    for mode in range(3):
        u, s, _ = np.linalg.svd(mode_n_unfold(arr, mode + 1), full_matrices=False)
        usable = min(cfg.rank, u.shape[1], int(np.sum(s > s[0] * 1e-12)) if s.size else 0)
        m = np.empty((arr.shape[mode], cfg.rank))
        m[:, :usable] = u[:, :usable]
        m[:, usable:] = rr.standard_normal((arr.shape[mode], cfg.rank - usable))
        mats.append((m, usable))
    return mats


class TestInit:
    @staticmethod
    def _cases():
        r = np.random.default_rng(31)
        yield r.standard_normal((10, 2, 2)), 3
        yield r.standard_normal((2, 7, 3)), 4
        yield np.zeros((3, 3, 3)), 2
        yield np.array([[[2.5]]]), 1
        yield reconstruct(random_factors((6, 6, 6), 1, seed=32)).array, 2
        yield reconstruct(random_factors((6, 6, 6), 2, seed=33)).array, 3

    def test_matches_full_svd_oracle(self):
        for arr, rank in self._cases():
            cfg = ALSConfig(rank=rank)
            f, bases = _init_factors(arr, cfg)
            for m, u, (ref, usable) in zip((f.A, f.B, f.C), bases, full_svd_init(arr, cfg)):
                assert u.tobytes() == m[:, :usable].tobytes()
                # equal usable counts draw the same random fill
                assert m[:, usable:].tobytes() == ref[:, usable:].tobytes()
                u, u_ref = m[:, :usable], ref[:, :usable]
                np.testing.assert_allclose(u.T @ u, np.eye(usable), rtol=0, atol=1e-12)
                np.testing.assert_allclose(u @ u.T, u_ref @ u_ref.T, rtol=0, atol=1e-12)

    def test_cases_cover_full_partial_and_zero_usable_counts(self):
        counts = [
            tuple(usable for _, usable in full_svd_init(arr, ALSConfig(rank=rank)))
            for arr, rank in self._cases()
        ]
        assert counts == [(3, 2, 2), (2, 4, 3), (0, 0, 0), (1, 1, 1), (1, 1, 1), (2, 2, 2)]

    @pytest.mark.parametrize("seed", range(5))
    def test_swamp_iterations_match_full_svd_init(self, seed, monkeypatch):
        g = swamp_tensor(seed, n=50, rank=5)
        cfg = ALSConfig(rank=5, max_iters=1000, rel_tol=1e-10)
        _, history = als(g, cfg)
        monkeypatch.setattr(
            parafac, "_init_factors",
            lambda arr, cfg: (
                KruskalFactors(*(m for m, _ in full_svd_init(arr, cfg))),
                [m[:, :usable] for m, usable in full_svd_init(arr, cfg)],
            ),
        )
        _, ref = als(g, cfg)
        assert len(history) == len(ref)
        assert abs(history[-1] - ref[-1]) <= 1e-12


class TestPencilStart:
    @staticmethod
    def _runs(g, cfg, monkeypatch):
        """``als``'s history with the start, what each ``_pencil_start`` call returned, and
        the history with the start disabled."""
        returned = []
        start = parafac._pencil_start
        monkeypatch.setattr(
            parafac, "_pencil_start", lambda *a: returned.append(start(*a)) or returned[-1]
        )
        history = als(g, cfg)[1]
        monkeypatch.setattr(parafac, "_pencil_start", lambda *a: None)
        return history, returned, als(g, cfg)[1]

    def test_exact_core_solved_at_the_start(self, monkeypatch):
        g = reconstruct(random_factors((6, 7, 8), 3, seed=41)).array
        history, returned, off = self._runs(g, ALSConfig(rank=3), monkeypatch)
        assert len(returned) == 1 and returned[0][1] < 1e-13
        assert history[0] < 1e-13 < off[0] and len(history) < len(off)

    def test_complex_pencil_falls_back(self, monkeypatch):
        # real rank 3, complex rank 2: the slices I and a rotation by 90 degrees, embedded
        # in 6 x 6 x 6 through orthonormal bases, have a pencil with eigenvalues (1 +- i)/(1 +- 2i)
        small = np.stack([np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])], axis=2)
        r = np.random.default_rng(42)
        bases = [np.linalg.qr(r.standard_normal((6, 2)))[0] for _ in range(3)]
        g = tucker_transform(small, bases).array
        history, returned, off = self._runs(g, ALSConfig(rank=2, max_iters=500), monkeypatch)
        assert returned == [None]
        assert np.array(history).tobytes() == np.array(off).tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_swamp_history_shortened(self, seed, monkeypatch):
        g = swamp_tensor(seed, n=50, rank=5)
        cfg = ALSConfig(rank=5, max_iters=1000, rel_tol=1e-10)
        history, returned, off = self._runs(g, cfg, monkeypatch)
        assert len(returned) == 1 and returned[0] is not None
        assert len(history) <= 0.7 * len(off)
        assert abs(history[-1] - off[-1]) <= cfg.rel_tol

    def test_random_init_unchanged(self, monkeypatch):
        cfg = ALSConfig(rank=3, max_iters=300, rel_tol=1e-10, init="random", seed=3)
        history, returned, off = self._runs(swamp_tensor(1), cfg, monkeypatch)
        assert returned == []
        assert np.array(history).tobytes() == np.array(off).tobytes()


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

        def spy(arr, f, prev, **cached):
            step = search(arr, f, prev, **cached)
            taken.append(step is not None)
            return step

        monkeypatch.setattr(parafac, "_line_search", spy)
        _, history = als(swamp_tensor(0), ALSConfig(rank=3, max_iters=20, rel_tol=0.0))
        assert len(taken) == len(history) - 2 == 19 and any(taken)

    @staticmethod
    def _line_error(g, f, prev, mu):
        mats = (m + mu * (m - p) for m, p in zip((f.A, f.B, f.C), (prev.A, prev.B, prev.C)))
        return np.linalg.norm(g - reconstruct(KruskalFactors(*mats)).array)

    def test_unfoldings_built_once(self, monkeypatch):
        calls = []
        unfold = parafac.mode_n_unfold
        monkeypatch.setattr(
            parafac, "mode_n_unfold", lambda *a: calls.append(a[1]) or unfold(*a)
        )
        counts = []
        for iters in (2, 20):
            calls.clear()
            als(swamp_tensor(0), ALSConfig(rank=3, max_iters=iters, rel_tol=0.0))
            counts.append(len(calls))
        # three each for the initial guess, the loop on the core and the loop on the full tensor
        assert counts == [9, 9]

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

    @pytest.mark.parametrize("n, rank", [(30, 5), (20, 3)])
    def test_line_search_matches_the_three_mttkrp_oracle(self, n, rank, monkeypatch):
        # every search of three runs, on the core and on the full tensor, then a zero direction
        calls = []
        search = parafac._line_search

        def spy(arr, f, prev, **cached):
            calls.append((arr, f, prev, cached))
            return search(arr, f, prev, **cached)

        monkeypatch.setattr(parafac, "_line_search", spy)
        for seed in range(3):
            als(swamp_tensor(seed, n, rank), ALSConfig(rank, max_iters=1000, rel_tol=1e-10))
        assert {arr.shape for arr, *_ in calls} == {(rank,) * 3, (n,) * 3}
        arr, f, _, cached = calls[-1]
        assert search(arr, f, f, **cached) is line_search_oracle(arr, f, f, **cached) is None
        for arr, f, prev, cached in calls:
            step, ref = search(arr, f, prev, **cached), line_search_oracle(arr, f, prev, **cached)
            assert (step is None) == (ref is None)
            for m, m_ref in zip((step.A, step.B, step.C), (ref.A, ref.B, ref.C)) if ref else ():
                assert np.abs(m - m_ref).max() <= 1e-12 * np.abs(m_ref).max()

    def test_rejected_line_step_changes_nothing(self, monkeypatch):
        g = swamp_tensor(2, n=8)
        cfg = ALSConfig(rank=3, max_iters=30, rel_tol=0.0)
        histories = []
        for search in (
            lambda arr, f, prev, **cached: None,
            lambda arr, f, prev, **cached: KruskalFactors(f.A, f.B + 1.0, f.C),
        ):
            monkeypatch.setattr(parafac, "_line_search", search)
            histories.append(als(g, cfg)[1])
        assert histories[0] == histories[1]

    @pytest.mark.parametrize("case", ["swamp0", "swamp1", "swamp2", "random0", "random1"])
    def test_gram_fit_against_direct_oracle(self, case):
        seed = int(case[-1])
        if case.startswith("swamp"):
            g, cfg = swamp_tensor(seed), ALSConfig(rank=3, max_iters=1000, rel_tol=1e-10)
        else:
            g, cfg = np.random.default_rng(seed).standard_normal((6, 5, 4)), ALSConfig(rank=3)
        _, ref = direct_als(g, cfg)
        _, history = als(g, cfg)
        assert len(history) == len(ref)
        np.testing.assert_allclose(history, ref, rtol=0, atol=1e-12)

    @staticmethod
    def _phases(g, cfg, monkeypatch):
        """``als``'s history and the factors of each als_step, with the tensor it ran on."""
        steps = []
        step = parafac.als_step

        def spy(arr, *args, **kwargs):
            out, report = step(arr, *args, **kwargs)
            steps.append((arr.shape, out))
            return out, report

        monkeypatch.setattr(parafac, "als_step", spy)
        return als(g, cfg)[1], steps

    @pytest.mark.parametrize(
        "seed, n, rank, noise",
        [(0, 20, 3, 0.01), (1, 20, 3, 0.01), (2, 20, 3, 0.01), (0, 30, 5, 0.01), (3, 20, 3, 1e-9)],
    )
    def test_core_phase_fits_are_full_tensor_residuals(self, seed, n, rank, noise, monkeypatch):
        # at noise 1e-9, norm(G)^2 - norm(core)^2 would cancel to rounding
        g = swamp_tensor(seed, n, rank, noise=noise)
        cfg = ALSConfig(rank, max_iters=1000, rel_tol=1e-10)
        history, steps = self._phases(g, cfg, monkeypatch)
        _, bases = _init_factors(g, cfg)
        gnorm = np.linalg.norm(g)
        core = [k for k, (shape, _) in enumerate(steps) if shape == (rank,) * 3]
        assert core == list(range(len(core))) and 0 < len(core) < len(steps)
        for k in core:
            out = steps[k][1]
            full = KruskalFactors(*(u @ m for u, m in zip(bases, (out.A, out.B, out.C))))
            direct = np.linalg.norm(g - reconstruct(full).array) / gnorm
            assert abs(history[k + 1] - direct) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_history_non_increasing_across_the_junction(self, seed, monkeypatch):
        g = swamp_tensor(seed, n=30, rank=5)
        cfg = ALSConfig(rank=5, max_iters=1000, rel_tol=1e-10)
        history, steps = self._phases(g, cfg, monkeypatch)
        junction = next(k for k, (shape, _) in enumerate(steps) if shape == g.shape)
        assert junction > 0
        # entry junction is the last core fit, entry junction + 1 the first full one
        assert history[junction + 1] <= history[junction]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(history, history[1:]))

    @pytest.mark.parametrize(
        "dims, cfg",
        [((20, 20, 20), ALSConfig(rank=3, max_iters=300, rel_tol=1e-10, init="random", seed=4)),
         ((6, 5, 4), ALSConfig(rank=3, init="random", seed=1)),
         ((4, 4, 4), ALSConfig(rank=4, max_iters=300)),
         ((3, 4, 2), ALSConfig(rank=4, max_iters=300)),
         ((4, 4, 4), ALSConfig(rank=2, init="random", seed=2))],
    )
    def test_uncompressed_runs_match_the_frozen_loop(self, dims, cfg):
        g = swamp_tensor(9, n=max(dims), rank=2)[: dims[0], : dims[1], : dims[2]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # ranks beyond the uniqueness guarantee warn
            f, history = als(g, cfg)
        ref, ref_history = uncompressed_als(g, cfg)
        assert np.array(history).tobytes() == np.array(ref_history).tobytes()
        for m, m_ref in zip((f.A, f.B, f.C, f.weights), (ref.A, ref.B, ref.C, ref.weights)):
            assert m.tobytes() == m_ref.tobytes()

    def test_gram_fit_after_lstsq_fallback(self, monkeypatch):
        init = parafac._init_factors

        def duplicated(arr, cfg):
            f, bases = init(arr, cfg)
            b, c = f.B.copy(), f.C.copy()
            b[:, 1], c[:, 1] = b[:, 0], c[:, 0]
            return KruskalFactors(f.A, b, c), bases

        monkeypatch.setattr(parafac, "_init_factors", duplicated)
        g = np.random.default_rng(0).standard_normal((5, 4, 6))
        # random: the svd init's pencil start on this R x R x R core replaces the duplicates
        cfg = ALSConfig(rank=3, max_iters=40, init="random")
        _, ref = direct_als(g, cfg)
        reports = []
        step = parafac.als_step

        def spy(*args, **kwargs):
            out, report = step(*args, **kwargs)
            reports.append(report)
            return out, report

        monkeypatch.setattr(parafac, "als_step", spy)
        _, history = als(g, cfg)
        assert reports[0]["rank_deficient"] == ["A", "B", "C"]
        assert len(history) == len(ref) and min(history) > 0.5
        np.testing.assert_allclose(history, ref, rtol=0, atol=1e-12)

    def test_small_fits_come_from_the_residual(self, monkeypatch):
        g = reconstruct(random_factors((4, 4, 4), 2, seed=101)).array
        # random: the svd init's pencil start solves this exact rank-2 tensor at once
        cfg = ALSConfig(rank=2, max_iters=500, rel_tol=1e-14, init="random")
        _, ref = direct_als(g, cfg)
        events = []

        def spy(name):
            fn = getattr(parafac, name)

            def traced(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)

            return traced

        for name in ("reconstruct", "als_step"):
            monkeypatch.setattr(parafac, name, spy(name))
        _, history = als(g, cfg)
        # entry k is direct when a reconstruct follows the k-th als_step at once
        cycles = [i for i, e in enumerate(events) if e == "als_step"]
        direct = np.array([i + 1 < len(events) and events[i + 1] == "reconstruct" for i in cycles])
        h = np.array(history[1:])
        assert len(history) == len(ref) and history[-1] <= 1e-8
        np.testing.assert_allclose(history, ref, rtol=0, atol=1e-12)
        assert np.all(direct[h < 1e-3]) and direct[-1]
        assert np.any(~direct & (h < 1e-2))  # Gram fits just above the threshold

    @pytest.mark.parametrize("k", [-700, -300, 300, 600])
    def test_far_scales_fit_as_the_unit_scale(self, k):
        g = swamp_tensor(4, n=6)
        g = np.ldexp(g, -int(np.frexp(np.max(np.abs(g)))[1]))  # largest entry in [0.5, 1)
        cfg = ALSConfig(rank=3, max_iters=100)
        f0, ref = als(g, cfg)
        f, history = als(np.ldexp(g, k), cfg)
        assert history == ref
        for m, m0 in zip((f.A, f.B, f.C, f.weights), (f0.A, f0.B, f0.C, np.ldexp(f0.weights, k))):
            np.testing.assert_array_equal(m, m0)

    def test_weight_beyond_the_float_range_refused(self):
        # finite entries whose rank-1 weight exceeds the largest float
        g = np.array([1e308, -1.7e308, 1e308, 0, 0, 5e307, 0, 1.7e308]).reshape(2, 2, 2)
        with pytest.raises(ValueError, match="overflow the float range"):
            als(g, ALSConfig(rank=1, max_iters=50))

    def test_repeat_run_is_byte_identical(self):
        g = swamp_tensor(5, n=10)
        cfg = ALSConfig(rank=3, max_iters=200, rel_tol=1e-10)
        runs = [als(g, cfg) for _ in range(2)]
        (f0, h0), (f1, h1) = runs
        assert np.array(h0).tobytes() == np.array(h1).tobytes()
        for m0, m1 in zip((f0.A, f0.B, f0.C, f0.weights), (f1.A, f1.B, f1.C, f1.weights)):
            assert m0.tobytes() == m1.tobytes()

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
