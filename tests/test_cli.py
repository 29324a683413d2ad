import json

import numpy as np
import pytest

from tensorbss.cli import main
from tensorbss.io import (
    load_json,
    load_samples,
    quantic_from_obj,
    save_json,
    save_samples,
    tensor_from_obj,
    tensor_to_obj,
)
from tensorbss.core import DenseTensor, SymTensor, symmetrize
from tensorbss.simulate import ExperimentConfig, gen, score

rng = np.random.default_rng(12)


class TestIO:
    def test_dense_tensor_roundtrip(self, tmp_path):
        t = DenseTensor(rng.standard_normal((2, 3, 2)))
        path = tmp_path / "t.json"
        save_json(tensor_to_obj(t), path)
        back = tensor_from_obj(load_json(path))
        np.testing.assert_array_equal(back.array, t.array)

    def test_sym_tensor_roundtrip(self, tmp_path):
        s = symmetrize(rng.standard_normal((3, 3, 3)))
        back = tensor_from_obj(json.loads(json.dumps(tensor_to_obj(s))))
        assert isinstance(back, SymTensor)
        np.testing.assert_array_equal(back.packed, s.packed)

    def test_quantic_roundtrip(self, tmp_path):
        path = tmp_path / "q.json"
        save_json({"degree": 3, "gamma": [1.0, 0.0, 2.0, -1.0]}, path)
        back = quantic_from_obj(load_json(path))
        assert back.degree == 3
        np.testing.assert_array_equal(back.gamma, [1.0, 0.0, 2.0, -1.0])

    def test_samples_roundtrip_exact(self, tmp_path):
        z = rng.standard_normal((10, 3))
        path = tmp_path / "z.csv"
        save_samples(path, z)
        back, names = load_samples(path)
        np.testing.assert_array_equal(back, z)
        assert names == ["y1", "y2", "y3"]


class TestSimulate:
    def test_bpsk_values(self):
        cfg = ExperimentConfig(3, 100, distribution="bpsk", seed=1)
        y, manifest = gen(cfg)
        a = np.asarray(manifest["mixing"])
        x = y @ np.linalg.inv(a).T
        assert set(np.round(x.reshape(-1), 9)) <= {-1.0, 1.0}

    def test_identity_mixing_zero_noise(self):
        a = np.eye(2)
        cfg = ExperimentConfig(
            2, 50, distribution="uniform", mixing="given", mixing_matrix=a, seed=2
        )
        y, manifest = gen(cfg)
        assert manifest["noise_variance"] == 0.0
        assert np.abs(y).max() <= np.sqrt(3) + 1e-12

    def test_determinism(self):
        cfg = ExperimentConfig(2, 64, distribution="gaussian", seed=9)
        y1, m1 = gen(cfg)
        y2, m2 = gen(cfg)
        np.testing.assert_array_equal(y1, y2)
        assert m1 == m2

    def test_score_perfect_separator(self):
        a = rng.standard_normal((3, 3))
        metrics = score(np.linalg.inv(a), a)
        np.testing.assert_allclose(metrics["dominance"], 1.0, atol=1e-12)
        assert metrics["mean_angle_error_deg"] == pytest.approx(0.0, abs=1e-6)

    def test_score_quotient_invariance(self):
        a = rng.standard_normal((3, 3))
        sep = np.linalg.inv(a) + 0.01 * rng.standard_normal((3, 3))
        base = score(sep, a)
        perm = np.eye(3)[[1, 2, 0]]
        scales = np.diag([2.0, -0.5, 3.0])
        transformed = score(scales @ perm @ sep, a)
        np.testing.assert_allclose(
            sorted(base["dominance"]), sorted(transformed["dominance"]), atol=1e-12
        )

    def test_random_separator_baseline(self):
        n = 4
        vals = []
        for seed in range(200):
            sep = np.random.default_rng(seed).standard_normal((n, n))
            vals.append(score(sep, np.eye(n))["min_dominance"])
        mean = np.mean(vals)
        assert 1.0 / np.sqrt(n) <= mean <= 0.97  # far from a perfect separator

    def test_bad_config(self):
        with pytest.raises(ValueError):
            ExperimentConfig(2, 10, distribution="cauchy")


class TestCliRoundTrips:
    def run(self, *argv):
        return main(list(argv))

    def test_gen_ica_score_pipeline(self, tmp_path):
        samples = tmp_path / "samples.csv"
        manifest = tmp_path / "manifest.json"
        result = tmp_path / "result.json"
        metrics = tmp_path / "metrics.json"
        assert self.run(
            "--seed", "5", "gen", "--sources", "3", "--samples", "8000",
            "--dist", "uniform", "--out", str(samples), "--manifest", str(manifest),
        ) == 0
        assert self.run(
            "ica", "--order", "4", "--alpha", "2",
            "--in", str(samples), "--out", str(result),
        ) == 0
        assert self.run(
            "score", "--result", str(result), "--manifest", str(manifest),
            "--out", str(metrics),
        ) == 0
        m = load_json(metrics)
        assert m["min_dominance"] >= 0.95
        res = load_json(result)
        trace = res["contrast_trace"]
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        assert res["diagnostics"] == {"stop_reason": "angle_tol"}

    def test_gen_determinism_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        man1, man2 = tmp_path / "a.json", tmp_path / "b.json"
        for out, man in ((out1, man1), (out2, man2)):
            assert self.run(
                "--seed", "7", "gen", "--sources", "2", "--samples", "100",
                "--dist", "bpsk", "--out", str(out), "--manifest", str(man),
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert man1.read_bytes() == man2.read_bytes()

    def test_cumulants_command(self, tmp_path):
        samples = tmp_path / "s.csv"
        out = tmp_path / "c.json"
        save_samples(samples, rng.standard_normal((500, 2)))
        assert self.run("cumulants", "--order", "4", "--in", str(samples), "--out", str(out)) == 0
        c = tensor_from_obj(load_json(out))
        assert isinstance(c, SymTensor) and c.order == 4

    def test_parafac_command(self, tmp_path):
        from tensorbss.parafac import KruskalFactors, reconstruct

        r = np.random.default_rng(3)
        truth = KruskalFactors(*(r.standard_normal((4, 2)) for _ in range(3)))
        tpath, fpath = tmp_path / "t.json", tmp_path / "f.json"
        save_json(tensor_to_obj(reconstruct(truth)), tpath)
        assert self.run("parafac", "--rank", "2", "--in", str(tpath), "--out", str(fpath)) == 0
        obj = load_json(fpath)
        assert obj["fit_history"][-1] <= 1e-8

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--rank", "0"), "rank must be >= 1"),
            (("--rank", "2", "--max-iters", "-5"), "max_iters must be >= 0"),
            (("--rank", "2", "--tol", "-1"), "rel_tol must be finite"),
            (("--rank", "2", "--tol", "nan"), "rel_tol must be finite"),
        ],
    )
    def test_parafac_bad_flags_exit_1(self, tmp_path, capsys, flags, message):
        tpath = tmp_path / "t.json"
        save_json(tensor_to_obj(DenseTensor(rng.standard_normal((3, 3, 3)))), tpath)
        out = tmp_path / "f.json"
        assert self.run("parafac", *flags, "--in", str(tpath), "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_parafac_order2_exits_1(self, tmp_path, capsys):
        tpath = tmp_path / "t.json"
        save_json(tensor_to_obj(DenseTensor(rng.standard_normal((3, 3)))), tpath)
        out = tmp_path / "f.json"
        assert self.run("parafac", "--rank", "1", "--in", str(tpath), "--out", str(out)) == 1
        assert "order-3" in capsys.readouterr().err

    def test_sylvester_command(self, tmp_path):
        qpath, dpath = tmp_path / "q.json", tmp_path / "d.json"
        save_json({"degree": 3, "gamma": [0.0, 0.0, 1 / 3, 0.0]}, qpath)
        assert self.run("sylvester", "--in", str(qpath), "--out", str(dpath)) == 0
        dec = load_json(dpath)
        assert dec["rank"] == 3 and dec["field"] == "real"

    def test_rank1_command(self, tmp_path):
        from tensorbss.core import rank1_sym

        t = rank1_sym(np.array([0.6, 0.8]), 4, 2.0)
        tpath, opath = tmp_path / "t.json", tmp_path / "o.json"
        save_json(tensor_to_obj(t), tpath)
        assert self.run("rank1", "--in", str(tpath), "--out", str(opath)) == 0
        obj = load_json(opath)
        assert obj["sigma"] == pytest.approx(2.0, rel=1e-8)
        assert obj["approximation_error"] <= 1e-8

    def test_tables_command(self, capsys):
        assert self.run("tables", "--d", "3", "--n", "4") == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"d": 3, "n": 4, "generic_rank": 5, "manifold_dim": 0}

    def test_tables_orbits(self, capsys):
        assert self.run("tables", "--orbits") == 0
        out = json.loads(capsys.readouterr().out)
        assert "x^2y (2 vars)" in out and out["x^2y (2 vars)"]["rank"] == 3

    def test_unknown_flag_exits_1(self, capsys):
        assert self.run("tables", "--bogus") == 1
        assert "usage error" in capsys.readouterr().err

    def test_underdetermined_refused(self, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        save_samples(samples, rng.standard_normal((100, 2)))
        code = self.run(
            "ica", "--sources", "3", "--in", str(samples), "--out", str(tmp_path / "r.json")
        )
        assert code == 1
        assert "sylvester" in capsys.readouterr().err

    def test_fewer_sources_refused(self, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        save_samples(samples, rng.standard_normal((100, 3)))
        out = tmp_path / "r.json"
        code = self.run("ica", "--sources", "2", "--in", str(samples), "--out", str(out))
        assert code == 1
        assert "source-count detection" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure_exits_2(self, tmp_path, capsys):
        qpath = tmp_path / "q.json"
        save_json({"degree": 2, "gamma": [0.0, 0.0, 0.0]}, qpath)
        code = self.run("sylvester", "--in", str(qpath), "--out", str(tmp_path / "d.json"))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "message" in err and "error" in err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert self.run("cumulants", "--order", "2", "--in", str(tmp_path / "nope.csv"),
                        "--out", str(tmp_path / "c.json")) == 1

    @pytest.mark.parametrize(
        "text, where",
        [
            ("", "line 1"),
            ("y1,y2\n", "no samples"),
            ("y1,y2\n1.0,2.0\n3.0\n", "line 3: expected 2 values"),
            ("y1,y2\n1.0,2.0\n3.0,abc\n", "line 3, column 2: 'abc'"),
            ("y1,y2\n1.0,nan\n3.0,4.0\n", "line 2, column 2: nan"),
            ("y1,y2\n1.0,2.0\n\ninf,4.0\n\n", "line 4, column 1: inf"),
            ("y1,y2\n1.0,2.0\n3.0,-inf\n", "line 3, column 2: -inf"),
        ],
        ids=["empty", "header-only", "ragged-row", "non-numeric-cell", "nan-cell", "inf-cell",
             "negative-inf-cell"],
    )
    def test_malformed_samples_exit_1(self, tmp_path, capsys, text, where):
        samples = tmp_path / "s.csv"
        samples.write_text(text)
        code = self.run("ica", "--in", str(samples), "--out", str(tmp_path / "r.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and where in err
