import argparse
import contextlib
import io
import json
import math
import os
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorbss.io as tio
from tensorbss.cli import _emit, main
from tensorbss.io import (
    _BLOCK_ROWS,
    InputError,
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


def _save_samples_per_cell(path, samples, names=None):
    """Reference writer, one ``repr`` per cell: ``save_samples`` must match its bytes."""
    samples = np.asarray(samples, dtype=float)
    if names is None:
        names = [f"y{k + 1}" for k in range(samples.shape[1])]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in samples:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _load_samples_per_line(path):
    """Reference reader, Python ``float`` per cell: ``load_samples`` must match its
    arrays bit for bit and its ``InputError`` messages."""
    with open(path) as fh:
        header = fh.readline()
        if not header.strip():
            raise InputError(f"{path}, line 1: no header row (empty file or blank line)")
        names = [h.strip() for h in header.split(",")]
        rows, blank = [], []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                blank.append(lineno)
                continue
            cells = line.split(",")
            if len(cells) != len(names):
                raise InputError(
                    f"{path}, line {lineno}: expected {len(names)} values as in the header, "
                    f"found {len(cells)}"
                )
            try:
                rows.append([float(v) for v in cells])
            except ValueError:
                col = next(k for k, v in enumerate(cells) if not _is_number(v))
                raise InputError(
                    f"{path}, line {lineno}, column {col + 1}: {cells[col].strip()!r} "
                    "is not a number"
                ) from None
    if not rows:
        raise InputError(f"{path}: no samples after the header row")
    samples = np.asarray(rows, dtype=float)
    if not np.isfinite([samples.min(), samples.max()]).all():
        k, col = np.argwhere(~np.isfinite(samples))[0]
        lineno = k + 2
        for b in blank:
            if b <= lineno:
                lineno += 1
        raise InputError(
            f"{path}, line {lineno}, column {col + 1}: {float(samples[k, col])!r} "
            "is not a finite number"
        )
    return samples, names


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# (file text, part of the error message) for samples CSVs the CLI refuses with exit 1
MALFORMED_SAMPLES = [
    pytest.param("", "line 1", id="empty"),
    pytest.param("y1,y2\n", "no samples", id="header-only"),
    pytest.param("y1,y2\n1.0,2.0\n3.0\n", "line 3: expected 2 values", id="ragged-row"),
    pytest.param("y1,y2\n1.0,2.0\n3.0,abc\n", "line 3, column 2: 'abc'", id="non-numeric-cell"),
    pytest.param("y1,y2\n1.0,nan\n3.0,4.0\n", "line 2, column 2: nan", id="nan-cell"),
    pytest.param("y1,y2\n1.0,2.0\n\ninf,4.0\n\n", "line 4, column 1: inf", id="inf-cell"),
    pytest.param("y1,y2\n1.0,2.0\n3.0,-inf\n", "line 3, column 2: -inf", id="negative-inf-cell"),
    pytest.param(
        "y1,y2\n1.0,2.0\n3.0,4.0,\n", "line 3: expected 2 values as in the header, found 3",
        id="trailing-comma",
    ),
    pytest.param(
        "y1,y2\n1,2,3\n4,5,6\n", "line 2: expected 2 values as in the header, found 3",
        id="every-row-wrong-count",
    ),
]

# (file bytes, line) for samples CSVs holding bytes that are not UTF-8
NON_UTF8_SAMPLES = [
    pytest.param(b"\xff\xfey1,y2\n1.0,2.0\n", 1, id="header"),
    pytest.param(b"y1,y2\n\xff\xfe1.0,2.0\n", 2, id="line-2"),
    pytest.param(b"y1,y2\n" + b"1.0,2.0\n" * 5000 + b"3.0,\xff\n", 5002, id="past-first-chunk"),
]

# (subcommand, input JSON, part of the error message) for input files that
# parse as JSON but hold no valid tensor or quantic
MALFORMED_INPUTS = [
    pytest.param("parafac", '{"dims": [2, 2, 2]}', "no 'data' field", id="no-data"),
    pytest.param("parafac", '{"dims": [2, 2, 2], "data": [1, 2, 3]}',
                 "data length does not match the product of dims", id="data-length"),
    pytest.param("rank1", '{"dims": [2, 2], "data": [1, 0, 0, NaN]}',
                 "field 'data': entries must be finite", id="nan-entry"),
    pytest.param("sylvester", '{"degree": 3}', "no 'gamma' field", id="no-gamma"),
    pytest.param("sylvester", '{"degree": 3, "gamma": [1, 2]}',
                 "gamma must hold degree + 1 = 4 coefficients", id="gamma-length"),
    pytest.param("rank1", "[1, 2, 3]", "not a JSON object", id="top-level-list"),
    pytest.param("rank1", '{"dims": [2, 2], "data": [1, 2, 3, 4]}',
                 "input tensor is not symmetric", id="asymmetric"),
    pytest.param("rank1", '{"sym": true, "dim": 0, "order": 3, "packed": []}',
                 "dimension and order must be >= 1, got 0 and 3", id="sym-dim-0"),
    pytest.param("rank1", '{"dims": [], "data": [1]}', "cannot symmetrize a scalar",
                 id="order-0"),
    pytest.param("parafac", '{"dims": [2, 2, 2], "data": [[1, 2, 3, 4], [5, 6, 7, 8]]}',
                 "data length does not match the product of dims", id="nested-data"),
    pytest.param("parafac", '{"dims": [2, 0, 2], "data": []}',
                 "every dimension must be >= 1, got [2, 0, 2]", id="zero-dim"),
    pytest.param("sylvester", "[" * 100_000, "not valid JSON", id="deeply-nested"),
    pytest.param("sylvester", '{"degree": Infinity, "gamma": [1]}',
                 "field 'degree': expected an integer, got inf", id="infinite-degree"),
    # sizes are JSON integers: each of these once read as a 2x2x2 tensor, or a
    # degree of 3, 1 or 3, and exited 0
    pytest.param("parafac", '{"dims": [2.9, 2, 2], "data": [1, 2, 3, 4, 5, 6, 7, 8]}',
                 "field 'dims': expected an integer, got 2.9", id="fractional-dims"),
    pytest.param("parafac", '{"dims": "222", "data": [1, 2, 3, 4, 5, 6, 7, 8]}',
                 "field 'dims': expected an integer, got '2'", id="string-dims"),
    pytest.param("rank1", '{"sym": true, "dim": 2.5, "order": 3, "packed": [1, 2, 3, 4]}',
                 "field 'dim': expected an integer, got 2.5", id="fractional-dim"),
    pytest.param("rank1", '{"sym": true, "dim": 2, "order": 3.2, "packed": [1, 2, 3, 4]}',
                 "field 'order': expected an integer, got 3.2", id="fractional-order"),
    pytest.param("sylvester", '{"degree": 3.7, "gamma": [1, 2, 3, 4]}',
                 "field 'degree': expected an integer, got 3.7", id="fractional-degree"),
    pytest.param("sylvester", '{"degree": true, "gamma": [1, 2]}',
                 "field 'degree': expected an integer, got True", id="boolean-degree"),
    pytest.param("sylvester", '{"degree": "3", "gamma": [1, 2, 3, 4]}',
                 "field 'degree': expected an integer, got '3'", id="string-degree"),
    pytest.param("sylvester", '{"degree": 3.0, "gamma": [1, 2, 3, 4]}',
                 "field 'degree': expected an integer, got 3.0", id="integral-float-degree"),
]

# samples CSVs on which load_samples must agree with the per-line reference reader
SAMPLES_CORPUS = {p.id: p.values[0] for p in MALFORMED_SAMPLES} | {
    "crlf": "y1,y2\r\n1.5,-2.0\r\n3.0,4.25\r\n",
    "no-final-newline": "y1,y2\n1.5,-2.0\n3.0,4.25",
    "padded-cells": "y1,y2\n 1.5 , -2.0\n\t3.0\t,4.25 \n",
    "signs-and-dots": "y1,y2\n+1,.5\n1.,-0.0\n",
    "infinity-word": "y1,y2\n1.0,Infinity\n",
    "whitespace-lines": "y1,y2\n1.0,2.0\n \n\t\n3.0,4.0\n",
    "whitespace-line-one-column": "y1\n1.0\n \n2.0\n",
    "whitespace-only-body": "y1,y2\n \n",
    "empty-lines-only-body": "y1,y2\n\n\n",
    "underscore-digits": "y1,y2\n1_0,2\n",
    "arabic-indic-digits": "y1,y2\n\u0661,2\n",
    "overflow": "y1,y2\n1e500,2\n",
    "underflow-and-subnormal": "y1,y2\n1e-400,5e-324\n",
    "empty-last-cell": "y1,y2,y3\n1.0,2.0,\n",
    "one-column": "y1\n1.0\n2.0\n",
    "padded-header": " y1 , y2 \n1,2\n",
}


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

    def test_order_0_tensor_stays_a_scalar(self):
        t = tensor_from_obj({"dims": [], "data": [1.5]})
        assert t.order == 0 and t.array.shape == () and t.array == 1.5
        assert tensor_to_obj(t) == {"dims": [], "data": [1.5]}

    def test_samples_roundtrip_exact(self, tmp_path):
        z = np.random.default_rng(1).standard_normal((2 * _BLOCK_ROWS + 10, 3)) * [1e-300, 1, 1e300]
        path = tmp_path / "z.csv"
        save_samples(path, z)
        back, names = load_samples(path)
        assert back.shape == z.shape and back.tobytes() == z.tobytes()
        assert names == ["y1", "y2", "y3"]

    @pytest.mark.parametrize(
        "samples, names",
        [
            ([[-0.0, 5e-324, 1.7976931348623157e308], [1e16, 1e-5, 0.1], [3.0, -7.0, 0.0]],
             None),
            (np.arange(12).reshape(4, 3), None),
            (np.random.default_rng(2).standard_normal((50, 1)), None),
            (np.empty((0, 3)), None),
            (np.random.default_rng(3).standard_normal((5, 2)), ["a", "b c"]),
            (np.random.default_rng(4).standard_normal((_BLOCK_ROWS, 2)), None),
            (np.random.default_rng(5).standard_normal((3 * _BLOCK_ROWS + 7, 2)), None),
        ],
        ids=["edge-values", "integers", "one-column", "zero-rows", "names", "one-block",
             "partial-last-block"],
    )
    def test_save_samples_matches_per_cell_writer(self, tmp_path, samples, names):
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        save_samples(new, samples, names)
        _save_samples_per_cell(ref, samples, names)
        assert new.read_bytes() == ref.read_bytes()

    @pytest.fixture
    def split_write(self, tmp_path, monkeypatch):
        """Two CPUs to run on, a private temporary directory, and the pids of the
        children that ``save_samples`` forks."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
        children = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                children.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        yield children
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)
        assert list(tmpdir.iterdir()) == []

    @pytest.mark.parametrize("cols", [1, 4])
    @pytest.mark.parametrize(
        "rows", [2 * _BLOCK_ROWS - 1, 2 * _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7]
    )
    def test_split_save_matches_per_cell_writer(self, tmp_path, split_write, rows, cols):
        samples = np.random.default_rng(rows + cols).standard_normal((rows, cols))
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        save_samples(new, samples)
        _save_samples_per_cell(ref, samples)
        assert new.read_bytes() == ref.read_bytes()
        assert len(split_write) == (rows >= 2 * _BLOCK_ROWS)

    def test_split_save_child_failure_raises(self, tmp_path, monkeypatch, split_write):
        parent = os.getpid()
        write_rows = tio._write_rows

        def failing_in_child(fh, samples, row):
            if os.getpid() != parent:
                raise RuntimeError("formatting failed")
            write_rows(fh, samples, row)

        monkeypatch.setattr(tio, "_write_rows", failing_in_child)
        with pytest.raises(OSError, match=r"rows 8192 and on failed \(exit status 1\)"):
            save_samples(tmp_path / "s.csv", np.zeros((4 * _BLOCK_ROWS, 2)))
        assert len(split_write) == 1

    def test_save_without_fork_matches_per_cell_writer(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        samples = np.random.default_rng(6).standard_normal((3 * _BLOCK_ROWS + 7, 4))
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        save_samples(new, samples)
        _save_samples_per_cell(ref, samples)
        assert new.read_bytes() == ref.read_bytes()

    @pytest.mark.filterwarnings("error")  # loadtxt warns when it sees no data
    @pytest.mark.parametrize("text", SAMPLES_CORPUS.values(), ids=SAMPLES_CORPUS.keys())
    def test_load_samples_matches_per_line_reader(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        try:
            ref = _load_samples_per_line(path)
        except InputError as exc:
            with pytest.raises(InputError) as info:
                load_samples(path)
            assert str(info.value) == str(exc)
            return
        back, names = load_samples(path)
        assert names == ref[1]
        assert back.dtype == ref[0].dtype and back.shape == ref[0].shape
        assert back.tobytes() == ref[0].tobytes()

    @pytest.mark.parametrize("data, line", NON_UTF8_SAMPLES)
    def test_load_samples_refuses_non_utf8(self, tmp_path, data, line):
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        with pytest.raises(InputError, match=f"line {line}: bytes .* are not UTF-8"):
            load_samples(path)


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

    def test_score_refuses_overflow(self):
        with pytest.raises(ValueError, match="not finite"):
            score(np.array([[1e200, 0.0], [1.0, 0.0]]), np.array([[1e200, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="not finite"):  # entries finite, row norm not
            score(np.array([[1e200, 1e200], [1.0, 0.0]]), np.eye(2))

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
        diagnostics = res["diagnostics"]
        assert diagnostics["stop_reason"] == "angle_tol"
        assert diagnostics["angle_tol"] == 1 / (100 * math.sqrt(8000))
        assert len(diagnostics["largest_angles"]) == res["sweeps"]
        largest = diagnostics["largest_angles"]
        assert largest[-1] < diagnostics["angle_tol"] <= largest[0]

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

    @pytest.mark.parametrize("strategy", ["cyclic", "greedy"])
    def test_ica_determinism_bytes(self, tmp_path, strategy):
        samples = tmp_path / "s.csv"
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        r = np.random.default_rng(4)
        save_samples(samples, r.uniform(-1.0, 1.0, (3000, 4)) @ r.standard_normal((4, 4)))
        for out in (out1, out2):
            assert self.run(
                "ica", "--strategy", strategy, "--in", str(samples), "--out", str(out),
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_cumulants_command(self, tmp_path):
        samples = tmp_path / "s.csv"
        out = tmp_path / "c.json"
        save_samples(samples, rng.standard_normal((500, 2)))
        assert self.run("cumulants", "--order", "4", "--in", str(samples), "--out", str(out)) == 0
        c = tensor_from_obj(load_json(out))
        assert isinstance(c, SymTensor) and c.order == 4

    def test_cumulant_overflow_exits_2_without_output(self, tmp_path, capsys):
        # the order-4 moments of samples near 1e160 overflow: no NaN is written
        samples, out = tmp_path / "s.csv", tmp_path / "c.json"
        save_samples(samples, np.random.default_rng(1).uniform(-1.0, 1.0, (3000, 3)) * 1e160)
        assert self.run("cumulants", "--order", "4", "--in", str(samples), "--out", str(out)) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "the order-4 cumulant overflows the float range",
        }
        assert not out.exists()

    @pytest.mark.parametrize("scale, order", [(1e-170, 2), (1e-90, 4), (1e-77, 4)])
    def test_cumulant_underflow_exits_2_without_output(self, tmp_path, capsys, scale, order):
        # the moments of samples near 1e-170 (order 2) or 1e-90 (order 4) fall below the
        # float range, and near 1e-77 the order-4 entries are subnormal: nothing is written
        samples, out = tmp_path / "s.csv", tmp_path / "c.json"
        save_samples(samples, np.random.default_rng(1).uniform(-1.0, 1.0, (3000, 3)) * scale)
        argv = ("cumulants", "--order", str(order), "--in", str(samples), "--out", str(out))
        assert self.run(*argv) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": f"the order-{order} cumulant underflows the float range",
        }
        assert not out.exists()

    def test_emit_refuses_nan(self, tmp_path):
        out = tmp_path / "x.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit({"x": [1.0, math.inf]}, argparse.Namespace(json_indent=None), out)
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_ica_at_extreme_scales(self, tmp_path, capsys, scale):
        r = np.random.default_rng(1)
        s = r.uniform(-np.sqrt(3), np.sqrt(3), (3000, 3))
        a = r.standard_normal((3, 3))
        samples, manifest = tmp_path / "s.csv", tmp_path / "m.json"
        result, metrics = tmp_path / "r.json", tmp_path / "score.json"
        save_samples(samples, (s @ a.T) * scale)
        save_json({"mixing": (a * scale).tolist()}, manifest)
        assert self.run("ica", "--in", str(samples), "--out", str(result)) == 0
        assert self.run("score", "--result", str(result), "--manifest", str(manifest),
                        "--out", str(metrics)) == 0
        assert capsys.readouterr().err == ""
        assert load_json(metrics)["min_dominance"] >= 0.95

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
            (("--rank", "2", "--max-iters", "-5"), "argument --max-iters: must be >= 0, got -5"),
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

    @pytest.mark.parametrize(
        "flags, mixing, message",
        [
            (("--sources", "0", "--samples", "10"), None, "at least one source"),
            (("--sources", "2", "--samples", "0"), None, "at least one source and one sample"),
            (("--sources", "2", "--samples", "-5"), None, "at least one source and one sample"),
            (("--sources", "2", "--samples", "10", "--noise", "-1"), None,
             "noise variance must be finite and nonnegative"),
            (("--sources", "2", "--samples", "10", "--noise", "nan"), None,
             "noise variance must be finite and nonnegative"),
            (("--sources", "2", "--samples", "10", "--noise", "inf"), None,
             "noise variance must be finite and nonnegative"),
            (("--sources", "2", "--samples", "10"), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
             "square of the source count"),
            (("--sources", "2", "--samples", "10"), [["a", "b"], ["c", "d"]],
             "could not convert"),
            (("--sources", "2", "--samples", "10"), [[math.nan, 0.0], [0.0, 1.0]],
             "mixing.json: entries must be finite numbers"),
        ],
        ids=["no-sources", "no-samples", "negative-samples", "negative-noise", "nan-noise",
             "inf-noise", "mixing-shape", "mixing-non-numeric", "mixing-nan"],
    )
    def test_gen_bad_flags_exit_1(self, tmp_path, capsys, flags, mixing, message):
        out, manifest = tmp_path / "s.csv", tmp_path / "m.json"
        if mixing is not None:
            save_json(mixing, tmp_path / "mixing.json")
            flags += ("--mixing", "given", "--mixing-file", str(tmp_path / "mixing.json"))
        code = self.run("gen", *flags, "--out", str(out), "--manifest", str(manifest))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and message in err
        assert not out.exists() and not manifest.exists()

    def _gen_and_ica(self, tmp_path):
        samples, manifest, result = (tmp_path / n for n in ("s.csv", "m.json", "r.json"))
        assert self.run("gen", "--sources", "2", "--samples", "500",
                        "--out", str(samples), "--manifest", str(manifest)) == 0
        assert self.run("ica", "--in", str(samples), "--out", str(result)) == 0
        return manifest, result

    def test_score_invalid_json_exits_1(self, tmp_path, capsys):
        manifest, _ = self._gen_and_ica(tmp_path)
        result = tmp_path / "bad.json"
        result.write_text("{not json\n")
        assert self.run("score", "--result", str(result), "--manifest", str(manifest)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and f"{result}: not valid JSON" in err

    @pytest.mark.parametrize("which, key", [("result", "separator"), ("manifest", "mixing")])
    def test_score_missing_key_exits_1(self, tmp_path, capsys, which, key):
        manifest, result = self._gen_and_ica(tmp_path)
        paths = {"result": result, "manifest": manifest}
        obj = load_json(paths[which])
        del obj[key]
        save_json(obj, paths[which])
        code = self.run("score", "--result", str(result), "--manifest", str(manifest))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and f"{paths[which]}: no '{key}' field" in err

    @pytest.mark.parametrize(
        "separator, message",
        [
            ('[["a"]]', "field 'separator': could not convert string to float"),
            ("[[1.0, 2.0]]",
             "field 'separator' has 2 columns, but the mixing in {manifest} has 1 rows"),
            ("[[NaN]]", "field 'separator': entries must be finite numbers"),
            ("3", "field 'separator': expected a nonempty matrix, got an array of shape ()"),
        ],
        ids=["non-numeric", "shape-mismatch", "nan", "scalar"],
    )
    def test_score_bad_field_exits_1(self, tmp_path, capsys, separator, message):
        result, manifest = tmp_path / "r.json", tmp_path / "m.json"
        result.write_text(f'{{"separator": {separator}}}\n')
        manifest.write_text('{"mixing": [[1.0]]}\n')
        out = tmp_path / "score.json"
        code = self.run("score", "--result", str(result), "--manifest", str(manifest),
                        "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        expected = f"usage error: {result}: {message.format(manifest=manifest)}"
        assert err.startswith(expected) and err.count("\n") == 1
        assert not out.exists()

    def test_score_zero_gain_row_exits_1(self, tmp_path, capsys):
        result, manifest = tmp_path / "r.json", tmp_path / "m.json"
        result.write_text('{"separator": [[0.0, 0.0], [1.0, 0.0]]}\n')
        manifest.write_text('{"mixing": [[1.0, 0.0], [0.0, 1.0]]}\n')
        code = self.run("score", "--result", str(result), "--manifest", str(manifest))
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            f"usage error: {result}: row 1 of field 'separator' takes the mixing in "
            f"{manifest} to zero\n"
        )

    def test_score_overflow_exits_2(self, tmp_path, capsys):
        # finite entries whose gain matrix overflows: no RuntimeWarning, one JSON line
        result, manifest = tmp_path / "r.json", tmp_path / "m.json"
        result.write_text('{"separator": [[1e200, 0.0], [1.0, 0.0]]}\n')
        manifest.write_text('{"mixing": [[1e200, 0.0], [0.0, 1.0]]}\n')
        out = tmp_path / "score.json"
        code = self.run("score", "--result", str(result), "--manifest", str(manifest),
                        "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "separator @ mixing is not finite: the product or a row norm overflows",
        }
        assert not out.exists()

    def test_huge_packed_tensor_exits_1_at_once(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text('{"sym": true, "dim": 100000, "order": 100000, "packed": [1]}')
        t0 = time.perf_counter()
        code = self.run("rank1", "--in", str(path), "--out", str(tmp_path / "r.json"))
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {path}: packed storage")
        assert err.count("\n") == 1 and len(err) < 250

    def test_warning_prints_one_line(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text('{"dims": [1, 1, 1], "data": [0]}')
        out = tmp_path / "f.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.run("parafac", "--rank", "1", "--in", str(path), "--out", str(out)) == 0
        assert caught == []  # shown by main, not passed on
        err = capsys.readouterr().err
        assert err.startswith("warning: rank 1 is beyond the uniqueness guarantee")
        assert err.count("\n") == 1
        assert out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (("--seed", "-1", "gen", "--sources", "2", "--samples", "100",
          "--out", "{tmp}/o.csv", "--manifest", "{tmp}/m.json"), "--seed"),
        (("--seed", "-1", "parafac", "--rank", "1", "--in", "{tmp}/t.json",
          "--out", "{tmp}/o.json"), "--seed"),
        (("--seed", "-1", "rank1", "--in", "{tmp}/t.json", "--out", "{tmp}/o.json"), "--seed"),
        (("rank1", "--restarts", "-1", "--in", "{tmp}/t.json", "--out", "{tmp}/o.json"),
         "--restarts"),
        (("ica", "--max-sweeps", "-1", "--in", "{tmp}/t.json", "--out", "{tmp}/o.json"),
         "--max-sweeps"),
        (("ica", "--sources", "-1", "--in", "{tmp}/t.json", "--out", "{tmp}/o.json"),
         "--sources"),
        (("parafac", "--rank", "1", "--max-iters", "-1", "--in", "{tmp}/t.json",
          "--out", "{tmp}/o.json"), "--max-iters"),
        (("--json-indent", "-1", "tables", "--d", "3", "--n", "2"), "--json-indent"),
    ], ids=["seed-gen", "seed-parafac", "seed-rank1", "restarts", "max-sweeps", "sources",
            "max-iters", "json-indent"])
    def test_negative_count_exits_1_naming_the_flag(self, tmp_path, capsys, argv, flag):
        # numpy's refusal of a negative seed exited 2 naming no flag, and rank1
        # ran one start for any restarts < 0
        save_json({"dims": [2, 2, 2], "data": [1.0] * 8}, tmp_path / "t.json")
        assert self.run(*(a.format(tmp=tmp_path) for a in argv)) == 1
        assert capsys.readouterr().err == f"usage error: argument {flag}: must be >= 0, got -1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]

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

    @pytest.mark.parametrize("gamma", ["[1e200, -3e200, 2e200, 5e199]", "[1e308, 1e308, 0, 1e308]"])
    def test_sylvester_huge_coefficients(self, tmp_path, capsys, gamma):
        # the weight solve works on the coefficients divided by a power of two
        qpath, dpath = tmp_path / "q.json", tmp_path / "d.json"
        qpath.write_text(f'{{"degree": 3, "gamma": {gamma}}}')
        assert self.run("sylvester", "--in", str(qpath), "--out", str(dpath)) == 0
        assert capsys.readouterr().err == ""

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        dec = json.loads(dpath.read_text(), parse_constant=refuse)
        assert dec["rank"] == 2 and 0.0 <= dec["residual"] <= 1e-8

    def test_parafac_weight_overflow_exits_2(self, tmp_path, capsys):
        tpath, out = tmp_path / "t.json", tmp_path / "f.json"
        tpath.write_text(
            '{"dims": [2, 2, 2], "data": [1e308, -1.7e308, 1e308, 0, 0, 5e307, 0, 1.7e308]}'
        )
        assert self.run("parafac", "--rank", "1", "--in", str(tpath), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ValueError", "message": "the weights overflow the float range"}
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--d", "5", "--n", "2"), "--d 5 --n 2 is not a tabulated cell"),
            (("--d", "3"), "--d 3 --n None is not a tabulated cell; give both"),
            (("--n", "4"), "--d None --n 4 is not a tabulated cell; give both"),
        ],
        ids=["untabulated", "d-only", "n-only"],
    )
    def test_tables_bad_cell_exits_1(self, capsys, flags, message):
        assert self.run("tables", *flags) == 1
        out = capsys.readouterr()
        assert out.err.startswith(f"usage error: {message}") and out.err.count("\n") == 1
        assert out.out == ""

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

    def test_wide_samples_exit_2_with_one_line(self, tmp_path, capsys):
        samples = tmp_path / "wide.csv"
        save_samples(samples, rng.standard_normal((5, 20_000)))
        out = tmp_path / "r.json"
        assert self.run("ica", "--in", str(samples), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert json.loads(err)["message"].endswith("N = 5 samples of n = 20000 columns")
        assert not out.exists()

    def test_ill_conditioned_mixing_exits_2_naming_the_condition(self, tmp_path, capsys):
        r = np.random.default_rng(8)
        u, _ = np.linalg.qr(r.standard_normal((8, 8)))
        w, _ = np.linalg.qr(r.standard_normal((8, 8)))
        a = (u * np.logspace(0, -7, 8)) @ w.T
        samples = tmp_path / "s.csv"
        save_samples(samples, r.uniform(-1.0, 1.0, (2000, 8)) @ a.T)
        assert self.run("ica", "--in", str(samples), "--out", str(tmp_path / "r.json")) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith("covariance is too ill-conditioned to whiten")

    def test_numerical_failure_exits_2(self, tmp_path, capsys):
        qpath = tmp_path / "q.json"
        save_json({"degree": 2, "gamma": [0.0, 0.0, 0.0]}, qpath)
        code = self.run("sylvester", "--in", str(qpath), "--out", str(tmp_path / "d.json"))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "message" in err and "error" in err

    def test_memory_error_exits_2(self, monkeypatch, capsys):
        import tensorbss.cli as cli

        def exhausted(args):
            raise MemoryError("Unable to allocate 3.01 GiB")

        monkeypatch.setitem(cli._COMMANDS, "tables", exhausted)
        assert self.run("tables", "--orbits") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert json.loads(err) == {"error": "MemoryError", "message": "Unable to allocate 3.01 GiB"}

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert self.run("cumulants", "--order", "2", "--in", str(tmp_path / "nope.csv"),
                        "--out", str(tmp_path / "c.json")) == 1

    def test_directory_input_exits_1(self, tmp_path, capsys):
        code = self.run("ica", "--in", str(tmp_path), "--out", str(tmp_path / "r.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and str(tmp_path) in err and err.count("\n") == 1

    @pytest.mark.parametrize("data, line", NON_UTF8_SAMPLES)
    def test_non_utf8_samples_exit_1(self, tmp_path, capsys, data, line):
        samples = tmp_path / "s.csv"
        samples.write_bytes(data)
        code = self.run("ica", "--in", str(samples), "--out", str(tmp_path / "r.json"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"usage error: {samples}, line {line}: bytes")

    @pytest.mark.parametrize("command, text, message", MALFORMED_INPUTS)
    def test_malformed_input_exits_1(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "in.json"
        path.write_text(text)
        out = tmp_path / "out.json"
        extra = ("--rank", "1") if command == "parafac" else ()
        assert self.run(command, *extra, "--in", str(path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {path}: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text, where", MALFORMED_SAMPLES)
    def test_malformed_samples_exit_1(self, tmp_path, capsys, text, where):
        samples = tmp_path / "s.csv"
        samples.write_text(text)
        code = self.run("ica", "--in", str(samples), "--out", str(tmp_path / "r.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and where in err


def _csv(rows) -> bytes:
    return "".join(",".join(row) + "\n" for row in rows).encode()


# Valid input of every subcommand that reads a file: the arguments after the
# subcommand, with {name} for a path, and the content of each input file, CSV
# bytes or a JSON document.  The fuzz tests below break one input at a time.
SAMPLES_ROWS = [["y1", "y2"], ["0.5", "-1.0"], ["1.5", "2.0"], ["-0.25", "0.75"], ["1.0", "0.0"]]
READERS = {
    "cumulants": (("--order", "3", "--in", "{samples}", "--out", "{out}"),
                  {"samples": _csv(SAMPLES_ROWS)}),
    "ica": (("--in", "{samples}", "--out", "{out}"), {"samples": _csv(SAMPLES_ROWS)}),
    "parafac": (("--rank", "1", "--in", "{tensor}", "--out", "{out}"),
                {"tensor": {"dims": [2, 2, 2],
                            "data": [1.0, 0.5, -0.5, 2.0, 0.0, 1.0, 3.0, -1.0]}}),
    "sylvester": (("--in", "{quantic}", "--out", "{out}"),
                  {"quantic": {"degree": 3, "gamma": [1.0, 0.5, -0.5, 2.0]}}),
    "rank1": (("--in", "{tensor}", "--out", "{out}"),
              {"tensor": {"sym": True, "dim": 2, "order": 3, "packed": [1.0, 0.5, -0.5, 2.0]}}),
    "score": (("--result", "{result}", "--manifest", "{manifest}", "--out", "{out}"),
              {"result": {"separator": [[1.0, 0.5], [0.25, 2.0]]},
               "manifest": {"mixing": [[1.0, 0.0], [0.0, 1.0]]}}),
    "gen": (("--sources", "2", "--samples", "10", "--mixing", "given", "--mixing-file",
             "{mixing}", "--out", "{out}", "--manifest", "{manifest}"),
            {"mixing": [[1.0, 0.5], [0.0, 1.0]]}),
}


def _file_bytes(content) -> bytes:
    return content if isinstance(content, bytes) else json.dumps(content).encode()


def _run_reader(command, files):
    """Exit code, stderr and input paths of ``command`` on its valid arguments,
    with ``files`` (name to content) in place of its inputs."""
    argv, base = READERS[command]
    with tempfile.TemporaryDirectory() as d:
        paths = {name: os.path.join(d, name) for name in ("out", "manifest", *base)}
        for name, content in {**base, **files}.items():
            with open(paths[name], "wb") as fh:
                fh.write(_file_bytes(content))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, *(a.format(**paths) for a in argv)])
    return code, err.getvalue(), paths


def _json_paths(doc, path=()):
    """Paths to every number and every list in a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _json_paths(value, path + (key,))
    elif isinstance(doc, list):
        yield path
        for k, value in enumerate(doc):
            yield from _json_paths(value, path + (k,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


# values of the wrong JSON type for a number or a list of numbers; booleans and
# numeric strings are left out, because the entry readers take them as numbers
# (size readers refuse them, see MALFORMED_INPUTS, and the "sym" flag, which
# no fault targets, is read by its truth value)
WRONG_TYPES = st.one_of(
    st.text(alphabet="abcxyz", max_size=4), st.none(),
    st.dictionaries(st.sampled_from("ab"), st.integers(-3, 3), max_size=2),
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_OBJECTS = st.one_of(st.lists(st.integers(-3, 3), max_size=3), st.integers(-3, 3),
                        st.text(max_size=4), st.none(), st.booleans())


@st.composite
def broken_json(draw, doc):
    """``doc`` with one structural fault."""
    doc = json.loads(json.dumps(doc))
    paths = list(_json_paths(doc))
    numbers = [p for p in paths if not isinstance(_get(doc, p), list)]
    flat_lists = [p for p in paths if isinstance(_get(doc, p), list)
                  and not isinstance(_get(doc, p)[0], list)]
    faults = ["wrong type", "non-finite", "nested", "length"]
    if isinstance(doc, dict):
        faults += ["missing key", "not an object"]
    fault = draw(st.sampled_from(faults))
    if fault == "wrong type":
        return _set(doc, draw(st.sampled_from(paths)), draw(WRONG_TYPES))
    if fault == "non-finite":
        return _set(doc, draw(st.sampled_from(numbers)), draw(NON_FINITE))
    if fault == "nested":
        path = draw(st.sampled_from(paths))
        return _set(doc, path, [_get(doc, path)])
    if fault == "length":  # a flat list one entry short or long; a matrix row makes it ragged
        values = _get(doc, draw(st.sampled_from(flat_lists)))
        if draw(st.booleans()):
            values.pop()
        else:
            values.append(values[-1])
        return doc
    if fault == "missing key":
        del doc[draw(st.sampled_from(sorted(doc)))]
        return doc
    return draw(NOT_OBJECTS)


NOT_NUMBERS = st.text(alphabet="abcxyz", max_size=4)
NON_FINITE_CELLS = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])


@st.composite
def broken_csv(draw, rows):
    """The samples CSV of ``rows`` with one structural fault, as bytes."""
    rows = [list(r) for r in rows]
    fault = draw(st.sampled_from(
        ["ragged", "not a number", "non-finite", "no samples", "no header", "not UTF-8"]
    ))
    k = draw(st.integers(1, len(rows) - 1))
    col = draw(st.integers(0, len(rows[0]) - 1))
    if fault == "ragged":
        if draw(st.booleans()):
            rows[k].pop()
        else:
            rows[k].append(rows[k][-1])
    elif fault == "not a number":
        rows[k][col] = draw(NOT_NUMBERS)
    elif fault == "non-finite":
        rows[k][col] = draw(NON_FINITE_CELLS)
    elif fault == "no samples":
        rows = rows[:1] + [[""]] * draw(st.integers(0, 2))
    elif fault == "no header":
        rows = [[""]] * draw(st.integers(0, 2))
    data = _csv(rows)
    if fault == "not UTF-8":
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xfe\xff", b"\xc3("])) + data[at:]
    return data


class TestCliFuzz:
    """Every subcommand that reads a file refuses a structurally faulty input with
    exit 1 and one ``usage error:`` line naming the file, and never raises."""

    @pytest.mark.parametrize("command", READERS)
    def test_valid_input_exits_0(self, command):
        code, err, _ = _run_reader(command, {})
        assert code == 0 and err == ""

    @pytest.mark.parametrize("command", READERS)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_broken_input_exits_1(self, command, data):
        files = READERS[command][1]
        name = data.draw(st.sampled_from(sorted(files)))
        if name == "samples":
            broken = data.draw(broken_csv(SAMPLES_ROWS))
        else:
            broken = data.draw(broken_json(files[name]))
        code, err, paths = _run_reader(command, {name: broken})
        assert code == 1, err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert paths[name] in err

    @pytest.mark.parametrize("command", READERS)
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_arbitrary_bytes_exit_0_or_1(self, command, data):
        name = data.draw(st.sampled_from(sorted(READERS[command][1])))
        code, err, _ = _run_reader(command, {name: data.draw(st.binary(max_size=64))})
        assert code in (0, 1), err
        assert err.count("\n") == code and "Traceback" not in err
