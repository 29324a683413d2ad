"""Quick self-test of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

It runs every workload once at a tiny size, plain and traced, and checks
that the outputs pass and that the traced layers show up; it feeds every
check a deliberately wrong output and expects a problem back; it checks
that the reference computations never load tensorbss; it runs ``run.py``
once for real; and it runs ``run.py`` in a directory that holds
only the benchmark, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ["PYTHONPATH"] = str(ROOT / "src")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tensorbss import jacobi, whiten  # noqa: E402

FAILURES: list[str] = []

# layers each workload must show in its trace (metrics that read above 0)
EXPECTED_LAYERS = {
    "ica-wide": ("cumulants.cumulant_tensor_s", "whiten.standardize_s", "core.expand_s",
                 "core.symmetrize_s", "jacobi.ica_self_s", "jacobi.rotations"),
    "ica-greedy": ("cumulants.cumulant_tensor_s", "jacobi.ica_self_s", "jacobi.rotations"),
    "cli-pipeline": ("io.save_samples_s", "io.load_samples_s", "io.csv_mb", "cli.gen_self_s",
                     "cli.ica_self_s", "cli.score_self_s", "simulate.gen_s", "simulate.score_s",
                     "cumulants.cumulant_tensor_s", "jacobi.ica_self_s"),
    "decompose": ("parafac.als_step_s", "parafac.reconstruct_s", "parafac.als_self_s",
                  "parafac.iterations", "rank1.best_rank1_s", "rank1.starts",
                  "rank1.iterations", "sylvester.cand_binary_s", "sylvester.candidates"),
}


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def rejects(problems: list[str], what: str) -> None:
    expect(bool(problems), f"check rejects {what}: {problems[:1]}")


def tiny_runs(workdir: Path) -> dict:
    """Run each tiny workload plain and traced; return one correct output per workload."""
    outputs = {}
    for name in workloads.NAMES:
        w = workloads.make(name, workdir, tiny=True)
        item = w.input(0)
        w.warm_up()
        out = w.run(item)
        expect(w.check(item, out) == [], f"{name}: tiny operation passes its checks")
        tracer = tracing.Tracer()
        if isinstance(w, workloads.CliPipeline):
            w.in_process = True
        with tracer.tracing(0):
            traced_out = w.run(item)
        expect(w.check(item, traced_out) == [], f"{name}: traced operation passes its checks")
        metrics = tracing.layer_metrics(tracer.spans, [0])
        missing = [m for m in EXPECTED_LAYERS[name] if not metrics[m]["value"] > 0]
        expect(not missing, f"{name}: traced layers are visible {missing or ''}")
        outputs[name] = (w, item, out)
    expect(jacobi.standardize is whiten.standardize, "tracing restores names imported by name")
    return outputs


def wrong_outputs(outputs: dict) -> None:
    w, item, (whitener, res) = outputs["ica-wide"]
    separator = res.Q.T @ whitener.T
    expect(checks.check_ica(separator, item.mixing, res.Q, res.trace) == [], "ica output passes")
    mixed = separator.copy()
    mixed[[0, 1]] = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0) @ separator[[0, 1]]
    rejects(checks.check_ica(mixed, item.mixing, res.Q, res.trace), "a separator with two mixed rows")
    rejects(checks.check_ica(separator, item.mixing, res.Q, res.trace + [res.trace[-1] - 1e-9]),
            "a decreasing contrast trace")
    skewed = res.Q.copy()
    skewed[:, 0] *= 1.0 + 1e-8
    rejects(checks.check_ica(separator, item.mixing, skewed, res.trace), "a non-orthogonal Q")

    w, item, codes = outputs["cli-pipeline"]
    samples = np.loadtxt(w._path("samples.csv"), delimiter=",", skiprows=1, ndmin=2)
    mixing = np.asarray(json.loads(Path(w._path("manifest.json")).read_text())["mixing"])
    separator = np.asarray(json.loads(Path(w._path("result.json")).read_text())["separator"])
    score = json.loads(Path(w._path("score.json")).read_text())["min_dominance"]
    expect(checks.check_exit_codes(codes) + checks.check_cli(samples, mixing, separator, score) == [],
           "cli output passes")
    rejects(checks.check_exit_codes([0, 2]), "a nonzero exit code")
    rejects(checks.check_cli(samples, 1.2 * mixing, separator, score),
            "a manifest mixing that does not match cov(samples)")
    rejects(checks.check_cli(samples, mixing, separator, score - 1e-6),
            "a score that differs from the recomputed dominance")
    mixed = separator.copy()
    mixed[0] = separator[0] + separator[1]
    rejects(checks.check_cli(samples, mixing, mixed, score), "a separator with two mixed rows")

    w, item, (factors, history, approx, decs) = outputs["decompose"]
    f = (factors.weights, factors.A, factors.B, factors.C)
    expect(checks.check_als(item.tensor, item.planted_fit, *f, history) == [], "ALS output passes")
    rejects(checks.check_als(item.tensor, item.planted_fit, *f, history + [history[-1] * 1.01]),
            "an increasing fit history")
    rejects(checks.check_als(item.tensor, item.planted_fit, 1.1 * factors.weights, *f[1:], history),
            "factors that fit worse than the planted ones")
    expect(checks.check_rank1(item.symmetric, approx.w, approx.sigma) == [], "rank-1 output passes")
    w_off = approx.w + 1e-4 * np.eye(approx.w.size)[0]
    rejects(checks.check_rank1(item.symmetric, w_off / np.linalg.norm(w_off), approx.sigma),
            "a perturbed rank-1 direction")
    rejects(checks.check_rank1(item.symmetric, approx.w, approx.sigma * (1 + 1e-6)),
            "a perturbed rank-1 weight")
    gamma, terms = item.quantics[0], decs[0].terms
    expect(checks.check_waring(gamma, terms) == [], "Waring output passes")
    (w0, a0, b0), rest = terms[0], terms[1:]
    rejects(checks.check_waring(gamma, ((w0 * (1 + 1e-6), a0, b0),) + rest), "a perturbed Waring weight")
    rejects(checks.check_waring(gamma, rest), "a Waring decomposition missing a term")


def run_py(cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ica-greedy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def end_to_end() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_py(ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"]
           and result["correct"] and result["failed"] == 0,
           "run.py prints the result object as its last line")
    expect(sorted(result.get("metrics", {})) == sorted(m["name"] for m in spec["end_to_end"]),
           "run.py reports every end-to-end metric")
    expect(list(run.WORKLOADS) == list(workloads.NAMES) == [w["name"] for w in spec["workloads"]]
           == list(reference.KERNELS),
           "run.py, workloads.py, reference.py and BENCHMARK.json name the same workloads")
    probe = ("import sys, reference\nfor name in reference.KERNELS: reference.time_once(name)\n"
             "print('tensorbss' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=HERE, capture_output=True,
                          text=True, timeout=60)
    expect(proc.stdout.strip() == "False", "the reference computations do not use tensorbss")
    expect(sorted([*tracing.PER_LAYER, "cli.import_s", "trace.overhead_pct"])
           == sorted(m["name"] for m in spec["per_layer"]),
           "the traced metrics are the per-layer metrics of BENCHMARK.json")

    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        bare = Path(tmp)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_py(bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "run.py fails without a result where there are no sources")


def main() -> int:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"selftest-{os.getpid()}"
    try:
        wrong_outputs(tiny_runs(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    end_to_end()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
