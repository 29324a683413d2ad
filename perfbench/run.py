"""tensorbss benchmark: timed end-to-end metrics, or traced per-layer metrics.

    python3 perfbench/run.py --workload ica-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the program is imported from its ``src``.
Each workload runs in a fresh worker process with BLAS pinned to one
thread.  The timed mode (``--trace 0``) reports ``setup_s``, ``rel_op_time``
and ``peak_rss_mb``; the traced mode (``--trace 1``) reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("ica-wide", "ica-greedy", "cli-pipeline", "decompose")
BLAS_THREADS = "1"
RUN_BUDGET_S = 170.0


class BenchmarkError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Run the worker to completion and return its JSON result line.

    The worker gets its own process group, so on timeout it is killed with
    every process it started.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"worker {' '.join(args)} ran out of time")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    result = _worker(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(traced))],
        time.monotonic() + RUN_BUDGET_S,
    )
    metrics = result["metrics"]
    print(f"workload {name}, seed {seed}, {'traced' if traced else 'timed'}: "
          f"{result['attempted']} operations attempted, {result['failed']} failed, "
          f"outputs {'correct' if result['correct'] else 'WRONG'}; {result['blas']}")
    print(f"  wall-clock rate {result['ops_per_s']:.6g} ops/s (depends on the host's speed)")
    for metric, m in metrics.items():
        print(f"  {metric:30s} {m['value']:.6g} {m['unit']}")
    return {key: result[key] for key in ("correct", "attempted", "failed")} | {"metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "tensorbss" / "__init__.py").is_file():
        print(f"no tensorbss sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
