"""One workload in one fresh process: set-up, warm-up, then the measured rounds.

Started by ``run.py``, which sets ``PYTHONPATH`` to the checkout's ``src``
and pins the BLAS thread count.  Prints one JSON object as its last line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import tensorbss.cli; "
    "print(time.perf_counter() - t)"
)


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        name = "unknown BLAS"
    return f"{name}, OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}"


def _probe(cmd: list[str]) -> float:
    """Run a fresh interpreter that prints a time as its last line; return that time."""
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=30).stdout
    return float(out.strip().splitlines()[-1])


def _measure(workload, item, seconds: float, tracer, between_ops, reference_s):
    """Rounds of the operation on ``item`` until another round would end past ``seconds``.

    Untraced, a round is one operation.  Traced, it is one untraced and one
    traced operation, so the two can be compared on equal work.
    ``reference_s()`` times the workload's reference computation right after
    each operation, outside the operation's timing.  ``between_ops`` runs
    after every operation, outside its timing, but inside ``seconds``.  The
    first round always runs; a further one starts only if a round as long as
    the longest so far would end within ``seconds``.  Returns the successful
    operations' times (untraced, traced), the reference times that followed
    them, the traced operation ids, the attempt and failure counts, and
    whether every output that was produced passed its checks.
    """
    times = {False: [], True: []}
    refs = {False: [], True: []}
    traced_ops = []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    longest_round = 0.0
    while True:
        round_start = time.perf_counter()
        for traced in (False, True) if tracer is not None else (False,):
            op = attempted
            attempted += 1
            try:
                t0 = time.perf_counter()
                if traced:
                    with tracer.tracing(op):
                        output = workload.run(item)
                else:
                    output = workload.run(item)
                elapsed = time.perf_counter() - t0
                ref = reference_s()
                problems = workload.check(item, output)
            except Exception:  # an operation that raises fails alone; the run goes on
                failed += 1
                traceback.print_exc(file=sys.stderr)
            else:
                if problems:
                    failed += 1
                    correct = False
                    print(f"operation {op} failed its checks: {problems}", file=sys.stderr)
                else:
                    times[traced].append(elapsed)
                    refs[traced].append(ref)
                    if traced:
                        traced_ops.append(op)
            between_ops()
        now = time.perf_counter()
        longest_round = max(longest_round, now - round_start)
        if now - start + longest_round > seconds:
            break
    return times, refs, traced_ops, attempted, failed, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # set-up: importing tensorbss and building this run's input
    t0 = time.perf_counter()
    import tensorbss
    import workloads

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workload = workloads.make(args.workload, workdir)
    item = workload.input(args.seed)
    setup_s = time.perf_counter() - t0

    src = Path(tensorbss.__file__).resolve().parent.parent
    if src != ROOT / "src":
        print(f"tensorbss was imported from {src}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(setup_s)
        return 0

    # Fresh-interpreter samples are taken between operations, so that their
    # median covers the same stretch of time as the operations do.
    tracer = None
    samples = [setup_s]
    probe = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"]
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        workload.in_process = True
        samples = []
        probe = [sys.executable, "-c", IMPORT_PROBE] if args.workload == "cli-pipeline" else None

    def between_ops():
        if probe is not None:
            samples.append(_probe(probe))

    import reference  # after the set-up timing, which must not lose its numpy import to it

    try:
        workload.warm_up()
        reference.time_once(args.workload)  # builds the reference's fixed inputs
        times, refs, traced_ops, attempted, failed, correct = _measure(
            workload, item, args.seconds, tracer, between_ops,
            lambda: reference.time_once(args.workload),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    blas = _blas()
    if tracer is None:
        done, ref = times[False], refs[False]
        metrics = {
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "rel_op_time": {"value": sum(done) / sum(ref) if done else 0.0, "unit": "x"},
            "peak_rss_mb": {"value": workload.peak_rss_kb() / 1024, "unit": "MB"},
        }
    else:
        metrics = tracing.layer_metrics(tracer.spans, traced_ops)
        import_s = statistics.median(samples) if samples else 0.0
        metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
        untraced, traced = sum(times[False]), sum(times[True])
        overhead = 100.0 * (traced / untraced - 1.0) if untraced > 0 and traced > 0 else 0.0
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(
            OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "blas": blas,
             "traced_ops": traced_ops, "untraced_s": untraced, "traced_s": traced},
        )
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
        "blas": blas, "ops_per_s": len(times[False]) / sum(times[False]) if times[False] else 0.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
