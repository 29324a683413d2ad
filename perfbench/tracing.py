"""Spans around the calls into tensorbss's layers, recorded from the benchmark's side.

For one operation at a time, :meth:`Tracer.tracing` replaces each function
in ``TRACED`` by a timing wrapper everywhere a tensorbss module looks it up:
in the module that defines it and in every module that imported it by name
(``jacobi`` calls ``standardize``, ``cumulant_tensor`` and ``symmetrize``
that way).  The originals are put back when the operation ends, so untraced
operations run the program unchanged.  Spans stay in memory until
:meth:`Tracer.write` saves them.

A span's self time is its duration minus the durations of its direct child
spans.  Only the functions below get spans; time in anything else counts as
self time of the nearest traced caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

MB = 2**20
CLI_COMMANDS = ("gen", "ica", "score")


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _cumulant_counts(args, result):
    return {"entries": result.packed.size, "products": result.packed.size * len(args[0])}


def _ica_counts(args, result):
    return {"rotations": result[1].rotations, "sweeps": result[1].sweeps}


def _csv_counts(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _als_counts(args, result):
    return {"iterations": len(result[1]) - 1}


def _rayleigh_counts(args, result):
    return {"iterations": result.iterations}


def _cli_span(args):
    command = next((a for a in args[0] if a in CLI_COMMANDS), "other")
    return f"cli.{command}"


# (module, attribute, span name or a function of the call's arguments, counts)
TRACED = (
    ("tensorbss.cumulants", "cumulant_tensor", "cumulants.cumulant_tensor", _cumulant_counts),
    ("tensorbss.whiten", "standardize", "whiten.standardize", None),
    ("tensorbss.core", "SymTensor.expand", "core.expand", None),
    ("tensorbss.core", "symmetrize", "core.symmetrize", None),
    ("tensorbss.jacobi", "ica", "jacobi.ica", _ica_counts),
    ("tensorbss.io", "save_samples", "io.save_samples", _csv_counts),
    ("tensorbss.io", "load_samples", "io.load_samples", None),
    ("tensorbss.cli", "main", _cli_span, None),
    ("tensorbss.simulate", "gen", "simulate.gen", None),
    ("tensorbss.simulate", "score", "simulate.score", None),
    ("tensorbss.parafac", "als", "parafac.als", _als_counts),
    ("tensorbss.parafac", "als_step", "parafac.als_step", None),
    ("tensorbss.parafac", "reconstruct", "parafac.reconstruct", None),
    ("tensorbss.rank1", "best_rank1", "rank1.best_rank1", None),
    ("tensorbss.rank1", "rayleigh_iterate", "rank1.rayleigh_iterate", _rayleigh_counts),
    ("tensorbss.sylvester", "cand_binary", "sylvester.cand_binary", None),
    ("tensorbss.sylvester", "roots_of_q", "sylvester.roots_of_q", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                name(args) if callable(name) else name,
                self._op,
                self._stack[-1] if self._stack else None,
                time.perf_counter(),
            )
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return traced

    @contextmanager
    def tracing(self, op: int):
        """Trace the calls made inside the block as operation ``op``."""
        self._op = op
        patches = []
        for module_name, attr, name, counts in TRACED:
            module = importlib.import_module(module_name)
            if "." in attr:  # a method: patch the class that defines it
                owner_name, attr = attr.split(".")
                owner = getattr(module, owner_name)
                patches.append((owner, attr, getattr(owner, attr), name, counts))
                continue
            original = getattr(module, attr)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "tensorbss" or mod_name.startswith("tensorbss."):
                    patches.extend(
                        (mod, key, original, name, counts)
                        for key, value in list(vars(mod).items())
                        if value is original
                    )
        wrappers = {}
        try:
            for owner, attr, original, name, counts in patches:
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(original, name, counts)
                setattr(owner, attr, wrappers[id(original)])
            yield
        finally:
            for owner, attr, original, _, _ in reversed(patches):
                setattr(owner, attr, original)
            self._op = -1

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": [asdict(s) for s in self.spans]}, fh)
            fh.write("\n")


def per_op_totals(spans: list[Span]) -> dict[int, dict[str, float]]:
    """For each operation: per span name, summed time (``.s``), self time (``.self_s``) and counts."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        row = totals[s.op]
        row[s.name + ".s"] += s.end - s.start
        row[s.name + ".self_s"] += s.end - s.start - child[i]
        row[s.name + ".calls"] += 1
        for key, value in s.counts.items():
            row[f"{s.name}.{key}"] += value
    return totals


# name -> (unit, how it is derived from the per-operation totals)
PER_LAYER = {
    "cumulants.cumulant_tensor_s": ("s", ("median", "cumulants.cumulant_tensor.s")),
    "cumulants.products_per_s": ("1/s", ("rate", "cumulants.cumulant_tensor.products", "cumulants.cumulant_tensor.s")),
    "cumulants.entries": ("count", ("median", "cumulants.cumulant_tensor.entries")),
    "whiten.standardize_s": ("s", ("median", "whiten.standardize.s")),
    "core.expand_s": ("s", ("median", "core.expand.s")),
    "core.symmetrize_s": ("s", ("median", "core.symmetrize.s")),
    "jacobi.ica_self_s": ("s", ("median", "jacobi.ica.self_s")),
    "jacobi.rotations_per_s": ("1/s", ("rate", "jacobi.ica.rotations", "jacobi.ica.self_s")),
    "jacobi.rotations": ("count", ("median", "jacobi.ica.rotations")),
    "jacobi.sweeps": ("count", ("median", "jacobi.ica.sweeps")),
    "io.save_samples_s": ("s", ("median", "io.save_samples.s")),
    "io.load_samples_s": ("s", ("median", "io.load_samples.s")),
    "io.csv_mb": ("MB", ("median", "io.save_samples.bytes")),
    "cli.gen_self_s": ("s", ("median", "cli.gen.self_s")),
    "cli.ica_self_s": ("s", ("median", "cli.ica.self_s")),
    "cli.score_self_s": ("s", ("median", "cli.score.self_s")),
    "simulate.gen_s": ("s", ("median", "simulate.gen.s")),
    "simulate.score_s": ("s", ("median", "simulate.score.s")),
    "parafac.als_step_s": ("s", ("median", "parafac.als_step.s")),
    "parafac.reconstruct_s": ("s", ("median", "parafac.reconstruct.s")),
    "parafac.als_self_s": ("s", ("median", "parafac.als.self_s")),
    "parafac.iterations": ("count", ("median", "parafac.als.iterations")),
    "rank1.best_rank1_s": ("s", ("median", "rank1.best_rank1.s")),
    "rank1.starts": ("count", ("median", "rank1.rayleigh_iterate.calls")),
    "rank1.iterations": ("count", ("median", "rank1.rayleigh_iterate.iterations")),
    "sylvester.cand_binary_s": ("s", ("median", "sylvester.cand_binary.s")),
    "sylvester.candidates": ("count", ("median", "sylvester.roots_of_q.calls")),
}


def layer_metrics(spans: list[Span], ops: list[int]) -> dict[str, dict]:
    """Per-layer metrics over the traced operations ``ops``: medians per operation, rates over all.

    A layer that the workload never calls reads 0.
    """
    totals = per_op_totals(spans)
    rows = [totals.get(op, {}) for op in ops]
    metrics = {}
    for name, (unit, (kind, *keys)) in PER_LAYER.items():
        if kind == "median":
            value = statistics.median(row.get(keys[0], 0.0) for row in rows) if rows else 0.0
        else:
            work = sum(row.get(keys[0], 0.0) for row in rows)
            busy = sum(row.get(keys[1], 0.0) for row in rows)
            value = work / busy if busy > 0 else 0.0
        if unit == "MB":
            value /= MB
        metrics[name] = {"value": value, "unit": unit}
    return metrics
