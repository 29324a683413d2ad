"""The benchmark's workloads: inputs drawn from a seed, one operation, its checks.

Every workload exposes ``input(seed)`` (the input a run repeats, built
during set-up), ``warm_up()`` (one small operation that
fills per-process caches and is never timed), ``run(item)`` (one operation)
and ``check(item, output)`` (the list of problems found by :mod:`checks`).
Calls into tensorbss go through module attributes, so the wrappers that
:mod:`tracing` installs see them.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import numpy as np

import checks
from tensorbss import cli, jacobi, parafac, rank1, sylvester

SPEC = jacobi.ContrastSpec(alpha=2, order=4)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0])


class Workload:
    """What the workloads share: where their peak memory is read."""

    def peak_rss_kb(self) -> int:
        """Peak resident set of the process doing the work, in KiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass(frozen=True)
class IcaInput:
    samples: np.ndarray
    mixing: np.ndarray


class IcaWorkload(Workload):
    """Library ``ica`` on uniform sources under a Gaussian mixing."""

    def __init__(self, strategy: str, sensors: int, samples: int):
        self.strategy = strategy
        self.sensors = sensors
        self.samples = samples

    def input(self, seed: int) -> IcaInput:
        rng = _rng(seed)
        s = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (self.samples, self.sensors))
        a = rng.standard_normal((self.sensors, self.sensors))
        return IcaInput(s @ a.T, a)

    def warm_up(self) -> None:
        x = np.random.default_rng(0).uniform(-1.0, 1.0, (500, self.sensors))
        jacobi.ica(x, SPEC, max_sweeps=1)

    def run(self, item: IcaInput):
        return jacobi.ica(item.samples, SPEC, strategy=self.strategy)

    def check(self, item: IcaInput, output) -> list[str]:
        whitener, result = output
        separator = result.Q.T @ whitener.T
        return checks.check_ica(separator, item.mixing, result.Q, result.trace)


class CliPipeline(Workload):
    """``tensorbss gen -> ica -> score`` on files, one fresh interpreter per subcommand.

    ``in_process`` drives ``tensorbss.cli.main`` inside this process instead,
    which the traced run uses so that spans below the CLI are visible.  Peak
    memory is that of the largest subcommand process, read from each one's
    own resource usage, so other children of this process do not count.
    """

    def __init__(self, sources: int, samples: int, workdir: Path):
        self.sources = sources
        self.samples = samples
        self.workdir = workdir
        self.in_process = False
        self._child_peak_kb = 0

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def input(self, seed: int) -> int:
        """The ``--seed`` given to ``gen`` in every operation of the run."""
        return int(_rng(seed).integers(2**31))

    def _argvs(self, gen_seed: int, samples: int) -> list[list[str]]:
        csv, manifest = self._path("samples.csv"), self._path("manifest.json")
        result = self._path("result.json")
        return [
            ["--seed", str(gen_seed), "gen", "--sources", str(self.sources),
             "--samples", str(samples), "--dist", "uniform", "--mixing", "general",
             "--out", csv, "--manifest", manifest],
            ["ica", "--in", csv, "--out", result],
            ["score", "--result", result, "--manifest", manifest,
             "--out", self._path("score.json")],
        ]

    def _pipeline(self, gen_seed: int, samples: int) -> list[int]:
        self.workdir.mkdir(parents=True, exist_ok=True)
        codes = []
        for argv in self._argvs(gen_seed, samples):
            code = cli.main(argv) if self.in_process else self._subcommand(argv)
            codes.append(code)
            if code != 0:
                break
        return codes

    def _subcommand(self, argv: list[str]) -> int:
        # run.py kills this process group if a subcommand hangs
        proc = subprocess.Popen(
            [sys.executable, "-m", "tensorbss.cli", *argv], stdout=subprocess.DEVNULL
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._child_peak_kb = max(self._child_peak_kb, usage.ru_maxrss)
        return proc.returncode

    def peak_rss_kb(self) -> int:
        return self._child_peak_kb

    def warm_up(self) -> None:
        self._pipeline(0, 2000)

    def run(self, item: int) -> list[int]:
        return self._pipeline(item, self.samples)

    def check(self, item: int, output: list[int]) -> list[str]:
        problems = checks.check_exit_codes(output)
        if problems:
            return problems
        samples = np.loadtxt(self._path("samples.csv"), delimiter=",", skiprows=1, ndmin=2)
        with open(self._path("manifest.json")) as fh:
            mixing = json.load(fh)["mixing"]
        with open(self._path("result.json")) as fh:
            separator = json.load(fh)["separator"]
        with open(self._path("score.json")) as fh:
            score_min = json.load(fh)["min_dominance"]
        return checks.check_cli(samples, mixing, separator, score_min)


@dataclass(frozen=True)
class DecomposeInput:
    tensor: np.ndarray
    planted_fit: float
    symmetric: np.ndarray
    quantics: tuple[np.ndarray, ...]


def _symmetrized(arr: np.ndarray) -> np.ndarray:
    perms = list(permutations(range(arr.ndim)))
    return sum(np.transpose(arr, p) for p in perms) / len(perms)


class Decompose(Workload):
    """One ALS in the collinear-factor swamp, one best rank-1, binary Waring decompositions.

    The planted factors have unit columns with the same cosine between every
    pair of columns in every mode, so the swamp is equally deep on every
    seed; the seed draws the orientation of each mode and the noise.
    """

    def __init__(self, size: int, rank: int, cosine: float, noise: float,
                 sym_dim: int, degrees: tuple[int, ...]):
        self.size = size
        self.rank = rank
        self.cosine = cosine
        self.noise = noise
        self.sym_dim = sym_dim
        self.degrees = degrees
        self.config = parafac.ALSConfig(rank=rank, max_iters=1000, rel_tol=1e-10)

    def input(self, seed: int) -> DecomposeInput:
        gram = (1.0 - self.cosine) * np.eye(self.rank) + self.cosine
        root = np.linalg.cholesky(gram)
        rng = _rng(seed)
        factors = [
            np.linalg.qr(rng.standard_normal((self.size, self.rank)))[0] @ root.T
            for _ in range(3)
        ]
        planted = np.einsum("ip,jp,kp->ijk", *factors)
        e = rng.standard_normal(planted.shape)
        tensor = planted + self.noise * np.linalg.norm(planted) / np.linalg.norm(e) * e
        fit = float(np.linalg.norm(tensor - planted) / np.linalg.norm(tensor))
        symmetric = _symmetrized(rng.standard_normal((self.sym_dim,) * 4))
        quantics = tuple(rng.standard_normal(d + 1) for d in self.degrees)
        return DecomposeInput(tensor, fit, symmetric, quantics)

    def warm_up(self) -> None:
        rng = np.random.default_rng(0)
        parafac.als(rng.standard_normal((6, 6, 6)), parafac.ALSConfig(rank=2, max_iters=3))
        rank1.best_rank1(_symmetrized(rng.standard_normal((3,) * 4)))
        sylvester.cand_binary(sylvester.BinaryQuantic(3, rng.standard_normal(4)))

    def run(self, item: DecomposeInput):
        factors, history = parafac.als(item.tensor, self.config)
        approx = rank1.best_rank1(item.symmetric)
        decs = [
            sylvester.cand_binary(sylvester.BinaryQuantic(g.size - 1, g)) for g in item.quantics
        ]
        return factors, history, approx, decs

    def check(self, item: DecomposeInput, output) -> list[str]:
        factors, history, approx, decs = output
        problems = checks.check_als(
            item.tensor, item.planted_fit, factors.weights, factors.A, factors.B, factors.C,
            history,
        )
        problems += checks.check_rank1(item.symmetric, approx.w, approx.sigma)
        for g, dec in zip(item.quantics, decs):
            problems += checks.check_waring(g, dec.terms)
        return problems


# Odd degrees from 5 up are left out: on some random quantics cand_binary
# misses the generic rank there (see the README).
DEGREES = (3, 4, 6, 8, 10, 12)


def make(name: str, workdir: Path, tiny: bool = False):
    """The named workload at its benchmark size, or at a size for the self-test."""
    if name == "ica-wide":
        return IcaWorkload("cyclic", 16, 20_000) if not tiny else IcaWorkload("cyclic", 5, 3000)
    if name == "ica-greedy":
        return IcaWorkload("greedy", 10, 5000) if not tiny else IcaWorkload("greedy", 4, 3000)
    if name == "cli-pipeline":
        return CliPipeline(4, 100_000, workdir) if not tiny else CliPipeline(3, 3000, workdir)
    if name == "decompose":
        if tiny:
            return Decompose(10, 3, 0.5, 0.01, 4, (3, 4))
        return Decompose(50, 5, 0.8, 0.01, 8, DEGREES)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("ica-wide", "ica-greedy", "cli-pipeline", "decompose")
