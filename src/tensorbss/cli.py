"""Command-line front end.

Subcommands: ``gen`` (synthetic mixtures), ``cumulants``, ``ica``,
``parafac``, ``sylvester``, ``rank1``, ``tables``, ``score``.  Exit status is
0 on success, 1 when the program refuses a flag, file, field or line (one
``usage error:`` line on stderr names it), and 2 on a numerical failure (a
``{"error": ..., "message": ...}`` object on stderr; running out of memory
counts as one); a warning prints as one
``warning:`` line.  All randomness is seeded via ``--seed``, so a run repeats
byte for byte on the same machine with the same numpy and BLAS build; across
builds only the statistics are guaranteed.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import io as tio
from .core import SymTensor
from .simulate import DISTRIBUTIONS, MIXINGS, ExperimentConfig, gen, score


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise tio.InputError(message)


def _count(text: str) -> int:
    """An integer ``>= 0``; argparse names the flag of a refused value."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="tensorbss", description=__doc__)
    parser.add_argument("--seed", type=_count, default=0, help="seed for all randomness, >= 0")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--json-indent", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic mixture and its manifest")
    p.add_argument("--sources", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--dist", choices=DISTRIBUTIONS, default="uniform")
    p.add_argument("--mixing", choices=MIXINGS, default="orthogonal")
    p.add_argument("--mixing-file", help="JSON matrix, required for --mixing given")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", required=True, help="samples CSV path")
    p.add_argument("--manifest", required=True, help="ground-truth JSON path")

    p = sub.add_parser("cumulants", help="estimate a cumulant tensor from samples")
    p.add_argument("--order", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ica", help="orthogonal ICA by pair sweeps")
    p.add_argument("--order", type=int, choices=(3, 4), default=4)
    p.add_argument("--alpha", type=int, choices=(1, 2), default=2)
    p.add_argument("--strategy", choices=("cyclic", "greedy"), default="cyclic")
    p.add_argument("--max-sweeps", type=_count, default=None,
                   help="sweep budget, >= 0 (0 whitens only); default ceil(sqrt(n)) + 3")
    p.add_argument("--sources", type=_count, default=None,
                   help="expected source count; must equal the observation dimension "
                        "(more is underdetermined; fewer needs source-count detection, "
                        "not supported yet)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("parafac", help="trilinear decomposition by ALS")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max-iters", type=_count, default=200)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--init", choices=("svd", "random"), default="svd")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sylvester", help="decompose a binary quantic into powers")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rank1", help="best rank-1 approximation of a symmetric tensor")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--init", choices=("hosvd", "random"), default="hosvd")
    p.add_argument("--restarts", type=_count, default=5)
    p.add_argument("--out", required=True)

    p = sub.add_parser("tables", help="reference ranks and orbit representatives")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--orbits", action="store_true")

    p = sub.add_parser("score", help="separation metrics against a manifest")
    p.add_argument("--result", required=True, help="JSON with a 'separator' field")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)

    return parser


def _emit(obj, args, path=None):
    text = json.dumps(obj, indent=args.json_indent)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
        if args.verbose:
            print(f"wrote {path}", file=sys.stderr)


def _cmd_gen(args) -> int:
    mixing_matrix = None
    if args.mixing == "given":
        if not args.mixing_file:
            raise tio.InputError("--mixing given requires --mixing-file")
        mixing_matrix = tio.load_matrix(args.mixing_file)
    try:
        config = ExperimentConfig(
            nsources=args.sources,
            nsamples=args.samples,
            distribution=args.dist,
            mixing=args.mixing,
            noise_variance=args.noise,
            seed=args.seed,
            mixing_matrix=mixing_matrix,
        )
    except ValueError as exc:
        raise tio.InputError(str(exc)) from None
    samples, manifest = gen(config)
    tio.save_samples(args.out, samples)
    tio.save_json(manifest, args.manifest, indent=args.json_indent)
    if args.verbose:
        print(f"wrote {args.out} and {args.manifest}", file=sys.stderr)
    return 0


# Each subcommand imports its solvers when it runs, so a fresh ``tensorbss gen``
# or ``score`` loads none of them.


def _cmd_cumulants(args) -> int:
    from .cumulants import cumulant_tensor

    samples, _ = tio.load_samples(args.infile)
    c = cumulant_tensor(samples, args.order)
    _emit(tio.tensor_to_obj(c), args, args.out)
    return 0


def _cmd_ica(args) -> int:
    from .jacobi import ContrastSpec, ica, stationarity_residual

    samples, _ = tio.load_samples(args.infile)
    n = samples.shape[1]
    if args.sources is not None and args.sources > n:
        raise tio.InputError(
            f"{args.sources} sources on {n} observations is underdetermined; "
            "orthogonal ICA does not apply -- see the 'sylvester' subcommand "
            "for canonical decompositions beyond the dimension"
        )
    if args.sources is not None and args.sources < n:
        raise tio.InputError(
            f"{args.sources} sources on {n} observations is not supported: fewer "
            "sources than observations needs source-count detection, which ica "
            "does not do yet"
        )
    spec = ContrastSpec(alpha=args.alpha, order=args.order)
    whitener, res = ica(samples, spec, strategy=args.strategy, max_sweeps=args.max_sweeps)
    separator = res.Q.T @ whitener.T
    out = {
        "Q": res.Q.tolist(),
        "whitener": whitener.T.tolist(),
        "separator": separator.tolist(),
        "contrast_trace": res.trace,
        "stationarity_residual": stationarity_residual(res.Z, spec.order),
        "sweeps": res.sweeps,
        "rotations": res.rotations,
        "low_confidence": res.low_confidence,
        "diagnostics": {"stop_reason": res.stop_reason, "largest_angles": res.largest_angles},
    }
    _emit(out, args, args.out)
    return 0


def _cmd_parafac(args) -> int:
    from .parafac import ALSConfig, als

    t = tio.load_obj(args.infile, tio.tensor_from_obj)
    if t.order != 3:
        raise tio.InputError(f"parafac expects an order-3 tensor, got order {t.order}")
    try:
        cfg = ALSConfig(
            rank=args.rank, max_iters=args.max_iters, rel_tol=args.tol,
            init=args.init, seed=args.seed,
        )
    except ValueError as exc:
        raise tio.InputError(str(exc)) from None
    factors, history = als(t, cfg)
    out = tio.factors_to_obj(factors)
    out["fit_history"] = history
    _emit(out, args, args.out)
    return 0


def _cmd_sylvester(args) -> int:
    from .sylvester import cand_binary

    q = tio.load_obj(args.infile, tio.quantic_from_obj)
    dec = cand_binary(q)
    _emit(tio.decomposition_to_obj(dec), args, args.out)
    return 0


def _sym_tensor_from_obj(obj) -> SymTensor:
    t = tio.tensor_from_obj(obj)
    return t if isinstance(t, SymTensor) else SymTensor.from_dense(t)


def _cmd_rank1(args) -> int:
    from .rank1 import best_rank1, omega_criteria

    t = tio.load_obj(args.infile, _sym_tensor_from_obj)
    approx = best_rank1(t, init=args.init, restarts=args.restarts, seed=args.seed)
    o0, odm1, od = omega_criteria(t, approx.w, approx.sigma)
    out = {
        "w": approx.w.tolist(),
        "sigma": approx.sigma,
        "iterations": approx.iterations,
        "converged": approx.converged,
        "restarts": approx.restarts,
        "approximation_error": o0,
        "stationarity_residual": odm1,
        "contraction": od,
    }
    _emit(out, args, args.out)
    return 0


def _cmd_tables(args) -> int:
    from .tables import GENERIC_RANK, ORBITS, manifold_dim, orbit_representative

    if args.orbits:
        out = {
            f"{label} ({nvars} vars)": {
                "rank": ORBITS[(label, nvars)].rank,
                "generic": ORBITS[(label, nvars)].generic,
                "tensor": tio.tensor_to_obj(orbit_representative(label, nvars)),
            }
            for (label, nvars) in sorted(ORBITS)
        }
        _emit(out, args)
        return 0
    every_cell = args.d is None and args.n is None
    rows = [
        {"d": d, "n": n, "generic_rank": w, "manifold_dim": manifold_dim(d, n)}
        for (d, n), w in sorted(GENERIC_RANK.items())
        if every_cell or (d, n) == (args.d, args.n)
    ]
    if not rows:
        raise tio.InputError(f"--d {args.d} --n {args.n} is not a tabulated cell; "
                             "give both, or neither to list every cell")
    _emit(rows if every_cell else rows[0], args)
    return 0


def _cmd_score(args) -> int:
    separator = tio.load_matrix(args.result, "separator")
    mixing = tio.load_matrix(args.manifest, "mixing")
    if separator.shape[1] != mixing.shape[0]:
        raise tio.InputError(
            f"{args.result}: field 'separator' has {separator.shape[1]} columns, but the "
            f"mixing in {args.manifest} has {mixing.shape[0]} rows"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # score refuses the overflow
        zero = np.flatnonzero(~(separator @ mixing).any(axis=1))
    if zero.size:
        raise tio.InputError(
            f"{args.result}: row {zero[0] + 1} of field 'separator' takes the mixing in "
            f"{args.manifest} to zero"
        )
    metrics = score(separator, mixing)
    _emit(metrics, args, args.out)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "cumulants": _cmd_cumulants,
    "ica": _cmd_ica,
    "parafac": _cmd_parafac,
    "sylvester": _cmd_sylvester,
    "rank1": _cmd_rank1,
    "tables": _cmd_tables,
    "score": _cmd_score,
}


def main(argv=None) -> int:
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(
                "warning: " + " ".join(str(message).split()), file=sys.stderr)
            args = build_parser().parse_args(argv)
            return _COMMANDS[args.command](args)
    except (tio.InputError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, np.linalg.LinAlgError, MemoryError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
