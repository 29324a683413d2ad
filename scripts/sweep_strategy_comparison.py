#!/usr/bin/env python3
"""Empirical comparison of cyclic and greedy pair sweeps.

Whether the two strategies always reach the same signed-permutation class of
rotations is open; this script counts agreements and records the
disagreements instead of asserting anything.

Each trial rotates a diagonal order-4 tensor (spec (2, 4)), or with
``--order 3`` an order-3 one (spec (2, 3)), by a random orthogonal matrix.

Example:
    python scripts/sweep_strategy_comparison.py --dim 4 --trials 100
    python scripts/sweep_strategy_comparison.py --order 3 --trials 50
"""

import argparse
import json

import numpy as np

from tensorbss.core import symmetrize, tucker_transform
from tensorbss.jacobi import ContrastSpec, sweep_cyclic, sweep_greedy


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--order", type=int, choices=(3, 4), default=4)
    args = ap.parse_args()

    d = args.order
    spec = ContrastSpec(2, d)
    agreements, disagreements = 0, []
    for trial in range(args.trials):
        rng = np.random.default_rng(args.seed + trial)
        kappa = rng.uniform(-2.0, -0.5, size=args.dim)
        diag = np.zeros((args.dim,) * d)
        for i in range(args.dim):
            diag[(i,) * d] = kappa[i]
        q0, _ = np.linalg.qr(rng.standard_normal((args.dim, args.dim)))
        g = symmetrize(tucker_transform(diag, [q0] * d).array)

        res_c = sweep_cyclic(g, spec)
        res_g = sweep_greedy(g, spec)
        alignment = float(np.min(np.abs(res_c.Q.T @ res_g.Q).max(axis=1)))
        if alignment > 0.999:
            agreements += 1
        else:
            disagreements.append(
                {
                    "seed": args.seed + trial,
                    "row_alignment": alignment,
                    "contrast_cyclic": res_c.trace[-1],
                    "contrast_greedy": res_g.trace[-1],
                }
            )

    print(
        json.dumps(
            {
                "order": d,
                "trials": args.trials,
                "same_class": agreements,
                "disagreements": disagreements,
            },
            indent=2,
        )
    )


if __name__ == "__main__":
    main()
