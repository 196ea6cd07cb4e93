#!/usr/bin/env python3
"""Sharpness experiment: evaluate the bound against misspecified oracles.

Uses a full-rank truth so every low-rank oracle carries a genuinely large
approximation error, then checks that the estimator's excess risk stays
below each oracle's excess risk plus the error terms (the approximation
error enters with constant one, so large oracle excess must not be
inflated).  Prints one row per oracle and the headline max gap.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from lowrank_oracle import (
    ExperimentConfig,
    best_rank_approximation,
    resolve_plan,
    sharpness_experiment,
    write_outputs,
)
from lowrank_oracle.harness import write_json

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(ROOT / "out" / "sharpness"))
    parser.add_argument("--m", type=int, default=8)
    parser.add_argument("--n", type=int, default=600)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args()

    # full-rank truth with decaying spectrum: no oracle is exact
    spectrum = tuple(float(s) for s in 1.2 ** -np.arange(args.m))
    config = ExperimentConfig(
        m=args.m,
        n=args.n,
        trials=args.trials,
        truth_rank=args.m,
        truth_spectrum=spectrum,
        noise_sigma=0.1,
        epsilon_rule="absolute",
        epsilon_value=0.03,
        seed=args.seed,
        delta_reps=500,
    )
    plan = resolve_plan(config)
    oracles = [("truth", plan.truth.s_star)]
    for rank in (1, 2, 4):
        oracles.append((f"rank-{rank}", best_rank_approximation(plan.truth.s_star, rank)))

    result = sharpness_experiment(config, oracles, workers=args.workers)

    out = Path(args.out)
    write_json(
        out / "sharpness.json", {"rows": list(result.rows), "headline_gap": result.headline_gap}
    )
    write_outputs(result.records, {"headline_gap": result.headline_gap}, out / "trials")

    for row in result.rows:
        print(
            f"{row['label']:>8}: oracle excess {row['oracle_excess']:.5f}  "
            f"mean gap {row['mean_gap']:.5f}  max gap {row['max_gap']:.5f}  "
            f"violations {row['violation_frequency']:.3f}"
        )
    print(f"headline max (lhs - rhs) over oracles: {result.headline_gap:.5f}")
    return 0 if result.headline_gap <= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
