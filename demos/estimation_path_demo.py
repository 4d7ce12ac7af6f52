"""Track the mixture MLE along growing prefixes of ten seeded records.

Reproduces the headline picture of the package, the records and paths of
`qndmix fig1`: records of length 10^4 from the photon-number toy model,
hidden component drawn from the Poisson-like weights, estimator path
theta_hat(n) converging to theta* = pi/4 for every seed.  Writes one CSV per
seed into --out.

Run:  python3 demos/estimation_path_demo.py [--seed 1] [--out demo_out]
"""

import argparse
import math
from pathlib import Path

from qndmix.asymptotics import FIG1_N_MAX, FIG1_SEEDS, ExperimentPlan, fig1_experiment
from qndmix.cli import write_csv
from qndmix.presets import toy_haroche


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="demo_out")
    args = parser.parse_args()

    pre = toy_haroche()
    plan = ExperimentPlan(
        family=pre.family, q=pre.q, theta_star=pre.theta_star,
        master_seed=args.seed, estimation_box=pre.estimation_box,
    )
    print(f"theta* = pi/4 = {math.pi / 4:.6f}; estimation box "
          f"[{pre.estimation_box.lower[0]:.4f}, {pre.estimation_box.upper[0]:.4f}]")
    report, paths = fig1_experiment(plan)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for k, path in enumerate(paths):
        final = path[-1][1]
        csv_path = out / f"path_seed{k}.csv"
        write_csv(path, ["n", "theta_hat"], csv_path)
        print(f"seed {args.seed * FIG1_SEEDS + k:3d}: theta_hat({FIG1_N_MAX}) = {final:.6f}  "
              f"|error| = {abs(final - math.pi / 4):.5f}  -> {csv_path}")
    print(f"every final |error| below {report['tolerance']}: {report['passed']}")


if __name__ == "__main__":
    main()
