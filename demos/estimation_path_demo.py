"""Track the mixture MLE along growing prefixes of ten seeded records.

Reproduces the headline picture of the package: records of length 10^4 from
the photon-number toy model, hidden component drawn from the Poisson-like
weights, estimator path theta_hat(n) converging to theta* = pi/4 for every
seed.  Writes one CSV per seed next to this script.

Run:  python3 demos/estimation_path_demo.py [--seed 1] [--out demo_out]
"""

import argparse
import math
from pathlib import Path

import numpy as np

from qndmix.asymptotics import ExperimentPlan, mle_path
from qndmix.presets import toy_haroche
from qndmix.simulate import sample_mixture_trajectory


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="demo_out")
    args = parser.parse_args()

    pre = toy_haroche()
    plan = ExperimentPlan(
        family=pre.family, q=pre.q, theta_star=pre.theta_star,
        h=np.array([0.0]), n_grid=(10_000,), n_reps=1,
        master_seed=args.seed, estimation_box=pre.estimation_box,
    )
    n_points = sorted({int(round(x)) for x in np.geomspace(100, 10_000, 25)})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print(f"theta* = pi/4 = {math.pi / 4:.6f}; estimation box "
          f"[{pre.estimation_box.lower[0]:.4f}, {pre.estimation_box.upper[0]:.4f}]")
    trajs = [
        sample_mixture_trajectory(pre.family, pre.theta_star, pre.q, 10_000, args.seed * 10 + k)
        for k in range(10)
    ]
    for k, (traj, path) in enumerate(zip(trajs, mle_path(plan, trajs, n_points))):
        final = path[-1][1]
        csv_path = out / f"path_seed{k}.csv"
        with open(csv_path, "w") as f:
            f.write("n,theta_hat\n")
            for n, th in path:
                f.write(f"{n},{th:.17g}\n")
        print(f"seed {args.seed * 10 + k:3d}: gamma = {traj.gamma + 1}  "
              f"theta_hat(1e4) = {final:.6f}  |error| = {abs(final - math.pi / 4):.5f}"
              f"  -> {csv_path}")


if __name__ == "__main__":
    main()
