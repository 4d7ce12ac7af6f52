"""Exponential collapse of the mixture likelihood onto one component.

Along a record from hidden component gamma, the ratio

    r_n = P_theta(record) / (q(gamma) P_{theta|gamma}(record)) - 1

decays exponentially at a rate bounded below by the smallest KL divergence
from gamma to any other component.  This script follows ln r_n along a single
record per component and compares the fitted decay rate with that bound.

Run:  python3 demos/collapse_demo.py [--seed 0]
"""

import argparse

import numpy as np

from qndmix.asymptotics import _log_collapse_ratio
from qndmix.estimate import log_terms
from qndmix.model import kl_matrix
from qndmix.presets import toy_haroche
from qndmix.simulate import counts, sample_trajectory


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    pre = toy_haroche()
    kl = kl_matrix(pre.family, pre.theta_star)
    ns = [250, 500, 1_000, 2_000]
    print("gamma  min KL   fitted rate   ln r_n at n = " + ", ".join(map(str, ns)))
    for g in range(8):
        traj = sample_trajectory(pre.family, pre.theta_star, g, max(ns), seed=args.seed + g)
        cm = np.stack([counts(traj, n_prefix=n, n_outcomes=8).counts for n in ns])
        log_r = _log_collapse_ratio(log_terms(pre.family, pre.q, cm, pre.theta_star), g)
        rate = -np.polyfit(ns, log_r, 1)[0]
        min_kl = float(np.min(np.delete(kl[g], g)))
        vals = "  ".join(f"{x:9.1f}" for x in log_r)
        print(f"{g + 1:5d}  {min_kl:.4f}  {rate:11.4f}   {vals}")
    print("\nEvery fitted rate should be at least the matching min KL column")
    print("(single records fluctuate; the averaged version is acceptance criterion 6).")


if __name__ == "__main__":
    main()
