"""Watch the Bayes posterior purify onto the hidden component.

Simulates one record from the toy model's mixture law and prints the
posterior over photon numbers after exponentially spaced prefixes, together
with the same run through the quantum conditional-state filter on the qubit
preset, where |<e_alpha, phi_n>|^2 reproduces the classical posterior.

Run:  python3 demos/purification_demo.py [--seed 3]
"""

import argparse

import numpy as np

from qndmix.estimate import log_terms, logsumexp
from qndmix.presets import qubit_rotation, toy_haroche
from qndmix.quantum import FilterState, filter_trajectory
from qndmix.simulate import counts, sample_mixture_trajectory, sample_trajectory


def posterior_from_counts(pre, traj, n):
    c = counts(traj, n_prefix=n, n_outcomes=pre.family.n_outcomes)
    terms = log_terms(pre.family, pre.q, c.counts, pre.theta_star)
    return np.exp(terms - logsumexp(terms))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    pre = toy_haroche()
    traj = sample_mixture_trajectory(pre.family, pre.theta_star, pre.q, 512, args.seed)
    print(f"hidden photon number: {traj.gamma + 1}")
    print("n    posterior over alpha = 1..8")
    for n in (1, 4, 16, 64, 256, 512):
        q_n = posterior_from_counts(pre, traj, n)
        bar = "  ".join(f"{x:5.3f}" for x in q_n)
        print(f"{n:4d} {bar}")
    q_final = posterior_from_counts(pre, traj, 512)
    print(f"-> posterior mass on the true component: {q_final[traj.gamma]:.6f}\n")

    # The quantum filter carries the same information in the state amplitudes.
    qb = qubit_rotation()
    qtraj = sample_trajectory(qb.family, qb.theta_star, 1, 40, seed=args.seed)
    phi0 = np.sqrt(qb.q.q).astype(complex)
    states = filter_trajectory(qb.system, FilterState.from_phi(phi0), qb.theta_star, qtraj.outcomes)
    print("qubit preset, |<e_alpha, phi_n>|^2 along the record:")
    for n in (0, 5, 10, 20, 40):
        amps = np.abs(states[n].phi) ** 2
        print(f"n={n:3d}  " + "  ".join(f"{x:6.4f}" for x in amps))
    print(f"(true component: alpha = {qtraj.gamma + 1})")


if __name__ == "__main__":
    main()
