"""How often each named gate fails, over seeds, at the acceptance settings.

Every experiment lists its verdict as named gates (the report's `gates`:
name, statistic, bound, passed).  This script runs every gated experiment on
both D = 1 presets at master seeds 0, ..., SEEDS - 1, at the settings of
tests/test_acceptance.py (consistency and estimate, which have no criterion
there, at the command line's defaults), and prints for each gate the seeds
at which it failed and its statistic at each seed.  It reads the gates only,
so a new gate is calibrated with no change here; it sets no band.

Run:  python3 demos/gate_calibration.py [--seeds 2]
"""

import argparse

from qndmix.asymptotics import (
    ExperimentPlan,
    consistency_experiment,
    cramer_rao_experiment,
    estimate_experiment,
    fig1_experiment,
    lamn_experiment,
    mixture_collapse_experiment,
    purification_experiment,
)
from qndmix.presets import get_preset

# Each experiment with its plan settings (h = 0 unless given).
SETTINGS = [
    (lamn_experiment, dict(h=[1.0], n_grid=(10_000,), n_reps=2_000)),
    (cramer_rao_experiment, dict(n_grid=(10_000,), n_reps=2_000)),
    (mixture_collapse_experiment, dict(n_grid=(500, 1_000, 2_000), n_reps=200)),
    (purification_experiment, dict(n_grid=(100, 250, 500), n_reps=5_000)),
    (consistency_experiment, dict(n_grid=(1_000, 5_000, 10_000), n_reps=2_000)),
    (estimate_experiment, dict(n_grid=(10_000,))),
    (fig1_experiment, dict(n_grid=(10_000,))),
]


def gates_by_name(preset: str, seeds: range) -> dict:
    """{gate name: {seed: gate}} over every experiment and seed, in report order."""
    pre = get_preset(preset)
    table: dict = {}
    for seed in seeds:
        for experiment, kw in SETTINGS:
            plan = ExperimentPlan(family=pre.family, q=pre.q, theta_star=pre.theta_star,
                                  master_seed=seed, estimation_box=pre.estimation_box, **kw)
            report = experiment(plan)
            report = report[0] if isinstance(report, tuple) else report
            for gate in report["gates"]:
                table.setdefault(gate["name"], {})[seed] = gate
    return table


def show(value) -> str:
    return str(value).lower() if isinstance(value, bool) else f"{value:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=2)
    args = parser.parse_args()
    seeds = range(args.seeds)

    print(f"gate failures over master seeds 0-{args.seeds - 1} at the acceptance settings")
    for preset in ("toy_haroche", "qubit_rotation"):
        table = gates_by_name(preset, seeds)
        width = max(map(len, table))
        print(f"\n{preset}: {len(table)} gates")
        print(f"  {'gate':{width}}  fails  failing seeds  statistic per seed")
        for name, runs in table.items():
            failing = [seed for seed, gate in runs.items() if not gate["passed"]]
            stats = " ".join(show(runs[s]["statistic"]) if s in runs else "-" for s in seeds)
            print(f"  {name:{width}}  {len(failing):2d}/{len(runs):<2d}  "
                  f"{','.join(map(str, failing)) or '-':13}  {stats}")
        failed = sum(not all(gate["passed"] for gate in runs.values()) for runs in table.values())
        print(f"  {failed} of {len(table)} gates failed at some seed")


if __name__ == "__main__":
    main()
