"""How often each named gate fails, over seeds, at the acceptance settings.

Every experiment lists its verdict as named gates (the report's `gates`:
name, statistic, bound, passed).  This script runs every gated experiment on
both D = 1 presets at master seeds 0, ..., SEEDS - 1, at the settings of
tests/test_acceptance.py (consistency and estimate, which have no criterion
there, at the command line's defaults), and prints for each gate the seeds
at which it failed and its statistic at each seed.  It reads the gates only,
so a new gate is calibrated with no change here; it sets no band.

Beside the measured failures it prints the false-fail rate per seed that a
gate's limit law predicts at these settings, where one is known in closed
form (closed_form_rates), and "-" elsewhere.

Run:  python3 demos/gate_calibration.py [--seeds 2]
"""

import argparse
import fnmatch
import math

from qndmix.asymptotics import (
    CRAMER_MIXTURE_RTOL,
    CRAMER_RATIO_BAND,
    LAMN_MEAN_SIGMAS,
    LAMN_VAR_RTOL,
    ExperimentPlan,
    consistency_experiment,
    cramer_rao_experiment,
    estimate_experiment,
    fig1_experiment,
    lamn_experiment,
    mixture_collapse_experiment,
    purification_experiment,
)
from qndmix.model import fisher_information
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


def two_sided(z: float) -> float:
    """2 Phi(-z): the chance that a standard normal falls outside [-z, z]."""
    return math.erfc(z / math.sqrt(2.0))


def mixture_ratio_sd(preset: str, reps: int) -> float:
    """The sd of cramer_rao's mixture ratio, second / sum q/I, over reps
    records at h = 0.  sqrt(n)(theta_hat - theta*) is the scale mixture of
    N(0, 1/I(alpha)) with weights q, whose square has mean sum q/I and
    variance 3 sum q/I^2 - (sum q/I)^2."""
    pre = get_preset(preset)
    inverse = 1.0 / fisher_information(pre.family, pre.theta_star)[:, 0, 0]
    bound = pre.q.q @ inverse
    return math.sqrt((3.0 * pre.q.q @ inverse**2 - bound**2) / reps) / bound


def closed_form_rates(preset: str) -> dict:
    """{gate name pattern: false-fail rate per seed its limit law predicts}
    at the reps of SETTINGS.  A mean gate at k standard errors fails at
    2 Phi(-k); a sample variance ratio over R normal draws has sd
    sqrt(2/(R - 1)), so a band b around 1 fails at 2 Phi(-b / sd); the
    Anderson-Darling gate is a 1% test."""
    reps = {experiment: kw.get("n_reps") for experiment, kw in SETTINGS}
    lamn_sd = math.sqrt(2.0 / (reps[lamn_experiment] - 1))
    cramer_sd = math.sqrt(2.0 / (reps[cramer_rao_experiment] - 1))
    return {
        "cramer_rao.mixture.ratio":
            two_sided(CRAMER_MIXTURE_RTOL / mixture_ratio_sd(preset, reps[cramer_rao_experiment])),
        "cramer_rao.component.*.efficiency_ratio": two_sided((CRAMER_RATIO_BAND[1] - 1.0) / cramer_sd),
        "lamn.component.*.mean": two_sided(LAMN_MEAN_SIGMAS),
        "lamn.component.*.var": two_sided(LAMN_VAR_RTOL / lamn_sd),
        "lamn.component.*.ad_statistic": 0.01,
    }


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
        rates = closed_form_rates(preset)
        width = max(map(len, table))
        print(f"\n{preset}: {len(table)} gates")
        print(f"  {'gate':{width}}  fails  predicted  failing seeds  statistic per seed")
        for name, runs in table.items():
            failing = [seed for seed, gate in runs.items() if not gate["passed"]]
            rate = next((f"{r:.3g}" for pattern, r in rates.items() if fnmatch.fnmatchcase(name, pattern)), "-")
            stats = " ".join(show(runs[s]["statistic"]) if s in runs else "-" for s in seeds)
            print(f"  {name:{width}}  {len(failing):2d}/{len(runs):<2d}  {rate:9}  "
                  f"{','.join(map(str, failing)) or '-':13}  {stats}")
        failed = sum(not all(gate["passed"] for gate in runs.values()) for runs in table.values())
        print(f"  {failed} of {len(table)} gates failed at some seed")


if __name__ == "__main__":
    main()
