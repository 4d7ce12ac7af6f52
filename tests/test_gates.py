"""Every experiment's verdict as named gates: passed is the conjunction of the
report's gates, each component's passed that of its own gates, and the report
without its gates is the one the experiments wrote before they named them,
whose verdict rules are kept here as the reference."""

import copy
import json
import operator
import re

import numpy as np
import pytest

from qndmix import asymptotics as asym
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

from conftest import without_gates

# The benchmark's plan of each experiment (consistency, which it does not
# run, at cramer_rao's size; estimate and fig1 at the CLI's default grid).
PLANS = [
    (lamn_experiment, dict(h=[1.0], n_grid=(10_000,), n_reps=150)),
    (mixture_collapse_experiment, dict(n_grid=(500, 1_000, 2_000), n_reps=30)),
    (consistency_experiment, dict(n_grid=(1_000, 10_000), n_reps=5)),
    (cramer_rao_experiment, dict(n_grid=(10_000,), n_reps=5)),
    (purification_experiment, dict(n_grid=(100, 250, 500), n_reps=150)),
    (estimate_experiment, dict(n_grid=(10_000,))),
    (fig1_experiment, dict(n_grid=(10_000,))),
]

# How each gate key compares its statistic with its bound.
COMPARISONS = {
    "mean": operator.le,
    "var": operator.le,
    "ad_statistic": operator.lt,
    "fraction_below_bound": operator.ge,
    "fraction_below_bound_shifted": operator.ge,
    "fitted_rate": operator.ge,
    "efficiency_ratio": lambda s, band: band[0] <= s <= band[1],
    "ratio": operator.le,
    "median_decreasing": operator.eq,
    "converged": operator.eq,
    "final_abs_error": operator.lt,
    "fraction_purified": operator.ge,
    "tv_distance_to_q": operator.le,
}

NAME = re.compile(r"(?P<experiment>\w+)\.(?:(?P<part>component|seed)\.(?P<index>\d+)\.|mixture\.)?(?P<key>\w+)")


def run(experiment, kw, preset, seed):
    pre = get_preset(preset)
    plan = ExperimentPlan(family=pre.family, q=pre.q, theta_star=pre.theta_star, master_seed=seed,
                          estimation_box=pre.estimation_box, **kw)
    report = experiment(plan)
    return report[0] if isinstance(report, tuple) else report


def parent_verdict(report: dict) -> dict:
    """The report without its gates, with every verdict key recomputed from
    the report's statistics by the rules the experiments applied, each in its
    own layout, before they named their gates, and passed last."""
    today = copy.deepcopy(without_gates(report))
    kind, comps = today["experiment"], today.get("per_component", {})
    if kind == "lamn":
        n_max = str(max(today["n_grid"]))
        for comp in comps.values():
            for e in comp["by_n"].values():
                e["mean_ok"] = abs(e["mean"] - e["target_mean"]) <= asym.LAMN_MEAN_SIGMAS * e["mean_se"]
                if e["target_var"] > 0:
                    e["var_ok"] = abs(e["var"] / e["target_var"] - 1.0) <= asym.LAMN_VAR_RTOL
                else:
                    e["var_ok"] = e["var"] == 0.0
                if "ad_statistic" in e:
                    e["ad_ok"] = e["ad_statistic"] < e["ad_critical_1pct"]
            final = comp["by_n"][n_max]
            comp["passed"] = final["mean_ok"] and final["var_ok"] and final.get("ad_ok", True)
        passed = all(comp["passed"] for comp in comps.values())
    elif kind == "collapse":
        for comp in comps.values():
            comp["rate_ok"] = len(comps) == 1 or comp["fitted_rate"] >= asym.COLLAPSE_RATE_SLACK * comp["min_kl"]
            comp["passed"] = (comp["fraction_below_bound"] >= asym.COLLAPSE_QUANTILE
                              and comp["fraction_below_bound_shifted"] >= asym.COLLAPSE_QUANTILE
                              and comp["rate_ok"])
        passed = all(comp["passed"] for comp in comps.values())
    elif kind == "cramer_rao":
        band = asym.CRAMER_RATIO_BAND
        for comp in comps.values():
            comp["passed"] = band[0] <= comp["efficiency_ratio"] <= band[1]
        mix = today["mixture"]
        mix["passed"] = abs(mix["second_moment"] / mix["target"] - 1.0) <= asym.CRAMER_MIXTURE_RTOL
        passed = all(comp["passed"] for comp in comps.values()) and mix["passed"]
    elif kind == "consistency":
        medians = [today["by_n"][str(n)]["median_abs_error"] for n in today["n_grid"]]
        today["median_decreasing"] = passed = all(b < a for a, b in zip(medians, medians[1:]))
    elif kind == "purification":
        passed = (today["fraction_purified"][str(max(today["n_grid"]))] >= asym.PURIFY_FRACTION
                  and today["tv_distance_to_q"] <= asym.PURIFY_TV_BOUND)
    elif kind == "estimate":
        passed = today["converged"]
    else:
        passed = all(e < asym.FIG1_TOLERANCE for e in today["final_abs_errors"])
    del today["passed"]
    today["passed"] = passed
    return today


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("preset", ["toy_haroche", "qubit_rotation"])
@pytest.mark.parametrize("experiment, kw", PLANS, ids=[e.__name__ for e, _ in PLANS])
def test_passed_is_the_conjunction_of_the_named_gates(experiment, kw, preset, seed):
    report = run(experiment, kw, preset, seed)
    json.dumps(report, allow_nan=False)  # strict JSON: no NaN or infinity anywhere
    assert list(report)[-2:] == ["passed", "gates"]
    gates = report["gates"]
    assert gates and report["passed"] is all(gate["passed"] for gate in gates)
    names = [gate["name"] for gate in gates]
    assert len(set(names)) == len(names)
    for gate in gates:
        assert list(gate) == ["name", "statistic", "bound", "passed"] and type(gate["passed"]) is bool
        m = NAME.fullmatch(gate["name"])
        assert m and m["experiment"] == report["experiment"], gate["name"]
        assert COMPARISONS[m["key"]](gate["statistic"], gate["bound"]) is gate["passed"], gate
    for g, comp in report.get("per_component", {}).items():
        prefix = f"{report['experiment']}.component.{g}."
        own = [gate["passed"] for gate in gates if gate["name"].startswith(prefix)]
        assert own and comp["passed"] is all(own)
    if "passed" in report.get("mixture", {}):
        own = [gate["passed"] for gate in gates if ".mixture." in gate["name"]]
        assert own and report["mixture"]["passed"] is all(own)
    assert json.dumps(without_gates(report), indent=2) == json.dumps(parent_verdict(report), indent=2)


def test_gate_names_read_report_keys():
    """A component gate names a key of its component's entry (lamn: of its
    entry at the largest n), a mixture gate a key of the mixture entry, and
    an experiment gate a key of the report; fig1 names each record's entry
    of final_abs_errors."""
    for experiment, kw in PLANS:
        report = run(experiment, kw, "toy_haroche", 0)
        for gate in report["gates"]:
            m = NAME.fullmatch(gate["name"])
            if m["part"] == "seed":
                assert m["key"] == "final_abs_error" and int(m["index"]) < len(report["final_abs_errors"])
                continue
            entry = report
            if m["part"] == "component":
                entry = report["per_component"][m["index"]]
                entry = entry["by_n"][str(max(report["n_grid"]))] if "by_n" in entry else entry
            elif ".mixture." in gate["name"]:
                entry = report["mixture"]
            assert m["key"] in entry, gate["name"]


def test_lamn_has_an_anderson_darling_gate_only_where_a2_runs(toy):
    """At h = 0 no component has an Anderson-Darling statistic, and lamn lists
    two gates per component; at h = 1 every component has three."""
    d = toy.family.n_components
    for h, per_component in ((0.0, 2), (1.0, 3)):
        report = run(lamn_experiment, dict(h=[h], n_grid=(2_000,), n_reps=40), "toy_haroche", 0)
        assert len(report["gates"]) == per_component * d
        assert sum(gate["name"].endswith(".ad_statistic") for gate in report["gates"]) == (per_component - 2) * d


def test_gates_of_one_array_read_each_column_once():
    """_gates names one gate per entry, or per entry of at, and shares a
    statistic or bound that is not an array; a bool passed gives one gate."""
    gates = asym._gates("x.component.{}.k", np.array([0.5, 2.0]), [0.0, 1.0], np.array([True, False]),
                        at=[3, 5])
    assert gates == [
        {"name": "x.component.3.k", "statistic": 0.5, "bound": [0.0, 1.0], "passed": True},
        {"name": "x.component.5.k", "statistic": 2.0, "bound": [0.0, 1.0], "passed": False},
    ]
    assert asym._gates("x.k", 0.25, 0.5, True) == [
        {"name": "x.k", "statistic": 0.25, "bound": 0.5, "passed": True}
    ]
    assert [type(v) for gate in gates for v in gate.values()] == [str, float, list, bool] * 2
    report = asym._verdict({"a": 1}, gates)
    assert list(report) == ["a", "passed", "gates"] and report["passed"] is False
    assert asym._verdict({}, [])["passed"] is True
