"""Smoke tests of tools/compare_cli_outputs.py on one run of this checkout."""

import importlib.util
import json
import shutil
from pathlib import Path

from qndmix.asymptotics import ExperimentPlan, estimate_experiment
from qndmix.presets import get_preset

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("compare_cli_outputs", ROOT / "tools" / "compare_cli_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_compare_cli_outputs_matches_a_rerun_and_finds_a_changed_byte(tmp_path):
    """Two runs of one tree match byte for byte, the output path aside; one
    changed report byte is the first difference, named by file and line."""
    tool = _load_tool()
    selection = dict(subcommands=("estimate",), presets=("qubit_rotation",), seeds=(0,))
    tool.run(ROOT, tmp_path / "a", **selection)
    tool.run(ROOT, tmp_path / "b", **selection)
    run = tmp_path / "a" / "estimate" / "qubit_rotation" / "seed0"
    assert sorted(p.relative_to(run).as_posix() for p in run.rglob("*") if p.is_file()) == [
        "exit_code", "out/estimate_trace.csv", "out/report.json", "stderr", "stdout"]
    assert (run / "exit_code").read_text() == "0\n"
    assert (run / "stdout").read_text() == "wrote <OUT>/report.json (passed=True)\n"
    assert tool.first_difference(tmp_path / "a", tmp_path / "b") is None
    assert tool.main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 0

    shutil.copytree(tmp_path / "b", tmp_path / "c")
    report = tmp_path / "c" / "estimate" / "qubit_rotation" / "seed0" / "out" / "report.json"
    text = report.read_bytes()
    assert b'"n": 10000,' in text
    report.write_bytes(text.replace(b'"n": 10000,', b'"n": 20000,'))
    difference = tool.first_difference(tmp_path / "a", tmp_path / "c")
    assert difference.startswith("estimate/qubit_rotation/seed0/out/report.json: line ")
    assert difference.endswith(""""n": 20000,\\n'""")
    assert tool.main(["diff", str(tmp_path / "a"), str(tmp_path / "c")]) == 1


def test_acceptance_writes_the_report_of_each_setting(tmp_path):
    """The acceptance run writes one report for each of the 7 settings on
    each of the 2 presets; estimate on qubit_rotation at seed 0 and the
    default grid is the report the experiment returns in this process."""
    tool = _load_tool()
    assert tool.main(["acceptance", str(ROOT), str(tmp_path)]) == 0
    experiments = ["consistency_experiment", "cramer_rao_experiment", "estimate_experiment", "fig1_experiment",
                   "lamn_experiment", "mixture_collapse_experiment", "purification_experiment"]
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()) == [
        f"{preset}/{experiment}/report.json" for preset in ("qubit_rotation", "toy_haroche")
        for experiment in experiments]
    pre = get_preset("qubit_rotation")
    report, _ = estimate_experiment(ExperimentPlan(
        family=pre.family, q=pre.q, theta_star=pre.theta_star, n_grid=(10_000,), master_seed=0,
        estimation_box=pre.estimation_box))
    written = (tmp_path / "qubit_rotation" / "estimate_experiment" / "report.json").read_text()
    assert written == json.dumps(report, indent=2) + "\n"
