import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from qndmix import cli
from qndmix.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_ERROR,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_REFUSAL,
    RunConfig,
    build_plan,
    load_config,
    main,
    parse_weights,
)
from qndmix.errors import ConfigError, DomainError
from qndmix.estimate import loglik
from qndmix.simulate import counts, sample_mixture_trajectory

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def test_unknown_preset_is_config_error(tmp_path):
    assert run_cli("purify", "--preset", "nope", "--out", str(tmp_path)) == EXIT_CONFIG


def test_bad_n_grid_is_config_error(tmp_path):
    assert run_cli("purify", "--n-grid", "10,abc", "--out", str(tmp_path)) == EXIT_CONFIG


def test_theta_star_outside_box_is_config_error(tmp_path):
    assert (
        run_cli("purify", "--preset", "qubit_rotation", "--theta-star", "9.0",
                "--out", str(tmp_path))
        == EXIT_CONFIG
    )


def test_config_file_schema_version(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("model: qubit_rotation\n")
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(cfg)
    cfg.write_text("schema_version: 99\nmodel: qubit_rotation\n")
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(cfg)
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.yaml")


def test_config_file_unknown_field(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("schema_version: 1\nmodel: qubit_rotation\nbogus: 1\n")
    with pytest.raises(ConfigError, match="unknown fields"):
        load_config(cfg)
    # Worker threads are gone; a config that still sets them is rejected.
    cfg.write_text("schema_version: 1\nmodel: qubit_rotation\nworkers: 4\n")
    assert run_cli("purify", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_CONFIG


def test_config_file_drives_run_and_flags_override(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "schema_version: 1\n"
        "model: qubit_rotation\n"
        "n_reps: 40\n"
        "n_grid: [50, 150]\n"
        "seed: 5\n"
        f"output_dir: {tmp_path / 'a'}\n"
    )
    # Few replications may legitimately fail the statistical check (exit 1);
    # both codes mean the experiment ran and wrote its report.
    assert run_cli("purify", "--config", str(cfg)) in (EXIT_OK, EXIT_CHECK_FAILED)
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["n_reps"] == 40
    assert report["master_seed"] == 5
    # A flag wins over the file.
    assert run_cli("purify", "--config", str(cfg), "--n-reps", "25",
                   "--out", str(tmp_path / "b")) in (EXIT_OK, EXIT_CHECK_FAILED)
    report_b = json.loads((tmp_path / "b" / "report.json").read_text())
    assert report_b["n_reps"] == 25


def test_parse_weights():
    q = parse_weights("poissonlike(3.46)", 8)
    assert q.size == 8
    q2 = parse_weights([1, 1, 2], 3)
    assert q2.q[2] == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        parse_weights("dirichlet(1)", 8)
    with pytest.raises(ConfigError):
        parse_weights([1.0, -1.0], 2)


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(model="x", experiment="purify").validate()
    with pytest.raises(ConfigError):
        RunConfig(model="qubit_rotation", experiment="juggle").validate()
    with pytest.raises(ConfigError):
        RunConfig(model="qubit_rotation", experiment="purify", n_reps=0).validate()
    with pytest.raises(ConfigError):
        RunConfig(model="qubit_rotation", experiment="purify", n_grid=[]).validate()


# ---------------------------------------------------------------------------
# Experiment runs and artifacts
# ---------------------------------------------------------------------------

def test_estimate_writes_report_and_trace(tmp_path):
    out = tmp_path / "est"
    code = run_cli("estimate", "--preset", "qubit_rotation", "--seed", "3",
                   "--n-grid", "4000", "--out", str(out))
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "estimate"
    assert report["schema_version"] == 1
    assert report["model"] == "qubit_rotation"
    assert len(report["theta_hat"]) == 1
    trace = (out / "estimate_trace.csv").read_text().splitlines()
    assert trace[0] == "theta_0,loglik"
    assert len(trace) > 10


# theta_hat and loglik_at_max of `qndmix estimate --preset toy_haroche_full
# --seed 1` (n = 1e4) as the serial multi-start search gave them.
FULL_SEED1_THETA_HAT = [
    1.0523843689183499, 1.5759339492881261, 0.7834806802509048,
    -0.10800118582173368, -0.8458015598349641, 0.7037486698651626,
]
FULL_SEED1_LOGLIK = -1.949086702348302


def test_estimate_runs_multiparameter_preset(tmp_path):
    """The D = 6 estimate reaches at least the likelihood of theta*, reports
    the likelihood at its theta_hat, and keeps the pinned mixture argmax."""
    code = run_cli("estimate", "--preset", "toy_haroche_full", "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    plan, _ = build_plan(RunConfig(model="toy_haroche_full", experiment="estimate", seed=1))
    traj = sample_mixture_trajectory(plan.family, plan.theta_star, plan.q, max(plan.n_grid), 1)
    c = counts(traj, n_outcomes=plan.family.n_outcomes)
    at_hat = loglik(plan.family, plan.q, c, report["theta_hat"]).value
    assert report["loglik_at_max"] == pytest.approx(at_hat, abs=1e-9)
    assert at_hat >= loglik(plan.family, plan.q, c, plan.theta_star).value
    np.testing.assert_allclose(report["theta_hat"], FULL_SEED1_THETA_HAT, rtol=0, atol=1e-12)
    assert report["loglik_at_max"] == pytest.approx(FULL_SEED1_LOGLIK, abs=1e-12)
    assert report["tie"] and not report["boundary"] and report["converged"]


def test_import_leaves_out_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qndmix; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_purify_exit_code_and_determinism(tmp_path):
    args = ("purify", "--preset", "qubit_rotation", "--seed", "7", "--n-reps", "50")
    codes = {
        run_cli(*args, "--out", str(tmp_path / "r1")),
        run_cli(*args, "--out", str(tmp_path / "r2")),
    }
    assert codes <= {EXIT_OK, EXIT_CHECK_FAILED} and len(codes) == 1
    b1 = (tmp_path / "r1" / "report.json").read_bytes()
    assert b1 == (tmp_path / "r2" / "report.json").read_bytes()


def test_lamn_singular_fisher_is_refusal(tmp_path):
    code = run_cli("lamn", "--preset", "toy_haroche_guerlin", "--n-reps", "4",
                   "--n-grid", "50", "--out", str(tmp_path))
    assert code == EXIT_REFUSAL


def test_default_shift_has_theta_dimension():
    plan, _ = build_plan(RunConfig(model="toy_haroche_full", experiment="estimate"))
    np.testing.assert_array_equal(plan.h, np.zeros(6))


@pytest.mark.parametrize("experiment", ["consistency", "cramer-rao", "fig1"])
def test_scalar_experiments_refuse_multiparameter_model(experiment, tmp_path, capsys):
    code = run_cli(experiment, "--preset", "toy_haroche_full", "--n-reps", "2",
                   "--n-grid", "50", "--out", str(tmp_path))
    assert code == EXIT_REFUSAL
    assert capsys.readouterr().err.startswith("refused:")


@pytest.mark.parametrize("exc,code,prefix", [
    (DomainError("theta outside the box"), EXIT_ERROR, "error:"),
    (ZeroDivisionError("boom"), EXIT_INTERNAL, None),
])
def test_errors_are_not_check_failures(exc, code, prefix, tmp_path, monkeypatch, capsys):
    def broken(plan):
        raise exc

    monkeypatch.setattr(cli, "purification_experiment", broken)
    assert run_cli("purify", "--preset", "qubit_rotation", "--out", str(tmp_path)) == code
    err = capsys.readouterr().err
    if prefix:
        assert err.startswith(prefix)
    assert not (tmp_path / "report.json").exists()


def test_failed_check_exit_code(tmp_path):
    # Two replications cannot purify 95% of runs at n = 2: a clean failure.
    code = run_cli("purify", "--preset", "toy_haroche", "--n-reps", "8",
                   "--n-grid", "2", "--seed", "0", "--out", str(tmp_path))
    assert code == EXIT_CHECK_FAILED
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is False


def test_fig1_artifacts(tmp_path):
    out = tmp_path / "fig1"
    code = run_cli("fig1", "--preset", "toy_haroche", "--seed", "1", "--out", str(out))
    report = json.loads((out / "report.json").read_text())
    assert len(report["final_abs_errors"]) == 10
    csvs = sorted(out.glob("fig1_seed*.csv"))
    assert len(csvs) == 10
    first = csvs[0].read_text().splitlines()
    assert first[0] == "n,theta_hat"
    assert first[-1].startswith("10000,")
    assert code == (EXIT_OK if report["passed"] else EXIT_CHECK_FAILED)


def test_json_report_is_stable_bytes(tmp_path):
    """Running the same lamn config twice yields identical bytes."""
    args = ("lamn", "--preset", "qubit_rotation", "--seed", "2",
            "--n-reps", "30", "--n-grid", "100,300", "--h", "1.0")
    assert run_cli(*args, "--out", str(tmp_path / "x")) in (EXIT_OK, EXIT_CHECK_FAILED)
    assert run_cli(*args, "--out", str(tmp_path / "y")) in (EXIT_OK, EXIT_CHECK_FAILED)
    assert (tmp_path / "x" / "report.json").read_bytes() == (
        tmp_path / "y" / "report.json"
    ).read_bytes()
