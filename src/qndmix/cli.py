"""Command-line front end: run preset experiments, emit JSON reports and CSV
plot data.

Exit codes: 0 success, 1 experiment check failed, 2 config error,
3 refusal (RefusalError from the plan's one hypotheses check: singular
Fisher information, or an experiment that covers D = 1 only run on a
multi-parameter model; fig1 runs the check before drawing), 4 any other
package error, 5 an unexpected exception.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .asymptotics import (
    ExperimentPlan,
    consistency_experiment,
    cramer_rao_experiment,
    lamn_experiment,
    mixture_collapse_experiment,
    mle_path,
    purification_experiment,
)
from .errors import ConfigError, QndmixError, RefusalError
from .estimate import mle
from .model import MixtureWeights
from .presets import PRESETS, get_preset, poisson_like_weights
from .simulate import counts, sample_mixture_trajectory

SCHEMA_VERSION = 1
EXPERIMENTS = ("estimate", "lamn", "collapse", "consistency", "cramer-rao", "purify", "fig1")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_REFUSAL = 3
EXIT_ERROR = 4
EXIT_INTERNAL = 5

FIG1_SEEDS = 10
FIG1_N_MAX = 10_000


@dataclass
class RunConfig:
    """Validated run configuration (config file merged with CLI flags)."""

    model: str
    experiment: str
    theta_star: Optional[list] = None
    q: Optional[object] = None
    h: Optional[list] = None
    n_grid: Optional[list] = None
    n_reps: int = 2000
    seed: int = 0
    output_dir: str = "qndmix_out"

    def validate(self) -> None:
        if self.model not in PRESETS:
            raise ConfigError(
                f"field 'model': unknown preset {self.model!r}; "
                f"available: {', '.join(sorted(PRESETS))}"
            )
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"field 'experiment': {self.experiment!r} is not one of {EXPERIMENTS}"
            )
        if self.n_reps < 2:
            raise ConfigError("field 'n_reps': must be at least 2")
        if self.n_grid is not None and (
            not self.n_grid or any(int(n) < 1 for n in self.n_grid)
        ):
            raise ConfigError("field 'n_grid': must be a non-empty list of positive integers")


def parse_weights(spec, d: int) -> MixtureWeights:
    """Weights from a list or a named rule like 'poissonlike(3.46)'."""
    if isinstance(spec, MixtureWeights):
        return spec
    if isinstance(spec, str):
        m = re.fullmatch(r"poissonlike\(([^)]+)\)", spec.strip())
        if not m:
            raise ConfigError(f"field 'q': unknown weight rule {spec!r}")
        try:
            rate = float(m.group(1))
        except ValueError:
            raise ConfigError(f"field 'q': bad rate in {spec!r}") from None
        return poisson_like_weights(rate, d)
    try:
        return MixtureWeights.normalized(np.asarray(spec, dtype=float))
    except Exception as exc:
        raise ConfigError(f"field 'q': {exc}") from exc


def load_config(path) -> dict:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file {path} not found") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: top level must be a mapping")
    version = raw.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config file {path}: schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    allowed = set(RunConfig.__dataclass_fields__)
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"config file {path}: unknown fields {sorted(unknown)}")
    return raw


def build_plan(config: RunConfig) -> tuple[ExperimentPlan, "object"]:
    preset = get_preset(config.model)
    theta_star = (
        np.asarray(config.theta_star, dtype=float)
        if config.theta_star is not None
        else preset.theta_star
    )
    q = parse_weights(config.q, preset.family.n_components) if config.q is not None else preset.q
    n_grid = tuple(int(n) for n in config.n_grid) if config.n_grid else _default_n_grid(config)
    h = config.h
    if h is None and config.experiment == "lamn":
        h = [1.0] * preset.family.dim   # at h = 0 the LAMN law has nothing to test
    try:
        plan = ExperimentPlan(
            family=preset.family,
            q=q,
            theta_star=theta_star,
            h=h,
            n_grid=n_grid,
            n_reps=config.n_reps,
            master_seed=config.seed,
            estimation_box=preset.estimation_box,
        )
    except QndmixError as exc:
        raise ConfigError(str(exc)) from exc
    return plan, preset


def _default_n_grid(config: RunConfig) -> tuple:
    if config.experiment == "purify":
        return (100, 250, 500)
    if config.experiment == "collapse":
        return (500, 1_000, 2_000)
    return (1_000, 5_000, 10_000)


def write_json(report: dict, path: Path) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")


def write_csv(rows, header, path: Path) -> None:
    """RFC-4180-style CSV with '.' decimals and 17 significant digits."""
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for row in rows:
            cells = [
                f"{x:.17g}" if isinstance(x, float) else str(x) for x in row
            ]
            f.write(",".join(cells) + "\r\n")


def _run_estimate(plan: ExperimentPlan, config: RunConfig, out: Path) -> dict:
    n = max(plan.n_grid)
    traj = sample_mixture_trajectory(
        plan.family, plan.theta_star, plan.q, n, config.seed
    )
    c = counts(traj, n_outcomes=plan.family.n_outcomes)
    report = mle(plan.family, plan.q, c, box=plan.search_box())
    report.trace_to_csv(out / "estimate_trace.csv")
    result = report.to_dict()
    result["experiment"] = "estimate"
    result["gamma_true"] = int(traj.gamma)
    result["theta_true"] = [float(x) for x in plan.theta_star]
    result["passed"] = bool(report.converged)
    return result


def _run_fig1(plan: ExperimentPlan, config: RunConfig, out: Path) -> dict:
    """Ten seeded mixture runs; one CSV of (n, theta_hat) per seed."""
    plan.check_hypotheses(scalar=True)
    n_points = sorted(
        {int(round(x)) for x in np.geomspace(100, FIG1_N_MAX, 25)} | {FIG1_N_MAX}
    )
    target = float(plan.theta_star[0])
    trajs = [
        sample_mixture_trajectory(
            plan.family, plan.theta_star, plan.q, FIG1_N_MAX, config.seed * FIG1_SEEDS + k
        )
        for k in range(FIG1_SEEDS)
    ]
    final_errors = []
    for k, path in enumerate(mle_path(plan, trajs, n_points)):
        write_csv(
            [(n, float(th)) for n, th in path],
            ["n", "theta_hat"],
            out / f"fig1_seed{k}.csv",
        )
        final = dict(path)[FIG1_N_MAX]
        final_errors.append(abs(final - target))
    passed = all(e < 0.02 for e in final_errors)
    return {
        "experiment": "fig1",
        "theta_star": target,
        "n_max": FIG1_N_MAX,
        "seeds": FIG1_SEEDS,
        "final_abs_errors": [float(e) for e in final_errors],
        "tolerance": 0.02,
        "passed": bool(passed),
    }


def run(config: RunConfig) -> int:
    """Execute one experiment; writes report.json (and CSVs) under output_dir."""
    config.validate()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    plan, _preset = build_plan(config)
    runners = {
        "lamn": lamn_experiment,
        "collapse": mixture_collapse_experiment,
        "consistency": consistency_experiment,
        "cramer-rao": cramer_rao_experiment,
        "purify": purification_experiment,
    }
    try:
        if config.experiment == "estimate":
            report = _run_estimate(plan, config, out)
        elif config.experiment == "fig1":
            report = _run_fig1(plan, config, out)
        else:
            report = runners[config.experiment](plan)
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    report["model"] = config.model
    report["schema_version"] = SCHEMA_VERSION
    write_json(report, out / "report.json")
    print(f"wrote {out / 'report.json'} (passed={report.get('passed')})")
    return EXIT_OK if report.get("passed", True) else EXIT_CHECK_FAILED


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qndmix",
        description="Simulation and asymptotic-theory experiments for repeated "
        "QND measurement records.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--config", help="YAML config file (flags override it)")
    parser.add_argument("--preset", help="model preset name")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--n-grid", help="comma-separated record lengths")
    parser.add_argument("--n-reps", type=int, help="Monte-Carlo replications")
    parser.add_argument(
        "--h", help="comma-separated local shift h (theta* + h/sqrt(n)); lamn: 1"
    )
    parser.add_argument("--theta-star", help="comma-separated true parameter")
    parser.add_argument("--q", help="weights: 'poissonlike(RATE)' or comma-separated")
    return parser


def _comma_list(flag: str, text: str, kind) -> list:
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag}: cannot parse {text!r}") from None


def _merge(args: argparse.Namespace) -> RunConfig:
    data: dict = {"model": "toy_haroche", "experiment": args.experiment}
    if args.config:
        data.update(load_config(args.config))
        data["experiment"] = args.experiment
    if args.preset:
        data["model"] = args.preset
    if args.seed is not None:
        data["seed"] = args.seed
    if args.out:
        data["output_dir"] = args.out
    if args.n_grid:
        data["n_grid"] = _comma_list("--n-grid", args.n_grid, int)
    if args.n_reps is not None:
        data["n_reps"] = args.n_reps
    if args.h is not None:
        data["h"] = _comma_list("--h", args.h, float)
    if args.theta_star:
        data["theta_star"] = _comma_list("--theta-star", args.theta_star, float)
    if args.q:
        data["q"] = args.q
    return RunConfig(**data)


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge(args)
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QndmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
