"""Command line: parse the flags into the RunConfig fields of their names, run
the subcommand's experiment (which decides the verdict), write its JSON report
and CSV plot data, and map it to an exit code.

Exit codes: 0 success, 1 experiment check failed (its failing gates named on
stderr), 2 config error (a flag value that does not convert, a plan out of range,
such as a record length above 2**53 or an n_reps whose arrays numpy cannot
describe, or an output path through an existing file, checked before the
run; no output directory is made), 3 refusal
(RefusalError from the plan's one hypotheses check: an experiment that covers
D = 1 only run on a multi-parameter model, singular Fisher information, or a
fitted point, theta* or cramer-rao's theta* + h/sqrt(n), not interior to the
search box; fig1 runs the check before drawing), 4 any other package error or
a run out of memory, 5 an unexpected exception.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import asymptotics
from .asymptotics import (
    FIG1_N_MAX,  # noqa: F401  (perfbench reads cli.FIG1_N_MAX and cli.FIG1_SEEDS)
    FIG1_SEEDS,  # noqa: F401
    ExperimentPlan,
    check_collapse_grid,
)
from .errors import ConfigError, QndmixError, RefusalError
from .estimate import _csv_text, _write_in_place, mle  # noqa: F401  (perfbench's tracer test wraps cli.mle)
from .model import MixtureWeights
from .presets import PRESETS, get_preset, poisson_like_weights

# The version of report.json's layout.
SCHEMA_VERSION = 1
# Each subcommand: the name of its experiment in qndmix.asymptotics, its
# default n_grid, which holds only record lengths that the experiment reads
# (estimate and cramer-rao read max(n_grid), fig1 no entry), and its default
# shift h in every coordinate, or None for an experiment that never reads h,
# whose plan is built without one.
SUBCOMMANDS = {
    "estimate": ("estimate_experiment", (10_000,), None),
    "lamn": ("lamn_experiment", (1_000, 5_000, 10_000), 1.0),  # at h = 0 the LAMN law has nothing to test
    "collapse": ("mixture_collapse_experiment", (500, 1_000, 2_000), 0.0),
    "consistency": ("consistency_experiment", (1_000, 5_000, 10_000), None),
    "cramer-rao": ("cramer_rao_experiment", (10_000,), 0.0),
    "purify": ("purification_experiment", (100, 250, 500), None),
    "fig1": ("fig1_experiment", (10_000,), None),
}
EXPERIMENTS = tuple(SUBCOMMANDS)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_REFUSAL = 3
EXIT_ERROR = 4
EXIT_INTERNAL = 5


@dataclass
class RunConfig:
    """One run's settings, each field given as its flag's text and converted
    here: theta_star, h and n_grid from comma lists; n_reps, seed and grid
    entries to integers.  q stays text until build_plan knows the number of
    components.  ExperimentPlan checks the ranges."""

    experiment: str
    model: str = "toy_haroche"
    theta_star: Optional[list] = None
    q: Optional[str] = None
    h: Optional[list] = None
    n_grid: Optional[list] = None
    n_reps: int = 2000
    seed: int = 0
    output_dir: str = "qndmix_out"

    def __post_init__(self):
        if self.model not in PRESETS:
            raise ConfigError(
                f"field 'model': unknown preset {self.model!r}; "
                f"available: {', '.join(sorted(PRESETS))}"
            )
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"field 'experiment': {self.experiment!r} is not one of {EXPERIMENTS}"
            )
        if not self.output_dir:
            raise ConfigError(f"field 'output_dir': cannot parse {self.output_dir!r}")
        for name, kind in (("theta_star", float), ("h", float), ("n_grid", int)):
            if getattr(self, name) is not None:
                setattr(self, name, _parse(name, getattr(self, name), kind, many=True))
        self.n_reps = _parse("n_reps", self.n_reps, int)
        self.seed = _parse("seed", self.seed, int)


def _parse(name: str, value, kind, many: bool = False):
    """A flag's text as a kind, or (many) as a list of kind, one entry per
    comma-separated item; ConfigError when an entry does not convert, so an
    int refuses '2.5', 'true' and '', and a float refuses ''."""
    try:
        entries = [kind(x) for x in (value.split(",") if many else [value])]
    except ValueError:
        raise ConfigError(f"field '{name}': cannot parse {value!r}") from None
    return entries if many else entries[0]


def parse_weights(spec: str, d: int) -> MixtureWeights:
    """Weights from a comma-separated string or the rule 'poissonlike(RATE)'
    with a positive, finite RATE."""
    weights = MixtureWeights.normalized
    m = re.fullmatch(r"poissonlike\(([^)]+)\)", spec.strip())
    if not m:
        spec = _parse("q", spec, float, many=True)
    else:
        try:
            rate = float(m.group(1))
        except ValueError:
            raise ConfigError(f"field 'q': bad rate in {spec!r}") from None
        if not 0.0 < rate < math.inf:
            raise ConfigError(f"field 'q': rate in {spec!r} must be positive and finite")
        spec, weights = d, functools.partial(poisson_like_weights, rate)
    try:
        # A rate far from 1 can overflow rate^alpha, or underflow a weight to 0.
        with np.errstate(over="raise"):
            return weights(spec)
    except Exception as exc:
        raise ConfigError(f"field 'q': {exc}") from exc


def build_plan(config: RunConfig) -> ExperimentPlan:
    """The run's plan, with the preset's value where a field is unset, and h
    only for an experiment that reads it; ConfigError when ExperimentPlan
    refuses a range."""
    preset = get_preset(config.model)
    q = parse_weights(config.q, preset.family.n_components) if config.q is not None else preset.q
    _, default_grid, default_h = SUBCOMMANDS[config.experiment]
    h = config.h
    if default_h is None:
        h = None
    elif h is None:
        h = [default_h] * preset.family.dim
    try:
        plan = ExperimentPlan(
            family=preset.family,
            q=q,
            theta_star=preset.theta_star if config.theta_star is None else config.theta_star,
            h=h,
            n_grid=default_grid if config.n_grid is None else config.n_grid,
            n_reps=config.n_reps,
            master_seed=config.seed,
            estimation_box=preset.estimation_box,
        )
        if config.experiment == "collapse":
            check_collapse_grid(plan.n_grid)
    except QndmixError as exc:
        raise ConfigError(str(exc)) from exc
    return plan


def write_json(report: dict, path: Path) -> None:
    _write_in_place(path, json.dumps(report, indent=2) + "\n")


def write_csv(rows, header, path: Path) -> None:
    """RFC-4180-style CSV with '.' decimals and 17 significant digits."""
    _write_in_place(path, _csv_text(header, rows))


def run(config: RunConfig) -> int:
    """Run the experiment that the subcommand names, looked up on asymptotics
    at each call, so that a binding replaced there takes effect; write
    report.json (and CSVs) under output_dir; return the exit code."""
    plan = build_plan(config)
    out = Path(config.output_dir)
    # An existing directory has no file on its path; only another out needs the walk.
    blocker = None if out.is_dir() else next(
        (p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if blocker is not None:
        raise ConfigError(f"field 'output_dir': {str(blocker)!r} exists and is not a directory")
    try:
        report = getattr(asymptotics, SUBCOMMANDS[config.experiment][0])(plan)
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    out.mkdir(parents=True, exist_ok=True)
    if config.experiment == "estimate":
        report, fit = report
        fit.trace_to_csv(out / "estimate_trace.csv")
    elif config.experiment == "fig1":
        report, paths = report
        for k, path in enumerate(paths):
            write_csv(path, ["n", "theta_hat"], out / f"fig1_seed{k}.csv")
    report["model"] = config.model
    report["schema_version"] = SCHEMA_VERSION
    write_json(report, out / "report.json")
    print(f"wrote {out / 'report.json'} (passed={report['passed']})")
    if report["passed"]:
        return EXIT_OK
    print(f"failed gates: {', '.join(g['name'] for g in report['gates'] if not g['passed'])}", file=sys.stderr)
    return EXIT_CHECK_FAILED


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qndmix",
        description="Simulation and asymptotic-theory experiments for repeated "
        "QND measurement records.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--preset", dest="model", help="model preset name")
    parser.add_argument("--seed", dest="seed", help="master seed")
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument("--n-grid", dest="n_grid", help="comma-separated record lengths")
    parser.add_argument("--n-reps", dest="n_reps", help="Monte-Carlo replications")
    parser.add_argument("--h", dest="h",
                        help="comma-separated local shift h (theta* + h/sqrt(n)) of lamn (default 1), "
                        "collapse and cramer-rao (default 0); the others do not read it")
    parser.add_argument("--theta-star", dest="theta_star", help="comma-separated true parameter")
    parser.add_argument("--q", dest="q", help="weights: 'poissonlike(RATE)' or comma-separated")
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of the flags given; a flag not given leaves its field's
    default."""
    return RunConfig(**{k: v for k, v in vars(args).items() if v is not None})


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return run(_run_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QndmixError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
