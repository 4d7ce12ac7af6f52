"""Span tracing from outside the program, for the traced benchmark run.

The tracer replaces public functions of the qndmix modules with wrappers that
record a span per call: name, parent span, start, end and the benchmark op it
belongs to.  A function imported with ``from .x import f`` is bound in every
importing module, so each binding is replaced, and every one is put back by
``uninstall``.  The untraced run never creates a tracer, so its numbers
measure the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import scipy.special

from qndmix import estimate as q_estimate
from qndmix import model as q_model

# (module, attribute) of each traced function; the span name is
# "<module>.<attribute>".
FUNCTIONS = [
    ("presets", "get_preset"),
    ("model", "fisher_information"),
    ("quantum", "hermitian_expm"),
    ("quantum", "filter_step"),
    ("simulate", "substream"),
    ("simulate", "sample_mixture_trajectory"),
    ("estimate", "mle"),
    ("estimate", "maximize_scalar"),
    ("estimate", "loglik"),
    ("estimate", "loglik_component"),
    ("asymptotics", "cramer_rao_experiment"),
    ("asymptotics", "lamn_experiment"),
    ("asymptotics", "purification_experiment"),
    ("asymptotics", "mixture_collapse_experiment"),
    ("asymptotics", "mle_path"),
    ("cli", "main"),
    ("cli", "write_json"),
    ("cli", "write_csv"),
]
# Methods are bound once, on their class.
METHODS = [
    (q_model.ParametricFamily, "prob_table", "model.prob_table"),
    (q_estimate.EstimationReport, "trace_to_csv", "estimate.EstimationReport.trace_to_csv"),
]
# scipy's logsumexp, wrapped only where the package calls it.
LOGSUMEXP_NAMESPACES = ("asymptotics", "estimate")

# Position of the output path among the arguments of each writer.
PATH_ARG = {
    "cli.write_json": 1,
    "cli.write_csv": 2,
    "estimate.EstimationReport.trace_to_csv": 1,
}


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    bytes: int = 0


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list[tuple] = []
        self.op_id = -1
        self.thetas: set[bytes] = set()
        self._stack: list[list] = []
        self._paused = False
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == "qndmix" or k.startswith("qndmix.")]
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"qndmix.{mod_name}"], attr)
            label = _cli_label if (mod_name, attr) == ("cli", "main") else None
            wrapper = self._wrap(original, f"{mod_name}.{attr}", label)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for cls, attr, name in METHODS:
            self._patch(cls, attr, self._wrap(vars(cls)[attr], name))
        lse = self._wrap(scipy.special.logsumexp, "scipy.logsumexp")
        for mod_name in LOGSUMEXP_NAMESPACES:
            self._patch(sys.modules[f"qndmix.{mod_name}"], "logsumexp", lse)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks record nothing."""
        old, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = old

    # -- recording ----------------------------------------------------------
    def _wrap(self, fn, name, label=None):
        path_arg = PATH_ARG.get(name)
        is_table = name == "model.prob_table"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = label(name, args, kwargs) if label else name
            if is_table:
                self.thetas.add(np.asarray(args[1], dtype=float).tobytes())
            parent = self._stack[-1][0] if self._stack else None
            frame = [span, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dur = t1 - t0
                if self._stack:
                    self._stack[-1][1] += dur
                stat = self.stats[span]
                stat.calls += 1
                stat.s += dur
                stat.self_s += dur - frame[1]
                if path_arg is not None:
                    path = args[path_arg] if len(args) > path_arg else kwargs.get("path")
                    stat.bytes += os.path.getsize(path)
                self.spans.append((self.op_id, span, parent, t0, t1))

        return wrapper

    def write_spans(self, path) -> None:
        """One JSON line per span, gzip-compressed."""
        with gzip.open(path, "wt") as f:
            for op, name, parent, t0, t1 in self.spans:
                f.write(json.dumps([op, name, parent, t0, t1]) + "\n")


def _cli_label(name, args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"{name}.{argv[0]}" if argv else name


# Per-layer metrics reported by the traced run, as "<span>.<field>".
LAYER_METRICS = [
    "presets.get_preset.s",
    "model.prob_table.calls",
    "model.prob_table.s",
    "model.prob_table.us_per_call",
    "model.prob_table.per_record",
    "model.prob_table.distinct_theta_ratio",
    "model.fisher_information.calls",
    "model.fisher_information.s",
    "quantum.hermitian_expm.calls",
    "quantum.hermitian_expm.s",
    "quantum.filter_step.calls",
    "quantum.filter_step.s",
    "quantum.filter_step.us_per_call",
    "simulate.substream.calls",
    "simulate.substream.s",
    "simulate.sample_mixture_trajectory.calls",
    "simulate.sample_mixture_trajectory.s",
    "estimate.mle.calls",
    "estimate.mle.s",
    "estimate.mle.self_s",
    "estimate.maximize_scalar.calls",
    "estimate.loglik.calls",
    "estimate.loglik.s",
    "estimate.loglik_component.calls",
    "estimate.loglik_component.s",
    "asymptotics.cramer_rao_experiment.s",
    "asymptotics.cramer_rao_experiment.self_s",
    "asymptotics.lamn_experiment.s",
    "asymptotics.lamn_experiment.self_s",
    "asymptotics.purification_experiment.s",
    "asymptotics.purification_experiment.self_s",
    "asymptotics.mixture_collapse_experiment.s",
    "asymptotics.mixture_collapse_experiment.self_s",
    "asymptotics.mle_path.calls",
    "asymptotics.mle_path.s",
    "asymptotics.mle_path.self_s",
    "scipy.logsumexp.calls",
    "scipy.logsumexp.s",
    "cli.main.estimate.calls",
    "cli.main.estimate.s",
    "cli.main.fig1.calls",
    "cli.main.fig1.s",
    "cli.write_json.calls",
    "cli.write_json.s",
    "cli.write_json.bytes",
    "cli.write_csv.calls",
    "cli.write_csv.s",
    "cli.write_csv.bytes",
    "estimate.EstimationReport.trace_to_csv.calls",
    "estimate.EstimationReport.trace_to_csv.s",
    "estimate.EstimationReport.trace_to_csv.bytes",
    "trace.overhead_s",
]

UNITS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "bytes": "bytes",
    "us_per_call": "us",
    "per_record": "calls/record",
    "distinct_theta_ratio": "ratio",
    "overhead_s": "s",
}


def layer_metrics(tracer: Tracer, records: int, overhead_s: float) -> dict:
    """Every entry of LAYER_METRICS as {name: (value, unit)}; absent spans read 0."""
    out = {}
    for metric in LAYER_METRICS:
        span, field = metric.rsplit(".", 1)
        stat = tracer.stats.get(span, Stat())
        if metric == "trace.overhead_s":
            value = overhead_s
        elif field == "us_per_call":
            value = 1e6 * stat.s / stat.calls if stat.calls else 0.0
        elif field == "per_record":
            value = stat.calls / records
        elif field == "distinct_theta_ratio":
            value = len(tracer.thetas) / stat.calls if stat.calls else 0.0
        else:
            value = getattr(stat, field)
        out[metric] = (value, UNITS[field])
    return out
