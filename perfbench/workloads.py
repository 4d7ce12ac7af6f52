"""The three benchmark workloads and the closed loop that drives them.

Load shape: one client, one process, one thread.  Each op is issued only
after the previous one has returned and been checked; every ExperimentPlan
keeps the default n_workers=1.  All inputs derive from the workload seed:
experiment call k uses master_seed = seed * 1000 + k, and CLI calls get
seeds from a fixed cycle derived the same way.

A workload has four phases.  ``setup`` (preset construction) and ``warmup``
(one reduced op) are charged to setup_s; ``prepare`` builds the benchmark's
own check tables and is not timed; repeated ``cycle`` calls form the timed
loop; ``final_ops`` run once after it.  Op latency covers the program call
only, never the checks.

The timed loop cycles through ``distinct_cycles`` distinct inputs until
``--seconds`` have passed and at least ``min_cycles`` cycles ran, so that each
p90 has ten samples beyond it.  Ops are accounted per distinct input:
``attempted`` and ``failed`` depend on the seed only, never on how fast the
machine was, and a repeated op must reproduce the outcome of its first run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

# Program functions are looked up on their module at call time, so that the
# traced run's wrappers see the benchmark's own calls too.
from qndmix import asymptotics, cli, presets, quantum, simulate

import checks

SEED_STRIDE = 1000
ESTIMATE_N = 10_000  # record length of `qndmix estimate` (largest default n)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark's, tests shrink them."""

    cramer_reps: int = 5
    lamn_reps: int = 150
    purify_reps: int = 150
    collapse_reps: int = 30
    filter_steps: int = 100
    d1_presets: tuple = ("toy_haroche", "qubit_rotation", "toy_haroche_guerlin")
    # Cycles with distinct inputs; all run even when --seconds has passed.
    distinct_cycles: int = 1
    # Cycles the timed loop runs at least.
    min_cycles: int = 1
    # Cycles in the traced run, fixed so that span counts repeat exactly.
    trace_cycles: int = 1


def warmup_sizes(sizes: Sizes) -> Sizes:
    """A reduced op for the warm-up: same code paths, a hundredth of the work."""
    return replace(
        sizes,
        cramer_reps=2,
        lamn_reps=max(sizes.lamn_reps // 100, 2),
        purify_reps=max(sizes.purify_reps // 100, 2),
        collapse_reps=max(sizes.collapse_reps // 100, 2),
    )


class Tally:
    """What one run attempted, how long each op took and what its checks found."""

    def __init__(self):
        # Distinct op -> None when it succeeded, else why it failed.
        self.outcomes: dict[tuple, str | None] = {}
        # Latency of successful timed ops, per part ("estimate:<preset>", ...).
        self.parts_ms: dict[str, list] = defaultdict(list)
        # The parts of one round (one op of each kind the cycle runs), and the
        # records one round draws, per kind.
        self.round_parts: set[str] = set()
        self.round_records: dict[str, int] = {}
        self.records = 0
        self.busy_s = 0.0
        # Duration of the reference op after each cycle.
        self.reference_ms: list[float] = []
        # Wrong results (invariants, closed forms, bands): the run is incorrect.
        self.check_errors: list[str] = []
        # Estimates short of the grid oracle's maximum: failed ops, not wrong arithmetic.
        self.misses: list[str] = []
        self.verdicts: dict[str, list] = defaultdict(list)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> list:
        return [why for why in self.outcomes.values() if why is not None]

    @property
    def failed(self) -> int:
        return len(self.failures)

    def round_ms(self, q: float) -> float:
        """One round at the q-th percentile of each part's latency, summed.

        Each part weighs once, however many of its ops the run completed, so
        the op mix cannot move the figure.
        """
        return sum(float(np.percentile(self.parts_ms[p], q)) for p in self.round_parts)

    @property
    def records_per_round(self) -> int:
        return sum(self.round_records.values())


class Context:
    """Per-run state handed to every op: tally, output directory, tracer."""

    def __init__(self, out_dir: Path, tracer=None, warmup: bool = False):
        self.tally = Tally()
        self.out_dir = out_dir
        self.tracer = tracer
        # A warm-up context runs ops without checks or accounting.
        self.warmup = warmup
        self.timed = not warmup
        self.op_id = 0
        # True while an op repeats the inputs of an earlier one.
        self.repeat = False
        self._failure: str | None = None

    def untraced(self):
        """Benchmark-side work (input regeneration, checks) records no spans."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def op(self, key: tuple):
        """One attempted op, identified by its inputs.

        The first op with a key is accounted; a repeat is timed again and
        must end the same way, or the run is incorrect.
        """
        self.op_id += 1
        if self.tracer:
            self.tracer.op_id = self.op_id
        t = self.tally
        self.repeat = key in t.outcomes
        self._failure = None
        yield
        if self.warmup:
            return
        if not self.repeat:
            t.outcomes[key] = self._failure
        elif (t.outcomes[key] is None) != (self._failure is None):
            t.check_errors.append(f"{key}: repeat ended otherwise than the first run: {self._failure}")

    def fail(self, what: str) -> None:
        if self._failure is None:
            self._failure = what

    def done(self, what: str, kind: str, parts: dict, records: int, ok: bool,
             in_round: bool = True) -> None:
        """Account one timed op that returned; parts maps its parts to seconds.

        An op whose output checks failed is a failed op and stays out of the
        latency figures; in_round=False keeps a successful one out of the
        round (its parts only show in the breakdown).
        """
        if not ok:
            self.fail(f"{what}: output check failed")
        if not self.timed:
            return
        t = self.tally
        t.records += records
        t.busy_s += sum(parts.values())
        if ok:
            for part, seconds in parts.items():
                t.parts_ms[part].append(1e3 * seconds)
            if in_round:
                t.round_parts.update(parts)
                t.round_records[kind] = records

    def check(self, fn, *args, invariant: bool = True) -> bool:
        """Run one output check, untraced; True when it passes.

        A failed invariant marks the run incorrect.  A failed non-invariant
        check (an estimate short of the oracle's maximum) only fails the op.
        A repeated op's messages were recorded at its first run.
        """
        if self.warmup:
            return True
        with self.untraced():
            errors = fn(*args)
        if not self.repeat:
            (self.tally.check_errors if invariant else self.tally.misses).extend(errors)
        return not errors


def run_cli(ctx: Context, argv: list) -> tuple[int, float, str]:
    """In-process `qndmix <argv> --out <dir>`; returns (exit code, seconds, stderr)."""
    (ctx.out_dir / "report.json").unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv + ["--out", str(ctx.out_dir)])
        dt = time.perf_counter() - t0
    return rc, dt, err.getvalue().strip()


def cli_outcome(ctx: Context, rc: int, stderr: str) -> str | None:
    """Failure reason of a CLI call, or None when it counts as a success.

    0 and 1 succeed when report.json was written (1 is a failed statistical
    check, not a crash); 3 succeeds as a documented refusal; anything else,
    including config error 2 on a built-in preset, fails.
    """
    if rc in (0, 1) and (ctx.out_dir / "report.json").is_file():
        return None
    if rc == 3 and stderr.startswith("refused:"):
        return None
    return f"exit {rc}: {stderr.splitlines()[-1] if stderr else 'no message'}"


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        """Program set-up a user pays before the first op."""

    def warmup(self, ctx: Context) -> None:
        """One reduced op, so lazy set-up finishes before timing."""

    def prepare(self) -> None:
        """The benchmark's own check tables; not timed."""

    def cycle(self, ctx: Context, k: int) -> None:
        """One cycle of the timed loop."""
        raise NotImplementedError

    def final_ops(self, ctx: Context) -> None:
        """Ops attempted once, after the timed loop; their latency is detail only."""

    def final_checks(self) -> list:
        return []


# ---------------------------------------------------------------------------
# Experiments on toy_haroche
# ---------------------------------------------------------------------------

class _Experiments(Workload):
    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes)
        # Reports of the timed calls, by kind, for pooled checks.
        self.reports: dict[str, list] = defaultdict(list)

    def setup(self) -> None:
        self.pre = presets.get_preset("toy_haroche")

    def plan(self, master_seed: int, **kw) -> asymptotics.ExperimentPlan:
        pre = self.pre
        return asymptotics.ExperimentPlan(
            family=pre.family,
            q=pre.q,
            theta_star=pre.theta_star,
            master_seed=master_seed,
            estimation_box=pre.estimation_box,
            **kw,
        )

    def experiment(self, ctx: Context, kind: str, fn: str, plan, records: int, check):
        """One call of the experiment named fn; records = replications it draws."""
        with ctx.op((fn, plan.master_seed, plan.n_reps)):
            try:
                t0 = time.perf_counter()
                report = getattr(asymptotics, fn)(plan)
                dt = time.perf_counter() - t0
            except Exception as exc:  # counted, not raised: every op is attempted
                ctx.fail(f"{kind}: {type(exc).__name__}: {exc}")
                return
            ok = ctx.check(check, self.pre, report)
            ctx.done(kind, kind, {kind: dt}, records, ok)
            if ok and ctx.timed and not ctx.repeat:
                ctx.tally.verdicts[kind].append(bool(report["passed"]))
                self.reports[kind].append(report)


class CramerRao(_Experiments):
    """cramer_rao_experiment at criterion 5's n = 1e4, h = 0, fewer replications."""

    name = "cramer_rao"

    def run_call(self, ctx: Context, master_seed: int, reps: int) -> None:
        plan = self.plan(master_seed, n_grid=(10_000,), n_reps=reps)
        records = reps * (self.pre.family.n_components + 1)
        self.experiment(ctx, "cramer_rao", "cramer_rao_experiment", plan, records,
                        checks.check_cramer_rao)

    def warmup(self, ctx: Context) -> None:
        self.run_call(ctx, self.seed * SEED_STRIDE + SEED_STRIDE - 1, warmup_sizes(self.sizes).cramer_reps)

    def cycle(self, ctx: Context, k: int) -> None:
        k %= self.sizes.distinct_cycles
        self.run_call(ctx, self.seed * SEED_STRIDE + k, self.sizes.cramer_reps)

    def final_checks(self) -> list:
        return checks.check_cramer_rao_pooled(self.pre, self.reports["cramer_rao"])


class Sampling(_Experiments):
    """LAMN, purification and mixture collapse at criterion 4/7/6 settings."""

    name = "sampling"

    def round(self, ctx: Context, seed0: int, sizes: Sizes) -> None:
        d = self.pre.family.n_components
        self.experiment(
            ctx, "lamn", "lamn_experiment",
            self.plan(seed0, h=np.array([1.0]), n_grid=(10_000,), n_reps=sizes.lamn_reps),
            sizes.lamn_reps * d, checks.check_lamn,
        )
        self.experiment(
            ctx, "purification", "purification_experiment",
            self.plan(seed0 + 1, n_grid=(100, 250, 500), n_reps=sizes.purify_reps),
            sizes.purify_reps, checks.check_purification,
        )
        self.experiment(
            ctx, "collapse", "mixture_collapse_experiment",
            self.plan(seed0 + 2, n_grid=(500, 1_000, 2_000), n_reps=sizes.collapse_reps),
            sizes.collapse_reps * d, checks.check_collapse,
        )

    def warmup(self, ctx: Context) -> None:
        self.round(ctx, self.seed * SEED_STRIDE + SEED_STRIDE - 3, warmup_sizes(self.sizes))

    def cycle(self, ctx: Context, k: int) -> None:
        k %= self.sizes.distinct_cycles
        self.round(ctx, self.seed * SEED_STRIDE + 3 * k, self.sizes)


# ---------------------------------------------------------------------------
# One measured record at a time
# ---------------------------------------------------------------------------

class SingleRecord(Workload):
    """`qndmix estimate` plus filtering of the same record, and `fig1`, per preset."""

    name = "single_record"
    FULL = "toy_haroche_full"

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes)
        self.traj_cache: dict = {}
        self.oracles: dict = {}

    def setup(self) -> None:
        self.presets = {p: presets.get_preset(p) for p in (*self.sizes.d1_presets, self.FULL)}
        self.seeds = [self.seed * SEED_STRIDE + i for i in range(self.sizes.distinct_cycles)]

    def record(self, preset: str, seed: int):
        """The record `qndmix estimate --seed <seed>` draws, regenerated for the checks."""
        key = (preset, seed)
        if key not in self.traj_cache:
            pre = self.presets[preset]
            traj = simulate.sample_mixture_trajectory(pre.family, pre.theta_star, pre.q, ESTIMATE_N, seed)
            self.traj_cache[key] = (traj, np.bincount(traj.outcomes, minlength=pre.family.n_outcomes))
        return self.traj_cache[key]

    def fig1_seeds(self) -> list:
        """Record seeds of the fig1 paths (`qndmix fig1` draws seed * FIG1_SEEDS + k)."""
        return [self.seed * cli.FIG1_SEEDS + k for k in range(cli.FIG1_SEEDS)]

    def prepare(self) -> None:
        self.oracles.update({p: checks.Oracle(self.presets[p]) for p in self.presets})
        for p in self.sizes.d1_presets:
            for s in self.seeds + self.fig1_seeds():
                self.record(p, s)

    def estimate_and_filter(self, ctx: Context, preset: str, seed: int) -> None:
        what = f"estimate {preset} seed {seed}"
        with ctx.op(("estimate", preset, seed)):
            try:
                rc, dt_est, stderr = run_cli(ctx, ["estimate", "--preset", preset, "--seed", str(seed)])
            except Exception as exc:
                ctx.fail(f"{what}: {type(exc).__name__}: {exc}")
                return
            reason = cli_outcome(ctx, rc, stderr)
            if reason:
                ctx.fail(f"{what}: {reason}")
                return
            pre = self.presets[preset]
            report = json.loads((ctx.out_dir / "report.json").read_text())
            if not ctx.repeat:
                ctx.tally.verdicts["estimate"].append(bool(report["passed"]))
            with ctx.untraced():
                traj, counts = self.record(preset, seed)
            oracle = self.oracles.get(preset)
            theta_hat = np.asarray(report["theta_hat"])
            ok = ctx.check(checks.check_estimate_report, oracle, counts, report)
            ok &= ctx.check(checks.check_argmax, oracle, counts, theta_hat, what, invariant=False)
            if pre.family.dim != 1:
                ctx.done(what, f"record:{preset}", {f"estimate:{preset}": dt_est}, 1, ok, in_round=False)
                return
            outcomes = traj.outcomes[: self.sizes.filter_steps]
            if pre.system is not None:
                model, initial = pre.system, quantum.FilterState.from_phi(np.sqrt(pre.q.q).astype(complex))
            else:
                model, initial = pre.family, quantum.FilterState.from_weights(pre.q.q)
            try:
                t0 = time.perf_counter()
                states = quantum.filter_trajectory(model, initial, theta_hat, outcomes)
                dt_filter = time.perf_counter() - t0
            except Exception as exc:
                ctx.fail(f"filter {preset} seed {seed}: {type(exc).__name__}: {exc}")
                return
            ok &= ctx.check(checks.check_filter, oracle, outcomes, theta_hat, states[-1].q)
            parts = {f"estimate:{preset}": dt_est, f"filter:{preset}": dt_filter}
            ctx.done(what, f"record:{preset}", parts, 1, ok)

    def fig1(self, ctx: Context, preset: str) -> None:
        what = f"fig1 {preset}"
        with ctx.op(("fig1", preset, self.seed)):
            try:
                rc, dt, stderr = run_cli(ctx, ["fig1", "--preset", preset, "--seed", str(self.seed)])
            except Exception as exc:
                ctx.fail(f"{what}: {type(exc).__name__}: {exc}")
                return
            reason = cli_outcome(ctx, rc, stderr)
            if reason:
                ctx.fail(f"{what}: {reason}")
                return
            if rc == 3 or self.presets[preset].family.dim != 1:
                return
            report = json.loads((ctx.out_dir / "report.json").read_text())
            if not ctx.repeat:
                ctx.tally.verdicts["fig1"].append(bool(report["passed"]))
            ends = self.fig1_path_ends(ctx.out_dir)
            ok = ctx.check(checks.check_path_ends, ends, cli.FIG1_N_MAX, what)
            for k, ((_, theta_hat), seed) in enumerate(zip(ends, self.fig1_seeds())):
                with ctx.untraced():
                    _, counts = self.record(preset, seed)
                ok &= ctx.check(checks.check_argmax, self.oracles[preset], counts, [theta_hat],
                                f"{what} path {k}", invariant=False)
            ctx.done(what, f"fig1:{preset}", {f"fig1:{preset}": dt}, cli.FIG1_SEEDS, ok, in_round=False)

    @staticmethod
    def fig1_path_ends(out_dir: Path) -> list:
        """(n, theta_hat) of the last row of each fig1 path CSV."""
        ends = []
        for k in range(cli.FIG1_SEEDS):
            with open(out_dir / f"fig1_seed{k}.csv", newline="") as f:
                n, theta_hat = list(csv.reader(f))[-1]
            ends.append((int(n), float(theta_hat)))
        return ends

    def warmup(self, ctx: Context) -> None:
        for p in self.sizes.d1_presets:
            self.estimate_and_filter(ctx, p, self.seeds[0])

    def cycle(self, ctx: Context, k: int) -> None:
        seed = self.seeds[k % len(self.seeds)]
        for p in self.sizes.d1_presets:
            self.estimate_and_filter(ctx, p, seed)

    def final_ops(self, ctx: Context) -> None:
        for p in self.sizes.d1_presets:
            self.fig1(ctx, p)
        # The D = 6 preset, once per subcommand: its latency stays out of the
        # percentiles, so fixing it later does not read as a slowdown.
        was_timed, ctx.timed = ctx.timed, False
        try:
            self.estimate_and_filter(ctx, self.FULL, self.seeds[0])
            self.fig1(ctx, self.FULL)
        finally:
            ctx.timed = was_timed


WORKLOADS = {w.name: w for w in (CramerRao, Sampling, SingleRecord)}

# 100 cycles give ten samples beyond each p90.  A cycle takes 0.2 s
# (sampling), 0.3 s (cramer_rao) and 0.4 s (single_record) on a shared
# 2-core host; the distinct inputs run in the first half of the loop.
DEFAULT_SIZES = {
    "cramer_rao": Sizes(distinct_cycles=48, min_cycles=100, trace_cycles=6),
    "sampling": Sizes(distinct_cycles=40, min_cycles=100, trace_cycles=5),
    "single_record": Sizes(distinct_cycles=40, min_cycles=100, trace_cycles=10),
}


def timed_loop(workload: Workload, ctx: Context, seconds: float) -> float:
    """Whole cycles until every distinct one and min_cycles have run and
    `seconds` of wall time have passed."""
    sizes = workload.sizes
    t0 = time.perf_counter()
    k = 0
    while k < max(sizes.distinct_cycles, sizes.min_cycles) or time.perf_counter() - t0 < seconds:
        workload.cycle(ctx, k)
        k += 1
        t1 = time.perf_counter()
        reference_op()
        ctx.tally.reference_ms.append(1e3 * (time.perf_counter() - t1))
    return time.perf_counter() - t0


_REF_P = np.random.default_rng(0).dirichlet(np.ones(8), size=64)
_REF_LOGP = np.log(_REF_P)


def reference_op() -> float:
    """Fixed work in the program's mix, timed after every cycle to gauge host speed.

    Small-array scipy and numpy calls, multinomial draws and a Python loop,
    none of it from the program, so a program change cannot move it.
    """
    rng = np.random.default_rng(1)
    total = 0.0
    for i in range(75):
        total += float(logsumexp(_REF_LOGP[i % 64] * 2.0))
    for i in range(20):
        total += float(rng.multinomial(2_000, _REF_P[i % 64], size=50).max())
    for i in range(10_000):
        total += i & 7
    return total


def fixed_pass(workload: Workload, ctx: Context) -> float:
    """Set-up, trace_cycles cycles and the final ops; returns wall time.

    The op count does not depend on time, so span counts of two passes at one
    seed are equal.
    """
    t0 = time.perf_counter()
    workload.setup()
    for k in range(workload.sizes.trace_cycles):
        workload.cycle(ctx, k)
    workload.final_ops(ctx)
    return time.perf_counter() - t0


def breakdown(tally: Tally) -> dict:
    """Latency of each op part ("estimate:<preset>") and of each part over all
    presets ("estimate"): p50, p90, total seconds and sample count."""
    groups = defaultdict(list)
    for part, ms in tally.parts_ms.items():
        groups[part] += ms
        if ":" in part:
            groups[part.split(":")[0]] += ms
    return {
        name: {
            "p50_ms": float(np.percentile(ms, 50)),
            "p90_ms": float(np.percentile(ms, 90)),
            "s": sum(ms) / 1e3,
            "n": len(ms),
        }
        for name, ms in sorted(groups.items())
    }

