"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest perfbench/test_perfbench.py
"""

import io
import json
import sys
from argparse import Namespace
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest

import run
import spans
from qndmix.estimate import EstimationReport
from qndmix.model import ParametricFamily
from workloads import WORKLOADS, Context, Sizes, fixed_pass, timed_loop

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL = {
    "cramer_rao": Sizes(cramer_reps=3, distinct_cycles=2, min_cycles=2, trace_cycles=2),
    "sampling": Sizes(lamn_reps=40, purify_reps=100, collapse_reps=10, distinct_cycles=1, min_cycles=1, trace_cycles=1),
    "single_record": Sizes(
        filter_steps=50,
        d1_presets=("toy_haroche", "qubit_rotation"),
        distinct_cycles=2,
        min_cycles=2,
        trace_cycles=2,
    ),
}


def snapshot() -> dict:
    """Every binding the tracer may replace: package module globals and methods."""
    objs = {}
    for name, mod in list(sys.modules.items()):
        if name == "qndmix" or name.startswith("qndmix."):
            objs.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (ParametricFamily, EstimationReport):
        objs.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return objs


def ready(name: str, tmp_path: Path, seed: int = 3):
    wl = WORKLOADS[name](seed, SMALL[name])
    wl.setup()
    wl.warmup(Context(tmp_path, warmup=True))
    wl.prepare()
    return wl


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_tracer_wraps_every_binding_and_restores_it():
    before = snapshot()
    tracer = spans.Tracer()
    with tracer.installed():
        during = snapshot()
        changed = {k for k in before if during[k] is not before[k]}
        # Names bound by `from .x import f` are wrapped where they are used.
        for key in [
            ("qndmix.asymptotics", "substream"),
            ("qndmix.asymptotics", "fisher_information"),
            ("qndmix.cli", "mle"),
            ("qndmix.cli", "get_preset"),
            ("qndmix.asymptotics", "logsumexp"),
            ("qndmix.estimate", "logsumexp"),
            ("ParametricFamily", "prob_table"),
        ]:
            assert key in changed, key
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_untraced_run_leaves_the_program_unmodified(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("tracer installed in an untraced run")

    monkeypatch.setattr(spans.Tracer, "install", refuse)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    before = snapshot()
    wl = ready("cramer_rao", tmp_path)
    args = Namespace(workload="cramer_rao", seed=3, seconds=0.0, trace=0)
    with redirect_stdout(io.StringIO()):
        run.measured_run(args, [], wl, tmp_path, 1.0)
    after = snapshot()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_printed_end_to_end_metrics_match_benchmark_json(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    wl = ready(name, tmp_path)
    args = Namespace(workload=name, seed=3, seconds=0.0, trace=0)
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.measured_run(args, [], wl, tmp_path, 1.0)
    result = last_json(buf.getvalue())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], buf.getvalue()
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if name == "single_record":
        # The D = 6 preset exits 2 on estimate and on fig1 today.
        assert result["failed"] == 2
    else:
        assert result["failed"] == 0


def test_printed_per_layer_metrics_match_benchmark_json(tmp_path):
    wl = ready("cramer_rao", tmp_path)
    args = Namespace(workload="cramer_rao", seed=3, seconds=0.0, trace=1)
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.traced_run(args, [], wl, tmp_path)
    result = last_json(buf.getvalue())
    want = {m["name"]: m.get("unit") for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["asymptotics.cramer_rao_experiment.s"]["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_call_counts_repeat_across_traced_runs(name, tmp_path):
    counts = []
    for _ in range(2):
        wl = ready(name, tmp_path)
        tracer = spans.Tracer()
        ctx = Context(tmp_path, tracer)
        with tracer.installed():
            fixed_pass(wl, ctx)
        assert not ctx.tally.check_errors
        metrics = spans.layer_metrics(tracer, ctx.tally.records, 0.0)
        counts.append({k: v for k, (v, _) in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["model.prob_table.calls"] > 0


def test_accounting_does_not_depend_on_run_length(tmp_path):
    """Repeats of a distinct op are timed, not counted again."""
    tallies = []
    for seconds in (0.0, 1.5):
        wl = ready("cramer_rao", tmp_path)
        ctx = Context(tmp_path)
        timed_loop(wl, ctx, seconds)
        tallies.append(ctx.tally)
    short, long = tallies
    assert len(long.parts_ms["cramer_rao"]) > len(short.parts_ms["cramer_rao"]) == 2
    assert (long.attempted, long.failed) == (short.attempted, short.failed) == (2, 0)
    assert not long.check_errors
