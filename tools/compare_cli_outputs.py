"""Run the qndmix CLI of one source tree over subcommands x presets x seeds,
or its experiments at the acceptance settings, and compare two such runs
byte for byte.

    python tools/compare_cli_outputs.py run SOURCE_TREE OUT_DIR
    python tools/compare_cli_outputs.py acceptance SOURCE_TREE OUT_DIR
    python tools/compare_cli_outputs.py diff DIR_A DIR_B

`run` starts one process per run, `python -m qndmix.cli SUBCOMMAND --preset
PRESET --seed SEED` at the CLI's default sizes, with SOURCE_TREE/src first on
PYTHONPATH: every subcommand on every preset at seeds 0-2, 84 runs.  Run
(s, p, k) is kept in OUT_DIR/s/p/seedk: `out/` holds what the CLI wrote
(report.json and the CSVs), `stdout` the standard output with the output
directory replaced by <OUT>, `stderr` the standard error and `exit_code` the
exit code.

`acceptance` runs, in one process with SOURCE_TREE/src first on PYTHONPATH,
each experiment of SETTINGS in SOURCE_TREE/demos/gate_calibration.py on the
two D = 1 presets at master seed 0, and keeps each of the 14 reports as
indented JSON, the CLI's layout without the CLI's model and schema_version
keys, in OUT_DIR/preset/experiment/report.json.

`diff` prints the first difference between two such directories, a file
that only one side has or the first line where a file differs, and exits 1;
it prints nothing and exits 0 when every file matches byte for byte.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

SUBCOMMANDS = ("estimate", "lamn", "collapse", "consistency", "cramer-rao", "purify", "fig1")
PRESETS = ("toy_haroche", "toy_haroche_guerlin", "toy_haroche_full", "qubit_rotation")
SEEDS = (0, 1, 2)
OUT_PLACEHOLDER = "<OUT>"
# The acceptance runs, as a script run by the source tree's Python path:
# argv is the gate_calibration.py to read SETTINGS from and the output
# directory.
ACCEPTANCE_SCRIPT = """
import importlib.util, json, sys
from pathlib import Path
from qndmix.asymptotics import ExperimentPlan
from qndmix.presets import get_preset

spec = importlib.util.spec_from_file_location("gate_calibration", sys.argv[1])
demo = importlib.util.module_from_spec(spec)
spec.loader.exec_module(demo)
out = Path(sys.argv[2])
for preset in ("toy_haroche", "qubit_rotation"):
    pre = get_preset(preset)
    for experiment, kw in demo.SETTINGS:
        plan = ExperimentPlan(family=pre.family, q=pre.q, theta_star=pre.theta_star, master_seed=0,
                              estimation_box=pre.estimation_box, **kw)
        report = experiment(plan)
        path = out / preset / experiment.__name__ / "report.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(report[0] if isinstance(report, tuple) else report, indent=2) + "\\n")
"""


def _tree_env(source_tree) -> dict:
    """The environment with source_tree/src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(source_tree).resolve() / "src"), env.get("PYTHONPATH")]))
    return env


def run(source_tree, out_dir, subcommands=SUBCOMMANDS, presets=PRESETS, seeds=SEEDS) -> None:
    """Every run of subcommands x presets x seeds of the CLI in source_tree,
    saved under out_dir as the module docstring lays out."""
    env = _tree_env(source_tree)
    for sub in subcommands:
        for preset in presets:
            for seed in seeds:
                run_dir = Path(out_dir).resolve() / sub / preset / f"seed{seed}"
                run_dir.mkdir(parents=True)
                cli_out = run_dir / "out"
                proc = subprocess.run(
                    [sys.executable, "-m", "qndmix.cli", sub, "--preset", preset,
                     "--seed", str(seed), "--out", str(cli_out)],
                    cwd=run_dir, env=env, capture_output=True, text=True,
                )
                (run_dir / "stdout").write_text(proc.stdout.replace(str(cli_out), OUT_PLACEHOLDER))
                (run_dir / "stderr").write_text(proc.stderr)
                (run_dir / "exit_code").write_text(f"{proc.returncode}\n")


def acceptance(source_tree, out_dir) -> None:
    """The report of each acceptance setting of source_tree, saved under
    out_dir as the module docstring lays out; CalledProcessError when the run
    fails."""
    demo = Path(source_tree).resolve() / "demos" / "gate_calibration.py"
    subprocess.run([sys.executable, "-c", ACCEPTANCE_SCRIPT, str(demo), str(Path(out_dir).resolve())],
                   env=_tree_env(source_tree), check=True)


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def first_difference(a, b) -> str | None:
    """The first difference between the run directories a and b, in sorted
    path order, as one message; None when they match byte for byte."""
    a, b = Path(a), Path(b)
    files_a, files_b = _files(a), _files(b)
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            return f"{rel}: only in {a}"
        if rel not in files_a:
            return f"{rel}: only in {b}"
        bytes_a, bytes_b = (a / rel).read_bytes(), (b / rel).read_bytes()
        if bytes_a == bytes_b:
            continue
        lines_a, lines_b = bytes_a.splitlines(keepends=True), bytes_b.splitlines(keepends=True)
        k = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
                 min(len(lines_a), len(lines_b)))
        line_a = lines_a[k] if k < len(lines_a) else b"<end of file>"
        line_b = lines_b[k] if k < len(lines_b) else b"<end of file>"
        return f"{rel}: line {k + 1} differs\n  {a}: {line_a!r}\n  {b}: {line_b!r}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run the CLI of a source tree into a directory")
    run_parser.add_argument("source_tree")
    run_parser.add_argument("out_dir")
    acceptance_parser = commands.add_parser("acceptance", help="write a source tree's acceptance-size reports")
    acceptance_parser.add_argument("source_tree")
    acceptance_parser.add_argument("out_dir")
    diff_parser = commands.add_parser("diff", help="print the first difference of two run directories")
    diff_parser.add_argument("a")
    diff_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.source_tree, args.out_dir)
        return 0
    if args.command == "acceptance":
        acceptance(args.source_tree, args.out_dir)
        return 0
    difference = first_difference(args.a, args.b)
    if difference is None:
        return 0
    print(difference)
    return 1


if __name__ == "__main__":
    sys.exit(main())
