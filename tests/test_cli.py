import ast
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from qndmix.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_ERROR,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_REFUSAL,
    EXPERIMENTS,
    RunConfig,
    build_plan,
    main,
    parse_weights,
)
from qndmix import asymptotics, cli
from qndmix.errors import ConfigError, DomainError, RefusalError
from qndmix.estimate import loglik
from qndmix.model import ParametricFamily
from qndmix.presets import PRESETS
from qndmix.simulate import _draw_record, counts, sample_mixture_trajectory

from conftest import failed_gates_stderr

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def test_unknown_preset_is_config_error(tmp_path):
    assert run_cli("purify", "--preset", "nope", "--out", str(tmp_path)) == EXIT_CONFIG


def test_bad_n_grid_is_config_error(tmp_path):
    assert run_cli("purify", "--n-grid", "10,abc", "--out", str(tmp_path)) == EXIT_CONFIG


@pytest.mark.parametrize("experiment", ["consistency", "collapse", "lamn"])
@pytest.mark.parametrize("grid,message", [
    ("500,500", "config error: n_grid entry 500 appears more than once"),
    ("0,100", "config error: n_grid entry 0 must be at least 1"),
    ("-5,100", "config error: n_grid entry -5 must be at least 1"),
])
def test_bad_grid_point_is_config_error(tmp_path, capsys, experiment, grid, message):
    """A repeated grid point or one below 1 exits 2 with a message, before
    any report is written."""
    code = run_cli(experiment, f"--n-grid={grid}", "--n-reps", "4", "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "report.json").exists()


def test_single_rep_is_config_error(tmp_path, capsys):
    """One replication has no sample variance; it is refused before a run."""
    code = run_cli("cramer-rao", "--n-reps", "1", "--n-grid", "1000", "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: n_reps 1 must be at least 2")
    assert not (tmp_path / "report.json").exists()


def test_comma_separated_q_runs(tmp_path, capsys):
    """--q takes the comma list that its help names."""
    code = run_cli("purify", "--preset", "qubit_rotation", "--q", "0.3,0.7", "--n-reps", "40",
                   "--out", str(tmp_path))
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    report = json.loads((tmp_path / "report.json").read_text())
    assert capsys.readouterr().err == failed_gates_stderr(report)


@pytest.mark.parametrize("q,message", [
    ("dirichlet(1)", "field 'q': cannot parse 'dirichlet(1)'"),
    ("poissonlike(abc)", "field 'q': bad rate in 'poissonlike(abc)'"),
    ("poissonlike(0)", "field 'q': rate in 'poissonlike(0)' must be positive and finite"),
    ("poissonlike(-1)", "field 'q': rate in 'poissonlike(-1)' must be positive and finite"),
    ("poissonlike(nan)", "field 'q': rate in 'poissonlike(nan)' must be positive and finite"),
    ("poissonlike(inf)", "field 'q': rate in 'poissonlike(inf)' must be positive and finite"),
    ("poissonlike(1e100)", "field 'q': overflow encountered in exp"),
    ("poissonlike(1e-300)", "field 'q': all mixture weights must be strictly positive"),
])
def test_bad_q_is_config_error(tmp_path, capsys, q, message):
    """On toy_haroche's d = 8 components, 1e100^8 overflows and 1e-300^2
    underflows to a zero weight."""
    code = run_cli("purify", "--preset", "toy_haroche", "--q", q, "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not tmp_path.joinpath("report.json").exists()


def test_theta_star_of_the_wrong_length_is_config_error(tmp_path, capsys):
    assert run_cli("estimate", "--theta-star", "0.7,0.8", "--out", str(tmp_path)) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: theta_star has shape (2,); the model has D = 1\n"


def test_theta_star_outside_box_is_config_error(tmp_path):
    assert (
        run_cli("purify", "--preset", "qubit_rotation", "--theta-star", "9.0",
                "--out", str(tmp_path))
        == EXIT_CONFIG
    )


@pytest.mark.parametrize("argv", [
    ("collapse", "--n-grid", "500,500"),
    ("purify", "--preset", "qubit_rotation", "--theta-star", "9.0"),
])
def test_config_error_creates_no_output_directory(argv, tmp_path, monkeypatch):
    """The plan is built and checked before the output directory is made."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert run_cli(*argv, "--n-reps", "4", "--out", str(out)) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub", "sub/deeper"])
def test_output_path_through_a_file_is_config_error(below, tmp_path, monkeypatch, capsys):
    """An --out that names an existing file, or a path below one, exits 2
    before any draw and leaves the file as it was."""
    monkeypatch.setattr(asymptotics, "sample_count_paths", lambda *a, **k: pytest.fail("drew records"))
    blocker = tmp_path / "taken"
    blocker.write_bytes(b"keep me\n")
    out = blocker / below if below else blocker
    assert run_cli("purify", "--preset", "qubit_rotation", "--n-reps", "4",
                   "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: field 'output_dir': {str(blocker)!r} exists and is not a directory\n")
    assert blocker.read_bytes() == b"keep me\n"


def test_one_point_collapse_grid_is_config_error(tmp_path, monkeypatch, capsys):
    """No decay rate can be fitted through one record length: exit 2 before
    any draw, and no output directory."""
    monkeypatch.setattr(asymptotics, "sample_count_paths", lambda *a, **k: pytest.fail("drew records"))
    out = tmp_path / "out"
    assert run_cli("collapse", "--n-grid", "1000", "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: n_grid (1000,): the collapse rate needs at least 2 record lengths")
    assert not out.exists()


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_record_length_above_2_to_53_is_config_error(experiment, tmp_path, monkeypatch, capsys):
    """A record length whose counts float64 cannot hold exactly exits 2 on
    every subcommand, before any draw, and makes no output directory."""
    monkeypatch.setattr(asymptotics, "sample_count_paths", lambda *a, **k: pytest.fail("drew records"))
    monkeypatch.setattr(asymptotics, "_draw_record", lambda *a, **k: pytest.fail("drew a record"))
    n = 2**53 + 1
    out = tmp_path / "out"
    grid = f"1000,{n}" if experiment == "collapse" else str(n)
    assert run_cli(experiment, "--n-grid", grid, "--n-reps", "2", "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: n_grid entry {n} exceeds 9007199254740992, the largest count float64 holds exactly\n")
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["lamn", "collapse", "consistency", "cramer-rao", "purify"])
def test_replications_beyond_numpy_arrays_are_config_error(experiment, tmp_path, monkeypatch, capsys):
    """--n-reps 2**62 asks for arrays larger than numpy can describe: every
    subcommand that draws replications exits 2 before any draw, names
    n_reps, and makes no output directory.  On toy_haroche (d = l = 8) each
    default grid has at most 3 entries, so the largest array is cramer_rao's
    9 R fitted rows scanned at 64 points, 9 * 64 * 8 = 4608 bytes a
    replication."""
    monkeypatch.setattr(asymptotics, "sample_count_paths", lambda *a, **k: pytest.fail("drew records"))
    monkeypatch.setattr(asymptotics, "substream", lambda *a, **k: pytest.fail("made a generator"))
    out = tmp_path / "out"
    assert run_cli(experiment, "--n-reps", str(2**62), "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: n_reps {2**62} needs an array of {4608 * 2**62} bytes, more than numpy can describe "
        f"(9223372036854775807)\n")
    assert not out.exists()


def test_out_of_memory_is_a_package_error(tmp_path, monkeypatch, capsys):
    """A run that asks for more memory than there is exits 4 with its message
    and no traceback, and makes no output directory."""
    def out_of_memory(plan):
        raise MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627776,)")

    monkeypatch.setattr(asymptotics, "estimate_experiment", out_of_memory)
    out = tmp_path / "out"
    assert run_cli("estimate", "--out", str(out)) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: Unable to allocate 8.00 TiB for an array with shape (1099511627776,)\n")
    assert not out.exists()


def test_parse_weights():
    q = parse_weights("poissonlike(3.46)", 8)
    assert q.size == 8
    q2 = parse_weights("1,1,2", 3)
    assert q2.q[2] == pytest.approx(0.5)
    assert parse_weights("1, 1,2", 3).q.tolist() == q2.q.tolist()
    with pytest.raises(ConfigError):
        parse_weights("dirichlet(1)", 8)
    with pytest.raises(ConfigError):
        parse_weights("1.0,-1.0", 2)


def test_run_config_validation():
    """A field that does not convert, such as an empty flag value, raises at
    RunConfig; a range that the plan refuses, at build_plan."""
    with pytest.raises(ConfigError):
        RunConfig(model="x", experiment="purify")
    with pytest.raises(ConfigError):
        RunConfig(model="qubit_rotation", experiment="juggle")
    with pytest.raises(ConfigError, match="n_reps 0 must be at least 2"):
        build_plan(RunConfig(model="qubit_rotation", experiment="purify", n_reps="0"))
    with pytest.raises(ConfigError, match="field 'n_grid': cannot parse ''"):
        RunConfig(model="qubit_rotation", experiment="purify", n_grid="")


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_default_grid_of_each_subcommand(experiment):
    plan = build_plan(RunConfig(model="qubit_rotation", experiment=experiment))
    expected = {"purify": (100, 250, 500), "collapse": (500, 1_000, 2_000),
                "lamn": (1_000, 5_000, 10_000), "consistency": (1_000, 5_000, 10_000)}
    assert tuple(plan.n_grid) == expected.get(experiment, (10_000,))


@pytest.mark.parametrize("h, codes", [("20", (EXIT_OK, EXIT_CHECK_FAILED)), ("40", (EXIT_CONFIG,))],
                         ids=["h20_runs", "h40_leaves_the_box"])
def test_default_grid_checks_only_the_n_the_experiment_reads(h, codes, tmp_path, capsys):
    """cramer-rao reads max(n_grid) alone, so its default grid is (10000,):
    theta* + 20/sqrt(1000) would leave qubit_rotation's box, theta* + 0.2
    does not; theta* + 0.4 does, and is still a config error."""
    code = run_cli("cramer-rao", "--preset", "qubit_rotation", "--h", h, "--n-reps", "20",
                   "--out", str(tmp_path))
    assert code in codes
    if code == EXIT_CONFIG:
        assert capsys.readouterr().err == "config error: theta_star + h/sqrt(10000) leaves the box\n"


@pytest.mark.parametrize("experiment, h, flags", [
    ("purify", "20", ["--n-reps", "40"]),
    ("consistency", "20", ["--n-reps", "4"]),
    ("estimate", "40", []),
    ("fig1", "40", []),
])
def test_h_is_not_read_by_the_experiments_that_ignore_it(experiment, h, flags, tmp_path, capsys):
    """purify, consistency, estimate and fig1 never read h: a shift that would
    leave qubit_rotation's box at their grids runs, and writes the report of
    the same run without --h."""
    argv = [experiment, "--preset", "qubit_rotation", *flags]
    code = run_cli(*argv, "--out", str(tmp_path / "plain"))
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    assert run_cli(*argv, "--h", h, "--out", str(tmp_path / "shifted")) == code
    assert capsys.readouterr().err == err
    assert (tmp_path / "shifted" / "report.json").read_bytes() == (tmp_path / "plain" / "report.json").read_bytes()


@pytest.mark.parametrize("experiment, h, n", [("lamn", "20", 1000), ("collapse", "40", 500)])
def test_h_still_checked_where_an_experiment_reads_it(experiment, h, n, tmp_path, capsys):
    """lamn and collapse read h: a shift that leaves the box at a grid entry
    they read is still a config error (cramer-rao's case is
    test_default_grid_checks_only_the_n_the_experiment_reads)."""
    code = run_cli(experiment, "--preset", "qubit_rotation", "--h", h, "--out", str(tmp_path / "x"))
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: theta_star + h/sqrt({n}) leaves the box\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("experiment, h", [("lamn", [1.0]), ("collapse", [0.0]), ("cramer-rao", [0.0]),
                                           ("purify", None), ("consistency", None)])
def test_default_shift_of_each_subcommand(experiment, h):
    """The shift each plan gets without --h: lamn 1, collapse and cramer-rao
    0, and none (the plan's zero) where the experiment never reads it, even
    when a shift is given."""
    plain = build_plan(RunConfig(model="qubit_rotation", experiment=experiment))
    shifted = build_plan(RunConfig(model="qubit_rotation", experiment=experiment, h="0.3"))
    assert plain.h.tolist() == ([0.0] if h is None else h)
    assert shifted.h.tolist() == ([0.0] if h is None else [0.3])


def test_every_flag_sets_the_run_config_field_of_its_name():
    """The parser's dests are exactly the RunConfig fields: one table of
    names, which _run_config passes on unrenamed."""
    dests = set(vars(cli.make_parser().parse_args(["purify"])))
    assert dests == {field.name for field in dataclasses.fields(RunConfig)}


def test_flags_convert_to_the_typed_run_config():
    """The flags' strings give RunConfig's typed fields; --q stays text until
    build_plan knows the number of components."""
    parse = cli.make_parser().parse_args
    by_flags = cli._run_config(parse(["lamn", "--preset", "qubit_rotation", "--n-grid", "500",
                                      "--h", "1,0.5", "--theta-star", "0.7", "--n-reps", "40",
                                      "--seed", "3", "--q", "1,3"]))
    assert dataclasses.asdict(by_flags) == dict(
        experiment="lamn", model="qubit_rotation", theta_star=[0.7], q="1,3", h=[1.0, 0.5],
        n_grid=[500], n_reps=40, seed=3, output_dir="qndmix_out")


# (field, a value of its flag that does not convert or is out of range)
MALFORMED = [
    ("n_reps", "abc"),
    ("n_reps", "2.5"),
    ("n_reps", "true"),
    ("n_reps", ""),
    ("seed", "1.5"),
    ("seed", "-3"),
    ("seed", "true"),
    ("seed", "-1"),
    ("seed", "abc"),
    ("seed", ""),
    ("n_grid", "abc"),
    ("n_grid", "100,250.5"),
    ("n_grid", ""),
    ("n_grid", "500,"),
    ("theta_star", "abc"),
    ("theta_star", ""),
    ("h", "abc"),
    ("h", ""),
    ("q", ""),
    ("q", "true,1,1,1,1,1,1,1"),
    ("model", "[a]"),
    ("output_dir", ""),
]
FLAG = {"n_reps": "--n-reps", "seed": "--seed", "n_grid": "--n-grid",
        "theta_star": "--theta-star", "h": "--h", "q": "--q", "model": "--preset",
        "output_dir": "--out"}


@pytest.mark.parametrize("field,value", MALFORMED)
def test_malformed_value_is_config_error(field, value, tmp_path, monkeypatch, capsys):
    """A flag value that does not convert, or is out of range, exits 2 with a
    message naming its field, and leaves no output directory."""
    monkeypatch.chdir(tmp_path)
    assert run_cli("purify", "--n-reps", "4", "--out", "out", FLAG[field], value) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err, err
    assert list(tmp_path.iterdir()) == []


def test_config_flag_is_refused(tmp_path, monkeypatch, capsys):
    """Flags alone set a run: --config is an unknown argument, refused by the
    parser with exit 2 before any output directory is made."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["purify", "--config", "run.yaml", "--out", "out"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --config run.yaml" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _readme_commands() -> list:
    """The argv of each `qndmix ...` line of README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return [shlex.split(line, comments=True)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("qndmix ")]


def test_readme_shows_every_subcommand():
    """README's command lines run each subcommand at least once."""
    assert {argv[0] for argv in _readme_commands()} == set(EXPERIMENTS)


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_parse_and_plan(argv):
    """A `qndmix ...` line of README's sh blocks parses, and builds its plan,
    without running the experiment: a doc line with a renamed or removed
    flag, or a value that does not convert, fails."""
    build_plan(cli._run_config(cli.make_parser().parse_args(argv)))


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


@pytest.mark.parametrize("preset, seed", [
    ("toy_haroche", 0), ("toy_haroche_guerlin", 7), ("qubit_rotation", 123),
])
def test_repeated_estimates_match_a_fresh_process(preset, seed, tmp_path):
    """Two in-process runs, which share one preset instance and one parser,
    write the bytes of a run in a fresh interpreter."""
    argv = ["estimate", "--preset", preset, "--seed", str(seed)]
    for name in ("a", "b"):
        assert run_cli(*argv, "--out", str(tmp_path / name)) == EXIT_OK
    proc = subprocess.run(
        [sys.executable, "-m", "qndmix.cli", *argv, "--out", str(tmp_path / "fresh")],
        env=_src_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    for artifact in ("report.json", "estimate_trace.csv"):
        want = (tmp_path / "fresh" / artifact).read_bytes()
        assert (tmp_path / "a" / artifact).read_bytes() == want
        assert (tmp_path / "b" / artifact).read_bytes() == want


# theta_hat and loglik_at_max of `qndmix estimate --preset toy_haroche_full
# --seed 1` (n = 1e4): the maximum lies on a near-flat valley, refined
# candidates along it agree in loglik within TIE_TOL, and the one with the
# smallest theta_0 wins.
FULL_SEED1_THETA_HAT = [
    1.0083063014034896, 1.7082437522712641, 0.9121510303649326,
    0.15212147845997917, -0.7102203164672823, 0.7011847103488387,
]
FULL_SEED1_LOGLIK = -1.949086702348302


def test_estimate_runs_multiparameter_preset(tmp_path):
    """The D = 6 estimate reaches at least the likelihood of theta*, reports
    the likelihood at its theta_hat, and keeps the pinned mixture argmax."""
    code = run_cli("estimate", "--preset", "toy_haroche_full", "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    plan = build_plan(RunConfig(model="toy_haroche_full", experiment="estimate", seed=1))
    traj = sample_mixture_trajectory(plan.family, plan.theta_star, plan.q, max(plan.n_grid), 1)
    c = counts(traj, n_outcomes=plan.family.n_outcomes)
    at_hat = loglik(plan.family, plan.q, c, report["theta_hat"]).value
    assert report["loglik_at_max"] == pytest.approx(at_hat, abs=1e-9)
    assert at_hat >= loglik(plan.family, plan.q, c, plan.theta_star).value
    np.testing.assert_allclose(report["theta_hat"], FULL_SEED1_THETA_HAT, rtol=0, atol=1e-12)
    assert report["loglik_at_max"] == pytest.approx(FULL_SEED1_LOGLIK, abs=1e-12)
    assert report["tie"] and not report["boundary"] and report["converged"]


def _run_python(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=_src_env(), capture_output=True, text=True, timeout=300,
    )


NUMPY_ONLY = """
import json, sys
import numpy, numpy.random
before = set(sys.modules)
import qndmix, qndmix.cli
codes = [qndmix.cli.main([*argv, "--out", f"{sys.argv[1]}/{argv[0]}"])
         for argv in (["estimate", "--n-grid", "2000"], ["lamn", "--n-reps", "20"])]
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps([codes, sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "qndmix"})]))
"""


def test_numpy_is_the_one_third_party_runtime_dependency(tmp_path):
    """Importing the package and its CLI, and running two subcommands, loads
    no top-level module besides numpy's, the package's and the standard
    library's: no scipy, no PyYAML."""
    proc = _run_python(NUMPY_ONLY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    codes, third_party = json.loads(proc.stdout.splitlines()[-1])
    assert set(codes) <= {EXIT_OK, EXIT_CHECK_FAILED}, proc.stderr
    assert third_party == []


def _package_modules() -> list:
    """The package and each of its submodules."""
    import importlib
    import pkgutil

    import qndmix

    return [qndmix] + [importlib.import_module(f"qndmix.{m.name}")
                       for m in pkgutil.iter_modules(qndmix.__path__)]


def test_every_export_resolves():
    """Each name in the package's and its submodules' __all__ is defined, once."""
    for module in _package_modules():
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def _naming_lines(names: set) -> list:
    """(line, names the line does not count for) for every line of src/,
    demos/, perfbench/ (its tests left out) and README.md.  A line of an
    import or of an __all__ assignment counts for none of names, a def, class
    or assignment line not for the names it defines.  README's python blocks
    are parsed like the modules; its other lines count for every name."""
    files = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
             *(p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_"))]
    readme = (ROOT / "README.md").read_text()
    block = re.compile(r"```python\n(.*?)```", re.S)
    lines = [(line, set()) for line in block.sub("", readme).splitlines()]
    for source in [p.read_text() for p in files] + block.findall(readme):
        skip: dict = {}
        for node in ast.walk(ast.parse(source)):
            defined = set()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = {node.name}
            elif isinstance(node, ast.Assign):
                defined = {t.id for t in node.targets if isinstance(t, ast.Name)}
            if isinstance(node, (ast.Import, ast.ImportFrom)) or "__all__" in defined:
                skip.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), names))
            elif defined:
                skip.setdefault(node.lineno, set()).update(defined)
        lines += [(line, skip.get(k, set())) for k, line in enumerate(source.splitlines(), 1)]
    return lines


def test_every_export_has_a_caller():
    """Each name in the package's and its submodules' __all__ is named on a
    line of src/, demos/, perfbench/ or README.md other than its definition,
    its __all__ entries and the imports that re-export it: a public name that
    only tests call is deleted, not kept."""
    names = {name for module in _package_modules() for name in getattr(module, "__all__", [])}
    lines = _naming_lines(names)
    uncalled = sorted(
        name for name in names
        if not any(name not in skip and re.search(rf"\b{name}\b", line) for line, skip in lines)
    )
    assert uncalled == []


SCIPY_BLOCKED = """
import runpy, sys
sys.modules["scipy"] = None
from qndmix import cli
out, demo = sys.argv[1], sys.argv[2]
runs = {
    "lamn": ["--h", "1", "--n-reps", "40", "--n-grid", "200"],
    "collapse": ["--n-reps", "20", "--n-grid", "100,200"],
    "purify": ["--n-reps", "40"],
    "estimate": ["--n-grid", "500"],
}
for name, flags in runs.items():
    print("exit", name, cli.main([name, *flags, "--out", f"{out}/{name}"]))
sys.argv = [demo]
runpy.run_path(demo, run_name="__main__")
"""


def test_cli_and_demo_run_with_scipy_blocked(tmp_path):
    """With every scipy import failing, the experiments that used its
    logsumexp and log_ndtr still run and write their reports."""
    demo = ROOT / "demos" / "purification_demo.py"
    proc = _run_python(SCIPY_BLOCKED, str(tmp_path), str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    codes = dict(line.split()[1:] for line in proc.stdout.splitlines() if line.startswith("exit "))
    for name in ("lamn", "collapse", "purify", "estimate"):
        assert codes[name] in {str(EXIT_OK), str(EXIT_CHECK_FAILED)}, (name, proc.stderr)
        assert (tmp_path / name / "report.json").is_file()
    assert "posterior mass on the true component" in proc.stdout


def test_unknown_experiment_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["juggle"])
    assert exc.value.code == EXIT_CONFIG


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


def test_singular_fisher_preset_is_refused_by_consistency_and_fig1(tmp_path, capsys):
    """Consistency of the MLE assumes each component's Fisher information is
    non-singular at theta*; toy_haroche_guerlin breaks that, as lamn and
    cramer-rao already refuse."""
    for experiment in ("consistency", "fig1"):
        code = run_cli(experiment, "--preset", "toy_haroche_guerlin", "--n-reps", "4",
                       "--n-grid", "50", "--out", str(tmp_path / experiment))
        assert code == EXIT_REFUSAL
        assert capsys.readouterr().err.startswith(
            "refused: Fisher information of component 0 is singular")
        assert not (tmp_path / experiment).exists()


def test_fig1_refuses_before_drawing(tmp_path, monkeypatch, capsys):
    draws = []
    monkeypatch.setattr(asymptotics, "_draw_record", lambda *a, **k: draws.append(a) or _draw_record(*a, **k))
    code = run_cli("fig1", "--preset", "toy_haroche_guerlin", "--out", str(tmp_path))
    assert code == EXIT_REFUSAL
    assert capsys.readouterr().err.startswith(
        "refused: Fisher information of component 0 is singular")
    assert draws == []


@pytest.mark.parametrize("experiment,flags", [
    ("consistency", ("--theta-star", "0.6")),
    ("cramer-rao", ("--theta-star", "0.6")),
    ("fig1", ("--theta-star", "0.6")),
    ("cramer-rao", ("--h", "10")),
])
def test_fitting_experiments_refuse_a_point_outside_the_search_box(experiment, flags, tmp_path,
                                                                  monkeypatch, capsys):
    """toy_haroche searches pi/4 +/- 0.052: the fitted point 0.6, or pi/4 + 0.1
    (h = 10 at n = 1e4), is refused before any draw, with no output directory."""
    draws = []
    monkeypatch.setattr(asymptotics, "_draw_record", lambda *a, **k: draws.append(a) or _draw_record(*a, **k))
    out = tmp_path / "out"
    assert run_cli(experiment, "--preset", "toy_haroche", *flags, "--out", str(out)) == EXIT_REFUSAL
    err = capsys.readouterr().err
    assert err.startswith("refused: the fitted point theta = [")
    assert "is not interior to the search box [[0.73339816], [0.83739816]]" in err
    assert draws == [] and not out.exists()


@pytest.mark.parametrize("experiment", ["lamn", "collapse", "purify", "estimate"])
def test_experiments_that_fit_nothing_against_theta_star_keep_running(experiment, tmp_path):
    code = run_cli(experiment, "--preset", "toy_haroche", "--theta-star", "0.6",
                   "--n-reps", "20", "--out", str(tmp_path))
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    assert json.loads((tmp_path / "report.json").read_text())["model"] == "toy_haroche"


@pytest.mark.parametrize("command, flags, shifted_at_star", [
    ("lamn", ("--n-reps", "20", "--n-grid", "200,400"), 0),
    ("lamn", ("--n-reps", "20", "--n-grid", "200,400", "--h", "0"), 2),
    ("collapse", ("--n-reps", "20"), 1),
    ("collapse", ("--n-reps", "20", "--h", "0.5"), 0),
    ("purify", ("--n-reps", "20"), 0),
    ("cramer-rao", ("--n-reps", "20", "--n-grid", "1000"), 1),
    ("cramer-rao", ("--n-reps", "20", "--n-grid", "1000", "--h", "0.5"), 0),
    ("fig1", (), 0),
])
def test_each_experiment_evaluates_the_family_once_at_theta_star(
    command, flags, shifted_at_star, tmp_path, monkeypatch
):
    """One run evaluates the family's rule at theta* once for what it needs
    there: the Fisher stack, the outcome laws, ln p, the KL matrix and the
    table fig1 draws each of its records from all come from the plan's one
    table (ExperimentPlan.star).  A shifted law theta* + h/sqrt(n) is
    evaluated on its own, so at h = 0 it lands on theta* once per n (lamn)
    or once (collapse, cramer-rao)."""
    pre = PRESETS["qubit_rotation"]()
    at_star, records = [], []

    def rule(t):
        at_star.append(int(np.all(t == pre.theta_star, axis=-1).sum()))
        return pre.family.tables(t)

    def draw(*args):
        records.append(args)
        return _draw_record(*args)

    spied = dataclasses.replace(pre, family=ParametricFamily(pre.family.box, tables=rule))
    at_star.clear()
    monkeypatch.setattr(cli, "get_preset", lambda name: spied)
    monkeypatch.setattr(asymptotics, "_draw_record", draw)
    code = run_cli(command, "--preset", "qubit_rotation", *flags, "--out", str(tmp_path))
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    assert sum(at_star) == 1 + shifted_at_star
    if command == "fig1":
        assert len(records) == cli.FIG1_SEEDS
        assert len(list(tmp_path.glob("fig1_seed*.csv"))) == cli.FIG1_SEEDS


def test_h_takes_a_comma_list(tmp_path, capsys):
    args = cli.make_parser().parse_args(["lamn", "--h", "1,0.5"])
    assert cli._run_config(args).h == [1.0, 0.5]
    code = run_cli("lamn", "--preset", "qubit_rotation", "--h", "1,0.5",
                   "--n-reps", "4", "--n-grid", "50", "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: h must have the same dimension")
    assert run_cli("lamn", "--h", "1,x", "--out", str(tmp_path)) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: field 'h': cannot parse")


def test_lamn_defaults_to_a_unit_shift(tmp_path):
    """Without --h, lamn shifts by h = 1, so the Anderson-Darling gate runs
    at every n; --h 0 still gives the untested h = 0 report."""
    args = ("lamn", "--preset", "qubit_rotation", "--n-reps", "40", "--n-grid", "200,400")
    assert run_cli(*args, "--out", str(tmp_path / "x")) in (EXIT_OK, EXIT_CHECK_FAILED)
    report = json.loads((tmp_path / "x" / "report.json").read_text())
    assert report["h"] == [1.0]
    for entry in report["per_component"].values():
        assert all("ad_statistic" in by_n for by_n in entry["by_n"].values())
    assert run_cli(*args, "--h", "0", "--out", str(tmp_path / "y")) == EXIT_OK
    report = json.loads((tmp_path / "y" / "report.json").read_text())
    assert report["h"] == [0.0]
    assert not any("ad_statistic" in by_n for entry in report["per_component"].values()
                   for by_n in entry["by_n"].values())


def test_default_shift_has_theta_dimension():
    plan = build_plan(RunConfig(model="toy_haroche_full", experiment="estimate"))
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
    (NotImplementedError("not yet"), EXIT_INTERNAL, None),
    (RefusalError("outside the theorem"), EXIT_REFUSAL, "refused:"),
])
def test_errors_are_not_check_failures(exc, code, prefix, tmp_path, monkeypatch, capsys):
    def broken(plan):
        raise exc

    monkeypatch.setattr(asymptotics, "purification_experiment", broken)
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


@pytest.mark.parametrize("preset", ["toy_haroche", "qubit_rotation"])
@pytest.mark.parametrize("experiment, seed", [("estimate", 2), ("fig1", 1)])
def test_single_record_experiments_are_the_cli_reports(experiment, seed, preset, tmp_path):
    """estimate_experiment and fig1_experiment, called in process on a plan
    of the preset, return the report the subcommand writes, less its model
    and schema_version, and the data of its CSV artifacts."""
    pre = PRESETS[preset]()
    plan = asymptotics.ExperimentPlan(family=pre.family, q=pre.q, theta_star=pre.theta_star,
                                      master_seed=seed, estimation_box=pre.estimation_box)
    report, data = getattr(asymptotics, f"{experiment}_experiment")(plan)
    code = run_cli(experiment, "--preset", preset, "--seed", str(seed), "--out", str(tmp_path))
    assert code == (EXIT_OK if report["passed"] else EXIT_CHECK_FAILED)
    written = json.loads((tmp_path / "report.json").read_text())
    assert (written.pop("model"), written.pop("schema_version")) == (preset, 1)
    assert written == report and list(written) == list(report)
    if experiment == "estimate":
        data.trace_to_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "estimate_trace.csv").read_bytes()
    else:
        for k, path in enumerate(data):
            cli.write_csv(path, ["n", "theta_hat"], tmp_path / "path.csv")
            assert (tmp_path / "path.csv").read_bytes() == (tmp_path / f"fig1_seed{k}.csv").read_bytes()


def test_fig1_gate_fails_on_biased_estimates(tmp_path, monkeypatch, capsys):
    """fig1 at seed 1 passes; with every estimate shifted by +0.05, each
    final error leaves the 0.02 band, each of the ten seeds' gates fails,
    stderr names them all, and the subcommand exits 1."""
    argv = ["fig1", "--preset", "toy_haroche", "--seed", "1"]
    assert run_cli(*argv, "--out", str(tmp_path / "plain")) == EXIT_OK
    assert capsys.readouterr().err == ""
    fit = asymptotics._fit

    def biased(*args):
        res = fit(*args)
        return dataclasses.replace(res, x=res.x + 0.05)

    monkeypatch.setattr(asymptotics, "_fit", biased)
    assert run_cli(*argv, "--out", str(tmp_path / "biased")) == EXIT_CHECK_FAILED
    report = json.loads((tmp_path / "biased" / "report.json").read_text())
    assert report["passed"] is False
    assert min(report["final_abs_errors"]) > report["tolerance"] == 0.02
    names = [f"fig1.seed.{k}.final_abs_error" for k in range(10)]
    assert [gate["name"] for gate in report["gates"] if not gate["passed"]] == names
    assert capsys.readouterr().err == f"failed gates: {', '.join(names)}\n"


def test_json_report_is_stable_bytes(tmp_path):
    """Running the same lamn config twice yields identical bytes."""
    args = ("lamn", "--preset", "qubit_rotation", "--seed", "2",
            "--n-reps", "30", "--n-grid", "100,300", "--h", "1.0")
    assert run_cli(*args, "--out", str(tmp_path / "x")) in (EXIT_OK, EXIT_CHECK_FAILED)
    assert run_cli(*args, "--out", str(tmp_path / "y")) in (EXIT_OK, EXIT_CHECK_FAILED)
    assert (tmp_path / "x" / "report.json").read_bytes() == (
        tmp_path / "y" / "report.json"
    ).read_bytes()


@pytest.mark.parametrize("experiment", ["estimate", "fig1"])
def test_rerun_rewrites_longer_artifacts_in_place(experiment, tmp_path):
    """A run into a directory of longer stale artifacts leaves, file by file,
    the bytes of a run into a fresh directory, in the same inodes; a new
    file gets the mode open(path, "w") gives."""
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    stale.mkdir()
    names = ["report.json", "estimate_trace.csv"] + [f"fig1_seed{k}.csv" for k in range(10)]
    for name in names:
        (stale / name).write_bytes(b"stale,row\r\n" * 20_000)
    inodes = {name: (stale / name).stat().st_ino for name in names}
    argv = [experiment, "--preset", "toy_haroche", "--seed", "1"]
    codes = {run_cli(*argv, "--out", str(out)) for out in (fresh, stale)}
    assert len(codes) == 1 and codes <= {EXIT_OK, EXIT_CHECK_FAILED}
    written = sorted(p.name for p in fresh.iterdir())
    assert "report.json" in written and len(written) == (2 if experiment == "estimate" else 11)
    reference = tmp_path / "reference"
    with open(reference, "w"):
        pass
    for name in written:
        assert (stale / name).read_bytes() == (fresh / name).read_bytes()
        assert (stale / name).stat().st_ino == inodes[name]
        assert (fresh / name).stat().st_mode == reference.stat().st_mode
