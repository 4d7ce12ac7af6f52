"""The subcommand table: every subcommand on every preset exits with the code
its hypotheses call for, and the parser and the experiments read the table."""

import inspect
import json

import pytest

from qndmix import asymptotics, cli
from qndmix.presets import PRESETS

from conftest import failed_gates_stderr

# Presets whose plan meets the hypotheses of every subcommand.
REGULAR = ("toy_haroche", "qubit_rotation")
# The subcommands that need a non-singular Fisher information at theta* (or
# D = 1, which toy_haroche_full also lacks); the others run on every preset.
NEED_HYPOTHESES = ("lamn", "consistency", "cramer-rao", "fig1")


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("subcommand", sorted(cli.SUBCOMMANDS))
def test_exit_code_of_every_subcommand_on_every_preset(subcommand, preset, tmp_path, capsys):
    code = cli.main([subcommand, "--preset", preset, "--n-reps", "4", "--n-grid", "100,200",
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    if preset not in REGULAR and subcommand in NEED_HYPOTHESES:
        assert code == cli.EXIT_REFUSAL
        assert err.startswith("refused:")
    else:
        assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED), err
        report = json.loads((tmp_path / "report.json").read_text())
        assert code == (cli.EXIT_OK if report["passed"] else cli.EXIT_CHECK_FAILED)
        assert err == failed_gates_stderr(report)


def test_the_parser_offers_the_table_subcommands():
    [positional] = [a for a in cli.make_parser()._actions if a.dest == "experiment"]
    assert tuple(positional.choices) == tuple(cli.SUBCOMMANDS) == cli.EXPERIMENTS


def test_every_table_entry_names_an_experiment():
    for subcommand, (name, n_grid, h) in cli.SUBCOMMANDS.items():
        assert name in asymptotics.__all__, subcommand
        assert inspect.isfunction(getattr(asymptotics, name)), subcommand
        assert not hasattr(cli, name), subcommand
        assert n_grid and all(isinstance(n, int) and n >= 1 for n in n_grid), subcommand
        assert h is None or type(h) is float, subcommand
