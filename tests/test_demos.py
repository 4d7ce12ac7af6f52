"""Smoke tests: every script in demos/ and the README's python blocks run to
completion against the package, and gate_calibration's closed-form rates."""

import contextlib
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # Run from a scratch directory: demos write their artifacts relative to it.
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run():
    """The README's python blocks run in order, in one namespace, as a reader
    pasting them into one session would run them, and print no False: a
    verdict the tour prints must pass."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), namespace)
        assert not re.search(r"\bFalse\b", out.getvalue()), out.getvalue()


def test_gate_calibration_predicts_the_mixture_ratio_false_fail_rates():
    """At R = 2000 the +/-0.10 band of cramer_rao.mixture.ratio is a 1.6 sigma
    band on toy_haroche (sd 0.063) and a 2.5 sigma band on qubit_rotation
    (sd 0.039): closed-form false-fail rates of 0.113 and 0.0108 per seed."""
    spec = importlib.util.spec_from_file_location("gate_calibration", ROOT / "demos" / "gate_calibration.py")
    calibration = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibration)
    toy = calibration.closed_form_rates("toy_haroche")["cramer_rao.mixture.ratio"]
    qubit = calibration.closed_form_rates("qubit_rotation")["cramer_rao.mixture.ratio"]
    assert toy == pytest.approx(0.11, abs=0.01)
    assert qubit == pytest.approx(0.011, abs=0.002)
