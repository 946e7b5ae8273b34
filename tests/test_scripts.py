"""The demo scripts run end to end and print what they printed before."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", ["homology_demo", "surface_walkthrough"])
def test_script_output_matches_golden(name):
    assert run_script(name) == (ROOT / "tests" / "golden" / f"{name}.txt").read_text()


def test_exhaustive_cross_checks_pass_up_to_six():
    lines = run_script("exhaustive_cross_checks", "--max-n", "6").splitlines()
    # each line for n ends in its wall time, e.g. " (0.5s)"
    assert [line.rsplit(" (", 1)[0] for line in lines[:-1]] == [
        "n=3:     1 labeled matroids, all checks pass",
        "n=4:     5 labeled matroids, all checks pass",
        "n=5:    31 labeled matroids, all checks pass",
        "n=6:   352 labeled matroids, all checks pass",
    ]
    assert lines[-1] == "total: 389 matroids"
