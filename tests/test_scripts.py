"""Smoke tests: each study script runs end to end on a tiny input."""

import os
import subprocess
import sys

import pytest

import contactmoc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(contactmoc.__file__)))


@pytest.mark.parametrize("script, args", [
    ("contraction_study.py", ["--eps", "1e-3", "--grid", "61x16"]),
    ("refinement_study.py", ["--grids", "61x16"]),
    ("blowup_study.py", ["--deltas", "0.06", "--ny", "100", "--x-max", "40"]),
], ids=["contraction", "refinement", "blowup"])
def test_study_script_runs(tmp_path, script, args):
    out = tmp_path / "study.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args, "--out", str(out)],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header and one row
    assert "nan" not in lines[1]
