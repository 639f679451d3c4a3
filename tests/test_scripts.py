"""Smoke tests: each study script runs end to end on a tiny input, and the
output digest prints one sha256."""

import os
import re
import subprocess
import sys

import pytest

import contactmoc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(contactmoc.__file__)))


def _run(script, *args):
    """Run a script by subprocess, with the package on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def run_script(tmp_path, script, args):
    """Run a study script by subprocess; the lines of the CSV it wrote."""
    out = tmp_path / "study.csv"
    r = _run(script, *args, "--out", str(out))
    assert r.returncode == 0, r.stderr
    return out.read_text().splitlines()


@pytest.mark.parametrize("script, args", [
    ("contraction_study.py", ["--eps", "1e-3", "--grid", "61x16"]),
    ("refinement_study.py", ["--grids", "61x16"]),
    ("blowup_study.py", ["--deltas", "0.06", "--ny", "100", "--x-max", "40"]),
], ids=["contraction", "refinement", "blowup"])
def test_study_script_runs(tmp_path, script, args):
    lines = run_script(tmp_path, script, args)
    assert len(lines) == 2  # header and one row
    assert "nan" not in lines[1]


def test_blowup_study_writes_17_digits_and_none(tmp_path):
    lines = run_script(tmp_path, "blowup_study.py", ["--deltas", "0.06,0.001", "--ny", "100", "--x-max", "40"])
    assert lines[0] == "delta,blowup_x,gradient_x,crossing_x,trigger,steps,riccati_x"
    fired = lines[1].split(",")
    assert fired[1] != "none" and fired[4] != "none" and fired[6] != "none"
    for text in fired[:4] + fired[6:]:
        assert text == "none" or text == format(float(text), ".17g")
    quiet = lines[2].split(",")
    assert quiet[0] == "0.001"
    assert quiet[1:5] == ["none"] * 4  # no detector fired before x = 40
    assert quiet[6] == "none"


def test_output_digest_prints_one_sha256():
    r = _run("output_digest.py")
    assert (r.returncode, r.stderr) == (0, "")
    assert re.fullmatch(r"[0-9a-f]{64}\n", r.stdout)
