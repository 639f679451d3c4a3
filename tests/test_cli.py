import os
import subprocess
import sys

import pytest

from contactmoc import cli, fixtures


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "contactmoc.cli", *args],
                          capture_output=True, text=True, env=env)


def summary_of(result):
    line = result.stdout.strip().splitlines()[-1]
    out = {}
    for tok in line.split():
        k, _, v = tok.partition("=")
        out[k] = v
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    fixtures.write_fixture(d / "bg.cfg", eps=0.0, nxi=101, neta=26)
    fixtures.write_fixture(d / "pert.cfg", eps=1e-3, nxi=101, neta=26)
    fixtures.write_blowup_fixture(d / "blow.cfg", delta=0.1, ny=200, x_max=20.0)
    fixtures.write_fixture(d / "coarse_xi.cfg", eps=1e-3, nxi=101, neta=40)
    return d


def test_solve_background(workdir):
    r = run_cli("solve", "--config", str(workdir / "bg.cfg"),
                "--out", str(workdir / "out_bg"), "--quiet")
    assert r.returncode == 0
    s = summary_of(r)
    assert s["status"] == "ok"
    assert int(s["iters"]) == 1
    assert float(s["gcd_max"]) <= 1e-12
    for name in ("fields.csv", "contact.csv", "iterations.csv", "grid.csv"):
        assert (workdir / "out_bg" / name).exists()


def test_solve_perturbed_metrics(workdir):
    r = run_cli("solve", "--config", str(workdir / "pert.cfg"),
                "--out", str(workdir / "out_pert"), "--quiet")
    assert r.returncode == 0
    s = summary_of(r)
    assert float(s["wall_slip"]) <= 1e-8
    assert float(s["contact_p_jump"]) <= 1e-8
    assert float(s["eps"]) == pytest.approx(1e-3, rel=1e-6)


def test_solve_emits_exactly_one_summary_line(workdir):
    r = run_cli("solve", "--config", str(workdir / "bg.cfg"),
                "--out", str(workdir / "out_bg2"), "--quiet")
    lines = [ln for ln in r.stdout.splitlines() if ln.startswith("status=")]
    assert len(lines) == 1
    assert r.stdout.strip().splitlines()[-1] == lines[0]


def test_malformed_config_is_usage_error(workdir, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("gamma = 1.4\n")
    r = run_cli("solve", "--config", str(bad), "--quiet")
    assert r.returncode == 2
    s = summary_of(r)
    assert s["status"] == "error" and s["error"] == "config"


def test_subsonic_inlet_is_validation_error(workdir, tmp_path):
    text = (workdir / "pert.cfg").read_text()
    # scale layer-a u column far below sonic by rewriting its block
    lines = text.splitlines()
    out = []
    in_a = False
    for ln in lines:
        if ln.startswith("layer_a = <<<"):
            in_a = True
            out.append(ln)
            continue
        if in_a and ln.strip() == ">>>":
            in_a = False
        if in_a and "," in ln and not ln.startswith("y,"):
            cols = ln.split(",")
            cols[1] = "0.5"
            out.append(",".join(cols))
        else:
            out.append(ln)
    bad = tmp_path / "subsonic.cfg"
    bad.write_text("\n".join(out))
    r = run_cli("solve", "--config", str(bad), "--quiet")
    assert r.returncode == 1
    s = summary_of(r)
    assert s["error"] == "validation"


def test_validate_ok_and_violations(workdir, tmp_path):
    r = run_cli("validate", "--config", str(workdir / "pert.cfg"))
    assert r.returncode == 0
    # breaking contact pressure compatibility must surface as a violation
    text = (workdir / "pert.cfg").read_text()
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("layer_a = <<<"):
            head = i + 2  # first data row after the csv header
            cols = lines[head].split(",")
            cols[3] = format(float(cols[3]) + 1e-3, ".17g")
            lines[head] = ",".join(cols)
            break
    bad = tmp_path / "mismatch.cfg"
    bad.write_text("\n".join(lines))
    r = run_cli("validate", "--config", str(bad))
    assert r.returncode == 1
    assert "pressure mismatch" in r.stdout


def test_blowup_constant_reports_none(tmp_path):
    cfgp = tmp_path / "const.cfg"
    cfgp.write_text("[gas]\ngamma = 1.4\n\n[blowup]\nu0 = 2.0\nv0 = 0.0\n"
                    "rho_wall = 1.0\nny = 100\nx_max = 30.0\n")
    r = run_cli("blowup", "--config", str(cfgp), "--out", str(tmp_path / "o"), "--quiet")
    assert r.returncode == 0
    s = summary_of(r)
    assert s["blowup_x"] == "none"
    assert (tmp_path / "o" / "gradients.csv").exists()


def test_blowup_sine_detects(workdir):
    r = run_cli("blowup", "--config", str(workdir / "blow.cfg"),
                "--out", str(workdir / "out_blow"), "--quiet")
    assert r.returncode == 0
    s = summary_of(r)
    assert s["blowup_x"] != "none"
    assert float(s["blowup_x"]) > 0


def test_blowup_incompatible_profile_fails(tmp_path):
    cfgp = tmp_path / "halfsine.cfg"
    cfgp.write_text("[gas]\ngamma = 1.4\n\n[blowup]\nu0 = 2.0\n"
                    "v0 = 0.05 * sin(pi * y / 2)\nrho_wall = 1.0\nny = 100\nx_max = 5.0\n")
    r = run_cli("blowup", "--config", str(cfgp), "--quiet")
    assert r.returncode == 1
    assert "v at y=1" in r.stdout


def test_sweep_empty_list_usage_error(workdir):
    r = run_cli("sweep", "--config", str(workdir / "pert.cfg"), "--eps", "", "--quiet")
    assert r.returncode == 2
    r = run_cli("sweep", "--config", str(workdir / "pert.cfg"), "--eps", "-1e-4", "--quiet")
    assert r.returncode == 2


def test_sweep_single_eps_slope_undefined(workdir, tmp_path):
    r = run_cli("sweep", "--config", str(workdir / "pert.cfg"), "--eps", "2e-4",
                "--out", str(tmp_path / "s1"), "--quiet")
    assert r.returncode == 0
    assert summary_of(r)["slope"] == "undefined"


def test_sweep_writes_csv_and_slope(workdir, tmp_path):
    r = run_cli("sweep", "--config", str(workdir / "pert.cfg"),
                "--eps", "1e-4,2e-4", "--out", str(tmp_path / "s2"), "--quiet",
                env_extra={"CONTACTMOC_THREADS": "2"})
    assert r.returncode == 0
    s = summary_of(r)
    assert abs(float(s["slope"]) - 1.0) < 0.1
    lines = (tmp_path / "s2" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "epsilon,sup_dev,iters,ratio"
    assert len(lines) == 3


def test_sweep_writes_to_config_out_dir(workdir, tmp_path):
    out_dir = tmp_path / "custom"
    text = (workdir / "pert.cfg").read_text()
    assert "out_dir = out\n" in text
    cfgp = tmp_path / "custom_out.cfg"
    cfgp.write_text(text.replace("out_dir = out\n", f"out_dir = {out_dir}\n"))
    r = run_cli("sweep", "--config", str(cfgp), "--eps", "2e-4", "--quiet")
    assert r.returncode == 0
    assert summary_of(r)["out"] == str(out_dir / "sweep.csv")
    assert (out_dir / "sweep.csv").exists()


def test_grid_and_eps_scale_overrides(workdir, tmp_path):
    r = run_cli("solve", "--config", str(workdir / "pert.cfg"), "--grid", "81x21",
                "--eps-scale", "0.5", "--out", str(tmp_path / "ov"), "--quiet")
    assert r.returncode == 0
    s = summary_of(r)
    assert float(s["eps"]) == pytest.approx(5e-4, rel=1e-6)


def test_repeat_invocations_byte_identical(workdir, tmp_path):
    out1 = tmp_path / "d1"
    out2 = tmp_path / "d2"
    for out in (out1, out2):
        r = run_cli("solve", "--config", str(workdir / "pert.cfg"),
                    "--out", str(out), "--quiet")
        assert r.returncode == 0
    for name in ("fields.csv", "contact.csv", "iterations.csv", "grid.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_validate_names_subsonic_violation(workdir, tmp_path):
    text = (workdir / "pert.cfg").read_text()
    lines = []
    in_a = False
    for ln in text.splitlines():
        if ln.startswith("layer_a = <<<"):
            in_a = True
        elif in_a and ln.strip() == ">>>":
            in_a = False
        elif in_a and "," in ln and not ln.startswith("y,"):
            cols = ln.split(",")
            cols[1] = "0.4"
            ln = ",".join(cols)
        lines.append(ln)
    bad = tmp_path / "slow.cfg"
    bad.write_text("\n".join(lines))
    r = run_cli("validate", "--config", str(bad))
    assert r.returncode == 1
    assert "not supersonic" in r.stdout


@pytest.mark.parametrize("flags, detail", [
    (("--max-iters", "0"), "iteration caps must be positive"),
    (("--max-iters", "-1"), "iteration caps must be positive"),
    (("--grid", "3x3"), "grid size grid_nxi must be at least 4"),
], ids=["max-iters-0", "max-iters-negative", "grid-3x3"])
def test_overrides_are_validated(workdir, tmp_path, flags, detail):
    r = run_cli("solve", "--config", str(workdir / "pert.cfg"), *flags,
                "--out", str(tmp_path / "o"), "--quiet")
    assert r.returncode == 1
    s = summary_of(r)
    assert s["error"] == "validation"
    assert detail in r.stdout


@pytest.mark.parametrize("flags, file_x_max", [
    (("--x-max", "-5"), "20.0"),
    (("--x-max", "0"), "20.0"),
    ((), "-1.0"),
], ids=["flag-negative", "flag-zero", "file-negative"])
def test_blowup_rejects_nonpositive_x_max(tmp_path, flags, file_x_max):
    cfgp = tmp_path / "const.cfg"
    cfgp.write_text("[gas]\ngamma = 1.4\n\n[blowup]\nu0 = 2.0\nv0 = 0.0\n"
                    f"ny = 100\nx_max = {file_x_max}\n")
    r = run_cli("blowup", "--config", str(cfgp), *flags, "--out", str(tmp_path / "o"), "--quiet")
    assert r.returncode == 1
    assert "x_max must be positive" in r.stdout


def test_cfl_violation_rejected_up_front(workdir, tmp_path):
    # 101 xi nodes against 40 eta nodes breaks max|lambda| dxi <= deta in layer b
    r = run_cli("solve", "--config", str(workdir / "pert.cfg"), "--grid", "101x40",
                "--out", str(tmp_path / "o"), "--quiet")
    assert r.returncode == 1
    assert summary_of(r)["detail"].startswith("'cfl:")
    assert "smallest valid nxi is 109" in r.stdout
    r = run_cli("validate", "--config", str(workdir / "coarse_xi.cfg"))
    assert r.returncode == 1
    assert "violation: cfl:" in r.stdout
