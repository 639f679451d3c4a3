import ast
import dataclasses
import hashlib
import inspect
import itertools
import json
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from contactmoc import blowup, cli, config, fixtures, lagrangian, moc
from contactmoc.expressions import SmoothExpression
from tests import csv_reference, expression_reference
from tests.conftest import solve_pipeline


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "contactmoc.cli", *args],
                          capture_output=True, text=True)


def summary_of(result):
    return parse_summary(result.stdout)


# key=value; a quoted value is the repr of a string and may hold spaces.
_ENTRY = re.compile(r"""(\w+)=('(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|\S*)""")


def parse_summary(stdout):
    """The last line's entries; a quoted value is read back to its string."""
    line = stdout.strip().splitlines()[-1]
    return {k: ast.literal_eval(v) if v.startswith(("'", '"')) else v
            for k, v in _ENTRY.findall(line)}


@pytest.mark.parametrize("detail", ["[Errno 17] File exists: '/tmp/a b'",
                                    """it's "both" quotes \\ and a=b""", ""])
def test_parse_summary_reads_a_quoted_detail(capsys, detail):
    cli._summary({"status": "error", "error": "io", "detail": repr(detail), "out": "o/x.csv"})
    assert parse_summary(capsys.readouterr().out) == {
        "status": "error", "error": "io", "detail": detail, "out": "o/x.csv"}


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


# The solve summary's keys in the order the line prints them: the fixed
# point's gaps, sup_dev, moc.residual_check's record, three entries of
# lagrangian.weak_residual's and the reconstruction's contact figures.
_SOLVE_KEYS = ("status eps iters c0_gap c1_gap ratio_last sup_dev wall_slip contact_w_jump "
               "contact_p_jump residual_sup weak_max weak_contact_p weak_contact_mdot gcd_max "
               "top_gap out").split()


def test_solve_summary_keys_and_progress_lines(workdir, capsys):
    code, out, s = main_in_process(capsys, "solve", "--config", workdir / "pert.cfg",
                                   "--out", workdir / "out_keys")
    assert code == 0
    assert list(s) == _SOLVE_KEYS
    progress = out.splitlines()[:-1]
    assert len(progress) == int(s["iters"]) >= 2
    last = f"iter {s['iters']}: c0_gap={float(s['c0_gap']):.3e} c1_gap={float(s['c1_gap']):.3e}"
    assert progress[-1] == last


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


def _with_inlet_value(workdir, tmp_path, column, value):
    """The eps = 1e-3 fixture with one value of layer a's third inlet row
    replaced (columns y, u, v, p, rho)."""
    lines = (workdir / "pert.cfg").read_text().splitlines()
    row = lines.index(next(ln for ln in lines if ln.startswith("layer_a = <<<"))) + 3
    cols = lines[row].split(",")
    cols[column] = value
    lines[row] = ",".join(cols)
    bad = tmp_path / "bad_inlet.cfg"
    bad.write_text("\n".join(lines))
    return bad


def _assert_validation_error(capsys, command, cfgp, out, detail):
    """``command`` on ``cfgp``, in process with warnings as errors, exits 1
    with nothing on stderr: ``validate`` lists ``detail`` as its one
    violation, any other command prints one summary line, error=validation
    with ``detail``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--config", str(cfgp), "--out", str(out), "--quiet"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    lines = captured.out.splitlines()
    if command == "validate":
        assert lines == [f"violation: {detail}", "status=invalid violations=1"]
    else:
        s = parse_summary(captured.out)
        assert (len(lines), s["error"], s["detail"]) == (1, "validation", detail)


@pytest.mark.parametrize("column, name", [(1, "u"), (2, "v")])
@pytest.mark.parametrize("command", ["solve", "validate"])
def test_non_finite_inlet_sample_is_a_validation_error(workdir, tmp_path, capsys, command,
                                                       column, name):
    bad = _with_inlet_value(workdir, tmp_path, column, "nan")
    _assert_validation_error(capsys, command, bad, tmp_path / "o",
                             f"inlet column {name} has a non-finite sample")


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_non_finite_wall_sample_is_a_validation_error(workdir, tmp_path, capsys, command):
    cfgp = _with_wall_table(workdir, tmp_path, "inline-nan-y")
    _assert_validation_error(capsys, command, cfgp, tmp_path / "o",
                             "sampled wall has a non-finite y sample")


@pytest.mark.parametrize("u0", ["1e308 * 10", "2.0 / y"])
@pytest.mark.parametrize("command", ["blowup", "validate"])
def test_non_finite_blowup_profile_is_a_validation_error(tmp_path, capsys, command, u0):
    cfgp = tmp_path / "blowup.cfg"
    cfgp.write_text(f"[gas]\ngamma = 1.4\n\n[blowup]\nu0 = {u0}\nv0 = 0.0\nny = 100\n")
    _assert_validation_error(capsys, command, cfgp, tmp_path / "o",
                             "out-of-range: base profile has a non-finite u0, v0 or rho0 sample")
    assert not (tmp_path / "o").exists()


def test_nonpositive_inlet_pressure_is_validation_error_without_warning(workdir, tmp_path):
    bad = _with_inlet_value(workdir, tmp_path, 3, "-1.0")
    r = run_cli("solve", "--config", str(bad), "--out", str(tmp_path / "o"), "--quiet")
    assert (r.returncode, r.stderr) == (1, "")
    s = summary_of(r)
    assert (s["status"], s["error"]) == ("error", "validation")
    assert "layer a has nonpositive p or rho" in r.stdout


@pytest.mark.parametrize("command, extra", [("solve", ("--eps-scale", "1e9")),
                                            ("sweep", ("--eps", "1e6"))])
def test_scaled_profile_is_validated(workdir, tmp_path, command, extra):
    # a billion times the eps = 1e-3 deviation makes part of layer a subsonic
    r = run_cli(command, "--config", str(workdir / "pert.cfg"), *extra,
                "--out", str(tmp_path / "o"), "--quiet")
    assert (r.returncode, r.stderr) == (1, "")
    s = summary_of(r)
    assert s["status"] == "error"
    assert "not supersonic: layer a has a sample with u <= c" in r.stdout
    assert s["error"] == "validation"
    if command == "solve":
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, gamma, extra", [("solve", "1.0", ()),
                                                   ("sweep", "0.5", ("--eps", "1e-4")),
                                                   ("validate", "1.0", ())])
def test_gamma_at_most_one_is_a_validation_error(workdir, tmp_path, command, gamma, extra):
    text = (workdir / "pert.cfg").read_text().splitlines()
    cfgp = tmp_path / "gamma.cfg"
    cfgp.write_text("\n".join(f"gamma = {gamma}" if ln.startswith("gamma =") else ln
                              for ln in text))
    r = run_cli(command, "--config", str(cfgp), *extra, "--out", str(tmp_path / "o"), "--quiet")
    assert (r.returncode, r.stderr) == (1, "")
    detail = f"gamma must be in (1, inf), got {gamma}"
    if command == "validate":
        assert r.stdout.splitlines() == [f"violation: {detail}", "status=invalid violations=1"]
    else:
        assert r.stdout.splitlines() == [
            f"status=error error=validation detail={detail!r}"]


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


def test_sweep_empty_list_usage_error(workdir, tmp_path):
    r = run_cli("sweep", "--config", str(workdir / "pert.cfg"), "--eps", "", "--quiet")
    assert r.returncode == 2
    for eps in ("-1e-4", "nan", "1e-4,inf"):
        r = run_cli("sweep", "--config", str(workdir / "pert.cfg"), f"--eps={eps}",
                    "--out", str(tmp_path / "o"), "--quiet")
        assert (r.returncode, r.stderr) == (2, ""), eps
        assert summary_of(r)["error"] == "usage"
        assert "positive and finite" in r.stdout
        assert not (tmp_path / "o").exists()


def test_sweep_single_eps_slope_undefined(workdir, tmp_path):
    r = run_cli("sweep", "--config", str(workdir / "pert.cfg"), "--eps", "2e-4",
                "--out", str(tmp_path / "s1"), "--quiet")
    assert r.returncode == 0
    assert summary_of(r)["slope"] == "undefined"


def test_sweep_repeated_eps_fits_distinct_values_only(tmp_path):
    """A repeated eps is one abscissa: two runs at one eps leave the slope
    undefined, as one run does, and polyfit warns of nothing."""
    fixtures.write_fixture(tmp_path / "pert.cfg", eps=1e-3, nxi=140, neta=35)
    r = run_cli("sweep", "--config", str(tmp_path / "pert.cfg"), "--grid", "61x16",
                "--eps", "1e-3,1e-3", "--out", str(tmp_path / "s"), "--quiet")
    assert (r.returncode, r.stderr) == (0, "")
    s = summary_of(r)
    assert (s["runs"], s["slope"]) == ("2", "undefined")
    assert len((tmp_path / "s" / "sweep.csv").read_text().splitlines()) == 3


def test_sweep_writes_csv_and_slope(workdir, tmp_path):
    r = run_cli("sweep", "--config", str(workdir / "pert.cfg"),
                "--eps", "1e-4,2e-4", "--out", str(tmp_path / "s2"), "--quiet")
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
    (("--eps-scale", "nan"), "--eps-scale must be finite, got nan"),
    (("--eps-scale", "inf"), "--eps-scale must be finite, got inf"),
    (("--eps-scale=-inf",), "--eps-scale must be finite, got -inf"),
], ids=["max-iters-0", "max-iters-negative", "grid-3x3", "eps-scale-nan", "eps-scale-inf",
        "eps-scale-minus-inf"])
def test_overrides_are_validated(workdir, tmp_path, flags, detail):
    r = run_cli("solve", "--config", str(workdir / "pert.cfg"), *flags,
                "--out", str(tmp_path / "o"), "--quiet")
    assert (r.returncode, r.stderr) == (1, "")
    s = summary_of(r)
    assert s["error"] == "validation"
    assert detail in r.stdout
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, detail", [
    (("solve", "--config", "{cfg}", "--max-iters", "abc"), "invalid int value: 'abc'"),
    (("solve",), "the following arguments are required: --config"),
    (("solve", "--config", "{cfg}", "--grid", "abc"), "cannot parse 'abc'; expected NXIxNETA"),
    (("sweep", "--config", "{cfg}", "--grid", "81x21x3"), "cannot parse '81x21x3'"),
    (("frobnicate",), "invalid choice: 'frobnicate'"),
], ids=["max-iters-abc", "no-config", "grid-abc", "sweep-grid-three-parts", "unknown-command"])
def test_usage_errors_end_with_summary_line(workdir, argv, detail):
    r = run_cli(*(a.format(cfg=workdir / "pert.cfg") for a in argv))
    assert r.returncode == 2
    assert r.stdout.splitlines() == [r.stdout.strip().splitlines()[-1]]
    s = summary_of(r)
    assert (s["status"], s["error"]) == ("error", "usage")
    assert detail in r.stdout
    assert r.stderr.startswith("usage: contactmoc") and "Traceback" not in r.stderr


@pytest.mark.parametrize("flags, file_x_max", [
    (("--x-max", "-5"), "20.0"),
    (("--x-max", "0"), "20.0"),
    ((), "-1.0"),
    (("--x-max", "inf"), "20.0"),
    ((), "inf"),
], ids=["flag-negative", "flag-zero", "file-negative", "flag-inf", "file-inf"])
def test_blowup_rejects_nonpositive_x_max(tmp_path, flags, file_x_max):
    cfgp = tmp_path / "const.cfg"
    cfgp.write_text("[gas]\ngamma = 1.4\n\n[blowup]\nu0 = 2.0\nv0 = 0.0\n"
                    f"ny = 100\nx_max = {file_x_max}\n")
    r = run_cli("blowup", "--config", str(cfgp), *flags, "--out", str(tmp_path / "o"), "--quiet")
    assert r.returncode == 1
    assert "x_max must be positive" in r.stdout


def main_in_process(capsys, *argv):
    """``cli.main`` in this process: (exit code, stdout, summary)."""
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out, parse_summary(out)


@pytest.mark.parametrize("argv, attr, value", [
    (("sweep", "--eps", "-1e-4"), "eps", "-1e-4"),
    (("solve", "--eps-scale", "-1e-3"), "eps_scale", -1e-3),
    (("solve", "--eps-scale", "-2.5E+2"), "eps_scale", -250.0),
    (("solve", "--eps-scale", "-.5e1"), "eps_scale", -5.0),
    (("solve", "--eps-scale", "-inf"), "eps_scale", -np.inf),
    (("blowup", "--x-max", "-1e-3"), "x_max", -1e-3),
    (("blowup", "--x-max", "-0.5"), "x_max", -0.5),
], ids=["sweep-eps", "eps-scale", "eps-scale-big-e", "eps-scale-leading-point",
        "eps-scale-minus-inf", "x-max", "x-max-plain"])
def test_negative_numbers_are_option_values(monkeypatch, argv, attr, value):
    """A negative number in any form float() reads is the option's value,
    not an unknown option."""
    seen = []
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: seen.append(args) or 0)
    assert cli.main([argv[0], "--config", "c.cfg", *argv[1:]]) == 0
    assert getattr(seen[0], attr) == value


def test_negative_exponent_values_reach_their_checks(workdir, tmp_path, capsys):
    out = tmp_path / "o"
    code, text, s = main_in_process(capsys, "sweep", "--config", workdir / "pert.cfg",
                                    "--eps", "-1e-4", "--out", out, "--quiet")
    assert (code, s["error"]) == (2, "usage") and "positive and finite" in text
    code, text, s = main_in_process(capsys, "solve", "--config", workdir / "pert.cfg",
                                    "--eps-scale", "-1e999", "--out", out, "--quiet")
    assert (code, s["error"]) == (1, "validation")
    assert "--eps-scale must be finite, got -inf" in text
    code, text, s = main_in_process(capsys, "blowup", "--config", workdir / "blow.cfg",
                                    "--x-max", "-1e-3", "--out", out, "--quiet")
    assert (code, s["error"]) == (1, "validation") and "x_max must be positive" in text
    assert not out.exists()


def test_sweep_member_failure_is_classified_as_solve_does(workdir, tmp_path, capsys):
    """A failing member ends the sweep with the summary ``solve`` prints for
    it, its detail led by the member's eps, after the partial sweep.csv."""
    out = tmp_path / "o"
    csv = out / "sweep.csv"
    code, text, s = main_in_process(capsys, "sweep", "--config", workdir / "pert.cfg",
                                    "--eps", "1e-3,1e6", "--out", out, "--quiet")
    assert code == 1
    assert text.splitlines()[-1] == (
        "status=error error=validation detail='eps=1e+06: not supersonic: layer a has a "
        f"sample with u <= c' out={csv}")
    assert [ln.split(",")[0] for ln in csv.read_text().splitlines()] == ["epsilon", "0.001"]
    code, text, s = main_in_process(capsys, "sweep", "--config", workdir / "pert.cfg",
                                    "--eps", "1e-3", "--max-iters", "1", "--out", out, "--quiet")
    assert (code, s["status"], s["error"], s["code"]) == (1, "error", "convergence",
                                                          "no-convergence")
    assert "detail='eps=0.001: no-convergence: fixed point did not reach" in text
    assert s["out"] == str(csv)
    assert csv.read_text().splitlines() == ["epsilon,sup_dev,iters,ratio"]


def test_blowup_missing_config_is_config_error(tmp_path, capsys):
    code, text, s = main_in_process(capsys, "blowup", "--config", tmp_path / "missing.cfg",
                                    "--quiet")
    assert (code, s["status"], s["error"]) == (2, "error", "config")
    assert "missing.cfg" in s["detail"]


def test_validate_checks_blowup_only_config(workdir):
    r = run_cli("validate", "--config", str(workdir / "blow.cfg"))
    assert r.returncode == 0
    assert summary_of(r) == {"status": "ok", "violations": "0"}


@pytest.mark.parametrize("kind, old, new, bad_line, detail", [
    ("nozzle", "fp_tol =", "fp_tl =", "fp_tl =", "unknown key 'fp_tl' in section [tolerances]"),
    ("nozzle", "[tolerances]", "[tolerance]", "[tolerance]", "unknown section [tolerance]"),
    ("blowup", "grad_factor =", "grad_facter =", "grad_facter =",
     "unknown key 'grad_facter' in section [blowup]"),
    ("nozzle", "[output]", "[gas]\ngamma = 1.5\n[output]", "gamma = 1.5",
     "repeated key 'gamma' in section [gas] (first on line 2)"),
], ids=["unknown-key", "unknown-section", "unknown-blowup-key", "repeated-key"])
def test_config_names_outside_the_grammar_are_config_errors(tmp_path, capsys, kind, old, new,
                                                            bad_line, detail):
    cfgp = tmp_path / "c.cfg"
    if kind == "nozzle":
        fixtures.write_fixture(cfgp, eps=1e-3, nxi=101, neta=26)
    else:
        fixtures.write_blowup_fixture(cfgp, delta=0.06, ny=100, x_max=40.0)
    text = cfgp.read_text()
    assert old in text
    text = text.replace(old, new)
    line = text[:text.index(bad_line)].count("\n") + 1
    cfgp.write_text(text)
    run = "solve" if kind == "nozzle" else "blowup"
    for command in ("validate", run):
        code, out, s = main_in_process(capsys, command, "--config", cfgp,
                                       "--out", tmp_path / "o", "--quiet")
        assert (code, s["status"], s["error"]) == (2, "error", "config")
        assert f"{cfgp}:{line}: {detail}" in out
        assert len(out.splitlines()) == 1


def test_infinite_gamma_is_out_of_range_for_both_commands(tmp_path):
    blow = tmp_path / "blow.cfg"
    fixtures.write_blowup_fixture(blow, delta=0.06, ny=100, x_max=40.0)
    blow.write_text(blow.read_text().replace("gamma = 1.4", "gamma = inf"))
    r = run_cli("blowup", "--config", str(blow), "--out", str(tmp_path / "o"), "--quiet")
    assert (r.returncode, r.stderr) == (1, "")
    s = summary_of(r)
    assert (s["error"], s["code"]) == ("validation", "out-of-range")
    assert "gamma=inf must be in (1, inf)" in r.stdout
    nozzle = tmp_path / "nozzle.cfg"
    fixtures.write_fixture(nozzle, eps=1e-3, nxi=101, neta=26)
    text = nozzle.read_text()
    nozzle.write_text(text.replace(text.splitlines()[1], "gamma = inf", 1))
    r = run_cli("solve", "--config", str(nozzle), "--out", str(tmp_path / "o"), "--quiet")
    assert (r.returncode, r.stderr) == (1, "")
    assert summary_of(r)["error"] == "validation"
    assert "gamma must be in (1, inf), got inf" in r.stdout


@pytest.mark.parametrize("key, value, detail", [
    ("ny", "-4", "ny must be at least 2"),
    ("ny", "0", "ny must be at least 2"),
    ("dx_max", "-1", "dx_max must be positive"),
    ("rho_wall", "-1", "rho_wall must be positive"),
    ("grad_factor", "0", "grad_factor must be positive"),
    ("grad_factor", "1", "grad_factor must exceed 1, got 1"),
    ("grad_factor", "0.5", "grad_factor must exceed 1, got 0.5"),
    ("grad_floor", "-1", "grad_floor must be positive"),
    ("dx_max", "inf", "dx_max must be positive and finite, got inf"),
], ids=["ny-negative", "ny-zero", "dx_max-negative", "rho_wall-negative", "grad_factor-zero",
        "grad_factor-one", "grad_factor-half", "grad_floor-negative", "dx_max-inf"])
def test_blowup_settings_rejected_up_front(tmp_path, key, value, detail):
    cfgp = tmp_path / "blow.cfg"
    fixtures.write_blowup_fixture(cfgp, delta=0.06, ny=100, x_max=40.0)
    lines = [ln for ln in cfgp.read_text().splitlines() if not ln.startswith(f"{key} =")]
    cfgp.write_text("\n".join(lines + [f"{key} = {value}", ""]))
    r = run_cli("blowup", "--config", str(cfgp), "--out", str(tmp_path / "o"), "--quiet")
    assert r.returncode == 1
    assert len(r.stdout.splitlines()) == 1
    s = summary_of(r)
    assert (s["status"], s["error"]) == ("error", "validation")
    assert detail in r.stdout
    r = run_cli("validate", "--config", str(cfgp))
    assert r.returncode == 1
    assert f"violation: {detail}" in r.stdout


def test_blowup_keys_are_the_library_keywords():
    """``_load_blowup`` passes on the [blowup] keys a file gives: every key but
    u0 and v0 is a keyword of ``cauchy_march`` or ``PeriodicProfile``'s
    rho_wall, whose defaults stand for the keys a file omits."""
    march = list(inspect.signature(blowup.cauchy_march).parameters)[1:]  # after the profile
    assert "rho_wall" in inspect.signature(blowup.PeriodicProfile).parameters
    assert sorted(set(config._GRAMMAR["blowup"]) - {"u0", "v0"}) == sorted(march + ["rho_wall"])


def test_cfl_violation_rejected_up_front(workdir, tmp_path):
    # 101 xi nodes against 40 eta nodes breaks max|lambda| dxi <= deta in layer b
    r = run_cli("solve", "--config", str(workdir / "pert.cfg"), "--grid", "101x40",
                "--out", str(tmp_path / "o"), "--quiet")
    assert r.returncode == 1
    s = summary_of(r)
    assert (s["error"], s["code"]) == ("convergence", "cfl")
    assert s["detail"].startswith("cfl:")
    assert "smallest valid nxi is 109" in r.stdout
    r = run_cli("validate", "--config", str(workdir / "coarse_xi.cfg"))
    assert r.returncode == 1
    assert "violation: cfl:" in r.stdout


def test_reconstruction_gap_has_its_own_code(tmp_path):
    """The fixed point converges; only the upper-wall image misses g_plus
    (by about 9e-9 on this lattice) by more than recon_top_tol."""
    cfg, geom, profile = fixtures.perturbed_inputs(1e-3, nxi=101, neta=26)
    tight = dataclasses.replace(cfg, recon_top_tol=1e-9)
    _, _, history, efield = solve_pipeline(tight, geom, profile)
    gaps = history["c1_gap"]
    assert gaps[-1] <= tight.fp_tol and len(gaps) == 3
    assert efield.top_gap > tight.recon_top_tol
    with pytest.raises(moc.SolverError, match="^recon-gap: "):
        cli.run_member(tight, geom, profile)
    cfgp = tmp_path / "tight.cfg"
    config.write_config(tight, geom, profile, cfgp)
    r = run_cli("solve", "--config", str(cfgp), "--out", str(tmp_path / "o"), "--quiet")
    assert r.returncode == 1
    s = summary_of(r)
    assert (s["error"], s["code"]) == ("convergence", "recon-gap")
    assert "refine the lattice or raise recon_top_tol" in r.stdout


def test_blowup_sonic_limit_error_carries_code(tmp_path):
    cfgp = tmp_path / "subsonic.cfg"
    cfgp.write_text("[gas]\ngamma = 1.4\n\n[blowup]\nu0 = 0.5\nv0 = 0.0\nny = 100\n")
    r = run_cli("blowup", "--config", str(cfgp), "--out", str(tmp_path / "o"), "--quiet")
    assert r.returncode == 1
    s = summary_of(r)
    assert (s["error"], s["code"]) == ("validation", "sonic-limit")
    assert s["detail"].startswith("sonic-limit:")


def test_blowup_degenerate_march_is_a_convergence_error(tmp_path, capsys):
    """A profile with q > c everywhere but u < c near y = 1/2 passes every
    up-front check; the march stops it as ``degenerate``."""
    cfgp = tmp_path / "degenerate.cfg"
    cfgp.write_text("[gas]\ngamma = 1.4\n\n[blowup]\nu0 = 2.0 - 0.9 * sin(pi * y) ** 2\n"
                    "v0 = 0.8 * sin(pi * y) ** 3\nny = 100\n")
    code, _, s = main_in_process(capsys, "blowup", "--config", cfgp, "--out", tmp_path / "o",
                                 "--quiet")
    assert code == 1
    assert (s["status"], s["error"], s["code"]) == ("error", "convergence", "degenerate")
    assert s["detail"] == "degenerate: u dropped below c during the march"
    assert not (tmp_path / "o").exists()


def test_blowup_step_limit_is_a_convergence_error(tmp_path, capsys, monkeypatch):
    """A march that runs out of steps before x_max is no success: the run
    ends ``error=convergence`` and writes nothing."""
    cfgp = tmp_path / "blow.cfg"
    fixtures.write_blowup_fixture(cfgp, delta=0.06, ny=100, x_max=50.0)
    monkeypatch.setattr(blowup, "_MAX_STEPS", 5)
    code, _, s = main_in_process(capsys, "blowup", "--config", cfgp, "--out", tmp_path / "o",
                                 "--quiet")
    assert code == 1
    assert (s["status"], s["error"], s["code"]) == ("error", "convergence", "step-limit")
    assert s["detail"].startswith("step-limit: 5 steps reached only x = 0.243")
    assert not (tmp_path / "o").exists()


def test_blowup_gamma_error_carries_code(tmp_path):
    cfgp = tmp_path / "isothermal.cfg"
    cfgp.write_text("[gas]\ngamma = 1.0\n\n[blowup]\nu0 = 2.0\nv0 = 0.0\nny = 100\n")
    r = run_cli("blowup", "--config", str(cfgp), "--out", str(tmp_path / "o"), "--quiet")
    assert (r.returncode, r.stderr) == (1, "")
    s = summary_of(r)
    assert (s["error"], s["code"]) == ("validation", "out-of-range")
    assert "detail='out-of-range: gamma invariant violated" in r.stdout


def test_error_code_only_from_program_errors(capsys):
    cli._error_exit("convergence", moc.SolverError("degenerate: u <= c"))
    cli._error_exit("config", config.ConfigError("blow: missing [blowup] section"))
    cli._error_exit("convergence", moc.SolverError("internal error: foot outside slab"))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "status=error error=convergence code=degenerate detail='degenerate: u <= c'"
    assert "code=" not in lines[1] and "code=" not in lines[2]


def test_package_reads_no_environment():
    # every setting comes from the config file or the command line
    pkg = pathlib.Path(cli.__file__).parent
    for path in sorted(pkg.glob("*.py")):
        src = path.read_text()
        assert "environ" not in src and "getenv" not in src, path.name


_IMPORT_PROBE = """\
import json, sys
import contactmoc.cli as cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = (m for m in sys.modules
          if m.startswith(("scipy", "contactmoc.", "numpy.polynomial", "fractions", "decimal",
                           "_decimal", "_pydecimal")))
print(json.dumps([codes, sorted(loaded)]))
"""


def cli_in_fresh_interpreter(*argvs):
    """Exit codes of the CLI runs, and the scipy, contactmoc,
    numpy.polynomial, fractions and decimal modules they left loaded."""
    r = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.strip().splitlines()[-1])


def test_each_command_loads_only_the_code_it_runs(workdir, tmp_path):
    """On expression configs, blowup loads no nozzle solver, the nozzle
    commands no blow-up demonstrator, and none of them scipy,
    numpy.polynomial, or the fractions and decimal modules (the CSV float
    kernel builds its powers of ten from ints)."""
    codes, blow = cli_in_fresh_interpreter(
        ["blowup", "--config", str(workdir / "blow.cfg"), "--out", str(tmp_path / "b"), "--quiet"])
    assert codes == [0]
    assert "contactmoc.blowup" in blow
    assert not {"contactmoc.moc", "contactmoc.lagrangian", "contactmoc.oracle"} & set(blow)
    codes, nozzle = cli_in_fresh_interpreter(
        ["solve", "--config", str(workdir / "pert.cfg"), "--out", str(tmp_path / "s"), "--quiet"],
        ["validate", "--config", str(workdir / "pert.cfg")],
    )
    assert codes == [0, 0]
    assert {"contactmoc.moc", "contactmoc.lagrangian"} <= set(nozzle)
    assert "contactmoc.blowup" not in nozzle
    for loaded in (blow, nozzle):
        assert [m for m in loaded if m.startswith(("scipy", "numpy.polynomial"))] == []
        assert [m for m in loaded
                if m.startswith(("fractions", "decimal", "_decimal", "_pydecimal"))] == []


def test_sampled_wall_solves_through_lazy_spline(workdir, tmp_path):
    xs = np.linspace(0.0, 4.0, 65)
    lines = []
    for ln in (workdir / "pert.cfg").read_text().splitlines():
        if ln.startswith("g_plus = "):
            wall = SmoothExpression(ln.partition("=")[2].strip(), var="x")
            np.savetxt(tmp_path / "g_plus.csv", np.column_stack([xs, wall(xs)]),
                       delimiter=",", header="x,y", comments="", fmt="%.17g")
            ln = "g_plus_csv = g_plus.csv"
        lines.append(ln)
    cfg = tmp_path / "sampled.cfg"
    cfg.write_text("\n".join(lines))
    codes, loaded = cli_in_fresh_interpreter(
        ["solve", "--config", str(cfg), "--out", str(tmp_path / "s"), "--quiet"])
    assert codes == [0]
    assert "scipy.interpolate" in loaded


def _with_wall_table(workdir, tmp_path, case):
    """pert.cfg with g_plus sampled as an ``x,y`` table that one defect spoils."""
    xs = np.linspace(0.0, 4.0, 33)
    out = []
    for ln in (workdir / "pert.cfg").read_text().splitlines():
        if ln.startswith("g_plus = "):
            wall = SmoothExpression(ln.partition("=")[2].strip(), var="x")
            rows = [f"{x:.17g},{y:.17g}" for x, y in zip(xs, wall(xs))]
            header = "t,z" if case == "sidecar-bad-header" else "x,y"
            if case.endswith("no-rows"):
                rows = []
            elif case == "inline-nan-y":
                rows[5] = f"{xs[5]:.17g},nan"
            elif case != "sidecar-bad-header":
                rows[5] = "foo,1"
            if case.startswith("inline"):
                out += ["g_plus = <<<", header, *rows, ">>>"]
                continue
            (tmp_path / "wall.csv").write_text("\n".join([header, *rows]) + "\n")
            ln = "g_plus_csv = wall.csv"
        out.append(ln)
    cfg = tmp_path / "wall.cfg"
    cfg.write_text("\n".join(out))
    return cfg


_WALL_TABLE_ERRORS = {
    "inline-bad-row": "bad CSV row",
    "sidecar-bad-row": "bad CSV row",
    "sidecar-bad-header": "header must be 'x,y'",
    # a one-line <<< block is still a table, not the expression "x,y"
    "inline-no-rows": "g_plus: table has no data rows",
    "sidecar-no-rows": "wall.csv: table has no data rows",
}


@pytest.mark.parametrize("case", list(_WALL_TABLE_ERRORS))
@pytest.mark.parametrize("command", ["solve", "validate"])
def test_malformed_wall_table_is_config_error(workdir, tmp_path, command, case):
    cfg = _with_wall_table(workdir, tmp_path, case)
    r = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet")
    assert r.stderr == ""
    lines = [ln for ln in r.stdout.splitlines() if ln.startswith("status=")]
    assert lines == [r.stdout.strip().splitlines()[-1]]
    s = summary_of(r)
    assert (r.returncode, s["status"], s["error"]) == (2, "error", "config")
    assert _WALL_TABLE_ERRORS[case] in lines[0]


@pytest.mark.parametrize("key", ["layer_a", "layer_b", "g_plus", "g_minus"])
def test_inline_value_beside_its_sidecar_is_config_error(workdir, tmp_path, key):
    """A table or wall given inline and again by its ``_csv`` sidecar is
    refused, even when both hold the same data: the layers as inline tables,
    g_plus as an expression, g_minus as an inline ``x,y`` table."""
    xs = np.linspace(0.0, 4.0, 33)
    lines = iter((workdir / "pert.cfg").read_text().splitlines())
    out = []
    for ln in lines:
        out.append(ln)
        if not ln.startswith(f"{key} = "):
            continue
        if ln.endswith("<<<"):
            table = list(itertools.takewhile(lambda row: row != ">>>", lines))
            out += [*table, ">>>"]
        else:
            wall = SmoothExpression(ln.partition("=")[2].strip(), var="x")
            table = ["x,y", *(f"{x:.17g},{y:.17g}" for x, y in zip(xs, wall(xs)))]
            if key == "g_minus":
                out[-1:] = [f"{key} = <<<", *table, ">>>"]
        (tmp_path / "side.csv").write_text("\n".join(table) + "\n")
        out.append(f"{key}_csv = side.csv")
    cfg = tmp_path / "both.cfg"
    cfg.write_text("\n".join(out))
    with pytest.raises(config.ConfigParseError, match=fr"gives both {key} \(line \d+\) and {key}_csv"):
        config.load_config(cfg)
    r = run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet")
    assert (r.returncode, r.stderr) == (2, "")
    s = summary_of(r)
    assert (s["status"], s["error"]) == ("error", "config")
    assert f"gives both {key} (line " in r.stdout


def _solve_digests(tmp_path, name):
    """sha256 of the four solve CSVs and of the summary dict, on the 140x35
    fixture loaded from its config file as the CLI loads it."""
    fixtures.write_fixture(tmp_path / "s.cfg", eps=1e-3, nxi=140, neta=35)
    cfg, geom, profile = config.load_config(tmp_path / "s.cfg")
    cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / name))
    summary, _ = cli.run_solve(cfg, geom, profile)
    digests = {key: hashlib.sha256((tmp_path / name / f"{key}.csv").read_bytes()).hexdigest()
               for key in ("fields", "contact", "iterations", "grid")}
    digests["summary"] = hashlib.sha256(repr(sorted(summary.items())).encode()).hexdigest()
    return digests


def test_run_solve_is_byte_identical_to_the_reference_paths(tmp_path, monkeypatch):
    """The compiled expression programs and the block-wise CSV rows change no
    byte: a solve with the recursive expression walker and the per-row
    '%.17g' writer in their place writes the same four files and summary."""
    shipped = _solve_digests(tmp_path, "shipped")
    monkeypatch.setattr(SmoothExpression, "__call__",
                        lambda self, x, order=0: expression_reference.evaluate(self._trees[order], x))
    for module in (lagrangian, moc):
        monkeypatch.setattr(module, "write_csv", csv_reference.write_csv)
    reference = _solve_digests(tmp_path, "reference")
    assert set(shipped) == {"fields", "contact", "iterations", "grid", "summary"}
    assert shipped == reference


def _io_error_of(capsys, *argv):
    """The summary line of an in-process run whose output cannot be
    written: exit 2, error=io, nothing on stderr."""
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert captured.err == ""
    s = parse_summary(captured.out)
    assert (code, s["status"], s["error"]) == (2, "error", "io"), captured.out
    return captured.out.splitlines()[-1]


def _counted(monkeypatch, module, name):
    """Count the calls of ``module.name`` while the test runs."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_sweep_solves_a_repeated_eps_once(monkeypatch, capsys, tmp_path):
    """A repeated eps is the same member: one solve, its row written twice.
    A member runs no check whose figures the sweep does not print."""
    fixtures.write_fixture(tmp_path / "pert.cfg", eps=1e-3, nxi=140, neta=35)
    calls = _counted(monkeypatch, cli, "run_member")
    unread = [_counted(monkeypatch, moc, "residual_check"),
              _counted(monkeypatch, lagrangian, "weak_residual")]
    code, _, s = main_in_process(capsys, "sweep", "--config", tmp_path / "pert.cfg",
                                 "--grid", "61x16", "--eps", "1e-3,1e-3,2e-3",
                                 "--out", tmp_path / "s", "--quiet")
    assert (code, s["runs"], len(calls)) == (0, "3", 2)
    assert unread == [[], []]
    lines = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4 and lines[1] == lines[2] != lines[3]
    assert s["slope"] != "undefined"


def test_sweep_measures_only_the_base_eps(monkeypatch, capsys, tmp_path):
    """A member's size is its target: the sweep measures the base config's
    eps once and no member measures its own."""
    fixtures.write_fixture(tmp_path / "pert.cfg", eps=1e-3, nxi=140, neta=35)
    calls = _counted(monkeypatch, config, "perturbation_size")
    code, _, s = main_in_process(capsys, "sweep", "--config", tmp_path / "pert.cfg",
                                 "--grid", "61x16", "--eps", "1e-3,2e-3,4e-3",
                                 "--out", tmp_path / "s", "--quiet")
    assert (code, s["runs"], len(calls)) == (0, "3", 1)


def _rescaled_nozzle(tmp_path, s=2.0):
    """The eps = 1e-3 fixture at 140x35 with every length times ``s``: the
    same flow in a nozzle of half-width s and length 4 s, walls s g(x / s)
    and inlet tables on [-s, s]."""
    cfg, geom, profile = fixtures.perturbed_inputs(1e-3, nxi=140, neta=35)
    walls = []
    for wall in (geom.g_minus, geom.g_plus):
        _, text = wall.serialization()
        assert text.count("x") == 1  # the one variable, in sin(... x / L)
        scaled = text.replace("x", f"(x / {s!r})")
        walls.append(config.WallCurve.from_expression(f"{s!r} * ({scaled})"))
    for layer in (profile.layer_a, profile.layer_b):
        layer.y = s * layer.y
    path = tmp_path / "rescaled.cfg"
    config.write_config(cfg, config.NozzleGeometry(*walls, s * geom.L), profile, path)
    return path


@pytest.mark.parametrize("command, extra", [("solve", ("--eps-scale", "0.5")),
                                            ("sweep", ("--eps", "1e-4,2e-4"))])
def test_scaled_walls_keep_their_inlet_ordinates(tmp_path, capsys, command, extra):
    """Each wall is measured and scaled about the constant line through its
    own g(0), not about -+1: in a nozzle of half-width 2 the inlet tables
    still end at the scaled walls, and eps measures the perturbation alone
    (the input's units scale its derivative norms, so it is not 1e-3)."""
    cfgp = _rescaled_nozzle(tmp_path)
    code, _, s = main_in_process(capsys, "solve", "--config", cfgp, "--out", tmp_path / "s",
                                 "--quiet")
    assert (code, s["status"]) == (0, "ok")
    eps = float(s["eps"])
    assert eps == pytest.approx(2.9466e-4, rel=1e-4)
    code, _, s = main_in_process(capsys, command, "--config", cfgp, *extra,
                                 "--out", tmp_path / "o", "--quiet")
    assert (code, s["status"]) == (0, "ok")
    if command == "solve":
        assert float(s["eps"]) == pytest.approx(0.5 * eps, rel=1e-9)
    else:
        assert s["runs"] == "2" and float(s["slope"]) == pytest.approx(1.0, abs=0.01)


_NAN_SLOPE_WALL = "1 + 0.0001 * (x ** 2 * (x - 2) ** 2) ** 0.75"  # g'(0) = inf * 0


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_non_finite_wall_derivative_is_a_validation_error(workdir, tmp_path, capsys, command):
    lines = [f"g_plus = {_NAN_SLOPE_WALL}" if ln.startswith("g_plus = ") else ln
             for ln in (workdir / "bg.cfg").read_text().splitlines()]
    cfgp = tmp_path / "nan_slope.cfg"
    cfgp.write_text("\n".join(lines))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text, s = main_in_process(capsys, command, "--config", cfgp,
                                        "--out", tmp_path / "o", "--quiet")
    detail = "wall g_plus has a non-finite derivative of order 1 on [0, L]"
    assert code == 1
    if command == "validate":
        assert text.splitlines() == [f"violation: {detail}", "status=invalid violations=1"]
    else:
        assert text.splitlines() == [f"status=error error=validation detail={detail!r}"]


def test_solve_unusable_out_is_io_error(workdir, tmp_path, capsys, monkeypatch):
    """--out naming a file or a directory below one, and a fields.csv that
    is a directory, end with the io summary line instead of a traceback; the
    file is caught before the fixed point runs."""
    solves = _counted(monkeypatch, moc, "fixed_point")
    blocker = tmp_path / "file"
    blocker.write_text("")
    line = _io_error_of(capsys, "solve", "--config", workdir / "pert.cfg", "--grid", "41x11",
                        "--out", blocker, "--quiet")
    assert "File exists" in line and str(blocker) in line
    assert parse_summary(line)["detail"] == f"[Errno 17] File exists: {str(blocker)!r}"
    line = _io_error_of(capsys, "solve", "--config", workdir / "pert.cfg", "--grid", "41x11",
                        "--out", blocker / "sub" / "deeper", "--quiet")
    below = str(blocker / "sub")  # the directory os.makedirs would fail to create
    assert parse_summary(line)["detail"] == f"[Errno 20] Not a directory: {below!r}"
    assert solves == []
    (tmp_path / "o" / "fields.csv").mkdir(parents=True)
    line = _io_error_of(capsys, "solve", "--config", workdir / "pert.cfg", "--grid", "41x11",
                        "--out", tmp_path / "o", "--quiet")
    assert "Is a directory" in line and "fields.csv" in line
    assert solves == [1]


def test_sweep_unusable_out_is_io_error(workdir, tmp_path, capsys, monkeypatch):
    solves = _counted(monkeypatch, moc, "fixed_point")
    blocker = tmp_path / "file"
    blocker.write_text("")
    line = _io_error_of(capsys, "sweep", "--config", workdir / "pert.cfg", "--grid", "41x11",
                        "--eps", "2e-4,4e-4", "--out", blocker, "--quiet")
    assert "File exists" in line
    line = _io_error_of(capsys, "sweep", "--config", workdir / "pert.cfg", "--grid", "41x11",
                        "--eps", "2e-4,4e-4", "--out", blocker / "sub", "--quiet")
    assert parse_summary(line)["detail"] == f"[Errno 20] Not a directory: {str(blocker / 'sub')!r}"
    assert solves == []


def test_blowup_unusable_out_is_io_error(workdir, tmp_path, capsys, monkeypatch):
    marches = _counted(monkeypatch, blowup, "cauchy_march")
    blocker = tmp_path / "file"
    blocker.write_text("")
    line = _io_error_of(capsys, "blowup", "--config", workdir / "blow.cfg", "--out", blocker,
                        "--quiet")
    assert "File exists" in line
    line = _io_error_of(capsys, "blowup", "--config", workdir / "blow.cfg", "--out",
                        blocker / "sub", "--quiet")
    assert parse_summary(line)["detail"] == f"[Errno 20] Not a directory: {str(blocker / 'sub')!r}"
    assert marches == []


@pytest.mark.parametrize("argv, csv", [
    (("solve", "--config", "pert.cfg", "--grid", "41x11"), None),
    (("sweep", "--config", "pert.cfg", "--grid", "41x11", "--eps", "2e-4,4e-4"), "sweep.csv"),
    (("blowup", "--config", "blow.cfg"), "gradients.csv"),
], ids=["solve", "sweep", "blowup"])
def test_summary_reads_back_an_out_path_with_a_space(workdir, tmp_path, capsys, argv, csv):
    """An ``out`` path holding whitespace is printed as its repr, as
    ``detail`` is, so the summary line reads back to the whole path."""
    out = tmp_path / "a b"
    argv = [workdir / a if a.endswith(".cfg") else a for a in argv]
    code, _, s = main_in_process(capsys, *argv, "--out", out, "--quiet")
    assert (code, s["status"]) == (0, "ok")
    assert s["out"] == str(out if csv is None else out / csv)


def test_failed_validation_beside_an_unusable_out_is_a_validation_error(workdir, tmp_path,
                                                                       capsys):
    """The config's checks come first: an --out that is a file does not hide them."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, s = main_in_process(capsys, "solve", "--config", workdir / "pert.cfg",
                                 "--eps-scale", "1e9", "--out", blocker, "--quiet")
    assert (code, s["error"]) == (1, "validation")


def _with_background_value(workdir, tmp_path, key, value):
    """The eps = 1e-3 fixture with one [background] value replaced."""
    lines = (workdir / "pert.cfg").read_text().splitlines()
    start = lines.index("[background]")
    row = next(i for i in range(start, len(lines)) if lines[i].startswith(f"{key} ="))
    lines[row] = f"{key} = {value}"
    bad = tmp_path / "bad_background.cfg"
    bad.write_text("\n".join(lines))
    return bad


@pytest.mark.parametrize("key", ["p", "rho_a", "rho_b"])
@pytest.mark.parametrize("command, extra", [("solve", ()), ("sweep", ("--eps", "1e-4")),
                                            ("validate", ())])
def test_nonpositive_background_is_a_validation_error(workdir, tmp_path, capsys, command,
                                                      extra, key):
    bad = _with_background_value(workdir, tmp_path, key, "-1")
    out = tmp_path / "o"
    code, text, s = main_in_process(capsys, command, "--config", bad, *extra, "--out", out,
                                    "--quiet")
    detail = f"background {key} must be positive and finite, got -1"
    assert code == 1
    if command == "validate":
        assert text.splitlines() == [f"violation: {detail}", "status=invalid violations=1"]
    else:
        assert text.splitlines() == [f"status=error error=validation detail={detail!r}"]
    assert not out.exists()


@pytest.mark.parametrize("key, text", [("u0", "foo(y)"), ("u0", "2.0 +"), ("v0", "y ** y")])
def test_malformed_blowup_expression_is_a_config_error(tmp_path, capsys, key, text):
    values = {"u0": "2.0", "v0": "0.0", key: text}
    cfgp = tmp_path / "expr.cfg"
    cfgp.write_text(f"[gas]\ngamma = 1.4\n\n[blowup]\nu0 = {values['u0']}\n"
                    f"v0 = {values['v0']}\nny = 100\nx_max = 5.0\n")
    out = tmp_path / "o"
    code, _, s = main_in_process(capsys, "blowup", "--config", cfgp, "--out", out, "--quiet")
    assert (code, s["status"], s["error"]) == (2, "error", "config")
    assert s["detail"].startswith(f"{cfgp}: [blowup] {key}: ") and repr(text) in s["detail"]
    assert "code" not in s and not out.exists()
    code, text_out, s = main_in_process(capsys, "validate", "--config", cfgp)
    assert (code, s) == (1, {"status": "invalid", "violations": "1"})
    assert text_out.startswith(f"violation: {cfgp}: [blowup] {key}: ")
