import json
import math

import numpy as np
import pytest

from bosewave import analysis, cli, dispersion as dsp

PI4 = "0.7853981633974483"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- roots

def test_roots_pi4_unit_undamped(capsys):
    code, out, _ = run(capsys, "roots", "--h", "1", "--B", "0",
                       "--theta", PI4, "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h,B,theta,n,branch,lambda_r,lambda_i,residual"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[4] == "acoustic"
    assert float(fields[5]) == pytest.approx(1.0, abs=1e-10)
    assert abs(float(fields[6])) < 1e-10
    assert float(fields[7]) < 1e-9


def test_roots_theta0_frozen_value(capsys):
    code, out, _ = run(capsys, "roots", "--h", "1", "--B", "0",
                       "--theta", "0", "--n", "2")
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    assert float(fields[5]) == pytest.approx(0.7850017617921874, abs=1e-12)
    assert float(fields[6]) == pytest.approx(0.1273882491316916, abs=1e-12)


def test_roots_all_branches(capsys):
    code, out, _ = run(capsys, "roots", "--h", "1", "--B", "0",
                       "--theta", PI4, "--branch", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[4] == "acoustic"
    assert lines[2].split(",")[4] == "secondary(1)"


def test_roots_all_branches_keeps_every_root_at_large_h(capsys):
    code, out, _ = run(capsys, "roots", "--h", "1e4", "--theta", "0.3",
                       "--n", "8", "--branch", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 8
    assert [line.split(",")[4] for line in lines[1:]] == \
        ["acoustic"] + [f"secondary({j})" for j in range(1, 8)]
    for line in lines[1:]:
        assert float(line.split(",")[7]) < 1e-9


def test_roots_negative_h_exits_1_naming_flag(capsys):
    code, _, err = run(capsys, "roots", "--h", "-1", "--B", "0", "--theta", "0")
    assert code == 1
    assert "--h" in err


def test_roots_missing_theta_exits_1(capsys):
    code, _, err = run(capsys, "roots", "--h", "1")
    assert code == 1
    assert "--theta" in err


def test_roots_degrees_suffix(capsys):
    _, out_deg, _ = run(capsys, "roots", "--h", "1", "--theta", "45deg")
    _, out_rad, _ = run(capsys, "roots", "--h", "1", "--theta", PI4)
    assert out_deg == out_rad


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_bad_angle_exits_1(capsys):
    code, _, err = run(capsys, "roots", "--h", "1", "--theta", "fast")
    assert code == 1
    assert "angle" in err


# -------------------------------------------------------------------- sweep

def test_sweep_csv_roundtrip_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["sweep", "--h-range", "1e-1:1e1:7", "--log",
            "--theta", "0,0.3927", "--B", "0,0.5", "--n", "2"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().splitlines()
    assert lines[0] == "h,B,theta,n,branch,lambda_r,lambda_i,residual"
    assert len(lines) == 1 + 2 * 2 * 7
    # 17-digit output preserves re-verification of every row
    for line in lines[1:]:
        h, B, theta, n, branch, lam_r, lam_i, _ = line.split(",")
        lam = complex(float(lam_r), float(lam_i))
        res = dsp.root_residual(lam, float(h) * (1 + float(B)),
                                float(theta), int(n))
        assert res < 1e-9


def test_sweep_json_same_keys(capsys):
    code, out, _ = run(capsys, "sweep", "--h-range", "1:10:3", "--log",
                       "--theta", "0", "--B", "0", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 3
    assert set(records[0]) == {"h", "B", "theta", "n", "branch",
                               "lambda_r", "lambda_i", "residual"}


def test_sweep_bad_range_exits_1(capsys):
    code, _, err = run(capsys, "sweep", "--h-range", "oops")
    assert code == 1


def test_emit_empty_table_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    cli.emit([], "csv", str(path))
    assert path.read_text() == "h,B,theta,n,branch,lambda_r,lambda_i,residual\n"


def test_emit_seventeen_significant_digits(tmp_path):
    path = tmp_path / "row.csv"
    row = analysis.SweepRow(h=1 / 3, B=0.0, theta=0.0, n=2, branch="acoustic",
                            lambda_r=2 / 3, lambda_i=1e-17, residual=0.0)
    cli.emit([row], "csv", str(path))
    body = path.read_text().splitlines()[1]
    assert body.split(",")[0] == "0.33333333333333331"
    assert float(body.split(",")[5]) == 2 / 3


# --------------------------------------------------------------------- hmax

def test_hmax_output(capsys):
    code, out, _ = run(capsys, "hmax", "--theta", "0", "--B", "0", "--n", "2",
                       "--h-range", "1e-2:1e2")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines()
                 if " = " in line)
    assert float(lines["h_max"]) == pytest.approx(1.6903, abs=0.05)
    assert float(lines["lambda_i_max"]) == pytest.approx(0.14434, abs=5e-4)


def test_hmax_degenerate_exits_2(capsys):
    code, _, err = run(capsys, "hmax", "--theta", PI4, "--B", "0")
    assert code == 2
    assert "lambda_i" in err


# --------------------------------------------------------------- theta-scan

def test_theta_scan_table(capsys):
    code, out, _ = run(capsys, "theta-scan", "--B", "0", "--n", "2",
                       "--h-cap", "10", "--steps", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,branch,max_lambda_i"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 10
    pi4_rows = {r[1]: r[2] for r in rows
                if float(r[0]) == pytest.approx(math.pi / 4, abs=1e-15)}
    assert float(pi4_rows["acoustic"]) == 0.0
    want = dsp.principal_lambda(1 + 10j).imag
    assert float(pi4_rows["secondary"]) == pytest.approx(want, rel=1e-6)


# ----------------------------------------------------------------- simulate

def test_simulate_run_and_snapshot(tmp_path, capsys):
    out = tmp_path / "snap.txt"
    code, stdout, _ = run(capsys, "simulate", "--h", "1", "--B", "0",
                          "--theta", PI4, "--n", "2", "--ppw", "20",
                          "--wavelengths", "8", "--periods", "3",
                          "--out", str(out), "--stride", "4")
    assert code == 0
    values = dict(line.split(" = ") for line in stdout.strip().splitlines())
    lam_r, lam_i = map(float, values["lambda_meas"].split())
    assert lam_r == pytest.approx(1.0, abs=0.02)
    assert abs(lam_i) < 0.02
    root_r, root_i = map(float, values["lambda_root"].split())
    assert root_r == pytest.approx(1.0, abs=1e-10)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# bosewave snapshot:")
    assert len(lines) == 2 + math.ceil((8 * 20 + 1) / 4)


def test_simulate_requires_h(capsys):
    code, _, err = run(capsys, "simulate", "--theta", "0")
    assert code == 1
    assert "--h" in err


# -------------------------------------------------------------- config file

def test_config_file_supplies_defaults_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 1\ntheta = 0\nB = 0.5\n# comment\n")
    code, out_file, _ = run(capsys, "roots", "--config", str(cfg))
    assert code == 0
    fields = out_file.strip().splitlines()[1].split(",")
    assert float(fields[0]) == 1.0 and float(fields[1]) == 0.5

    code, out_flag, _ = run(capsys, "roots", "--config", str(cfg), "--B", "0")
    assert code == 0
    fields = out_flag.strip().splitlines()[1].split(",")
    assert float(fields[1]) == 0.0


def test_config_file_bad_line_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    code, _, err = run(capsys, "roots", "--config", str(cfg), "--h", "1",
                       "--theta", "0")
    assert code == 1
    assert "key = value" in err


# ------------------------------------------------------------------- verify

def test_verify_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify")
    code2, out2, _ = run(capsys, "verify")
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert all(line.endswith("PASS") for line in lines[:-1])
    assert lines[-1] == "all checks passed"
    names = {line.split(":")[0] for line in lines[:-1]}
    assert "closed-form-oracle" in names
    assert "theta-pi4-identity" in names
