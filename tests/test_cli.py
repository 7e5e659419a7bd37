import dataclasses
import hashlib
import io
import json
import math
import re
import sys
import time

import numpy as np
import pytest

from bosewave import analysis, cli, dispersion as dsp, errors, simulate
from conftest import run

PI4 = "0.7853981633974483"


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


def test_emit_rejects_an_unknown_format():
    with pytest.raises(errors.DomainError, match="format must be 'csv' or 'json'"):
        cli.emit([], "xml", None)


def test_emit_seventeen_significant_digits(tmp_path):
    path = tmp_path / "row.csv"
    row = analysis.SweepRow(h=1 / 3, B=0.0, theta=0.0, n=2, branch="acoustic",
                            lambda_r=2 / 3, lambda_i=1e-17, residual=0.0)
    cli.emit([row], "csv", str(path))
    body = path.read_text().splitlines()[1]
    assert body.split(",")[0] == "0.33333333333333331"
    assert float(body.split(",")[5]) == 2 / 3


def test_emit_csv_is_the_fmt_join_bytewise(tmp_path):
    from collections import namedtuple

    Row = namedtuple("Row", "a b c d")
    values = [1.5, np.float64(1 / 3), 7, np.int64(-3), "acoustic", None, 0.0, -0.0,
              math.inf, -math.inf, math.nan, 5e-324, 1e308, np.float64(-0.0),
              np.float64(math.nan), True, "50%", 1 / 3]
    rng = np.random.default_rng(24)
    rows = [Row(*(values[k] for k in rng.integers(0, len(values), 4))) for _ in range(300)]
    rows += [Row(*values[i:i + 4]) for i in range(0, len(values) - 3)]
    for header in (Row._fields, ("c",), ("d", "a", "d")):
        path = tmp_path / "mixed.csv"
        cli.emit(rows, "csv", str(path), header=header)
        want = [",".join(header)] + [",".join(cli._fmt(getattr(row, key)) for key in header)
                                     for row in rows]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()
    # the sweep/roots table writer, fed the floats as h, B, theta, lambda and
    # residual columns, with points of no root (count 0) among them
    floats = [v for v in values if isinstance(v, float)]
    points = [tuple(floats[k] for k in rng.integers(0, len(floats), 3)) for _ in range(200)]
    counts = [int(k) for k in rng.integers(0, 4, len(points))]
    lam = [complex(*(floats[k] for k in pair))
           for pair in rng.integers(0, len(floats), (sum(counts), 2))]
    residual = [floats[k] for k in rng.integers(0, len(floats), sum(counts))]
    roots = iter(zip(lam, residual))
    want = [",".join(cli.SWEEP_HEADER)]
    for (h, B, theta), count in zip(points, counts):
        cells = [(cli.dispersion._branch_name(j), *next(roots)) for j in range(count)]
        for name, z, res in cells or [("error", complex(math.nan, math.nan), math.nan)]:
            want.append(",".join(cli._fmt(v) for v in (h, B, theta, 3, name, z.real, z.imag, res)))
    path = tmp_path / "columns.csv"
    cli._write_sweep([(points, counts, lam, residual)], 3, "csv", str(path))
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()


def test_sweep_rows_match_roots_rows_in_value_and_type():
    # numpy angles, B values and grid: each row still holds Python floats
    theta, B, n = np.float64(0.3), np.float64(0.5), 3
    for h in (0.25, 1.0, 40.0):
        for policy in ("acoustic", "all"):
            swept = list(analysis.sweep(np.array([theta]), np.array([B]), np.array([h]),
                                        n, branch_policy=policy))
            lam, _, residual = dsp._branches_at(dsp._line(h, float(B)), float(theta), n, policy)
            columns = [([(h, float(B), float(theta))], [len(lam)], lam, residual)]
            point = [analysis.SweepRow(*where, n, name, z.real, z.imag, res)
                     for where, roots in analysis._labelled_points(columns, n)
                     for name, z, res in roots]
            assert swept == point
            for got, want in zip(swept, point, strict=True):
                assert [type(v) for v in vars(got).values()] == \
                    [type(v) for v in vars(want).values()]
                assert (type(got.h), type(got.B), type(got.theta)) == (float, float, float)


def table_commands():
    """Seeded `sweep` and `roots` commands, each with the `analysis.sweep` call
    whose records `emit` writes as the same table (a one-point sweep for roots)."""
    rng = np.random.default_rng(28)
    for k in range(48):
        n, policy = 2 + k % 7, ("acoustic", "all")[k % 2]
        thetas = [float(t) for t in rng.uniform(0.0, math.pi / 2, 1 + k % 3)]
        if k % 4 == 0:
            thetas[-1] = math.pi / 2   # a perpendicular velocity
        Bs = [float(b) for b in rng.uniform(-0.9, 1.5, 1 + k % 2)]
        lo, hi, steps = 10 ** rng.uniform(-4, 0), 10 ** rng.uniform(0.5, 5), 2 + k % 9
        h = np.geomspace(lo, hi, steps)
        fmt = ("csv", "json")[k // 2 % 2]
        argv = ["sweep", f"--theta={','.join(map(repr, thetas))}",
                f"--B={','.join(map(repr, Bs))}", f"--h-range={lo!r}:{hi!r}:{steps}",
                "--log", f"--n={n}", f"--branch={policy}", f"--format={fmt}"]
        yield argv, fmt, (thetas, Bs, h, n, policy)
        argv = ["roots", f"--h={hi!r}", f"--B={Bs[0]!r}", f"--theta={thetas[-1]!r}",
                f"--n={n}", f"--branch={policy}", f"--format={fmt}"]
        yield argv, fmt, ([thetas[-1]], Bs[:1], [hi], n, policy)


def test_sweep_and_roots_print_the_bytes_emit_writes_of_the_sweep_records(tmp_path, capsys):
    for k, (argv, fmt, call) in enumerate(table_commands()):
        rows = analysis.sweep(*call)
        want = tmp_path / "want"
        cli.emit(rows, fmt, str(want))
        got = tmp_path / "got"
        to_file = k % 3 == 0   # a third of the commands write with --out
        code, out, err = run(capsys, *argv, *([f"--out={got}"] if to_file else []))
        assert (code, err) == (0, ""), argv
        assert (got.read_text() if to_file else out).encode() == want.read_bytes(), argv


def table_body(text: str, fmt: str) -> str:
    """A CSV table without its header line, or a JSON table without its brackets."""
    return text.split("\n", 1)[1] if fmt == "csv" else text[len("[\n"):-len("\n]\n")]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_multi_b_sweep_body_is_its_single_b_bodies_joined(capsys, n, fmt):
    # the tops h_b = 6, 1.5, 3.6 and 3e-5 lie on both sides of h_b = 4: the
    # first line has no seed rows and the later ones have, so every line's
    # own rows are continued through seed rows of its own, not its neighbours'
    Bs = ["1", "-0.5", "0.2", "-0.99999"]
    for theta in ("0.3", "90deg"):
        argv = ["sweep", "--h-range=1e-3:3:5", "--log", f"--theta={theta}", f"--n={n}",
                "--branch=all", f"--format={fmt}"]
        bodies = []
        for B in Bs:
            code, out, err = run(capsys, *argv, f"--B={B}")
            assert (code, err) == (0, ""), (theta, B)
            bodies.append(table_body(out, fmt))
        code, out, err = run(capsys, *argv, f"--B={','.join(Bs)}")
        assert (code, err) == (0, ""), theta
        assert table_body(out, fmt) == ("" if fmt == "csv" else ",\n").join(bodies), theta


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_error_rows_print_the_bytes_emit_writes(eig_calls, tmp_path, capsys, fmt):
    h = np.geomspace(0.1, 10.0, 5)
    # every batch that holds h[1] or h[3] fails
    eig_calls.fail(errors.ConvergenceError, "synthetic failure", at=h[[1, 3]])
    rows = analysis.sweep([0.3, math.pi / 2], [0.0], h, 3, branch_policy="all")
    assert [row.h for row in rows if row.branch == "error"] == list(h[[3, 1, 3, 1]])
    want = tmp_path / "want"
    cli.emit(rows, fmt, str(want))
    code, out, err = run(capsys, "sweep", "--theta=0.3,90deg", "--h-range=0.1:10:5", "--log",
                         "--n=3", "--branch=all", f"--format={fmt}")
    assert (code, err) == (0, "")
    assert out.encode() == want.read_bytes()


def test_cli_sweep_and_roots_build_no_sweep_row(monkeypatch, capsys):
    def no_row(*args, **kwargs):
        raise AssertionError("SweepRow built")

    monkeypatch.setattr(analysis, "SweepRow", no_row)
    for argv in (["sweep", "--theta=0,0.3", "--B=0,0.5", "--n=3", "--branch=all"],
                 ["roots", "--h=1", "--theta=0.3", "--n=3", "--branch=all"]):
        for fmt in ("csv", "json"):
            code, out, _ = run(capsys, *argv, f"--format={fmt}")
            assert code == 0 and "acoustic" in out


def test_sweep_records_and_tables_walk_the_columns_once(monkeypatch, capsys):
    # analysis.sweep, CLI sweep and CLI roots each expand their columns by
    # one call of the one walk
    real, calls = analysis._labelled_points, []

    def walk(tables, n):
        calls.append(n)
        return real(tables, n)

    monkeypatch.setattr(analysis, "_labelled_points", walk)
    analysis.sweep([0.0, 0.3], [0.0, 0.5], [0.1, 1.0, 10.0], 3, "all")
    assert calls == [3]
    for argv in (["sweep", "--theta=0,0.3", "--B=0,0.5", "--n=3", "--branch=all"],
                 ["roots", "--h=1", "--theta=0.3", "--n=4", "--branch=all"]):
        for fmt in ("csv", "json"):
            calls.clear()
            code, out, _ = run(capsys, *argv, f"--format={fmt}")
            assert code == 0 and "acoustic" in out
            assert len(calls) == 1, (argv, fmt)


def test_help_shows_no_private_names(capsys):
    for sub in ("", "roots", "sweep", "hmax", "theta-scan", "simulate", "verify"):
        with pytest.raises(SystemExit) as exc:
            cli.main([sub, "--help"] if sub else ["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: bosewave {sub}".rstrip()), text
        assert sub in ("hmax", "verify") or "--out" in text
        assert re.search(r"(?<!\w)_\w", text) is None, text
        assert "emit" not in text


# --------------------------------------------------------------------- hmax

def test_hmax_output(capsys):
    code, out, _ = run(capsys, "hmax", "--theta", "0", "--B", "0", "--n", "2",
                       "--h-range", "1e-2:1e2")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines()
                 if " = " in line)
    assert float(lines["h_max"]) == pytest.approx(1.6903, abs=0.05)
    assert float(lines["lambda_i_max"]) == pytest.approx(0.14434, abs=5e-4)


def test_hmax_reads_a_steps_field_and_leaves_it_unused(capsys):
    code, out, _ = run(capsys, "hmax", "--theta", "0", "--h-range=1e-2:1e2:40")
    assert code == 0
    assert run(capsys, "hmax", "--theta", "0", "--h-range=1e-2:1e2") == (0, out, "")


@pytest.mark.filterwarnings("error")
def test_hmax_over_the_whole_float_range_runs_quietly(capsys):
    # the peak search works in log h, so a range near the float limits is
    # searched rather than rejected; the value found there is not a
    # certified root yet (roots at h_b above ~1e10 lose their accuracy)
    code, out, err = run(capsys, "hmax", "--theta", "0", "--h-range=1e-300:1e300")
    assert code == 0 and err == ""
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    lo, hi = (float(x) for x in lines["bracket"].split())
    assert lo <= float(lines["h_max"]) <= hi


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

SIMULATE_SMALL = ["simulate", "--h", "1", "--theta", "0", "--ppw", "10",
                  "--wavelengths", "4", "--periods", "2"]


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


@pytest.mark.parametrize("flag, value, needle", [
    ("--ppw", "0", "points_per_wavelength"),
    ("--ppw", "-3", "points_per_wavelength"),
    ("--wavelengths", "-1", "wavelengths"),
    ("--periods", "0", "periods"),
])
def test_simulate_empty_grid_exits_1(capsys, flag, value, needle):
    code, out, err = run(capsys, "simulate", "--h", "1", "--theta", "0",
                         flag, value)
    assert code == 1
    assert out == ""
    assert needle in err


def test_simulate_stride_checked_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("simulation ran")

    monkeypatch.setattr(cli.simulate, "run_forced", no_run)
    code, out, err = run(capsys, "simulate", "--h", "1", "--theta", "0",
                         "--out", str(tmp_path / "snap.txt"), "--stride", "0")
    assert code == 1
    assert out == ""
    assert "--stride" in err
    assert not (tmp_path / "snap.txt").exists()


def no_run(*args, **kwargs):
    raise AssertionError("simulation ran")


def test_simulate_unwritable_out_fails_before_the_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.simulate, "run_forced", no_run)
    code, out, err = run(capsys, *SIMULATE_SMALL,
                         "--out", str(tmp_path / "missing" / "snap.txt"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write ")


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_simulate_out_check_leaves_a_writable_path_as_it_was(tmp_path, monkeypatch,
                                                             existing):
    monkeypatch.setattr(cli.simulate, "run_forced", no_run)
    snap = tmp_path / "snap.txt"
    if existing:
        snap.write_text("old\n")
    with pytest.raises(AssertionError, match="simulation ran"):
        cli.main([*SIMULATE_SMALL, "--out", str(snap)])
    assert snap.read_text() == "old\n" if existing else not snap.exists()


def test_simulate_snapshot_bytes_unchanged_by_the_early_check(tmp_path, capsys):
    series = cli.simulate.run_forced(
        cli.ModelConfig.from_reduced(n=2, theta=0.0, h=1.0, B=0.0),
        wavelengths=4, points_per_wavelength=10, periods=2)
    want = tmp_path / "want.txt"
    cli.simulate.dump_snapshot(series[-1], str(want), stride=3)
    got = tmp_path / "got.txt"
    got.write_text("stale contents to be replaced\n")
    code, _, _ = run(capsys, *SIMULATE_SMALL, "--out", str(got), "--stride", "3")
    assert code == 0
    assert got.read_bytes() == want.read_bytes()


def test_simulate_warning_is_one_line_without_a_source_location(capsys):
    code, _, err = run(capsys, "simulate", "--h", "1", "--theta", "0.3", "--n", "3",
                       "--ppw", "10", "--wavelengths", "4", "--periods", "2")
    assert code == 0
    assert err == ("RuntimeWarning: linear collision form for n > 2 is extrapolated "
                   "beyond the n = 2 derivation\n")


@pytest.mark.parametrize("argv, needle", [
    # about 1e13 steps per period: 4.6e17 row-cell updates
    (["--h", "1e12", "--theta", "0"], "h = 1e+12, theta = 0.0"),
    # a 2.8e9-period transient next to a perpendicular velocity: 1.5e13 updates
    (["--h", "1.2525285437021076", "--theta", "1.5707963257948965", "--ppw", "10",
      "--wavelengths", "4", "--periods", "2"], "2828426723 transient"),
])
@pytest.mark.filterwarnings("error")
def test_simulate_past_the_work_bound_exits_1_at_once(capsys, argv, needle):
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and needle in err and "MAX_FORCED_WORK" in err
    assert "Traceback" not in err


def test_simulate_at_h_1e4_is_solved_without_a_step(capsys, monkeypatch):
    """A default linear run at h = 1e4 plans 9.4e9 row-cell updates, just
    inside MAX_FORCED_WORK, and takes no step: its settled state is solved."""
    monkeypatch.setattr(simulate, "_build_kernels", no_run)
    code, out, err = run(capsys, "simulate", "--h", "1e4", "--theta", "0.3")
    assert (code, err) == (0, "")
    assert [line.split(" = ")[0] for line in out.splitlines()] == [
        "k_r", "k_i", "lambda_meas", "lambda_root", "rms_residual"]


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


@pytest.mark.parametrize("content", [None, b"h = \xff\n"], ids=["missing", "not-utf8"])
def test_config_file_unreadable_exits_1(tmp_path, capsys, content):
    path = tmp_path / "bosewave.cfg"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run(capsys, "roots", "--h", "1", "--theta", "0", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read config file {path}: ")


def test_config_file_bad_line_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    code, _, err = run(capsys, "roots", "--config", str(cfg), "--h", "1",
                       "--theta", "0")
    assert code == 1
    assert "key = value" in err


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.filterwarnings("error")
def test_config_file_every_sweep_key_matches_flags(tmp_path, capsys):
    from_cfg, from_flags = tmp_path / "cfg.json", tmp_path / "flags.json"
    cfg = write_cfg(tmp_path, "h-range = 0.1:10:5\nlog = yes\ntheta = 0,0.3\n"
                    "B = 0,0.5\nn = 3\nbranch = all\nformat = json\n"
                    f"out = {from_cfg}\n")
    assert cli.main(["sweep", "--config", cfg]) == 0
    assert cli.main(["sweep", "--h-range", "0.1:10:5", "--log",
                     "--theta", "0,0.3", "--B", "0,0.5", "--n", "3",
                     "--branch", "all", "--format", "json",
                     "--out", str(from_flags)]) == 0
    assert capsys.readouterr() == ("", "")
    assert len(json.loads(from_cfg.read_text())) == 2 * 2 * 5 * 3
    assert from_cfg.read_bytes() == from_flags.read_bytes()


@pytest.mark.parametrize("value, log", [("1", True), ("true", True),
                                        ("Yes", True), ("ON", True),
                                        ("0", False), ("false", False),
                                        ("no", False), ("off", False)])
def test_config_file_log_values(tmp_path, capsys, value, log):
    cfg = write_cfg(tmp_path, f"h-range = 1:100:3\nlog = {value}\n")
    _, out_cfg, _ = run(capsys, "sweep", "--config", cfg)
    _, out_flag, _ = run(capsys, "sweep", "--h-range", "1:100:3",
                         *(["--log"] if log else []))
    assert out_cfg == out_flag
    h_column = [line.split(",")[0] for line in out_cfg.splitlines()[1:]]
    assert h_column == (["100", "10", "1"] if log else ["100", "50.5", "1"])


@pytest.mark.parametrize("value", ["off", "0", "false", "no"])
def test_config_file_log_off_is_the_default_grid(tmp_path, capsys, value):
    # a switch that is not on adds no flag, so the default grid stays log-spaced
    code, out_cfg, _ = run(capsys, "sweep", "--config",
                           write_cfg(tmp_path, f"log = {value}\n"))
    _, out_plain, _ = run(capsys, "sweep")
    assert code == 0
    assert out_cfg == out_plain


@pytest.mark.parametrize("line", ["help = 1", "command = x", "subcommand = x"])
def test_config_file_ignores_keys_that_are_not_long_options(tmp_path, capsys, line):
    argv = ["roots", "--h", "1", "--theta", "0.3"]
    code, out_cfg, err = run(capsys, *argv, "--config", write_cfg(tmp_path, line + "\n"))
    _, out_plain, _ = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out_cfg == out_plain


def test_config_value_is_checked_even_where_a_flag_overrides_it(tmp_path, capsys):
    # config values are flags placed before the command line's, and argparse
    # checks every flag it reads
    code, out, err = run(capsys, "sweep", "--branch", "all", "--config",
                         write_cfg(tmp_path, "branch = foo\n"))
    assert code == 1 and out == ""
    assert err.startswith("error: argument --branch: invalid choice: 'foo'")


def test_config_file_hmax_h_range(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "theta = 0.3\nh-range = 1e-3:1e3\nn = 3\nB = 0.2\n")
    code, out_cfg, _ = run(capsys, "hmax", "--config", cfg)
    _, out_flag, _ = run(capsys, "hmax", "--theta", "0.3", "--h-range",
                         "1e-3:1e3", "--n", "3", "--B", "0.2")
    assert code == 0
    assert out_cfg == out_flag
    _, out_narrow, _ = run(capsys, "hmax", "--config", cfg, "--h-range", "1e-2:1e2")
    assert out_narrow != out_cfg


def test_config_file_format_checked_before_the_scan(tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scan ran")

    monkeypatch.setattr(cli.analysis, "theta_scan", no_scan)
    code, out, err = run(capsys, "theta-scan",
                         "--config", write_cfg(tmp_path, "format = xml\n"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: argument --format: invalid choice: 'xml'")


def test_config_file_theta_scan_h_cap_and_steps(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "h-cap = 5\nsteps = 5\nB = 0.5\n")
    code, out_cfg, _ = run(capsys, "theta-scan", "--config", cfg)
    _, out_flag, _ = run(capsys, "theta-scan", "--h-cap", "5", "--steps", "5",
                         "--B", "0.5")
    assert code == 0
    assert len(out_cfg.splitlines()) == 1 + 2 * 5
    assert out_cfg == out_flag


def test_config_file_simulate_nonlinear_yes_matches_flag(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "nonlinear = yes\nh = 1\ntheta = 0\nppw = 20\n"
                    "wavelengths = 8\nperiods = 3\neps = 1e-3\n")
    code, out_cfg, _ = run(capsys, "simulate", "--config", cfg)
    _, out_flag, _ = run(capsys, "simulate", "--nonlinear", "--h", "1",
                         "--theta", "0", "--ppw", "20", "--wavelengths", "8",
                         "--periods", "3", "--eps", "1e-3")
    _, out_linear, _ = run(capsys, "simulate", "--h", "1", "--theta", "0",
                           "--ppw", "20", "--wavelengths", "8", "--periods", "3")
    assert code == 0
    assert out_cfg == out_flag
    assert out_cfg != out_linear


def test_config_defaults_do_not_leak_into_the_next_call(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "h = 1\ntheta = 0\nB = 0.5\n")
    _, out_cfg, _ = run(capsys, "roots", "--config", cfg)
    code, out_plain, _ = run(capsys, "roots", "--h", "1", "--theta", "0")
    assert float(out_cfg.splitlines()[1].split(",")[1]) == 0.5
    assert code == 0
    assert float(out_plain.splitlines()[1].split(",")[1]) == 0.0


# (argv, config file text or None, exit code, text stderr must contain)
ERRORS = [
    (["roots", "--h", "x", "--theta", "0"], None, 1, "--h"),
    (["roots", "--h", "-1", "--theta", "0"], None, 1, "--h"),
    (["roots", "--theta", "0"], None, 1, "--h"),
    (["roots", "--h", "1"], None, 1, "--theta"),
    (["roots", "--h", "1", "--theta", "fast"], None, 1, "--theta"),
    (["roots", "--h", "1", "--theta", "0", "--n", "x"], None, 1, "--n"),
    (["roots", "--h", "1", "--theta", "0", "--B", "abc"], None, 1, "--B"),
    (["roots", "--h", "1", "--theta", "0", "--B", "-1"], None, 1, "--B"),
    (["roots", "--h", "1", "--theta", "0", "--branch", "foo"], None, 1, "--branch"),
    (["roots", "--h", "1", "--theta", "0", "--format", "xml"], None, 1, "--format"),
    (["sweep", "--h-range", "oops"], None, 1, "--h-range"),
    (["sweep", "--h-range", "1:2:1"], None, 1, "--h-range"),
    (["sweep", "--h-range=0:2:3"], None, 1, "--h-range"),
    (["sweep", "--h-range", "0:2:3"], None, 1, "argument --h-range: LO '0'"),
    (["sweep", "--theta", "a,b"], None, 1, "--theta"),
    (["sweep", "--B", "x"], None, 1, "--B"),
    (["sweep", "--B", "-2"], None, 1, "--B"),
    (["sweep", "--n", "2.5"], None, 1, "--n"),
    (["hmax"], None, 1, "--theta"),
    (["hmax", "--theta", "0", "--h-range", "a:b"], None, 1, "--h-range"),
    (["hmax", "--theta", PI4], None, 2, "lambda_i"),
    # a secondary that the mu cut drops at large h_b
    (["hmax", "--theta", "0.3", "--n", "4", "--branch", "secondary", "--h-range=1e-2:1e17"],
     None, 2, "lambda_i"),
    # the range grammar of sweep: a STEPS field is checked, and no field follows it
    (["hmax", "--theta", "0", "--h-range=1e-2:1e2:junk"], None, 1, "--h-range"),
    (["hmax", "--theta", "0", "--h-range=1e-2:1e2:40:9"], None, 1, "--h-range"),
    (["hmax", "--theta", "0", "--h-range", "2:1"], None, 1,
     "argument --h-range: invalid range '2:1'"),
    (["hmax", "--theta", "0", "--h-range", "1:1"], None, 1,
     "argument --h-range: invalid range '1:1'"),
    (["hmax", "--theta", "0", "--h-range", "1:x"], None, 1, "argument --h-range: HI 'x'"),
    (["theta-scan", "--steps", "2"], None, 1, "--steps"),
    (["theta-scan", "--steps", "3.5"], None, 1, "--steps"),
    (["theta-scan", "--B", "x"], None, 1, "--B"),
    (["simulate", "--theta", "0"], None, 1, "--h"),
    (["simulate", "--h", "1", "--theta", "0", "--eps", "0"], None, 1, "--eps"),
    (["simulate", "--h", "1", "--theta", "0", "--ppw", "x"], None, 1, "--ppw"),
    (["simulate", "--h", "1", "--theta", "0", "--stride", "0"], None, 1, "--stride"),
    (["roots", "--h", "1", "--theta", "0"], "just some words\n", 1, "key = value"),
    (["roots", "--h", "1", "--theta", "0"], "n = 2.5\n", 1, "--n"),
    (["roots", "--h", "1", "--theta", "0"], "B = x\n", 1, "--B"),
    (["roots", "--h", "1"], "theta = fast\n", 1, "--theta"),
    (["sweep"], "h-range = oops\n", 1, "--h-range"),
    (["theta-scan"], "steps = many\n", 1, "--steps"),
    (["hmax", "--theta", "0"], "h-range = 1\n", 1, "--h-range"),
    # every flag's type checks its domain and finiteness, on the command line
    (["hmax", "--theta", "0", "--B", "-1"], None, 1, "--B"),
    (["hmax", "--theta", "0", "--B", "-1.5"], None, 1, "--B"),
    (["hmax", "--theta", "0", "--B", "nan"], None, 1, "--B"),
    (["hmax", "--theta", "0", "--B", "inf"], None, 1, "--B"),
    (["hmax", "--theta", "0", "--h-range", "1:inf"], None, 1, "--h-range"),
    (["hmax", "--theta", "nan"], None, 1, "--theta"),
    (["hmax", "--theta", "inf"], None, 1, "--theta"),
    (["sweep", "--h-range", "1:inf:3"], None, 1, "--h-range"),
    (["sweep", "--h-range", "inf:1:3"], None, 1, "--h-range"),
    (["sweep", "--h-range", "1:nan:3"], None, 1, "--h-range"),
    (["sweep", "--h-range", "1:nan:3", "--log"], None, 1, "--h-range"),
    (["sweep", "--B", "nan"], None, 1, "--B"),
    (["sweep", "--B", "inf"], None, 1, "--B"),
    (["sweep", "--B=0.5,-1"], None, 1, "--B"),
    (["sweep", "--theta", "nan"], None, 1, "--theta"),
    (["sweep", "--theta", "0,inf"], None, 1, "--theta"),
    (["sweep", "--n", "1"], None, 1, "--n"),
    (["sweep", "--theta="], None, 1, "--theta"),
    (["sweep", "--B=,"], None, 1, "--B"),
    (["theta-scan", "--B", "nan"], None, 1, "--B"),
    (["theta-scan", "--B", "-1"], None, 1, "--B"),
    (["theta-scan", "--B", "inf"], None, 1, "--B"),
    (["theta-scan", "--h-cap", "inf"], None, 1, "--h-cap"),
    (["theta-scan", "--h-cap", "nan"], None, 1, "--h-cap"),
    (["theta-scan", "--h-cap", "0"], None, 1, "--h-cap"),
    (["roots", "--h", "inf", "--theta", "0"], None, 1, "--h"),
    (["roots", "--h", "nan", "--theta", "0"], None, 1, "--h"),
    (["roots", "--h", "1", "--theta", "nan"], None, 1, "--theta"),
    (["roots", "--h", "1", "--theta", "inf"], None, 1, "--theta"),
    (["roots", "--h", "1", "--theta", "1e309deg"], None, 1, "--theta"),
    (["roots", "--h", "1", "--theta", "0", "--B", "inf"], None, 1, "--B"),
    (["roots", "--h", "1", "--theta", "0", "--n", "1"], None, 1, "--n"),
    (["simulate", "--h", "1", "--theta", "0", "--eps", "nan"], None, 1, "--eps"),
    (["simulate", "--h", "1", "--theta", "0", "--eps", "inf"], None, 1, "--eps"),
    (["simulate", "--h", "inf", "--theta", "0"], None, 1, "--h"),
    # finite flag values whose h_b grid or continuation grid cannot be formed in
    # floating point; at --h=1e308, 10 h_b overflows and no seed grid is built
    (["roots", "--h=1e308", "--theta", "0"], None, 1, "h_b"),
    (["roots", "--h=1e-320", "--theta", "0"], None, 1, "h_b"),
    (["roots", "--h", "1", "--theta", "0", "--B=1e308"], None, 1, "h_b"),
    (["theta-scan", "--steps", "3", "--B=1e308"], None, 1, "h_b"),
    (["theta-scan", "--steps", "3", "--h-cap=1e-320"], None, 1, "h_cap"),
    (["theta-scan", "--steps", "3", "--h-cap=1e308"], None, 1, "h_b"),
    (["sweep", "--B=1e308"], None, 1, "h_b"),
    (["sweep", "--h-range=1:1e308:3"], None, 1, "h_b"),
    (["sweep", "--h-range=1e-320:1e-310:3", "--log"], None, 1, "h_b"),
    # the lowest h_b = 5e-324 * 0.1 underflows to 0
    (["sweep", "--h-range=5e-324:1e-300:3", "--log", "--B=-0.9"], None, 1, "h_b"),
    # the coarse grid's top overflows through the one line check
    (["hmax", "--theta", "0", "--B=1e308"], None, 1, "h_b"),
    (["hmax", "--theta", "0", "--h-range=1:1e308"], None, 1, "h_b"),
    # ... and in a config file
    (["hmax", "--theta", "0"], "B = -1\n", 1, "--B"),
    (["hmax"], "theta = nan\n", 1, "--theta"),
    (["theta-scan"], "h-cap = inf\n", 1, "--h-cap"),
    (["theta-scan"], "steps = 2\n", 1, "--steps"),
    (["sweep"], "B = 0,nan\n", 1, "--B"),
    (["sweep"], "h-range = 1:inf:3\n", 1, "--h-range"),
    (["roots", "--theta", "0"], "h = nan\n", 1, "--h"),
    (["simulate", "--h", "1", "--theta", "0"], "eps = inf\n", 1, "--eps"),
    (["simulate", "--h", "1", "--theta", "0"], "stride = 0\n", 1, "--stride"),
    # a config value outside its flag's choices
    (["sweep"], "branch = foo\n", 1, "--branch"),
    (["hmax", "--theta", "0"], "branch = all\n", 1, "--branch"),
    (["roots", "--h", "1", "--theta", "0"], "format = xml\n", 1, "--format"),
    (["theta-scan"], "format = xml\n", 1, "--format"),
]


@pytest.mark.parametrize("argv, config, code, needle", ERRORS,
                         ids=[" ".join(e[0]) + (f" [{e[1].strip()}]" if e[1] else "")
                              for e in ERRORS])
@pytest.mark.filterwarnings("error")
def test_error_exit_code_names_the_flag(tmp_path, capsys, argv, config, code, needle):
    if config is not None:
        argv = argv + ["--config", write_cfg(tmp_path, config)]
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert needle in err
    assert "Traceback" not in err


NUMERICAL_ERRORS = [
    (errors.ConvergenceError, RuntimeError),
    (errors.SingularDenominatorError, ArithmeticError),
    (errors.BranchAmbiguityError, RuntimeError),
    (errors.NoInteriorMaximumError, RuntimeError),
    (errors.CFLError, ValueError),
    (errors.PositivityError, RuntimeError),
    (errors.InstabilityError, RuntimeError),
    (errors.FitError, RuntimeError),
]


def test_numerical_errors_list_is_complete():
    subclasses = {value for value in vars(errors).values()
                  if isinstance(value, type) and value is not errors.NumericalError
                  and issubclass(value, errors.NumericalError)}
    assert subclasses == {error for error, _ in NUMERICAL_ERRORS}


@pytest.mark.parametrize("error, builtin", NUMERICAL_ERRORS,
                         ids=[e.__name__ for e, _ in NUMERICAL_ERRORS])
def test_numerical_error_keeps_its_builtin_base_and_exits_2(eig_calls, capsys, error, builtin):
    assert issubclass(error, errors.NumericalError)
    assert issubclass(error, builtin)
    assert not issubclass(error, errors.DomainError)
    eig_calls.fail(error, "injected failure")
    code, out, err = run(capsys, "roots", "--h", "1", "--theta", "0")
    assert code == 2
    assert out == ""
    assert err == "numerical error: injected failure\n"


@pytest.mark.parametrize("h, code", [("1", 0), ("x", 1)])
def test_entry_exits_with_the_code_of_main(monkeypatch, capsys, h, code):
    monkeypatch.setattr(sys, "argv", ["bosewave", "roots", "--h", h, "--theta", "0"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code


# ------------------------------------------------------------------- verify

@pytest.mark.filterwarnings("error")
def test_verify_passes_and_is_deterministic(capsys):
    code1, out1, err1 = run(capsys, "verify")
    code2, out2, err2 = run(capsys, "verify")
    assert code1 == code2 == 0
    assert err1 == err2 == ""
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert all(line.endswith("PASS") for line in lines[:-1])
    assert lines[-1] == "all checks passed"
    names = {line.split(":")[0] for line in lines[:-1]}
    assert "closed-form-oracle" in names
    assert "theta-pi4-identity" in names


def test_verify_solves_its_oracle_points_in_batches(eig_calls, capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0 and out.endswith("all checks passed\n")
    assert len(eig_calls.grids) <= 60
    assert max(eig_calls.sizes) == 1000  # the closed-form oracle's points


def test_verify_h_b_collapse_fails_for_a_linear_model_that_sees_gamma(monkeypatch, capsys):
    # the three runs share h_b = 1 and have gamma = 0, 1 and -1
    real = simulate._linear_propagator
    monkeypatch.setattr(simulate, "_linear_propagator", lambda config, dt: real(
        dataclasses.replace(config, S=config.S * (1.0 + 0.1 * config.gamma)), dt))
    code, out, _ = run(capsys, "verify")
    assert code == 2
    assert "h-b-collapse: FAIL\n" in out and out.endswith("1 check(s) failed\n")


def shifted_root(real, where):
    """acoustic_root with lambda moved by 1e-3 at the points ``where`` accepts."""
    def root(h_b, theta, n):
        got = real(h_b, theta, n)
        return dataclasses.replace(got, lam=got.lam + 1e-3) if where(h_b) else got
    return root


def symmetry_broken(real):
    """_eig_roots with every root of a 10-row batch (theta-symmetry's) scaled by its angle."""
    def eig_roots(h_b, theta, n):
        rows = real(h_b, theta, n)
        return rows * (1.0 + 1e-6 * np.asarray(theta))[:, None] if len(rows) == 10 else rows
    return eig_roots


@pytest.mark.parametrize("check, target, wrong", [
    ("closed-form-oracle", "closed_form_n2", lambda real: lambda h_b, t: real(h_b, t)[:1]),
    ("theta-pi4-identity", "acoustic_root", lambda real: shifted_root(real, lambda h: h < 1e6)),
    ("hydrodynamic-limit", "acoustic_root", lambda real: shifted_root(real, lambda h: h == 1e6)),
    ("theta-symmetry", "_eig_roots", symmetry_broken),
])
def test_verify_check_fails_on_a_wrong_subject(monkeypatch, capsys, check, target, wrong):
    # only the check under test runs; its subject in dispersion is made wrong
    real_checks = cli._verify_checks
    monkeypatch.setattr(cli, "_verify_checks",
                        lambda seed: [c for c in real_checks(seed) if c[0] == check])
    monkeypatch.setattr(dsp, target, wrong(getattr(dsp, target)))
    code, out, _ = run(capsys, "verify")
    assert code == 2
    assert out == f"{check}: FAIL\n1 check(s) failed\n"


def test_main_without_a_subcommand_prints_the_help_and_exits_1(capsys):
    code, out, err = run(capsys)
    assert code == 1 and out == ""
    assert err.startswith("usage: bosewave") and "roots" in err


def test_emit_writes_to_a_file_object(tmp_path):
    buf = io.StringIO()
    row = analysis.SweepRow(h=1.0, B=0.0, theta=0.0, n=2, branch="acoustic",
                            lambda_r=0.5, lambda_i=0.25, residual=0.0)
    cli.emit([row], "csv", buf)
    path = tmp_path / "row.csv"
    cli.emit([row], "csv", str(path))
    assert buf.getvalue() == path.read_text()


# the whole error line names the faulty part of the range
@pytest.mark.parametrize("argv", [["sweep", "--h-range", "1:2:1"]], ids=" ".join)
@pytest.mark.filterwarnings("error")
def test_out_of_range_magnitudes_and_ranges_exit_1_naming_the_part(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: argument --h-range: STEPS '1' is not an integer >= 2\n"


def test_sweep_still_accepts_a_descending_linear_range(capsys):
    code, out, _ = run(capsys, "sweep", "--h-range", "2:1:3")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["2", "1.5", "1"]


# ----------------------------------------------------- point lookups, errors

def test_roots_all_branches_is_one_batched_solve(eig_calls, capsys):
    code, out, _ = run(capsys, "roots", "--h", "1", "--theta", "0.3", "--n", "3",
                       "--branch", "all")
    assert code == 0 and len(out.splitlines()) == 1 + 3
    assert len(eig_calls.grids) == 1 and eig_calls.sizes[0] > 1


@pytest.mark.parametrize("argv, needle", [
    (SIMULATE_SMALL + ["--out", "{missing}/snap.txt"], "cannot write"),
    (["simulate", "--h=1e308", "--theta", "0"], "h = 1e+308"),
], ids=["unwritable-out", "h-1e308"])
@pytest.mark.filterwarnings("error")
def test_simulate_faults_exit_1_without_traceback(tmp_path, capsys, argv, needle):
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["roots", "--h", "1", "--theta", "0.3", "--n", "3", "--branch", "all"],
    ["sweep", "--theta=0,0.3", "--n", "3", "--branch", "all"],
    ["sweep", "--n", "8", "--branch", "all"],
    ["theta-scan", "--steps", "3"],
    SIMULATE_SMALL,
], ids=["roots", "sweep", "sweep-n8", "theta-scan", "simulate"])
@pytest.mark.filterwarnings("error")
def test_unwritable_out_exits_1_before_any_solve(tmp_path, capsys, eig_calls, argv):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "table"))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write ") and "Traceback" not in err
    assert eig_calls.sizes == []


# sha256 of each command's stdout, captured while root_residual still warned
# that its |d_k|^2 overflowed: silencing the warning changed no byte
OVERFLOWING_RESIDUALS = {
    "roots --h=1e200 --theta 0.3":
        "53f8f57b7c9d274f0e93484324721836b2bbfdb44b846593afd57a305bf65963",
    "sweep --B=1e300":
        "d07035359d69482e8d722e8432585f4110f8ac74427b7b3956b5338a6d858dac",
    "sweep --h-range=1:1e307:3 --log":
        "71435bc5b0a411fd1e8644d4c197f4805f6bb6dfcdf33f8b7eba3d6d1cb64291",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", list(OVERFLOWING_RESIDUALS))
def test_residual_past_the_float_range_is_quiet_and_unchanged(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == OVERFLOWING_RESIDUALS[command]


# Commands that exit 0 with nothing on stderr, run in process with every
# warning raised as an error: a warning is shown once per code location in a
# process, so an earlier test could otherwise hide one that a fresh process prints
QUIET = [
    # the nonlinear collision substep, and at its widest lift, (4n x n) at n = 8
    "simulate --h 1 --theta 0.3 --n 3 --ppw 10 --wavelengths 4 --periods 2 --nonlinear",
    "simulate --h 1 --theta 0.3 --n 8 --B 0.5 --ppw 10 --wavelengths 4 --periods 2 --nonlinear",
    "roots --h 1 --theta 0.4 --n 3 --branch all",
    # one batched certificate per line, |d_k|^2 overflowing
    "sweep --h-range=1e100:1e300:5 --log --n 3 --branch all",
    # a top exactly at the top-of-line bound, h_b = 4: seeded from the last seed row above it
    "roots --h 4 --theta 0.3 --n 8 --branch all",
    # a line whose top lies just above h_b = 4: no seed row
    "sweep --h-range=1:4.5:5 --log --theta 0 --branch all",
    # a point just above h_b = 4: no seed grid is built
    "roots --h 4.5 --theta 0.3 --n 8 --branch all",
    # a deep point lookup: about 100 seed rows steer, one row is polished
    "roots --h 1e-12 --theta 0.3 --n 8 --branch all",
    # a line across h_b = 4 whose top lies above the seed grid's start
    "sweep --h-range=1e-4:1e8:13 --log --n 4 --branch all",
    # a nearly blocked Fermi line whose whole h_b range lies below h_b = 4
    "sweep --h-range=1e-2:1e4:9 --log --B=-0.99999 --n 3 --branch all",
    # at 45deg a line prints the acoustic lambda = 1 where a point lookup
    # (roots --h 1e-9) reports a degenerate crossing
    "sweep --theta=45deg --h-range=1e-9:1e-8:2 --branch all",
    # the n = 2 secondary at 45deg sits on two poles and clears them
    "roots --h 1 --theta 45deg --branch all",
    # peaks of every angle refined together, one angle per batch row
    "theta-scan --B 0.5 --n 3 --steps 9",
    "hmax --theta 0.3 --B=-0.3 --n 3 --h-range=1e-4:1e4",
    # roots dropped at a perpendicular velocity: NaN entries of the (K, n)
    # root array on a line, at a point and on the coarse grids
    "sweep --theta=90deg --h-range=1e-3:1e3:4 --log --branch all",
    # a long pick-table walk with a dropped root in every row
    "sweep --theta=90deg --h-range=1e-6:1e6:2000 --log --n 8 --branch all",
    # a peak refined next to the degenerate angle theta = 0
    "hmax --theta=1e-3 --B=-0.5 --n 4 --h-range=1e-4:1e4",
    # an exact exceptional point, printed as two roots: when it prints the
    # double root or exits 2, the strict xfail
    # test_roots_at_an_exact_ep_prints_the_double_root_or_exits_2 passes and
    # this row changes with it
    "roots --h 1 --theta 0 --n 4 --branch all",
    "theta-scan --n 4 --steps 5",
    # interior, escaped (inf), flat (0) and edge maxima, classified in one pass
    "theta-scan --B=0.5 --n 2 --steps 3",
    # a multi-line --branch all table built from the labelled columns
    "sweep --theta=0,45deg --B=-0.5,0.5 --h-range=1e-3:1e3:7 --log --n 3 --branch all",
    # every B line of an angle in one batch: tops on both sides of the
    # top-of-line bound h_b = 4, and a perpendicular velocity at 90deg
    "sweep --theta=0.3,90deg --B=-0.99999,0,0.5 --h-range=1e-3:1e5:9 --log --n 3 --branch all",
    "sweep --theta=0.3,90deg --B=-0.99999,0,0.5 --h-range=1e-3:1e5:9 --log --n 3 --branch all"
    " --format json",
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", QUIET)
def test_command_exits_0_with_nothing_on_stderr(capsys, command):
    code, _, err = run(capsys, *command.split())
    assert (code, err) == (0, "")


@pytest.mark.filterwarnings("error")
def test_default_sweep_is_the_log_grid_from_1e_2_to_1e2_at_40_steps(capsys):
    code, out, err = run(capsys, "sweep")
    assert (code, err) == (0, "") and len(out.splitlines()) == 1 + 40
    assert run(capsys, "sweep", "--h-range=1e-2:1e2:40", "--log") == (code, out, err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("h, n", [("0.5", "3"), ("1e-3", "8")])
def test_roots_prints_the_table_of_a_one_point_sweep(capsys, h, n, fmt):
    tail = ["--theta=0.3", f"--n={n}", "--branch=all", f"--format={fmt}"]
    code, out, err = run(capsys, "roots", f"--h={h}", *tail)
    assert (code, err) == (0, "")
    assert run(capsys, "sweep", f"--h-range={h}:{h}:2", *tail) == (code, out, err)


def roots_table(capsys, *argv):
    """The rows of a quiet `roots` command's CSV table, as lists of fields."""
    code, out, err = run(capsys, "roots", *argv)
    assert (code, err) == (0, "")
    return [line.split(",") for line in out.splitlines()[1:]]


@pytest.mark.filterwarnings("error")
def test_acoustic_root_at_the_hydrodynamic_end_keeps_h_lambda_i_at_one_quarter(capsys):
    # n >= 3, to 1e-12 relative
    [row] = roots_table(capsys, "--h", "1e10", "--theta", "0.3", "--n", "3")
    assert float(row[0]) * float(row[6]) == pytest.approx(0.25, rel=1e-12, abs=0)


@pytest.mark.filterwarnings("error")
def test_free_streaming_roots_next_to_their_poles_keep_lambda_i_non_negative(capsys):
    rows = roots_table(capsys, "--h", "1e-18", "--theta", "0.3", "--n", "8", "--branch", "all")
    assert len(rows) == 8
    assert all(float(row[6]) >= 0 for row in rows), rows
