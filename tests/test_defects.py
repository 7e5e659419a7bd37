"""The defect ledger: each known, re-run defect as a strict xfail.

Every case asserts the correct behaviour, so it XFAILs while the defect
stands and XPASSes (failing the suite, since the marks are strict) once a
fix lands; that fix then drops the mark.  Each reason quotes the output
the program gives today and the ROADMAP item that fixes it.  Every case
fails in milliseconds.
"""

import csv
import io
import math

import numpy as np
import pytest

from bosewave import ModelConfig
from bosewave import dispersion as dsp
from bosewave import simulate as sim
from conftest import limit_terms, run


def xfail(reason: str):
    return pytest.mark.xfail(strict=True, reason=reason)


def table(out: str) -> list:
    return list(csv.DictReader(io.StringIO(out)))


@xfail("exits 2, 'mode shape undefined: resolvent denominator below 1e-12'; item 11")
def test_simulate_at_a_degenerate_angle_runs(capsys):
    code, _, _ = run(capsys, "simulate", "--n", "8", "--theta", "0", "--h", "0.3")
    assert code == 0


@xfail("exits 2, 'two roots within 1e-08 of each other near u = 1+4.90719e-23j: "
       "degenerate crossing'; item 11")
def test_roots_at_45deg_and_tiny_h_prints_the_undamped_root(capsys):
    code, out, _ = run(capsys, "roots", "--h", "1e-9", "--theta", "45deg")
    assert code == 0
    (row,) = table(out)
    assert complex(float(row["lambda_r"]), float(row["lambda_i"])) == pytest.approx(1.0)


@xfail("0.76632 + 0.03822i, a root of the wrong sector; item 11")
def test_acoustic_root_at_theta_0_n_8_is_the_coupled_sector_root():
    assert abs(dsp.acoustic_root(0.1, 0.0, 8).lam - (0.76619 + 0.02851j)) < 1e-4


def test_roots_at_huge_h_prints_lambda_r_1(capsys):
    code, out, _ = run(capsys, "roots", "--h=1e30", "--theta", "0")
    assert code == 0
    (row,) = table(out)
    assert abs(float(row["lambda_r"]) - 1.0) < 1e-12


def test_hmax_over_the_float_range_finds_the_exact_peak(capsys):
    code, out, _ = run(capsys, "hmax", "--theta", "0", "--h-range=1e-150:1e150")
    assert code == 0
    h_max = float(out.splitlines()[0].split("=")[1])
    assert abs(h_max - math.sqrt(20.0 / 7.0)) < 1e-10 * math.sqrt(20.0 / 7.0)


@xfail("exits 0 with lambda_i_max = 0.19494474512960308, where acoustic_root at the "
       "printed h_max (1 + B) gives lambda_i = 0.12453837549335264, 36 % below it; "
       "items 5 and 17")
def test_wide_range_hmax_prints_the_point_lookups_lambda_i_or_exits_2(capsys):
    theta, B = 1.8837411675069937, 0.42797398096906025
    code, out, _ = run(capsys, "hmax", f"--theta={theta!r}", f"--B={B!r}", "--n=8",
                       "--branch=acoustic",
                       "--h-range=7.336642078597943e-33:1.1693379618500136e+108")
    if code == 2:
        return
    assert code == 0
    printed = dict(line.split(" = ") for line in out.splitlines())
    want = dsp.acoustic_root(float(printed["h_max"]) * (1.0 + B), theta, 8).lam.imag
    assert abs(float(printed["lambda_i_max"]) - want) <= 1e-9 * abs(want)


@xfail("prints lambda_i = 7.5e-251, 3 times the limit 2.5e-251, with residual "
       "1.1e-16; item 7")
def test_roots_at_h_1e250_is_the_limit_or_exits_2(capsys):
    code, out, _ = run(capsys, "roots", "--h", "1e250", "--theta", "30deg", "--n", "3")
    if code == 2:
        return
    assert code == 0
    (row,) = table(out)
    limit = limit_terms(math.pi / 6, 3)[0]
    assert abs(float(row["h"]) * float(row["lambda_i"]) - limit) < 1e-10 * limit


@pytest.mark.parametrize("h", [
    pytest.param("1e14", marks=xfail(
        "exits 0 with 2 rows, acoustic and secondary(1) = 5443667.41 + 5443667.41i: the "
        "mu cut drops 2 secondaries as roots at infinity; item 7")),
    pytest.param("1e16", marks=xfail(
        "exits 0 with 1 row, the acoustic root: the mu cut drops 3 secondaries as roots "
        "at infinity; item 7")),
])
def test_roots_at_large_h_prints_every_root_or_exits_2(capsys, h):
    code, out, _ = run(capsys, "roots", "--h", h, "--theta", "0.3", "--n", "4",
                       "--branch", "all")
    if code == 2:
        return
    assert code == 0
    residuals = [float(row["residual"]) for row in table(out)]
    assert len(residuals) == 4 and all(r < 1e-9 for r in residuals), residuals


@xfail("lambda_i = -4.3e-18; item 7")
def test_acoustic_lambda_i_is_not_negative_next_to_45deg():
    assert dsp.acoustic_root(30.0, math.pi / 4 + 1e-9, 2).lam.imag >= 0.0


@xfail("lambda_i = 0.0 with residual 4.4e-101, a certified wrong attenuation; item 7")
def test_acoustic_lambda_i_keeps_the_free_streaming_identity_at_h_b_1e_100():
    # lambda_i = (1 - 1/n) h_b/(2 sqrt(w_j)) = 3.4976e-101 (test_limits)
    lam = dsp.acoustic_root(1e-100, 0.3, 8).lam
    w = 2.0 * dsp._cos2(0.3, 8)
    w_j = w[np.argmin(np.abs(lam.real - 1.0 / np.sqrt(w)))]
    want = (1.0 - 1.0 / 8) * 1e-100 / (2.0 * math.sqrt(w_j))
    assert abs(lam.imag - want) <= 1e-12 * want


@pytest.mark.parametrize("h_b, theta, n, want", [
    pytest.param(0.4, 0.58934, 4, 0.75197 + 0.10467j,
                 marks=xfail("0.85810 + 0.12142i, the neighbouring root; items 5 and 17")),
    pytest.param(0.2, 0.3, 8, 0.74377 + 0.06295j,
                 marks=xfail("0.80229 + 0.06923i, the neighbouring root; items 5 and 17")),
])
def test_acoustic_root_keeps_its_branch_across_the_ep_annulus(h_b, theta, n, want):
    assert abs(dsp.acoustic_root(h_b, theta, n).lam - want) < 1e-4


@xfail("exits 0 with the double root printed twice: acoustic 2.8e-9 and secondary(2) "
       "5.1e-9 relative from it, 1.4e-8 apart in u; item 5")
def test_roots_at_an_exact_ep_prints_the_double_root_or_exits_2(capsys):
    # n = 4, theta = 0: w = (2, 1, 0, 1), R'(nu) = 0 at nu_c = 1.5 + 0.5i
    # with R(nu_c) = -4i, so h_EP = 1 and the acoustic root is the double
    # root u = (1 + i)/nu_c = 0.8 + 0.4i
    code, out, _ = run(capsys, "roots", "--h", "1", "--theta", "0", "--n", "4",
                       "--branch", "all")
    if code == 2:
        return
    assert code == 0
    row = table(out)[0]
    want = complex(0.8 + 0.4j) ** 0.5
    lam = complex(float(row["lambda_r"]), float(row["lambda_i"]))
    assert row["branch"] == "acoustic" and abs(lam - want) < 1e-12 * abs(want)


def test_sweep_at_huge_h_prints_only_certified_rows(capsys):
    code, out, _ = run(capsys, "sweep",
                       "--h-range=3.6360953919047033e+199:1.6390517086262711e+286:14", "--log",
                       "--theta=0.5235987765982988", "--B=0.7812899961635106", "--n=3")
    assert code == 0
    residuals = np.array([float(row["residual"]) for row in table(out)])
    assert len(residuals) == 14 and (residuals < 1e-9).all(), residuals


@pytest.mark.parametrize("n, theta", [(2, math.pi / 2 - 1e-9), (3, math.pi / 6 + 1e-9)])
def test_forced_run_next_to_a_perpendicular_velocity_has_a_short_transient(n, theta):
    # the transient a default nonlinear run plans for 4 wavelengths at 10
    # points each, read from its plan without running
    cfg = ModelConfig.from_reduced(n, theta, 1.2525285437021076, 0.0)
    plan = sim._plan_forced(cfg, 4, 10, 2, "nonlinear", 1e-3, "mode", sim.CFL_LIMIT,
                            2.0, None)
    assert plan.record[0] // plan.steps_per_period <= 100
