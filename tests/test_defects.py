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
from test_cli import run
from test_limits import limit_terms


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


@xfail("prints lambda_r = 7450580.6: the polish spoils the hydrodynamic end; item 20")
def test_roots_at_huge_h_prints_lambda_r_1(capsys):
    code, out, _ = run(capsys, "roots", "--h=1e30", "--theta", "0")
    assert code == 0
    (row,) = table(out)
    assert abs(float(row["lambda_r"]) - 1.0) < 1e-12


@xfail("prints h_max = 4.37e123, a spurious peak of the spoiled hydrodynamic end; item 20")
def test_hmax_over_the_float_range_finds_the_exact_peak(capsys):
    code, out, _ = run(capsys, "hmax", "--theta", "0", "--h-range=1e-150:1e150")
    assert code == 0
    h_max = float(out.splitlines()[0].split("=")[1])
    assert abs(h_max - math.sqrt(20.0 / 7.0)) < 1e-10 * math.sqrt(20.0 / 7.0)


@xfail("prints lambda = 5.77e124 (1 + i) with residual 1.8e15; items 7 and 20")
def test_roots_at_h_1e250_is_the_limit_or_exits_2(capsys):
    code, out, _ = run(capsys, "roots", "--h", "1e250", "--theta", "30deg", "--n", "3")
    if code == 2:
        return
    assert code == 0
    (row,) = table(out)
    limit = limit_terms(math.pi / 6, 3)[0]
    assert abs(float(row["h"]) * float(row["lambda_i"]) - limit) < 1e-10 * limit


@xfail("lambda_i = -4.3e-18; item 7")
def test_acoustic_lambda_i_is_not_negative_next_to_45deg():
    assert dsp.acoustic_root(30.0, math.pi / 4 + 1e-9, 2).lam.imag >= 0.0


@pytest.mark.parametrize("h_b, theta, n, want", [
    pytest.param(0.4, 0.58934, 4, 0.75197 + 0.10467j,
                 marks=xfail("0.85810 + 0.12142i, the neighbouring root; items 5 and 17")),
    pytest.param(0.2, 0.3, 8, 0.74377 + 0.06295j,
                 marks=xfail("0.80229 + 0.06923i, the neighbouring root; items 5 and 17")),
])
def test_acoustic_root_keeps_its_branch_across_the_ep_annulus(h_b, theta, n, want):
    assert abs(dsp.acoustic_root(h_b, theta, n).lam - want) < 1e-4


@xfail("exits 0 with 7 of its 14 rows uncertified: 3 residuals NaN and 4 about 1.4e15; "
       "items 7 and 20")
def test_sweep_at_huge_h_prints_only_certified_rows(capsys):
    code, out, _ = run(capsys, "sweep",
                       "--h-range=3.6360953919047033e+199:1.6390517086262711e+286:14", "--log",
                       "--theta=0.5235987765982988", "--B=0.7812899961635106", "--n=3")
    assert code == 0
    residuals = np.array([float(row["residual"]) for row in table(out)])
    assert len(residuals) == 14 and (residuals < 1e-9).all(), residuals


@pytest.mark.parametrize("n, theta", [
    pytest.param(2, math.pi / 2 - 1e-9, marks=xfail(
        "2,828,426,723 periods, from the transient rule (the run never ends); item 21")),
    pytest.param(3, math.pi / 6 + 1e-9, marks=xfail(
        "2,828,427,697 periods, from the transient rule (the run never ends); item 21")),
])
def test_forced_run_next_to_a_perpendicular_velocity_has_a_short_transient(n, theta):
    # the transient run_forced chooses for 4 wavelengths at 10 points each,
    # read from its rule without running
    cfg = ModelConfig.from_reduced(n, theta, 1.2525285437021076, 0.0)
    L = 4 * 10 * (sim.hydrodynamic_wavelength(cfg) / 10)
    T = 2.0 * math.pi / cfg.omega
    assert sim._transient_periods(sim.build_lattice(cfg).x_speeds, L, T) <= 100
