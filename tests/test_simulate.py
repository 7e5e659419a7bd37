import functools
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bosewave import dispersion as dsp
from bosewave import simulate as sim
from bosewave.errors import (
    CFLError,
    DomainError,
    FitError,
    InstabilityError,
    PositivityError,
)
from bosewave.model import ModelConfig

SQRT2 = math.sqrt(2.0)

# frozen acoustic root at (theta=0, h_b=1): sqrt((1+i)/(2+i))
LAMBDA_H1_T0 = 0.7850017617921874 + 0.1273882491316916j


def make_config(theta=0.0, h=1.0, B=0.0, n=2):
    return ModelConfig.from_reduced(n=n, theta=theta, h=h, B=B)


def make_field(config, M=128, dx=0.1, P=None, t=0.0):
    if P is None:
        P = np.zeros((2 * config.n, M))
    return sim.WaveField(P=P, dx=dx, t=t, config=config)


# ----------------------------------------------------------------- lattice

def test_lattice_theta0():
    lat = sim.build_lattice(make_config(theta=0.0))
    np.testing.assert_array_equal(lat.x_speeds, [1.0, 0.0, -1.0, 0.0])


def test_lattice_pi4():
    lat = sim.build_lattice(make_config(theta=math.pi / 4))
    r = math.sqrt(2) / 2
    np.testing.assert_allclose(lat.x_speeds, [r, -r, -r, r], rtol=1e-15)


def test_lattice_n3():
    lat = sim.build_lattice(make_config(theta=0.0, n=3))
    np.testing.assert_allclose(lat.x_speeds, [1, 0.5, -0.5, -1, -0.5, 0.5],
                               rtol=1e-14, atol=1e-16)


def test_lattice_pairs_negate_and_sum_to_zero():
    lat = sim.build_lattice(make_config(theta=0.37, n=4))
    n = lat.n
    np.testing.assert_array_equal(lat.x_speeds[n:], -lat.x_speeds[:n])
    assert abs(np.sum(lat.x_speeds)) < 1e-15


# ------------------------------------------------------------ linear steps

def test_pure_advection_translates_profile():
    # S ~ 0: collisions negligible, the driven component just translates
    cfg = ModelConfig(n=2, theta=0.0, c=1.0, S=1e-12, N0=1.0, omega=1.0,
                      gamma=0.0)
    M, dx = 256, 0.1
    x = np.arange(M) * dx
    sigma = 10 * dx
    x0 = M * dx / 4
    P = np.zeros((4, M))
    P[0] = np.exp(-0.5 * ((x - x0) / sigma) ** 2)
    field = make_field(cfg, M=M, dx=dx, P=P)
    dt = 0.09
    steps = 100
    for _ in range(steps):
        field = sim.step_linear(field, dt, bc="periodic")
    shift = steps * dt  # speed c = 1
    expected = np.exp(-0.5 * ((np.mod(x - x0 - shift, M * dx)
                               + M * dx / 2) % (M * dx) - M * dx / 2) ** 2
                      / sigma ** 2)
    # second-order scheme on a smooth profile: small shape error
    assert np.max(np.abs(field.P[0] - expected)) < 5e-3
    assert np.max(np.abs(field.P[2])) < 1e-10  # other components untouched


def test_collision_null_space_is_static():
    cfg = make_config(theta=0.3, h=2.0, B=0.5)
    M = 32
    P = np.zeros((4, M))
    P[0] = 0.07
    P[2] = -0.07   # P_m = -P_{m+n}, uniform, sum zero
    P[1] = 0.02
    P[3] = -0.02
    field = make_field(cfg, M=M, P=P.copy())
    for _ in range(20):
        field = sim.step_linear(field, 0.05, bc="periodic")
    np.testing.assert_array_equal(field.P, P)


def test_linear_periodic_mass_conserved_to_roundoff():
    rng = np.random.default_rng(5)
    cfg = make_config(theta=0.3, h=1.5, B=0.3)
    M = 200
    P = 0.01 * rng.standard_normal((4, M))
    field = make_field(cfg, M=M, P=P)
    total0 = field.P.sum()
    for _ in range(100):
        field = sim.step_linear(field, 0.05, bc="periodic")
    assert abs(field.P.sum() - total0) < 1e-13 * max(1.0, abs(total0)) + 1e-13


def test_cfl_violation_rejected():
    cfg = make_config(theta=0.0, h=1.0)
    field = make_field(cfg, dx=0.01)
    with pytest.raises(CFLError, match="x_speed"):
        sim.step_linear(field, 0.1)


def test_collision_rate_limit_rejected():
    cfg = make_config(theta=0.0, h=100.0)  # rate = h = 100
    field = make_field(cfg, dx=10.0)
    with pytest.raises(CFLError, match="4cSN0"):
        sim.step_linear(field, 0.05)


@pytest.mark.parametrize("step", [sim.step_linear, sim.step_nonlinear],
                         ids=["linear", "nonlinear"])
@pytest.mark.parametrize("name, bad", [
    ("dt", -0.05), ("dt", 0.0), ("dt", math.nan), ("dt", math.inf),
    ("dx", -0.1), ("dx", 0.0), ("dx", math.nan), ("dx", math.inf),
    ("P", (6, 16)), ("P", (2, 16)), ("P", (16,)), ("P", (4, 0)),
])
def test_step_rejects_inputs_outside_their_domain(step, name, bad):
    args = {"dt": 0.05, "dx": 0.1, "P": (4, 16)} | {name: bad}
    field = make_field(make_config(theta=0.3), dx=args["dx"], P=np.zeros(args["P"]))
    with pytest.raises(DomainError, match=f"^{name} must"):
        step(field, args["dt"], bc="open")


# --------------------------------------------------------- nonlinear steps

@pytest.mark.parametrize("theta", [0.0, 0.2])
@pytest.mark.parametrize("B", [-0.3, 0.0, 0.5])
@pytest.mark.parametrize("n", range(2, 9))
def test_equilibrium_is_fixed_point(n, B, theta):
    cfg = make_config(theta=theta, h=1.0, B=B, n=n)
    field = make_field(cfg, M=64)
    out = sim.step_nonlinear(field, 0.05, bc="periodic")
    np.testing.assert_array_equal(out.P, field.P)


def test_gamma_zero_matches_independent_classical_stepper():
    # reference stepper coded from the classical (gamma=0) collision term
    rng = np.random.default_rng(17)
    cfg = make_config(theta=0.3, h=1.2, B=0.0)
    assert cfg.gamma == 0.0
    n, M, dx, dt = cfg.n, 96, 0.12, 0.05
    P0 = 0.05 * rng.standard_normal((2 * n, M))
    field = make_field(cfg, M=M, dx=dx, P=P0.copy())
    stepped = sim.step_nonlinear(field, dt, bc="periodic")

    lat = sim.build_lattice(cfg)
    courant = lat.x_speeds * dt / dx
    Q = P0.copy()
    for i in range(2 * n):
        v = courant[i]
        if v == 0.0:
            continue
        w = abs(v)
        up1 = np.roll(P0[i], 1) if v > 0 else np.roll(P0[i], -1)
        up2 = np.roll(P0[i], 2) if v > 0 else np.roll(P0[i], -2)
        Q[i] = P0[i] - w * (P0[i] - up1) - 0.5 * w * (1 - w) * (P0[i] - 2 * up1 + up2)
    inn = np.arange(n, 3 * n) % (2 * n)
    cS = cfg.c * cfg.S

    def classical_rhs(P):
        N = cfg.N0 * (1.0 + P)
        pair = N * N[inn]
        return ((cS / n) * np.sum(pair, axis=0) - 2.0 * cS * pair) / cfg.N0

    k1 = classical_rhs(Q)
    k2 = classical_rhs(Q + 0.5 * dt * k1)
    k3 = classical_rhs(Q + 0.5 * dt * k2)
    k4 = classical_rhs(Q + dt * k3)
    ref = Q + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    np.testing.assert_allclose(stepped.P, ref, rtol=1e-14, atol=1e-17)


def test_nonlinear_step_linearizes_at_second_order():
    rng = np.random.default_rng(23)
    cfg = make_config(theta=0.25, h=1.5, B=0.5)
    M, dx, dt = 64, 0.12, 0.05
    base = rng.standard_normal((4, M))
    diffs = []
    eps_list = [1e-2, 1e-3, 1e-4]
    for eps in eps_list:
        field = make_field(cfg, M=M, dx=dx, P=eps * base)
        a = sim.step_nonlinear(field, dt, bc="periodic").P
        b = sim.step_linear(field, dt, bc="periodic").P
        diffs.append(np.max(np.abs(a - b)))
    slopes = np.diff(np.log(diffs)) / np.diff(np.log(eps_list))
    assert np.all(slopes > 1.9)


@pytest.mark.parametrize("n", range(2, 9))
def test_nonlinear_conservation_periodic(n):
    rng = np.random.default_rng(31)
    cfg = make_config(theta=0.3, h=1.0, B=0.5, n=n)
    M, dx, dt = 128, 0.12, 0.04
    P = 0.08 * rng.standard_normal((2 * n, M)) + 0.05
    field = make_field(cfg, M=M, dx=dx, P=P)
    speeds = sim.build_lattice(cfg).x_speeds[:, None]

    def totals(P):
        # correctly rounded sums: at n = 6 the net momentum is 0.03 of a
        # gross 500, and a plain sum's own rounding would be 2e-12 of it
        N = cfg.N0 * (1.0 + P)
        return math.fsum(N.ravel()), math.fsum((speeds * N).ravel())

    mass0, mom0 = totals(field.P)
    for _ in range(1000):
        field = sim.step_nonlinear(field, dt, bc="periodic")
    mass, mom = totals(field.P)
    assert abs(mass - mass0) / abs(mass0) < 1e-12
    assert abs(mom - mom0) / max(abs(mom0), 1e-3) < 1e-12


def test_positivity_loss_detected():
    cfg = make_config(theta=0.0, h=1.0)
    P = np.full((4, 16), -1.5)
    field = make_field(cfg, M=16, P=P)
    with pytest.raises(PositivityError):
        sim.step_nonlinear(field, 0.01, bc="periodic")


def test_positivity_lost_in_the_step_is_detected():
    # every density positive at the start; the huge first velocity's
    # collisions drain the others below N = 0 within the step
    cfg = make_config(theta=0.3, h=10.0)
    P = np.full((4, 16), -0.999)
    P[0] = 1000.0
    with pytest.raises(PositivityError, match="during nonlinear step"):
        sim.step_nonlinear(make_field(cfg, M=16, P=P), 0.01, bc="periodic")


# ------------------------------------------------------------ pair averages

def test_pair_averages_identity_and_cancellation():
    cfg = make_config(theta=0.1)
    M = 20
    x = np.arange(M) * 0.1
    P = np.zeros((4, M))
    P[0] = P[2] = 3.0 * x          # equal pair: D = same profile
    P[1] = x
    P[3] = -x                      # antisymmetric pair: D = 0
    field = make_field(cfg, M=M, P=P)
    D = sim.pair_averages(field)
    np.testing.assert_allclose(D[0], 3.0 * x, rtol=1e-15)
    np.testing.assert_allclose(D[1], np.zeros(M), atol=1e-15)


def test_pair_averages_matches_definition_on_random_field():
    rng = np.random.default_rng(3)
    cfg = make_config(theta=0.4, n=3)
    P = rng.standard_normal((6, 30))
    field = make_field(cfg, M=30, P=P)
    np.testing.assert_array_equal(sim.pair_averages(field),
                                  0.5 * (P[:3] + P[3:]))


# --------------------------------------------------------------- wave fit

def synthetic_series(k_r=2 * math.pi, k_i=0.1, M=481, dx=None, omega=1.0, snapshots=32):
    """A damped tone on a config driven at omega: k_r and k_i in units of
    omega, the default dx (L = 12 / omega) and the times in units of 1/omega."""
    cfg = ModelConfig.from_reduced(n=2, theta=0.0, h=1.0, B=0.0, omega=omega)
    if dx is None:
        dx = 12.0 / (M - 1) / omega
    x = np.arange(M) * dx
    fields = []
    for s in range(snapshots):
        t = (100.0 + s * 2 * math.pi / 32) / omega
        P = np.zeros((4, M))
        P[0] = np.exp(-k_i * omega * x) * np.sin(k_r * omega * x - omega * t)
        fields.append(sim.WaveField(P=P, dx=dx, t=t, config=cfg))
    return fields


def test_fit_wave_synthetic_oracle():
    series = synthetic_series()
    fit = sim.fit_wave(series, fit_window=(4.5, 11.5))
    assert fit.k_r == pytest.approx(2 * math.pi, abs=1e-6)
    assert fit.k_i == pytest.approx(0.1, abs=1e-6)
    lam = (fit.k_r + 1j * fit.k_i) / SQRT2
    assert fit.lambda_meas == pytest.approx(lam, rel=1e-12)
    assert fit.rms_residual < 1e-8


def test_fit_wave_rejects_a_backward_wave():
    with pytest.raises(FitError, match="k_r is not positive"):
        sim.fit_wave(synthetic_series(k_r=-2 * math.pi), fit_window=(4.5, 11.5))


def test_fit_wave_zero_field_fails():
    series = synthetic_series()
    zero = [sim.WaveField(P=np.zeros_like(f.P), dx=f.dx, t=f.t, config=f.config)
            for f in series]
    with pytest.raises(FitError):
        sim.fit_wave(zero, fit_window=(4.5, 11.5))


def uneven(series):
    """The series with one snapshot's time moved off the uniform spacing."""
    moved = series[5]
    series[5] = sim.WaveField(P=moved.P, dx=moved.dx, t=moved.t + 1e-3, config=moved.config)
    return series


@pytest.mark.parametrize("alter, window, needle", [
    (lambda series: series[:1], (4.5, 11.5), "at least two snapshots"),
    (uneven, (4.5, 11.5), "not uniformly spaced"),
    (lambda series: series, (4.5, 4.6), "fewer than 8 cells"),
], ids=["one-snapshot", "uneven", "narrow-window"])
def test_fit_wave_rejects_a_series_it_cannot_fit(alter, window, needle):
    with pytest.raises(FitError, match=needle):
        sim.fit_wave(alter(synthetic_series()), fit_window=window)


@pytest.mark.parametrize("omega, window, needle", [
    (math.nan, (4.5, 11.5), "omega"),
    (math.inf, (4.5, 11.5), "omega"),
    (0.0, (4.5, 11.5), "omega"),
    (-1.0, (4.5, 11.5), "omega"),
    (1.0, (math.nan, 11.5), "fit_window"),
    (1.0, (4.5, math.nan), "fit_window"),
    (1.0, (11.5, 4.5), "fit_window"),
    (1.0, (6.0, 6.0), "fit_window"),
], ids=["omega-nan", "omega-inf", "omega-zero", "omega-negative",
        "lo-nan", "hi-nan", "lo-above-hi", "lo-equals-hi"])
@pytest.mark.filterwarnings("error")
def test_fit_wave_rejects_bad_arguments_before_fitting(omega, window, needle):
    with pytest.raises(DomainError, match=needle):
        sim.fit_wave(synthetic_series(), omega=omega, fit_window=window)


def test_fit_wave_window_must_exclude_inlet_and_outlet():
    series = synthetic_series()
    with pytest.raises(DomainError):
        sim.fit_wave(series, fit_window=(0.5, 11.5))
    with pytest.raises(DomainError):
        sim.fit_wave(series, fit_window=(4.5, 12.0))


@pytest.mark.parametrize("omega", [1e-9, 1.0, 1e9])
def test_fit_wave_window_checks_scale_with_the_wavelength(omega):
    # L = 24 / omega holds 5.4 hydrodynamic wavelengths of 178 cells each;
    # a window from 0.9 wavelength, or ending half a cell before L, is
    # refused at every scale, and verify's (1, 3.5) wavelengths is fitted
    series = synthetic_series(M=961, dx=0.025 / omega, omega=omega)
    lam, dx = sim.hydrodynamic_wavelength(series[0].config), series[0].dx
    with pytest.raises(DomainError, match="inlet"):
        sim.fit_wave(series, fit_window=(0.9 * lam, 4.5 * lam))
    with pytest.raises(DomainError, match="outlet"):
        sim.fit_wave(series, fit_window=(lam, 960 * dx - 0.5 * dx))
    fit = sim.fit_wave(series, fit_window=(lam, 3.5 * lam))
    assert fit.k_r == pytest.approx(2 * math.pi * omega, rel=1e-6)
    assert fit.k_i == pytest.approx(0.1 * omega, rel=1e-4)


def test_fit_wave_under_resolved_phase_fails():
    # 3.4 cells per wavelength: phase steps ~1.8 rad exceed pi/2
    series = synthetic_series(M=41, dx=0.3)
    with pytest.raises(FitError, match="pi/2"):
        sim.fit_wave(series, fit_window=(4.5, 11.5))


@pytest.mark.parametrize("alter", [
    lambda f: replace(f, P=f.P[:, :-1]),
    lambda f: replace(f, P=f.P[:2]),
    lambda f: replace(f, dx=f.dx * (1 + 1e-12)),
    lambda f: replace(f, config=replace(f.config, B=0.5)),
], ids=["fewer-cells", "fewer-rows", "dx", "config"])
def test_fit_wave_rejects_snapshots_that_differ_from_the_first(alter):
    series = synthetic_series()
    series[7] = alter(series[7])
    with pytest.raises(DomainError, match="snapshot 7"):
        sim.fit_wave(series, fit_window=(4.5, 11.5))


def stacked_least_squares(series, omega):
    """Z by the joint least squares on the stacked (T, M) table of cell sums."""
    times = np.array([f.t for f in series])
    signal = np.stack([f.P.sum(axis=0) for f in series])
    tc = times - times.mean()
    basis = np.vstack([np.ones_like(tc), tc,
                       np.cos(omega * times), np.sin(omega * times)]).T
    coef, *_ = np.linalg.lstsq(basis, signal, rcond=None)
    return coef[2] + 1j * coef[3]


@functools.lru_cache(maxsize=None)
def small_forced_series(n, mode):
    return tuple(sim.run_forced(make_config(theta=0.3, h=1.0, B=0.2, n=n), wavelengths=4,
                                points_per_wavelength=12, periods=2, mode=mode))


@pytest.mark.filterwarnings("ignore:linear collision form")
@pytest.mark.parametrize("snapshots", [2, 3, 64])
@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
@pytest.mark.parametrize("n", [2, 3])
def test_one_pass_demodulation_is_the_stacked_least_squares(n, mode, snapshots):
    """At 2 and 3 snapshots the (T, 4) basis is rank-deficient, and both
    take its minimum-norm solution."""
    series = list(small_forced_series(n, mode)[-snapshots:])
    omega = series[0].config.omega
    want = stacked_least_squares(series, omega)
    got = sim._demodulate(series, np.array([f.t for f in series]), omega)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fit_wave_memory_does_not_grow_with_the_snapshot_count():
    """A snapshot of an n = 2, ppw 80 run holds 4 x 961 floats, 30.8 kB.
    Ten times the snapshots add less than a tenth of one snapshot per
    added snapshot to fit_wave's traced peak, and it stays below 0.5 MB."""
    peaks = []
    for snapshots in (32, 320):
        series = synthetic_series(M=961, snapshots=snapshots)
        sim.fit_wave(series, fit_window=(4.5, 11.5))
        tracemalloc.start()
        try:
            sim.fit_wave(series, fit_window=(4.5, 11.5))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (320 - 32) < 0.1 * series[0].P.nbytes
    assert peaks[1] < 0.5e6


# -------------------------------------------------------------- forced runs

def fitted_lambda(theta, h, B, ppw=40, mode="linear", eps=1e-3, **kw):
    cfg = make_config(theta=theta, h=h, B=B)
    series = sim.run_forced(cfg, points_per_wavelength=ppw, mode=mode,
                            eps=eps, **kw)
    return sim.fit_wave(series).lambda_meas


def test_forced_pi4_no_attenuation():
    cfg = make_config(theta=math.pi / 4, h=1.0, B=0.0)
    series = sim.run_forced(cfg)
    # downstream amplitude envelope flat within 1%
    omega = cfg.omega
    times = np.array([f.t for f in series])
    signal = np.stack([f.P.sum(axis=0) for f in series])
    Z = np.abs((2.0 / len(times)) * np.sum(
        signal * np.exp(1j * omega * times)[:, None], axis=0))
    x = np.arange(signal.shape[1]) * series[0].dx
    lam_est = 2 * math.pi / SQRT2
    win = (x > 1.5 * lam_est) & (x < x[-1] - 2 * series[0].dx)
    assert Z[win].max() / Z[win].min() - 1.0 < 0.01
    fit = sim.fit_wave(series)
    assert abs(fit.lambda_meas - 1.0) < 0.01


def test_forced_theta0_matches_dispersion_root():
    lam = fitted_lambda(0.0, 1.0, 0.0, ppw=40)
    assert abs(lam - LAMBDA_H1_T0) / abs(LAMBDA_H1_T0) < 0.03
    assert abs(lam.imag - LAMBDA_H1_T0.imag) / LAMBDA_H1_T0.imag < 0.05


def test_forced_grid_convergence_order():
    root = dsp.acoustic_root(1.0, 0.0, 2)
    errs = [abs(fitted_lambda(0.0, 1.0, 0.0, ppw=p) - root.lam)
            for p in (20, 40, 80)]
    assert errs[0] > errs[1] > errs[2]
    orders = np.diff(np.log(errs)) / np.log(0.5)
    assert np.all(orders >= 0.8)


def test_forced_nonlinear_approaches_linear():
    lam_lin = fitted_lambda(0.0, 1.0, 0.0)
    diffs = [abs(fitted_lambda(0.0, 1.0, 0.0, mode="nonlinear", eps=e) - lam_lin)
             for e in (1e-2, 1e-3, 1e-4)]
    assert diffs[0] > diffs[1] > diffs[2]
    slopes = np.diff(np.log(diffs)) / np.diff(np.log([1e-2, 1e-3, 1e-4]))
    assert np.all(slopes >= 1.0)


def test_forced_uniform_drive_agrees():
    cfg = make_config(theta=math.pi / 8, h=1.0, B=0.0)
    series = sim.run_forced(cfg, drive="uniform")
    lam = sim.fit_wave(series).lambda_meas
    root = dsp.acoustic_root(1.0, math.pi / 8, 2)
    assert abs(lam - root.lam) / abs(root.lam) < 0.03


def test_forced_n3_linear_warns_extrapolated():
    cfg = make_config(theta=0.2, h=1.0, B=0.0, n=3)
    with pytest.warns(RuntimeWarning, match="extrapolated"):
        sim.run_forced(cfg, wavelengths=6, periods=2, transient_periods=2)


@pytest.mark.parametrize("kw", [{"points_per_wavelength": 0},
                                {"points_per_wavelength": -3},
                                {"wavelengths": 0},
                                {"wavelengths": -1},
                                {"periods": 0},
                                {"periods": -2},
                                {"cfl": 0.0},
                                {"cfl": -0.5},
                                {"cfl": math.nan},
                                {"cfl": 1.0},
                                {"cfl": math.inf},
                                {"transient_periods": -1},
                                {"transient_periods": -5},
                                {"points_per_wavelength": 10.5},
                                {"wavelengths": 2.5},
                                {"periods": 1.5},
                                {"transient_periods": 1.5},
                                {"mode": "implicit"},
                                {"drive": "random"}])
def test_forced_rejects_empty_grid_before_running(monkeypatch, kw):
    def no_stepping(*args):
        raise AssertionError("stepped before checking the arguments")

    monkeypatch.setattr(sim, "_advection", no_stepping)
    with pytest.raises(DomainError, match=next(iter(kw))):
        sim.run_forced(make_config(), **kw)


def test_forced_takes_numpy_integer_counts():
    counts = dict(wavelengths=2, points_per_wavelength=8, periods=1, transient_periods=1)
    want = sim.run_forced(make_config(), **counts)
    got = sim.run_forced(make_config(), **{k: np.int64(v) for k, v in counts.items()})
    assert [f.P.tobytes() for f in got] == [f.P.tobytes() for f in want]
    assert [f.t for f in got] == [f.t for f in want]


# ----------------------------------------------- second-order-form residual

def test_pair_average_dynamics_match_second_order_form():
    # Evolve the linear system, then check the D_m wave-equation residual
    # (d_tt - c^2 cos^2 d_xx + rate*d_t) D_m = (rate/n) sum_k d_t D_k
    # shrinks under refinement.
    def residual_norm(refine):
        cfg = make_config(theta=0.3, h=1.0, B=0.5)
        M = 64 * refine
        dx = 12.8 / M
        dt = 0.3 * dx
        x = np.arange(M) * dx
        P = np.zeros((4, M))
        k0 = 2 * math.pi / (M * dx)
        for i, amp in enumerate((0.01, 0.004, -0.007, 0.002)):
            P[i] = amp * np.sin(3 * k0 * x + 0.7 * i)
        field = make_field(cfg, M=M, dx=dx, P=P)
        snaps = []
        for _ in range(7):
            snaps.append(sim.pair_averages(field))
            field = sim.step_linear(field, dt, bc="periodic")
        D = np.stack(snaps)          # (T, n, M)
        rate = 4 * cfg.c * cfg.S * cfg.N0 * (1 + cfg.B)
        lat = sim.build_lattice(cfg)
        cos2 = (lat.x_speeds[:2] / cfg.c) ** 2
        d_t = (D[2:] - D[:-2]) / (2 * dt)
        d_tt = (D[2:] - 2 * D[1:-1] + D[:-2]) / dt ** 2
        d_xx = (np.roll(D, -1, axis=2) - 2 * D + np.roll(D, 1, axis=2))[1:-1] / dx ** 2
        coupling = (rate / 2) * d_t.sum(axis=1, keepdims=True)
        res = d_tt - cfg.c ** 2 * cos2[None, :, None] * d_xx + rate * d_t - coupling
        return np.sqrt(np.mean(res[2] ** 2))

    coarse = residual_norm(1)
    fine = residual_norm(2)
    assert fine < coarse / 1.5


# ------------------------------------------------------------- snapshot dump

def test_dump_snapshot_format_and_stride(tmp_path):
    cfg = make_config(theta=0.1, h=1.0, B=0.5)
    M = 10
    P = np.arange(4 * M, dtype=float).reshape(4, M) / 100.0
    field = sim.WaveField(P=P, dx=0.25, t=1.5, config=cfg)
    path = tmp_path / "snap.txt"
    sim.dump_snapshot(field, path, stride=2)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# bosewave snapshot:")
    assert "theta=" in lines[0] and "t=1.5" in lines[0]
    assert lines[1].split() == ["#", "x", "P_1", "P_2", "P_3", "P_4"]
    rows = lines[2:]
    assert len(rows) == 5  # stride 2 over 10 cells
    first = rows[0].split()
    assert float(first[0]) == 0.0
    assert float(first[1]) == P[0, 0]
    # deterministic bytes
    path2 = tmp_path / "snap2.txt"
    sim.dump_snapshot(field, path2, stride=2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("stride", [0, -2, 1.5])
def test_dump_snapshot_rejects_a_bad_stride(tmp_path, stride):
    field = make_field(make_config(), M=4)
    with pytest.raises(DomainError, match="stride"):
        sim.dump_snapshot(field, tmp_path / "snap.txt", stride=stride)
    assert not (tmp_path / "snap.txt").exists()


def test_dump_snapshot_unwritable_path_is_a_domain_error(tmp_path):
    field = make_field(make_config(), M=4)
    with pytest.raises(DomainError, match="cannot write"):
        sim.dump_snapshot(field, tmp_path / "missing" / "snap.txt")


# ------------------------------------------- pair form, propagator, roll

def two_n_row_rhs(cfg, P):
    """The collision term over all 2n rows, indices cyclic (module docstring)."""
    n, p2 = cfg.n, 2 * cfg.n
    g, cS = cfg.gamma, cfg.c * cfg.S
    N = cfg.N0 * (1.0 + P)
    pair = np.empty_like(N)
    for i in range(p2):
        pair[i] = (N[i] * N[(i + n) % p2] * (1.0 + g * N[(i + 1) % p2])
                   * (1.0 + g * N[(i + n + 1) % p2]))
    return ((cS / n) * pair.sum(axis=0) - 2.0 * cS * pair) / cfg.N0


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("B", [-0.5, 0.0, 0.7])
def test_pair_form_rhs_matches_two_n_row_formula(n, B):
    """One collision substep's increment is four-stage RK4 of the 2n-row term."""
    dt = 0.04
    P = np.random.default_rng(n).uniform(-0.5, 0.5, (2 * n, 40))
    for theta in (0.0, 0.3, math.pi / 2):
        cfg = make_config(theta=theta, h=1.2, B=B, n=n)
        collide = sim._collision_substep(cfg, dt)
        got = collide(P) - P
        k1 = two_n_row_rhs(cfg, P)
        k2 = two_n_row_rhs(cfg, P + 0.5 * dt * k1)
        k3 = two_n_row_rhs(cfg, P + 0.5 * dt * k2)
        k4 = two_n_row_rhs(cfg, P + dt * k3)
        want = (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        # both rows of a pair get one increment: bitwise so where the pair
        # members are equal
        same = collide(np.vstack([P[:n], P[:n]]))
        np.testing.assert_array_equal(same[:n], same[n:])
        # normwise: gain and loss cancel, so entries near zero carry the
        # rounding of the O(1) terms
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), theta


def two_product_collide(config, dt):
    """The collision substep with the factors kept as one (2, 2, n, M) array:
    a (2n, n) lift broadcast onto both members of a pair, and Q formed by
    two products per stage."""
    n = config.n
    gN0 = config.gamma * config.N0
    loss = 2.0 * config.c * config.S * config.N0
    G = np.full((n, n), loss / n)
    G[np.diag_indices(n)] -= loss
    lift = np.vstack([G, gN0 * np.roll(G, -1, axis=0)])
    stages = (0.5 * dt * lift, 0.5 * dt * lift, dt * lift)
    combine = (dt / 6.0) * np.hstack([G, 2 * G, 2 * G, G])

    def collide(P):
        M = P.shape[1]
        Z = np.empty((2, 2 * n, M))
        Z[0] = P + 1.0
        Z[1] = 1.0 + gN0 * np.roll(Z[0], -1, axis=0)
        Z = Z.reshape(2, 2, n, M)
        stage, Qc = Z, np.empty((4, n, M))
        for i in range(4):
            pairs = stage[:, 0] * stage[:, 1]
            Q = pairs[0] * pairs[1]
            Qc[i] = Q - Q[0]
            if i < 3:
                stage = Z + (stages[i] @ Qc[i]).reshape(2, 1, n, M)
        step = combine @ Qc.reshape(4 * n, M)
        return (P.reshape(2, n, M) + step).reshape(2 * n, M)

    return collide


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("B", [-0.5, 0.0, 0.7])
def test_collide_matches_the_two_product_stage_form(n, B):
    """The one-reduction stages move only the rounding of the two-product
    ones: the increments agree normwise to 1e-14 of the largest."""
    dt = 0.04
    P = np.random.default_rng(n).uniform(-0.5, 0.5, (2 * n, 40))
    for theta in (0.0, 0.3, math.pi / 2):
        cfg = make_config(theta=theta, h=1.2, B=B, n=n)
        got = sim._collision_substep(cfg, dt)(P) - P
        want = two_product_collide(cfg, dt)(P) - P
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), theta


@pytest.mark.parametrize("bc", ["periodic", "open"])
def test_step_linear_is_four_stage_rk4_of_the_collision_operator(bc):
    cfg = make_config(theta=0.3, h=1.5, B=0.4, n=3)
    n, p2, M, dx, dt = cfg.n, 2 * cfg.n, 50, 0.12, 0.05
    P = 0.01 * np.random.default_rng(3).standard_normal((p2, M))
    got = sim.step_linear(make_field(cfg, M=M, dx=dx, P=P), dt, bc=bc).P

    kappa = 2.0 * cfg.c * cfg.S * cfg.N0 * (1.0 + cfg.B)
    L = np.full((p2, p2), kappa / n) - kappa * (np.eye(p2) + np.roll(np.eye(p2), n, axis=1))
    Q = sim._advection(sim.build_lattice(cfg).x_speeds * dt / dx, M, bc)(P)
    k1 = L @ Q
    k2 = L @ (Q + 0.5 * dt * k1)
    k3 = L @ (Q + 0.5 * dt * k2)
    k4 = L @ (Q + dt * k3)
    want = Q + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def roll_advect(P, courant):
    """Periodic Beam-Warming update, one np.roll per row and upwind offset."""
    Q = P.copy()
    for i in range(P.shape[0]):
        v = courant[i]
        if v == 0.0:
            continue
        w = abs(v)
        up1 = np.roll(P[i], 1) if v > 0 else np.roll(P[i], -1)
        up2 = np.roll(P[i], 2) if v > 0 else np.roll(P[i], -2)
        Q[i] = P[i] - w * (P[i] - up1) - 0.5 * w * (1 - w) * (P[i] - 2 * up1 + up2)
    return Q


def loop_advect_open(P, courant):
    """Open-boundary Beam-Warming update, one row at a time.

    The upwind end node keeps P (inflow condition or zeroth-order
    extrapolated ghost) and the node next to it is first order.
    """
    Q = P.copy()
    for i in range(P.shape[0]):
        v = courant[i]
        if v > 0:
            Q[i, 1:] -= v * (P[i, 1:] - P[i, :-1])
            Q[i, 2:] -= 0.5 * v * (1 - v) * (P[i, 2:] - 2 * P[i, 1:-1] + P[i, :-2])
        elif v < 0:
            w = -v
            Q[i, :-1] -= w * (P[i, :-1] - P[i, 1:])
            Q[i, :-2] -= 0.5 * w * (1 - w) * (P[i, :-2] - 2 * P[i, 1:-1] + P[i, 2:])
    return Q


@pytest.mark.parametrize("bc, reference", [("periodic", roll_advect),
                                           ("open", loop_advect_open)],
                         ids=["periodic", "open"])
@pytest.mark.parametrize("n, theta", [(2, 0.0), (2, 0.37), (3, 0.2), (3, math.pi / 2),
                                      (4, 0.0), (4, 0.6), (6, 0.1), (6, math.pi / 2)])
def test_periodic_advection_is_bitwise_the_per_row_roll(n, theta, bc, reference):
    speeds = sim.build_lattice(make_config(theta=theta, n=n)).x_speeds
    assert (speeds == 0.0).any() == (theta in (0.0, math.pi / 2))
    rng = np.random.default_rng(n)
    for top in (0.3, 0.9):
        courant = speeds * (top / np.max(np.abs(speeds)))
        for M in (1, 2, 3, 33):
            P = rng.standard_normal((2 * n, M))
            zeros = rng.random(P.shape) < 0.3
            P[zeros] = np.copysign(0.0, rng.standard_normal(zeros.sum()))
            got = sim._advection(courant, M, bc)(P)
            want = reference(P, courant)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


# lambda_meas of four small forced runs (4 wavelengths, 2 periods), captured
# with the four-stage RK4 and per-row stepping the simulator had before it
# used the pair form and the one-matrix propagator
FROZEN_FORCED = [
    ((2, 0.3, 1.0, 0.2), "linear", 16, 0.8445044509593453 + 0.1296275051234465j),
    ((2, 0.3, 1.0, 0.2), "nonlinear", 16, 0.8445045039938656 + 0.12962752709435005j),
    ((3, 0.05, 1.5, -0.3), "linear", 12, 0.8222341660043008 + 0.16947045850322437j),
    ((3, 0.05, 1.5, -0.3), "nonlinear", 12, 0.7987652827302579 + 0.17441664697212095j),
]


@pytest.mark.filterwarnings("ignore:linear collision form")
@pytest.mark.parametrize("point, mode, ppw, frozen", FROZEN_FORCED,
                         ids=[f"n{p[0]}-{m}" for p, m, _, _ in FROZEN_FORCED])
def test_forced_lambda_meas_frozen(point, mode, ppw, frozen):
    n, theta, h, B = point
    series = sim.run_forced(make_config(theta=theta, h=h, B=B, n=n), wavelengths=4,
                            points_per_wavelength=ppw, periods=2, mode=mode)
    lam = sim.fit_wave(series).lambda_meas
    assert abs(lam - frozen) <= 1e-10 * abs(frozen)


@pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, math.inf])
def test_forced_rejects_eps_outside_its_domain(monkeypatch, eps):
    def no_stepping(*args):
        raise AssertionError("stepped before checking eps")

    monkeypatch.setattr(sim, "_advection", no_stepping)
    with pytest.raises(DomainError, match="eps"):
        sim.run_forced(make_config(), wavelengths=4, points_per_wavelength=10,
                       periods=2, eps=eps)


@pytest.mark.parametrize("ramp_periods, error, needle", [
    (-1.0, DomainError, "ramp_periods"), (math.nan, DomainError, "ramp_periods"),
    (math.inf, DomainError, "ramp_periods"), ("2", TypeError, None)])
def test_forced_rejects_ramp_periods_outside_its_domain(monkeypatch, ramp_periods, error,
                                                        needle):
    def no_stepping(*args):
        raise AssertionError("stepped before checking ramp_periods")

    monkeypatch.setattr(sim, "_advection", no_stepping)
    with pytest.raises(error, match=needle):
        sim.run_forced(make_config(), wavelengths=4, points_per_wavelength=10,
                       periods=2, ramp_periods=ramp_periods)


def test_forced_run_with_no_ramp_is_bitwise_the_plain_loop():
    assert_forced_run_is_the_plain_loop("nonlinear", ramp_periods=0)


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_forced_nan_field_trips_the_instability_guard(monkeypatch, mode):
    monkeypatch.setattr(sim, "_advection",
                        lambda courant, M, bc: lambda P: np.full_like(P, math.nan))
    with pytest.raises(InstabilityError):
        sim.run_forced(make_config(), wavelengths=4, points_per_wavelength=10,
                       periods=2, mode=mode)


@pytest.mark.parametrize("mode, eps", [("linear", 1e-200), ("linear", 1e-3),
                                       ("linear", 1e200), ("nonlinear", 1e-200),
                                       ("linear", np.float32(1e30)),
                                       ("nonlinear", 1e-3), ("nonlinear", 1e-2)])
def test_forced_guard_trips_exactly_where_the_field_leaves_its_bounds(monkeypatch, mode,
                                                                     eps):
    """Every step's field is zero but for one value v at a cell the drive
    does not write, and the drive's own values stay inside both bounds:
    the run raises what the bounds say about v alone, with or without the
    sum-of-squares screen (off at eps = 1e-200, where the bound's square
    underflows, and at 1e200, where it overflows; a float32 eps is taken
    as a Python float)."""
    bound = sim.INSTABILITY_FACTOR * eps
    above, below_minus_one = np.nextafter(bound, math.inf), np.nextafter(-1.0, -math.inf)
    values = [0.0, 0.7 * bound, bound, -bound, above, -above, -1.0, below_minus_one,
              math.inf, -math.inf, math.nan]
    for v in values:
        field = np.zeros((4, 41))
        field[1, 20] = v

        def kernels(*args):
            return (lambda P: field.copy()), (lambda P: P)

        monkeypatch.setattr(sim, "_build_kernels", kernels)
        if mode == "nonlinear" and v <= -1.0:
            want = PositivityError
        elif not -bound <= v <= bound:
            want = InstabilityError
        else:
            want = None
        run = functools.partial(sim.run_forced, make_config(theta=0.3), wavelengths=4,
                                points_per_wavelength=10, periods=1, mode=mode,
                                eps=eps, transient_periods=0)
        if want is None:
            assert len(run()) == 32, v
        else:
            with pytest.raises(want):
                run()


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
@pytest.mark.parametrize("late", [False, True], ids=["same-block", "next-block"])
def test_forced_guard_trips_on_the_step_after_a_failed_screen(monkeypatch, mode, late):
    """Step 1's field is inside both bounds but too large for the
    sum-of-squares screen; a later step's field is past the instability
    bound.  The run raises on that very step, whether it falls in step 1's
    drive block (where the screen is off after step 1) or in the next one
    (where the screen is tried again)."""
    calls = []
    steps = []

    def kernels(config, x_speeds, dt, dx, M, bc, mode):
        steps.append(round(2.0 * math.pi / config.omega / dt))

        def advect(P):
            calls.append(None)
            field = np.zeros_like(P)
            if len(calls) == 1:
                field[1, 20] = 0.9
            elif len(calls) == bad:
                field[1, 20] = 2.0
            return field

        return advect, (lambda P: P)

    monkeypatch.setattr(sim, "_build_kernels", kernels)
    run = functools.partial(sim.run_forced, make_config(theta=0.3), wavelengths=4,
                            points_per_wavelength=10, periods=2, mode=mode,
                            eps=1e-3, transient_periods=0)
    bad = 0
    run(periods=1)                               # learns the steps per period
    bad, calls[:] = steps[0] + 2 if late else 3, []
    with pytest.raises(InstabilityError):
        run()
    assert len(calls) == bad


def test_forced_rejects_a_step_count_past_the_float_range(monkeypatch):
    def no_stepping(*args):
        raise AssertionError("stepped before checking the step count")

    monkeypatch.setattr(sim, "_advection", no_stepping)
    with pytest.raises(DomainError, match=r"h = 1e\+308"):
        sim.run_forced(make_config(h=1e308), wavelengths=4, points_per_wavelength=10,
                       periods=2)


@pytest.mark.filterwarnings("ignore:linear collision form")
def test_forced_work_bound_is_the_planned_row_cell_updates(monkeypatch):
    """A run planning exactly MAX_FORCED_WORK row-cell updates (steps * M *
    2n) runs; one update fewer allowed raises before any step."""
    steps = []

    def advect(P):
        steps.append(None)
        return P.copy()

    monkeypatch.setattr(sim, "_build_kernels", lambda *args: (advect, lambda P: P))
    run = functools.partial(sim.run_forced, make_config(theta=0.3, n=3), wavelengths=4,
                            points_per_wavelength=10, periods=1, transient_periods=2)
    run()
    total = len(steps)
    assert total < 1000     # so the message prints it in full
    monkeypatch.setattr(sim, "MAX_FORCED_WORK", total * 41 * 6)
    assert len(run()) == 32
    monkeypatch.setattr(sim, "MAX_FORCED_WORK", total * 41 * 6 - 1)
    steps.clear()
    with pytest.raises(DomainError, match=f"plans {total} steps"):
        run()
    assert steps == []


@pytest.mark.filterwarnings("ignore:linear collision form")
@pytest.mark.parametrize("n, theta, h, needle", [
    (2, 0.0, 1e12, r"h = 1e\+12, theta = 0.0: the run plans 1.51e\+14 steps"),
    # steps per period just inside the float range, counts past it
    (2, 0.0, 1e307, r"plans 1.5e\+309 steps .* 2.47e\+311 row-cell updates"),
    # the two near-perpendicular runs of the defect ledger: 2.8e9 periods
    (2, math.pi / 2 - 1e-9, 1.2525285437021076, r"2828426723 transient"),
    (3, math.pi / 6 + 1e-9, 1.2525285437021076, r"2828427697 transient"),
])
def test_forced_rejects_a_run_past_the_work_bound_before_its_drive(monkeypatch, n,
                                                                   theta, h, needle):
    def no_work(*args):
        raise AssertionError("solved or stepped before checking the work bound")

    monkeypatch.setattr(sim, "_mode_drive_weights", no_work)
    monkeypatch.setattr(sim, "_build_kernels", no_work)
    with pytest.raises(DomainError, match=needle):
        sim.run_forced(make_config(theta=theta, h=h, n=n), wavelengths=4,
                       points_per_wavelength=10, periods=2)


@pytest.mark.filterwarnings("ignore:linear collision form")
@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_a_forced_run_builds_its_lattice_once(monkeypatch, mode):
    lattices = []

    def counting_lattice(config):
        lattices.append(config)
        return build_lattice(config)

    build_lattice = sim.build_lattice
    monkeypatch.setattr(sim, "build_lattice", counting_lattice)
    sim.run_forced(make_config(theta=0.3, n=3), wavelengths=4, points_per_wavelength=10,
                   periods=2, mode=mode)
    assert len(lattices) == 1


# the options every plain-loop run is also made with: a ramp that ends
# mid-period, no transient, the uniform drive, and a float32 eps (which
# the run, and so the loop, takes as a Python float)
PLAIN_LOOP_OPTIONS = ({}, {"ramp_periods": 1.5}, {"transient_periods": 0},
                      {"drive": "uniform"}, {"eps": np.float32(1e-3)})


def assert_forced_run_is_the_plain_loop(mode, ramp_periods=2.0, transient_periods=3,
                                        drive="mode", eps=1e-3):
    """A forced run equals, bitwise, a loop that spells out each step: the
    open Beam-Warming update P - w(P - up1) - cw(P - 2up1 + up2), then the
    RK4 matrix R @ P or the nonlinear collision substep, then the drive of
    that step alone and the bounds P.min(), P.max(); its snapshots are
    copies.  The run's snapshots share no memory with each other."""
    eps = float(eps)
    cfg = make_config(theta=0.3, h=1.0, B=0.2, n=3)
    ppw, wavelengths, periods = 12, 4, 2
    series = sim.run_forced(cfg, wavelengths=wavelengths, points_per_wavelength=ppw,
                            periods=periods, mode=mode, eps=eps, drive=drive,
                            ramp_periods=ramp_periods,
                            transient_periods=transient_periods)

    speeds = sim.build_lattice(cfg).x_speeds
    T = 2.0 * math.pi / cfg.omega
    dx = sim.hydrodynamic_wavelength(cfg) / ppw
    M = wavelengths * ppw + 1
    rate = 4.0 * cfg.c * cfg.S * cfg.N0 * (1.0 + cfg.B)
    dt_max = min(sim.CFL_LIMIT * dx / np.max(np.abs(speeds)),
                 sim.COLLISION_DT_LIMIT / rate)
    steps_per_period = 32 * math.ceil(T / (32 * dt_max))
    dt, stride = T / steps_per_period, steps_per_period // 32
    courant = speeds * dt / dx
    step = np.sign(courant).astype(int)[:, None]
    cells = np.arange(M)
    near = np.clip(cells - step, 0, M - 1)
    far = np.clip(cells - 2 * step, 0, M - 1)
    w = np.abs(courant)[:, None]
    cw = np.repeat(0.5 * w * (1 - w), M, axis=1)
    cw[near == far] = 0.0
    rows = np.arange(2 * cfg.n)[:, None] * M
    near, far = near + rows, far + rows
    if mode == "linear":
        R = sim._linear_propagator(cfg, dt)
        collide = lambda P: R @ P   # noqa: E731
    else:
        collide = sim._collision_substep(cfg, dt)
    inflow = speeds > 0
    if drive == "mode":
        weights = sim._mode_drive_weights(cfg, sim.build_lattice(cfg))
    else:
        weights = np.where(inflow, 1.0 + 0j, 0.0 + 0j)
    drive_amp = 1j * (weights / np.max(np.abs(weights[inflow])))[inflow]
    t_ramp = ramp_periods * T

    P = np.zeros((2 * cfg.n, M))
    want = []
    for k in range(1, (transient_periods + periods) * steps_per_period + 1):
        up1, up2 = P.take(near), P.take(far)
        P = collide(P - w * (P - up1) - cw * (P - 2 * up1 + up2))
        t = k * dt
        envelope = 0.5 * (1.0 - math.cos(math.pi * t / t_ramp)) if t < t_ramp else 1.0
        P[inflow, 0] = eps * envelope * np.real(drive_amp * np.exp(-1j * cfg.omega * t))
        lo, hi = P.min(), P.max()
        assert not (mode == "nonlinear" and lo <= -1.0)
        assert -sim.INSTABILITY_FACTOR * eps <= lo and hi <= sim.INSTABILITY_FACTOR * eps
        if k > transient_periods * steps_per_period and k % stride == 0:
            want.append((t, P.copy()))
    assert len(series) == len(want) == 32 * periods
    for field, (t, P) in zip(series, want):
        assert field.t == t
        np.testing.assert_array_equal(field.P, P)
        np.testing.assert_array_equal(np.signbit(field.P), np.signbit(P))
    assert not any(np.shares_memory(a.P, b.P)
                   for a, b in itertools.combinations(series, 2))


@pytest.mark.filterwarnings("ignore:linear collision form")
def test_linear_forced_run_is_bitwise_the_plain_loop():
    for options in PLAIN_LOOP_OPTIONS:
        assert_forced_run_is_the_plain_loop("linear", **options)


def test_nonlinear_forced_run_is_bitwise_the_plain_loop():
    for options in PLAIN_LOOP_OPTIONS:
        assert_forced_run_is_the_plain_loop("nonlinear", **options)


@pytest.mark.parametrize("option, value", [("eps", 1e-3), ("ramp_periods", 1.3),
                                           ("cfl", 0.7)])
def test_a_float32_forced_run_option_runs_like_its_float_twin(option, value):
    # each option is taken as a Python float: a float32 eps or ramp_periods
    # would otherwise carry float32 products into the drive
    run = functools.partial(sim.run_forced, make_config(theta=0.3), wavelengths=4,
                            points_per_wavelength=10, periods=2)
    want = run(**{option: float(np.float32(value))})
    got = run(**{option: np.float32(value)})
    assert len(got) == len(want) == 64
    for field, twin in zip(got, want):
        assert_same_field(field, twin)


def test_default_fit_window_is_one_batched_solve(eig_calls):
    sim._default_fit_window(make_config(theta=0.3, n=3), 40.0, 0.1)
    assert len(eig_calls.grids) == 1 and eig_calls.sizes[0] > 1


# ------------------------------------------------------------ kernel reuse

def reference_step(field, dt, bc="periodic", mode="linear"):
    """One step as taken before kernels were reused: every call checks its
    inputs and rebuilds the lattice, the advection gather and the collision
    map (uncached), and returns through dataclasses.replace."""
    lattice = sim.build_lattice(field.config)
    if not 0 < dt < math.inf:
        raise DomainError(f"dt must satisfy 0 < dt < inf, got {dt!r}")
    if not 0 < field.dx < math.inf:
        raise DomainError(f"dx must satisfy 0 < dx < inf, got {field.dx!r}")
    p2 = 2 * field.config.n
    shape = np.shape(field.P)
    if len(shape) != 2 or shape[0] != p2 or shape[1] < 1:
        raise DomainError(f"P must have shape (2n, M) = ({p2}, M) with M >= 1, "
                          f"got {shape}")
    if bc not in ("periodic", "open"):
        raise DomainError("bc must be 'periodic' or 'open'")
    vmax = float(np.max(np.abs(lattice.x_speeds)))
    if vmax > 0 and dt * vmax / field.dx > sim.CFL_LIMIT + 1e-12:
        raise CFLError(f"dt*max|x_speed|/dx = {dt * vmax / field.dx:.4g} "
                       f"exceeds {sim.CFL_LIMIT}")
    rate = sim._collision_rate(field.config)
    if dt * rate > sim.COLLISION_DT_LIMIT + 1e-12:
        raise CFLError(f"dt*4cSN0(1+B) = {dt * rate:.4g} "
                       f"exceeds {sim.COLLISION_DT_LIMIT}")
    advect = sim._advection(lattice.x_speeds * dt / field.dx, shape[1], bc)
    if mode == "linear":
        P = sim._linear_propagator(field.config, dt) @ advect(field.P)
    else:
        if np.any(field.P <= -1.0):
            raise PositivityError("number density N_i = N0(1+P_i) not positive")
        P = sim._collision_substep(field.config, dt)(advect(field.P))
        if np.any(P <= -1.0):
            raise PositivityError("positivity lost during nonlinear step "
                                  "(amplitude too large for the scheme)")
    return replace(field, P=P, t=field.t + dt)


STEPS = {"linear": sim.step_linear, "nonlinear": sim.step_nonlinear}


@pytest.fixture
def cold_cache():
    """Empty the step-kernel cache before and after the test."""
    clear = sim._step_kernels.cache_clear
    clear()
    yield clear
    clear()


def assert_same_field(got, want):
    np.testing.assert_array_equal(got.P, want.P)
    np.testing.assert_array_equal(np.signbit(got.P), np.signbit(want.P))
    assert (got.dx, got.t, got.config) == (want.dx, want.t, want.config)
    assert got.config is want.config


def random_field(config, M, dx, seed):
    rng = np.random.default_rng(seed)
    P = 0.08 * rng.standard_normal((2 * config.n, M)) + 0.03
    P[rng.random(P.shape) < 0.1] = -0.0
    return make_field(config, M=M, dx=dx, P=P)


@pytest.mark.parametrize("bc", ["periodic", "open"])
@pytest.mark.parametrize("B", [-0.5, 0.0, 0.7])
@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_steps_are_bitwise_the_reference_step(cold_cache, n, theta, B, bc):
    cfg = make_config(theta=theta, h=1.3, B=B, n=n)
    for mode, step in STEPS.items():
        got = want = random_field(cfg, M=37, dx=0.12, seed=n)
        for _ in range(3):   # a cold cache, then two warm calls
            got, want = step(got, 0.04, bc=bc), reference_step(want, 0.04, bc, mode)
            assert_same_field(got, want)


def test_warm_cache_in_interleaved_order_matches_a_cold_one(cold_cache):
    keys = [(make_config(theta=th, h=h, B=B, n=n), dt, dx, M, bc)
            for n, th, h, B in [(2, 0.3, 1.0, 0.0), (3, 0.1, 0.7, 0.4),
                                (4, 0.6, 1.5, -0.3)]
            for dt, dx in [(0.04, 0.12), (0.02, 0.12), (0.04, 0.1)]
            for M, bc in [(16, "periodic"), (9, "open")]]
    assert len(keys) > sim.KERNEL_CACHE_SIZE
    order = list(range(len(keys))) * 2
    np.random.default_rng(4).shuffle(order)
    for i in order:
        cfg, dt, dx, M, bc = keys[i]
        field = random_field(cfg, M, dx, seed=i)
        for step in STEPS.values():
            warm = step(field, dt, bc=bc)
            cold_cache()
            assert_same_field(warm, step(field, dt, bc=bc))


def test_a_float32_config_steps_like_its_float64_twin_from_one_entry(cold_cache):
    cfg = ModelConfig(n=2, theta=0.3, S=0.25)
    float32_cfg = replace(cfg, S=np.float32(0.25))
    assert float32_cfg == cfg
    for mode, step in STEPS.items():
        want = step(random_field(cfg, 16, 0.1, seed=1), 0.05)
        misses = sim._step_kernels.cache_info().misses
        got = step(random_field(float32_cfg, 16, 0.1, seed=1), 0.05)
        assert sim._step_kernels.cache_info().misses == misses
        assert_same_field(got, replace(want, config=got.config))
        assert got.config is float32_cfg


def test_a_0d_array_dt_steps_like_the_float_dt_as_a_cache_hit(cold_cache):
    field = random_field(make_config(theta=0.3), 16, 0.1, seed=2)
    for mode, step in STEPS.items():
        want = step(field, 0.05)
        hits = sim._step_kernels.cache_info().hits
        assert_same_field(step(field, np.array(0.05)), want)
        assert sim._step_kernels.cache_info().hits == hits + 1


@pytest.mark.parametrize("mode", list(STEPS))
def test_a_float32_dt_advances_t_as_a_float64_sum(cold_cache, mode):
    dt = np.float32(0.05)
    field, want = make_field(make_config(theta=0.3), M=8), 0.0
    for _ in range(1000):
        field, want = STEPS[mode](field, dt), want + float(dt)
    assert type(field.t) is float
    assert field.t == want


@pytest.mark.parametrize("mode", list(STEPS))
def test_a_float32_t_advances_as_a_float64_sum(cold_cache, mode):
    field = make_field(make_config(theta=0.3), M=8, t=np.float32(0.1))
    want = float(np.float32(0.1))
    for _ in range(100):
        field, want = STEPS[mode](field, 0.05), want + 0.05
    assert type(field.t) is float
    assert field.t == want


@pytest.mark.parametrize("mode", list(STEPS))
def test_one_key_builds_its_advection_once(cold_cache, monkeypatch, mode):
    builds, lattices = [], []

    def counting(*args):
        builds.append(args)
        return advection(*args)

    def counting_lattice(config):
        lattices.append(config)
        return build_lattice(config)

    advection, build_lattice = sim._advection, sim.build_lattice
    monkeypatch.setattr(sim, "_advection", counting)
    monkeypatch.setattr(sim, "build_lattice", counting_lattice)
    field = random_field(make_config(theta=0.3, n=3), 128, 0.12, seed=3)
    for _ in range(25):
        field = STEPS[mode](field, 0.04, bc="periodic")
    assert len(builds) == 1
    assert len(lattices) == 1


STEP_FAULTS = [
    *[({name: bad}, f"^{name} must") for name, bad in [
        ("dt", -0.05), ("dt", 0.0), ("dt", math.nan), ("dt", math.inf),
        ("dx", -0.1), ("dx", 0.0), ("dx", math.nan), ("dx", math.inf),
        ("P", (6, 16)), ("P", (2, 16)), ("P", (16,)), ("P", (4, 0))]],
    ({"bc": "closed"}, "^bc must"),
    ({"bc": ["open"]}, "^bc must"),
]


@pytest.mark.parametrize("mode", list(STEPS))
@pytest.mark.parametrize("fault, needle", STEP_FAULTS,
                         ids=[f"{k}={v}" for (f, _) in STEP_FAULTS for k, v in f.items()])
def test_step_rejects_the_same_inputs_after_a_valid_step(cold_cache, mode, fault,
                                                         needle):
    args = {"dt": 0.05, "dx": 0.1, "P": (4, 16), "bc": "open"}
    cfg = make_config(theta=0.3)
    STEPS[mode](make_field(cfg, dx=args["dx"], P=np.zeros(args["P"])), args["dt"],
                bc=args["bc"])
    args |= fault
    field = make_field(cfg, dx=args["dx"], P=np.zeros(args["P"]))
    with pytest.raises(DomainError, match=needle) as want:
        reference_step(field, args["dt"], args["bc"], mode)
    with pytest.raises(DomainError) as got:
        STEPS[mode](field, args["dt"], bc=args["bc"])
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("mode", list(STEPS))
@pytest.mark.parametrize("h, dx, dt, good_dt, needle", [
    (1.0, 0.01, 0.1, 0.005, "x_speed"),      # Courant limit
    (100.0, 10.0, 0.05, 0.001, "4cSN0"),     # collision limit
], ids=["courant", "collision"])
def test_step_limits_hold_after_a_valid_step(cold_cache, mode, h, dx, dt, good_dt,
                                             needle):
    field = make_field(make_config(theta=0.0, h=h), dx=dx)
    STEPS[mode](field, good_dt)
    with pytest.raises(CFLError, match=needle) as want:
        reference_step(field, dt, mode=mode)
    with pytest.raises(CFLError) as got:
        STEPS[mode](field, dt)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("mode", list(STEPS))
def test_mutating_a_returned_field_leaves_the_next_step_unchanged(cold_cache, mode):
    field = random_field(make_config(theta=0.3, n=3), 32, 0.12, seed=5)
    first = STEPS[mode](field, 0.04)
    want = first.P.copy()
    first.P[...] = 0.5
    assert_same_field(STEPS[mode](field, 0.04), replace(first, P=want))
