"""Kinetic wave simulator: the independent verification path.

Integrates the 2n-component kinetic system on a 1D grid and measures the
complex wavenumber of a boundary-driven plane wave, to be compared against
the dispersion-relation roots.

Linear dynamics (perturbations P_m, pair partner index m+n mod 2n):

    dP_m/dt + U_mx dP_m/dx + 2cSN0(1+B)(P_m + P_{m+n})
        = (2cSN0(1+B)/n) * sum_{k=1}^{2n} P_k

Nonlinear dynamics (number densities N_i = N0(1+P_i), indices cyclic):

    dN_i/dt + U_ix dN_i/dx =
        (cS/n) sum_j N_j N_{j+n} (1+g N_{j+1})(1+g N_{j+n+1})
        - 2cS N_i N_{i+n} (1+g N_{i+1})(1+g N_{i+n+1}),      g = gamma

The collision term is symmetric under i -> i+n, so it is evaluated in pair
form: with Np = 1 + P and b = 1 + g N0 Np, the n pair products
Q_k = Np_k Np_{k+n} b_{k+1} b_{k+n+1} (k < n) give
rhs_k = rhs_{k+n} = cS N0 ((2/n) sum_j Q_j - 2 Q_k).

Scheme: operator split, advection first then collisions.  Advection is
second-order upwind (Beam-Warming), stable for Courant numbers up to 2,
with a first-order one-sided closure at the boundary-adjacent node; it is
one gather kernel for both boundaries.  Collisions are integrated with one
RK4 substep.  For the linear collision operator L that substep is the
matrix R = sum_{k=0..4} (dt L)^k / k!, applied as R @ P.  The nonlinear
substep works on the 4n factors of the pair products, Z = [1 + P; b rolled
to the next pair], kept as one contiguous (4n, M) array whose four (n, M)
blocks are Np_k, Np_{k+n}, b_{k+1} and b_{k+n+1}.  The rate is G @ Q with
G = gain*11^T - loss*I, and a stage adds the same shift to both members of
a pair, so each stage is one matrix product with a precomputed (4n, n)
lift giving all 4n rows of the shift, one contiguous add onto Z and one
product reduction over the four blocks giving Q; the four stages' Q are
combined by one more product, (dt/6)[G, 2G, 2G, G], added to both halves
of P.  Q is centred on its first row before each product (G @ 1 = 0), so
equilibrium is an exact fixed point for every n.
A step's two kernels, advect and collide, come from one builder: a forced
run builds them once, on its own lattice, and step_linear/step_nonlinear
reuse them for every call with the same (config, dt, dx, M, bc) through
the one kernel cache, of KERNEL_CACHE_SIZE entries.  Cache keys are plain
Python values: validate makes the config's fields an int and floats, and
dt and dx are converted to floats, so equal values share one entry.  Every
step call checks its config, dt, dx, P and bc, before the lookup; the
builder checks the Courant and collision limits before a key is cached, so
a cached key has passed them.  Cached kernels hold no scratch arrays: every
intermediate is allocated per call.
Using the same RK4 map for the linear and nonlinear right-hand sides keeps
the nonlinear stepper linearization-consistent with the linear one to
O(eps^2) per step.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import dispersion
from .errors import (
    CFLError,
    DomainError,
    FitError,
    InstabilityError,
    PositivityError,
)
from .model import ModelConfig, reduced_params, validate

__all__ = [
    "VelocityLattice",
    "WaveField",
    "FitResult",
    "build_lattice",
    "step_linear",
    "step_nonlinear",
    "run_forced",
    "fit_wave",
    "pair_averages",
    "dump_snapshot",
]

SQRT2 = math.sqrt(2.0)
CFL_LIMIT = 0.9
COLLISION_DT_LIMIT = 0.5      # dt * 4cSN0(1+B) must stay below this
SAMPLES_PER_PERIOD = 32
INSTABILITY_FACTOR = 1e3
ZERO_SPEED_TOL = 1e-14        # |cos| below this (times c) snaps to an exact zero
KINETIC_CLEARANCE = 6.0       # e-foldings of the slowest secondary mode to skip
AMP_FLOOR_RATIO = 1e-2        # fit keeps cells above this fraction of window start
KERNEL_CACHE_SIZE = 4         # step kernels kept for reuse
DRIVE_BLOCK_STEPS = 4096      # most steps whose drive a forced run computes at once
# most row-cell updates (steps * M * 2n) a forced run may plan: about 90 s of
# a linear n = 2 run at the 1.1e8 per second measured on a 2-vCPU host, and
# over 400 times the largest run of the tests, the benchmark and the CI
MAX_FORCED_WORK = 1e10


@dataclass(frozen=True)
class VelocityLattice:
    """x-components of the 2n discrete velocities; entry i+n is -entry i."""

    n: int
    x_speeds: np.ndarray


@dataclass(frozen=True)
class WaveField:
    """Perturbations P_i on a uniform grid of M cells at time t."""

    P: np.ndarray          # shape (2n, M)
    dx: float
    t: float
    config: ModelConfig


@dataclass(frozen=True)
class FitResult:
    """Measured wavenumber of a forced run: k = k_r + i k_i, lambda = k c/(sqrt2 w)."""

    k_r: float
    k_i: float
    lambda_meas: complex
    rms_residual: float


def build_lattice(config: ModelConfig) -> VelocityLattice:
    """x-speeds c*cos[theta+(i-1)pi/n] for i=1..n and their negatives.

    Speeds within rounding of zero (e.g. cos(pi/2)) are snapped to exactly 0,
    so zero-speed components are recognized reliably downstream.
    """
    config = validate(config)
    angles = config.theta + np.arange(config.n) * np.pi / config.n
    half = config.c * np.cos(angles)
    half[np.abs(half) < ZERO_SPEED_TOL * config.c] = 0.0
    return VelocityLattice(n=config.n, x_speeds=np.concatenate([half, -half]))


def _collision_rate(config: ModelConfig) -> float:
    return 4.0 * config.c * config.S * config.N0 * (1.0 + config.B)


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _step_kernels(config: ModelConfig, dt: float, dx: float, M: int, bc: str,
                  mode: str):
    """A step's kernels (advect, collide) for a validated config, reused per key.

    Every key field is a plain Python value (validate makes the config's
    fields int and floats), so equal keys build equal kernels.  A key is
    cached only after _build_kernels has passed its limits, which read key
    fields only, so a cached key has passed them.
    """
    return _build_kernels(config, build_lattice(config).x_speeds, dt, dx, M, bc,
                          mode)


def _build_kernels(config: ModelConfig, x_speeds: np.ndarray, dt: float,
                   dx: float, M: int, bc: str, mode: str):
    """A step's kernels (advect, collide) on the given lattice speeds.

    Checks the Courant limit, then the collision limit.  collide is the
    linear RK4 matrix applied as R @ P, or one RK4 substep of the nonlinear
    collision term (_collision_substep).  R and the advection weights are
    read-only.
    """
    vmax = float(np.max(np.abs(x_speeds)))
    if vmax > 0 and dt * vmax / dx > CFL_LIMIT + 1e-12:
        raise CFLError(f"dt*max|x_speed|/dx = {dt * vmax / dx:.4g} "
                       f"exceeds {CFL_LIMIT}")
    rate = _collision_rate(config)
    if dt * rate > COLLISION_DT_LIMIT + 1e-12:
        raise CFLError(f"dt*4cSN0(1+B) = {dt * rate:.4g} "
                       f"exceeds {COLLISION_DT_LIMIT}")
    advect = _advection(x_speeds * dt / dx, M, bc)
    if mode == "linear":
        R = _linear_propagator(config, dt)
        R.flags.writeable = False
        return advect, lambda P: R @ P
    return advect, _collision_substep(config, dt)


def _checked_step_kernels(field: WaveField, dt: float, bc: str, mode: str):
    """Check one step's inputs and return its (advect, collide), reused per key.

    Every call checks the config, dt, dx, the shape of P and bc, in this
    order, then looks up the key with dt and dx as Python floats; the
    Courant and collision limits follow in _step_kernels when a key is
    built, and a cached key has passed them.
    """
    config = validate(field.config)
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
    return _step_kernels(config, float(dt), float(field.dx), shape[1], bc, mode)


def _advection(courant: np.ndarray, M: int, bc: str):
    """Beam-Warming update of all 2n rows of an M-cell field, as advect(P).

    courant is signed and bc is "periodic" or "open", which the callers
    check.  A boundary condition is a rule for each row's two upwind
    neighbour indices (LeVeque 2002, ch. 7): periodic wraps them, open
    clamps them to the grid.  Where a row's two neighbours coincide the
    curvature weight is zeroed: on an open row these are the upwind end
    node, which then keeps P, and the node next to it, which is first
    order.  A zero-speed row is its own neighbour and keeps P.
    """
    step = np.sign(courant).astype(np.intp)[:, None]
    cells = np.arange(M)
    near, far = cells - step, cells - 2 * step
    if bc == "periodic":
        near, far = near % M, far % M
    else:
        near, far = near.clip(0, M - 1), far.clip(0, M - 1)
    w = np.repeat(np.abs(courant)[:, None], M, axis=1)
    cw = 0.5 * w * (1 - w)
    cw[near == far] = 0.0
    rows = np.arange(len(courant))[:, None] * M
    near, far = near + rows, far + rows
    # the weights are read-only; the indices stay writeable, because take()
    # copies a read-only index array on every call
    w.flags.writeable = cw.flags.writeable = False

    def advect(P: np.ndarray) -> np.ndarray:
        # P - w*(P - up1) - cw*(P - 2*up1 + up2), each operation as written,
        # so the result is bitwise that expression's
        up1, up2 = P.take(near), P.take(far)
        out = np.multiply(w, np.subtract(P, up1))
        np.subtract(P, out, out=out)
        np.multiply(up1, 2, out=up1)
        np.subtract(P, up1, out=up1)
        np.add(up1, up2, out=up1)
        return np.subtract(out, np.multiply(cw, up1), out=out)

    return advect


def _linear_propagator(config: ModelConfig, dt: float) -> np.ndarray:
    """R = sum_{k=0..4} (dt L)^k / k!, the RK4 map of dP/dt = L P, as one matrix."""
    n = config.n
    p2 = 2 * n
    kappa = 0.5 * _collision_rate(config)       # 2cSN0(1+B)
    L = np.full((p2, p2), kappa / n)
    for m in range(p2):
        L[m, m] -= kappa
        L[m, (m + n) % p2] -= kappa
    A = dt * L
    R = term = np.eye(p2)
    for k in range(1, 5):
        term = term @ A / k
        R = R + term
    return R


def _collision_substep(config: ModelConfig, dt: float):
    """One RK4 substep of the nonlinear collision term, as collide(P).

    In pair form (module docstring) the term is G @ Q with
    G = gain*11^T - loss*I, added to both rows of a pair.  A stage adds its
    shift s = a*(G @ Q) to both members of each pair of Np = 1 + P, and
    g N0 s of the next pair to both blocking factors of a pair, so one
    (4n, n) lift [G; G; g N0 G(next); g N0 G(next)] gives the shift of all
    4n factors Z = [Np; b(next)], and one contiguous add moves them.  Q is
    the product of Z's four (n, M) blocks, one reduction.  Q is centred on
    its first row before each product: G @ 1 = 0, so the term is unchanged,
    and it is exactly 0 where all Q_k are equal (equilibrium).  The combine
    is one (n, 4n) product whose rows are added to both halves of P, so the
    two rows of a pair get one bitwise-equal increment.  Every intermediate
    is allocated per call.
    """
    n = config.n
    gN0 = config.gamma * config.N0
    loss = 2.0 * config.c * config.S * config.N0
    G = np.full((n, n), loss / n, dtype=float)
    G[np.diag_indices(n)] -= loss
    G_next = gN0 * np.roll(G, -1, axis=0)
    lift = np.vstack([G, G, G_next, G_next])
    half = (0.5 * dt) * lift
    stages = (half, half, dt * lift)
    combine = (dt / 6.0) * np.hstack([G, 2 * G, 2 * G, G])
    for matrix in (*stages, combine):
        matrix.flags.writeable = False
    p2 = 2 * n

    def collide(P: np.ndarray) -> np.ndarray:
        M = P.shape[1]
        Z = np.empty((2 * p2, M))      # [Np; b rolled to the next pair]
        np.add(P, 1.0, out=Z[:p2])
        np.multiply(Z[1:p2], gN0, out=Z[p2:-1])
        np.multiply(Z[:1], gN0, out=Z[-1:])
        np.add(Z[p2:], 1.0, out=Z[p2:])
        stage, shifted = Z, np.empty_like(Z)
        Qc = np.empty((4, n, M))       # the four stages' centred Q
        for i in range(4):
            Q = np.multiply.reduce(stage.reshape(4, n, M), axis=0)
            np.subtract(Q, Q[0], out=Qc[i])
            if i < 3:
                stage = np.add(Z, stages[i] @ Qc[i], out=shifted)
        step = combine @ Qc.reshape(4 * n, M)
        return np.add(P.reshape(2, n, M), step).reshape(p2, M)

    return collide


def step_linear(field: WaveField, dt: float, bc: str = "periodic") -> WaveField:
    """One operator-split step of the linearized system.

    The step's kernels are reused for every call with the same
    (config, dt, dx, M, bc), from the one kernel cache of KERNEL_CACHE_SIZE
    entries, keyed by plain Python values: dt and dx are converted to
    floats, and t advances as float(t) + float(dt).  bc is checked on every
    call, before the lookup; the dt limits are checked when a key is built,
    and a cached key has passed them.
    """
    advect, collide = _checked_step_kernels(field, dt, bc, "linear")
    return WaveField(P=collide(advect(field.P)), dx=field.dx,
                     t=float(field.t) + float(dt), config=field.config)


def step_nonlinear(field: WaveField, dt: float, bc: str = "periodic") -> WaveField:
    """One operator-split step of the full quantum kinetic system.

    Kernels are reused, and the dt limits and bc checked, as in step_linear.
    """
    advect, collide = _checked_step_kernels(field, dt, bc, "nonlinear")
    if field.P.min() <= -1.0:     # a NaN passes, as it does in np.any(P <= -1)
        raise PositivityError("number density N_i = N0(1+P_i) not positive")
    P = collide(advect(field.P))
    if P.min() <= -1.0:
        raise PositivityError("positivity lost during nonlinear step "
                              "(amplitude too large for the scheme)")
    return WaveField(P=P, dx=field.dx, t=float(field.t) + float(dt), config=field.config)


def pair_averages(field: WaveField) -> np.ndarray:
    """D_m = (P_m + P_{m+n})/2 for m = 1..n, per cell."""
    n = field.config.n
    return 0.5 * (field.P[:n] + field.P[n:])


def _mode_drive_weights(config: ModelConfig, lattice: VelocityLattice):
    """Complex inflow amplitudes lifted from the acoustic mode shape.

    The pair difference of the plane-wave mode is (P_m - P_{m+n})/2
    = sqrt(2)*lam*cos_m * a_m, so the component amplitudes are
    a_m*(1 ± sqrt(2)*lam*cos_m).
    """
    n = config.n
    h_b = reduced_params(config).h_b
    root = dispersion.acoustic_root(h_b, config.theta, n)
    shape = dispersion.mode_shape(root.lam, h_b, config.theta, n)
    cosines = lattice.x_speeds[:n] / config.c
    fwd = shape.amplitudes * (1.0 + SQRT2 * root.lam * cosines)
    bwd = shape.amplitudes * (1.0 - SQRT2 * root.lam * cosines)
    return np.concatenate([fwd, bwd])


def hydrodynamic_wavelength(config: ModelConfig) -> float:
    """Continuum-limit wavelength estimate 2*pi*c/(sqrt(2)*omega)."""
    return 2.0 * math.pi * config.c / (SQRT2 * config.omega)


def _check_count(name: str, value, least: int) -> None:
    """DomainError naming ``name`` unless value is a Python or numpy integer >= least."""
    if not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}")


def run_forced(config: ModelConfig, wavelengths: int = 12,
               points_per_wavelength: int = 40, periods: int = 5,
               mode: str = "linear", eps: float = 1e-3,
               drive: str = "mode", cfl: float = CFL_LIMIT,
               ramp_periods: float = 2.0,
               transient_periods: int | None = None) -> list[WaveField]:
    """Drive a plane wave from x=0 and return snapshots of the settled state.

    Inflow components (x_speed > 0) are forced at x=0 with the acoustic mode
    shape restricted to inflow entries (drive="uniform" forces them all
    equally instead), ramped on with a half cosine over `ramp_periods`
    (0 <= ramp_periods < inf; 0 drives at full amplitude from the start).
    Outflow is zeroth-order extrapolated at both ends; zero-speed components
    evolve freely.  The transient discarded before recording covers the
    domain-crossing time of the slowest inflow component plus 5 periods
    (at least 10 periods) unless `transient_periods` (>= 0) is given;
    snapshots then cover the final `periods` periods at 32 samples per
    period.  `cfl`, in (0, CFL_LIMIT], is the Courant number the advective
    limit on dt allows.

    The drive is computed per period, at most DRIVE_BLOCK_STEPS steps at
    a time, with the operations of a per-step drive, so its values are
    bitwise the same.  A step raises PositivityError (nonlinear, min P <=
    -1) or InstabilityError (|P| > INSTABILITY_FACTOR * eps, or NaN); the
    min and max are read only when the step's sum of squares does not
    already prove them inside these bounds, and on every later step of a
    drive block in which a sum did not.  Each snapshot's P is the
    array its step produced, not a copy; no later step writes into it, and
    the caller owns it.

    The collision limit on dt asks for about 4*pi*h(1+B) steps per period, a
    count that must be a finite float for dt = T/count to exist: past
    h(1+B) ~ 1.4e307 (float max / 4*pi) a DomainError is raised before any
    step.  The run time grows with the planned row-cell updates, total
    steps * M * 2n: large h asks for many steps per period, and an angle
    next to a perpendicular velocity for a long transient.  A run that
    plans more than MAX_FORCED_WORK of them raises DomainError, naming h,
    theta and the step count, before any step and before the drive's
    dispersion solve.
    """
    config = validate(config)
    if mode not in ("linear", "nonlinear"):
        raise DomainError("mode must be 'linear' or 'nonlinear'")
    if drive not in ("mode", "uniform"):
        raise DomainError("drive must be 'mode' or 'uniform'")
    _check_count("points_per_wavelength", points_per_wavelength, 1)
    _check_count("wavelengths", wavelengths, 1)
    _check_count("periods", periods, 1)
    if not 0 < eps < math.inf:
        raise DomainError("eps must satisfy 0 < eps < inf")
    if not 0 <= ramp_periods < math.inf:
        raise DomainError("ramp_periods must satisfy 0 <= ramp_periods < inf")
    if not 0 < cfl <= CFL_LIMIT:
        raise DomainError(f"cfl must satisfy 0 < cfl <= {CFL_LIMIT}")
    if transient_periods is not None:
        _check_count("transient_periods", transient_periods, 0)
    eps, ramp_periods = float(eps), float(ramp_periods)
    if mode == "linear" and config.n > 2:
        warnings.warn("linear collision form for n > 2 is extrapolated beyond "
                      "the n = 2 derivation", RuntimeWarning, stacklevel=2)

    lattice = build_lattice(config)
    omega = config.omega
    T = 2.0 * math.pi / omega
    lam_est = hydrodynamic_wavelength(config)
    dx = lam_est / points_per_wavelength
    M = wavelengths * points_per_wavelength + 1
    L = (M - 1) * dx

    vmax = float(np.max(np.abs(lattice.x_speeds)))
    dt_max = min(cfl * dx / vmax, COLLISION_DT_LIMIT / _collision_rate(config))
    per_sample = T / (SAMPLES_PER_PERIOD * dt_max)
    if not SAMPLES_PER_PERIOD * per_sample < math.inf:
        raise DomainError(f"h = {reduced_params(config).h:.6g}: the time steps "
                          "per period exceed the float range")
    steps_per_period = SAMPLES_PER_PERIOD * int(math.ceil(per_sample))
    dt = T / steps_per_period
    stride = steps_per_period // SAMPLES_PER_PERIOD

    if transient_periods is None:
        transient_periods = _transient_periods(lattice.x_speeds, L, T)
    total_steps = (transient_periods + periods) * steps_per_period
    record_from = transient_periods * steps_per_period
    work = total_steps * M * 2 * config.n
    if work > MAX_FORCED_WORK:
        raise DomainError(
            f"h = {reduced_params(config).h:.6g}, theta = {config.theta!r}: the run "
            f"plans {_count_text(total_steps)} steps ({transient_periods} transient and "
            f"{periods} recorded periods of {_count_text(steps_per_period)} steps) on "
            f"{2 * config.n} x {M} cells, {_count_text(work)} row-cell updates, more "
            f"than MAX_FORCED_WORK = {MAX_FORCED_WORK:.3g}")

    inflow = lattice.x_speeds > 0
    if drive == "mode":
        weights = _mode_drive_weights(config, lattice)
    else:
        weights = np.where(inflow, 1.0 + 0j, 0.0 + 0j)
    weights = weights / np.max(np.abs(weights[inflow]))

    advect, collide = _build_kernels(config, lattice.x_speeds, dt, dx, M, "open",
                                     mode)
    t_ramp = ramp_periods * T
    inflow_cells = np.flatnonzero(inflow) * M     # cell 0 of each inflow row, flat
    drive_amp = 1j * weights[inflow]
    minus_i_omega = -1j * omega     # -1j * omega * t groups as (-1j * omega) * t
    bound = INSTABILITY_FACTOR * eps
    block = min(steps_per_period, DRIVE_BLOCK_STEPS)
    # A step whose sum of squares is at most half the square of the tighter
    # bound has every |P| below both (a float sum of nonnegative terms loses
    # far less than half), so its min and max need not be read.  The screen
    # is off (-1) where that square is not a normal float, and for the rest
    # of a drive block once a step fails it, so that a field too large for
    # it costs one dot product per block, not one per step.
    limit = min(float(bound), 1.0) if mode == "nonlinear" else float(bound)
    screen = 0.5 * limit * limit if 1e-150 < limit < 1e150 else -1.0

    P = np.zeros((2 * config.n, M))
    snapshots: list[WaveField] = []
    for first in range(1, total_steps + 1, block):
        # the drive of a period's steps in one pass, with a step's operations
        # in its order, so each row is bitwise the per-step expression
        last = min(first + block, total_steps + 1)
        times = np.arange(first, last) * dt
        ts = times.tolist()
        scale = np.array([eps * (0.5 * (1.0 - math.cos(math.pi * t / t_ramp))
                                 if t < t_ramp else 1.0) for t in ts])
        drive = scale[:, None] * (
            drive_amp * np.exp(minus_i_omega * times[:, None])).real
        trusted = screen
        for step, t, values in zip(range(first, last), ts, drive):
            P = collide(advect(P))
            P.put(inflow_cells, values)
            if trusted < 0 or not np.vdot(P, P) <= trusted:   # NaN fails it too
                trusted = -1.0
                lo, hi = P.min(), P.max()
                if mode == "nonlinear" and lo <= -1.0:
                    raise PositivityError("positivity lost during forced nonlinear run")
                if not (-bound <= lo and hi <= bound):   # NaN trips this too
                    raise InstabilityError(f"field magnitude exceeded "
                                           f"{INSTABILITY_FACTOR} * eps at t = {t:.6g}")
            if step > record_from and (step - record_from) % stride == 0:
                # every step makes a new P and no kernel writes into its input
                snapshots.append(WaveField(P=P, dx=dx, t=t, config=config))
    return snapshots


def _count_text(count: int) -> str:
    """A positive integer to 3 significant digits (truncated past the float range)."""
    if count < 1e300:
        return f"{count:.3g}"
    digits = len(str(count))
    return f"{count // 10 ** (digits - 3) / 100:.3g}e+{digits - 1}"


def _transient_periods(x_speeds: np.ndarray, L: float, T: float) -> int:
    """Periods a forced run discards by default before recording.

    The slowest inflow row's time to cross the domain of length L, plus 5
    periods of length T, rounded up; at least 10.
    """
    v_min_in = float(np.min(x_speeds[x_speeds > 0]))
    return max(10, math.ceil((L / v_min_in + 5.0 * T) / T))


def _default_fit_window(config: ModelConfig, L: float, dx: float):
    """Window start clears the inlet ramp and the secondary-mode transients."""
    lam_est = hydrodynamic_wavelength(config)
    h_b = reduced_params(config).h_b
    lam, _, _ = dispersion._branches_at(h_b, config.theta, config.n, policy="all")
    k_i = [SQRT2 * config.omega / config.c * lam_j.imag for lam_j in lam]
    # the acoustic root is first; each secondary decaying faster needs a clearance
    margin = max([KINETIC_CLEARANCE / k for k in k_i[1:] if k > max(k_i[0], 1e-12)],
                 default=0.0)
    x_lo = max(1.5 * lam_est, lam_est + margin)
    x_lo = min(x_lo, L - 2.0 * dx - 3.0 * lam_est)  # keep >= 3 wavelengths
    x_lo = max(x_lo, lam_est)
    return x_lo, L - 2.0 * dx


def _demodulate(series: list[WaveField], times: np.ndarray, omega: float) -> np.ndarray:
    """Per-cell complex amplitude Z at omega of the snapshots' sum_i P_i.

    The joint per-cell least squares on [1, t, cos wt, sin wt] is exact for
    pure tones over whole periods, and separates slow drift from the tone.
    Only the cos and sin coefficients are needed, so only their two rows of
    the basis's minimum-norm pseudo-inverse are applied, one snapshot at a
    time as it is read: memory is O(M), not O(T M).
    """
    tc = times - times.mean()
    basis = np.vstack([np.ones_like(tc), tc,
                       np.cos(omega * times), np.sin(omega * times)]).T
    cos_row, sin_row = np.linalg.pinv(basis)[2:]
    Z = np.zeros(np.shape(series[0].P)[1], dtype=complex)
    for weight, f in zip((cos_row + 1j * sin_row).tolist(), series):
        Z += weight * f.P.sum(axis=0)
    return Z


def fit_wave(series: list[WaveField], omega: float | None = None,
             fit_window: tuple[float, float] | None = None) -> FitResult:
    """Measure (k_r, k_i) of the settled forced wave by demodulation.

    Each cell's total perturbation sum_i P_i is demodulated at omega over
    the recorded whole periods (discrete Fourier projection per cell,
    computed jointly with constant and linear drift terms so slow startup
    transients cannot leak into the tone estimate).  Log-amplitude and
    unwrapped phase are then fit linearly in x;
    lambda_meas = (k_r + i k_i) * c / (sqrt(2) * omega).

    The projection (_demodulate) is one pass over the snapshots, reading
    each once, and its memory is O(M) whatever the number of snapshots.
    Every snapshot must have the first one's P shape, dx and config
    (DomainError otherwise).  A given ``fit_window`` must skip the first
    hydrodynamic wavelength and the outlet cell: lo >= lambda_est and
    hi <= L - dx, each to within 1e-9 of that length, at any scale
    (DomainError otherwise); the default window does both.
    """
    if len(series) < 2:
        raise FitError("need at least two snapshots")
    first = series[0]
    config = first.config
    shape = np.shape(first.P)
    for i, f in enumerate(series):
        if np.shape(f.P) != shape:
            raise DomainError(f"snapshot {i} has P of shape {np.shape(f.P)}, "
                              f"snapshot 0 {shape}")
        if f.dx != first.dx or f.config != config:
            raise DomainError(f"snapshot {i} differs from snapshot 0 in dx or config")
    if omega is None:
        omega = config.omega
    if not 0 < omega < math.inf:
        raise DomainError("omega must be positive and finite")
    dx = first.dx
    M = shape[1]
    L = (M - 1) * dx
    lam_est = hydrodynamic_wavelength(config)

    times = np.array([f.t for f in series])
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-9):
        raise FitError("snapshots are not uniformly spaced in time")

    if fit_window is None:
        x_lo, x_hi = _default_fit_window(config, L, dx)
    else:
        x_lo, x_hi = fit_window
        if not x_lo < x_hi:
            raise DomainError("fit_window must be (lo, hi) with lo < hi")
        if x_lo < lam_est * (1.0 - 1e-9):
            raise DomainError("fit_window must exclude the first (inlet) wavelength")
        if x_hi > L - dx * (1.0 - 1e-9):
            raise DomainError("fit_window must exclude the outlet cell")

    Z = _demodulate(series, times, omega)     # P ~ Re[Z * exp(-i w t)]

    x = np.arange(M) * dx
    sel = np.where((x >= x_lo) & (x <= x_hi))[0]
    if sel.size < 8:
        raise FitError("fit window contains fewer than 8 cells")
    amp0 = np.abs(Z[sel[0]])
    if not amp0 > 0 or np.max(np.abs(Z[sel])) < 1e-300:
        raise FitError("zero signal in fit window")
    keep = np.abs(Z[sel]) >= AMP_FLOOR_RATIO * amp0
    cut = int(np.argmin(keep)) if not keep.all() else sel.size
    sel = sel[:max(cut, 8)]

    log_amp = np.log(np.abs(Z[sel]))
    raw_phase = np.angle(Z[sel])
    phase = np.unwrap(raw_phase)
    jumps = np.abs(np.diff(phase))
    if np.any(jumps > 0.5 * math.pi):
        raise FitError("phase jumps exceed pi/2 between adjacent cells "
                       "(under-resolved grid)")
    ki_fit = np.polyfit(x[sel], log_amp, 1)
    kr_fit = np.polyfit(x[sel], phase, 1)
    k_i = -ki_fit[0]
    k_r = kr_fit[0]
    if not k_r > 0:
        raise FitError("fitted k_r is not positive: no forward wave found")
    resid = np.hypot(log_amp - np.polyval(ki_fit, x[sel]),
                     phase - np.polyval(kr_fit, x[sel]))
    lam = (k_r + 1j * k_i) * config.c / (SQRT2 * omega)
    return FitResult(k_r=float(k_r), k_i=float(k_i), lambda_meas=complex(lam),
                     rms_residual=float(np.sqrt(np.mean(resid ** 2))))


def dump_snapshot(field: WaveField, path, stride: int = 1) -> None:
    """Write one snapshot as a plain-text table: x, P_1 .. P_{2n} per cell.

    The header documents the parameters; the cell stride subsamples rows.
    """
    _check_count("stride", stride, 1)
    cfg = field.config
    p2, M = field.P.shape
    x = np.arange(M) * field.dx
    lines = [
        f"# bosewave snapshot: n={cfg.n} theta={cfg.theta!r} c={cfg.c!r} "
        f"S={cfg.S!r} N0={cfg.N0!r} omega={cfg.omega!r} gamma={cfg.gamma!r} "
        f"B={cfg.B!r} dx={field.dx!r} t={field.t!r} cells={M} stride={stride}",
        "# x " + " ".join(f"P_{i+1}" for i in range(p2)),
    ]
    for j in range(0, M, stride):
        row = [format(x[j], ".17g")] + [format(field.P[i, j], ".17g")
                                        for i in range(p2)]
        lines.append(" ".join(row))
    _write_text("\n".join(lines) + "\n", path)


def _write_text(text: str, path, mode: str = "w") -> None:
    """Write text to a file object, or to the file at path (ASCII, LF line ends).

    mode "a" appends instead of replacing the file.
    """
    if hasattr(path, "write"):
        path.write(text)
        return
    try:
        with open(path, mode, encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from None
