"""Seeded workloads: the operations of each, and the check of every result.

An operation is one call a user of bosewave makes: a CLI job through
``cli.main`` (``scan``), one dispersion solve through the API (``points``),
or one simulator run (``kinetic``).  Every workload has at least 40
operations, so the timing tail it reports lies at or above the 75th
percentile with ten operations beyond it.

Each check returns a :class:`Verdict`.  A miss names the first failed check
in this order: ``error`` (an exception or a non-zero exit code), then
``root_count``, ``uncertified``, ``oracle``, ``agreement`` and
``conservation``.  ``Verdict.known`` marks a miss that a documented defect of
the program explains:

* roots dropped or left uncertified by the polynomial solver for n >= 4
  (the leading-coefficient trim at large h_b; the residual floor at n = 8
  and small h_b);
* a correct root left uncertified because a resolvent denominator nearly
  vanishes there (secondary roots near theta = pi/4 for n = 2, or near a
  degenerate angle): the rational residual is then rounding noise above
  1e-9, yet the polynomial fallback only starts at 1e-12 of the scale;
* the nonlinear collision term for n >= 3 and B != 0, which does not
  linearize to the model the dispersion engine solves, so the simulator's
  lambda misses the root.

A miss outside those makes the run incorrect.  The inputs are drawn over
the full ranges, so the defects show on ``points`` at every seed, on the
n = 6 sweep of ``scan``, and on ``kinetic`` whenever a nonlinear n = 3 run
draws |B| above about 0.1.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

RESIDUAL_TOL = 1e-9        # the certificate every reported root must meet
ORACLE_TOL = 1e-9          # n = 2 roots against closed_form_n2
HMAX_TOL = 1e-8            # hmax lambda_i_max against an eigen-oracle root
DEGENERATE_COS2 = 1e-12    # a velocity this close to perpendicular drops a root
NEAR_POLE = 1e-3           # min |denominator| / scale where rounding tops 1e-9
AGREEMENT_TOL = (0.03, 0.05)   # simulator vs root: lambda_r, lambda_i
CONSERVATION_TOL = 1e-12


@dataclass(frozen=True)
class Verdict:
    reason: str | None          # None when every check passed
    roots: int = 0              # roots the operation reported to its caller
    lam_err: float | None = None
    known: bool = False         # the miss is a documented defect


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass(frozen=True)
class OpError:
    """Stands in for the result of a call that raised."""

    kind: str
    message: str


def build(workload: str, seed: int, bw) -> list[Op]:
    rng = np.random.default_rng([seed, _WORKLOAD_IDS[workload]])
    return _GENERATORS[workload](rng, bw)


# ---------------------------------------------------------------- oracles

def _cos2(theta: float, n: int) -> np.ndarray:
    return np.cos(theta + np.arange(n) * np.pi / n) ** 2


def degenerate(theta: float, n: int) -> bool:
    """True where a velocity is perpendicular to the wave: the degree drops."""
    return bool(np.min(_cos2(theta, n)) < DEGENERATE_COS2)


def eigen_roots(h_b: float, theta: float, n: int) -> np.ndarray:
    """All finite roots u, independently of the package's polynomial route.

    The amplitude system A a = u C a has A = (1+ih)I - (ih/n)11^T and
    C = 2 diag(cos^2); A^-1 = (I + (ih/n)11^T)/(1+ih), so u = 1/mu over the
    nonzero eigenvalues mu of A^-1 C.
    """
    a_inv = (np.eye(n) + 1j * h_b / n) / (1.0 + 1j * h_b)
    mu = np.linalg.eigvals(a_inv * (2.0 * _cos2(theta, n))[None, :])
    return 1.0 / mu[np.abs(mu) > 1e-12 * np.max(np.abs(mu))]


def _multiset_match(got, want, tol: float) -> bool:
    if len(got) != len(want):
        return False
    key = lambda u: (u.real, u.imag)  # noqa: E731
    return all(abs(a - b) <= tol * max(1.0, abs(b))
               for a, b in zip(sorted(got, key=key), sorted(want, key=key)))


def _near_pole(lam: complex, h_b: float, theta: float, n: int) -> bool:
    c2 = _cos2(theta, n)
    denoms = np.abs(1.0 + 1j * h_b - 2.0 * lam * lam * c2)
    return bool(np.min(denoms / (1.0 + h_b + 2.0 * abs(lam) ** 2 * c2)) < NEAR_POLE)


def _check_roots(bw, lams, h_b: float, theta: float, n: int):
    """Count, certificate and (n = 2) closed-form checks of one root set.

    Returns ``(reason, known)``.
    """
    if len(lams) != n and not degenerate(theta, n):
        return "root_count", n >= 4
    bad = [lam for lam in lams
           if bw.dispersion.root_residual(lam, h_b, theta, n) >= RESIDUAL_TOL]
    if bad:
        return "uncertified", n >= 4 or all(
            _near_pole(lam, h_b, theta, n) for lam in bad)
    if n == 2 and not _multiset_match(
            [lam * lam for lam in lams],
            list(bw.dispersion.closed_form_n2(h_b, theta)), ORACLE_TOL):
        return "oracle", False
    return None, False


# ---------------------------------------------------------------- scan

def _cli_call(bw, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = bw.cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return call


def _cli_op(bw, argv, check) -> Op:
    def checked(result):
        if isinstance(result, OpError) or result[0] != 0:
            return Verdict("error")
        try:
            return check(result[1])
        except (ValueError, KeyError, IndexError):   # malformed output
            return Verdict("error")
    return Op(" ".join(argv), _cli_call(bw, argv), checked)


def _sweep_check(bw, n: int):
    def check(text):
        lines = {}
        for row in csv.DictReader(io.StringIO(text)):
            if row["branch"] == "error":
                return Verdict("error")
            key = (float(row["h"]), float(row["B"]), float(row["theta"]))
            lines.setdefault(key, []).append(
                complex(float(row["lambda_r"]), float(row["lambda_i"])))
        reported = sum(len(v) for v in lines.values())
        for (h, B, theta), lams in lines.items():
            reason, known = _check_roots(bw, lams, h * (1.0 + B), theta, n)
            if reason:
                return Verdict(reason, reported, known=known)
        return Verdict(None, reported)
    return check


def _theta_scan_check(n: int, B: float, h_cap: float, steps: int):
    def check(text):
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != 2 * steps:
            return Verdict("error", len(rows))
        if n == 2 and not any(float(r["theta"]) == math.pi / 4 for r in rows):
            return Verdict("oracle", len(rows))
        for ac, sec in zip(rows[::2], rows[1::2]):
            a, s = float(ac["max_lambda_i"]), float(sec["max_lambda_i"])
            if (ac["branch"], sec["branch"]) != ("acoustic", "secondary") \
                    or not (math.isfinite(a) and a >= 0.0 and s >= 0.0):
                return Verdict("oracle", len(rows))
            if n == 2 and float(ac["theta"]) == math.pi / 4:
                want = cmath.sqrt(1.0 + 1j * h_cap * (1.0 + B)).imag
                if a != 0.0 or abs(s - want) > ORACLE_TOL * want:
                    return Verdict("oracle", len(rows))
        return Verdict(None, len(rows))
    return check


def _hmax_values(text):
    fields = dict(line.split(" = ") for line in text.splitlines())
    lo, hi = (float(v) for v in fields["bracket"].split())
    return float(fields["h_max"]), float(fields["lambda_i_max"]), lo, hi


def _hmax_anchor_check(text):
    h, li, lo, hi = _hmax_values(text)
    ok = abs(li - 0.1443) <= 5e-4 and abs(h - 1.69) <= 0.05 and lo <= h <= hi
    return Verdict(None if ok else "oracle", 1)


def _hmax_check(theta: float, B: float, n: int):
    def check(text):
        h, li, lo, hi = _hmax_values(text)
        lams = [cmath.sqrt(u) for u in eigen_roots(h * (1.0 + B), theta, n)]
        ok = lo <= h <= hi and li > 0.0 and any(
            abs(abs(lam.imag) - li) <= HMAX_TOL * li for lam in lams)
        return Verdict(None if ok else "oracle", 1)
    return check


def _f(x: float) -> str:
    return repr(float(x))


def _scan(rng, bw) -> list[Op]:
    """Whole CLI tables: each (theta, B) line shares one continuation."""
    ops = []
    for n, steps in ((2, 5), (3, 3)):
        B = rng.uniform(-0.6, 0.8)
        argv = ["theta-scan", f"--B={_f(B)}", f"--n={n}", f"--steps={steps}"]
        ops.append(_cli_op(bw, argv, _theta_scan_check(n, B, 10.0, steps)))
    ops.append(_cli_op(bw, ["hmax", "--theta=0", "--B=0", "--n=2"],
                       _hmax_anchor_check))
    for n in (2, 3) * 6:
        theta, B = rng.uniform(0.0, math.pi / n), rng.uniform(-0.6, 0.8)
        # a wide range keeps the peak interior even close to theta = pi/4
        argv = ["hmax", f"--theta={_f(theta)}", f"--B={_f(B)}", f"--n={n}",
                "--h-range=1e-4:1e4"]
        ops.append(_cli_op(bw, argv, _hmax_check(theta, B, n)))
    for _ in range(24):
        theta = rng.uniform(0.0, math.pi / 2)
        Bs = rng.uniform(-0.6, 0.8, size=2)
        argv = ["sweep", f"--theta={_f(theta)}",
                f"--B={_f(Bs[0])},{_f(Bs[1])}", "--n=2", "--branch=all"]
        ops.append(_cli_op(bw, argv, _sweep_check(bw, 2)))
    theta, B = rng.uniform(0.0, math.pi / 6), rng.uniform(-0.6, 0.8)
    argv = ["sweep", "--h-range=1e-3:1e4:40", "--log", f"--theta={_f(theta)}",
            f"--B={_f(B)}", "--n=6", "--branch=all"]
    ops.append(_cli_op(bw, argv, _sweep_check(bw, 6)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- points

POINT_DEGREES = (2, 3, 4, 6, 8)
POINTS_PER_DEGREE = 20
LOG10_H_RANGE = (-3.0, 4.0)


def _points(rng, bw) -> list[Op]:
    """Independent single-point solves; nothing is shared between them.

    Per degree, the ranges of log10(h), theta and B are each cut into 20
    equal slices.  Point j draws from slice j of log10(h), slice 7j mod 20
    of theta and slice 13j mod 20 of B, at a seeded place inside each.
    Every seed covers every range evenly with the same pairing of slices:
    the cost of one solve at n = 8 changes by a third with theta, so random
    pairings made the p90 time of a seed's set swing by a fifth.
    """
    ops = []
    k = POINTS_PER_DEGREE
    cell = np.arange(k)
    for n in POINT_DEGREES:
        log_h = _strata(rng, *LOG10_H_RANGE, cell)
        theta = _strata(rng, 0.0, math.pi / n, 7 * cell % k)
        B = _strata(rng, -0.6, 0.8, 13 * cell % k)
        ops += [_point_op(bw, 10.0 ** log_h[j] * (1.0 + B[j]), theta[j], n)
                for j in range(k)]
    rng.shuffle(ops)
    return ops


def _strata(rng, lo: float, hi: float, slices: np.ndarray) -> np.ndarray:
    """One uniform draw inside each given slice of [lo, hi) cut in len(slices)."""
    k = len(slices)
    return lo + (hi - lo) * (slices + rng.uniform(size=k)) / k


def _point_op(bw, h_b: float, theta: float, n: int) -> Op:
    def call():
        d = bw.dispersion
        roots = d.solve_roots(d.assemble_polynomial(h_b, theta, n))
        return d.select_branch(roots, h_b, theta, n, policy="all")

    def check(result):
        if isinstance(result, OpError):
            return Verdict("error")
        lams = [r.lam for r in result]
        reason, known = _check_roots(bw, lams, h_b, theta, n)
        return Verdict(reason, len(lams), known=known)

    return Op(f"point n={n} h_b={h_b:.6g} theta={theta:.6g}", call, check)


# ---------------------------------------------------------------- kinetic

# theta bands away from the angles where an inflow speed vanishes (the
# transient a forced run discards grows as 1/(slowest inflow speed)), and for
# n = 2 short of pi/4, where the root's lambda_i -> 0 and a relative lambda_i
# tolerance has no meaning
KINETIC_THETA = {2: (math.pi / 6, 2 * math.pi / 9), 3: (-math.pi / 36, math.pi / 36)}
KINETIC_H = (0.5, 2.0)
KINETIC_B = (-0.5, 0.5)
BLOCKS, BLOCK_STEPS, BLOCK_CELLS = 32, 25, 128
BLOCK_DX, BLOCK_DT = 0.12, 0.04


def _kinetic(rng, bw) -> list[Op]:
    """Forced runs checked against the root, plus periodic stepping blocks.

    Each (n, mode, ppw) gets two forced runs, one from each half of the
    theta band, so that every seed does about the same amount of stepping.
    """
    ops = []
    for n in (2, 3):
        for mode in ("linear", "nonlinear"):
            for ppw in (40, 80):
                for theta in _strata(rng, *KINETIC_THETA[n], np.arange(2)):
                    ops.append(_forced_op(bw, n, theta, rng.uniform(*KINETIC_H),
                                          rng.uniform(*KINETIC_B), mode, ppw))
    for k in range(BLOCKS):
        n = 2 + k % 2
        cfg = bw.ModelConfig.from_reduced(
            n, rng.uniform(0.0, math.pi / n), rng.uniform(*KINETIC_H),
            rng.uniform(*KINETIC_B))
        P = 0.08 * rng.standard_normal((2 * n, BLOCK_CELLS)) + 0.03
        ops.append(_block_op(bw, bw.WaveField(P=P, dx=BLOCK_DX, t=0.0, config=cfg)))
    rng.shuffle(ops)
    return ops


def _forced_op(bw, n, theta, h, B, mode, ppw) -> Op:
    def call():
        cfg = bw.ModelConfig.from_reduced(n, theta, h, B)
        series = bw.simulate.run_forced(cfg, points_per_wavelength=ppw, mode=mode)
        fit = bw.simulate.fit_wave(series)
        root = bw.dispersion.acoustic_root(h * (1.0 + B), cfg.theta, n)
        return fit, root

    def check(result):
        if isinstance(result, OpError):
            return Verdict("error")
        fit, root = result
        want, got = root.lam, fit.lambda_meas
        err = abs(got - want) / abs(want)
        if bw.dispersion.root_residual(want, h * (1.0 + B), theta, n) >= RESIDUAL_TOL:
            return Verdict("uncertified", 1, err)
        if (abs(got.real - want.real) >= AGREEMENT_TOL[0] * want.real
                or abs(got.imag - want.imag) >= AGREEMENT_TOL[1] * want.imag):
            return Verdict("agreement", 1, err,
                           known=n >= 3 and mode == "nonlinear" and B != 0)
        return Verdict(None, 1, err)

    label = f"forced n={n} {mode} ppw={ppw} theta={theta:.4g} h={h:.4g} B={B:.4g}"
    return Op(label, call, check)


def _block_op(bw, field0) -> Op:
    cfg = field0.config
    half = np.cos(cfg.theta + np.arange(cfg.n) * np.pi / cfg.n)
    speeds = np.concatenate([half, -half])[:, None]

    def totals(P):
        N = cfg.N0 * (1.0 + P)
        return N.sum(), (speeds * N).sum(), (np.abs(speeds) * N).sum()

    def call():
        f = field0
        for _ in range(BLOCK_STEPS):
            f = bw.simulate.step_nonlinear(f, BLOCK_DT, bc="periodic")
        return f

    def check(result):
        if isinstance(result, OpError):
            return Verdict("error")
        mass0, mom0, scale = totals(field0.P)
        mass, mom, _ = totals(result.P)
        ok = (abs(mass - mass0) <= CONSERVATION_TOL * mass0
              and abs(mom - mom0) <= CONSERVATION_TOL * scale)
        return Verdict(None if ok else "conservation")

    return Op(f"periodic n={cfg.n} theta={cfg.theta:.4g} x{BLOCK_STEPS}",
              call, check)


_GENERATORS = {"scan": _scan, "points": _points, "kinetic": _kinetic}
_WORKLOAD_IDS = {"scan": 1, "points": 2, "kinetic": 3}
