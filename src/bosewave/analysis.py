"""Parameter sweeps and derived diagnostics.

Dispersion/attenuation curves over the rarefaction parameter h, the peak
absorption state h_max (argmax of lambda_i along a branch), the
localization-length column 1/lambda_i, and the orientation scan that
exhibits the resonance jump at theta = pi/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import dispersion
from .errors import (
    ConvergenceError,
    DomainError,
    NoInteriorMaximumError,
    SingularDenominatorError,
)

__all__ = [
    "SweepRow",
    "SweepTable",
    "PeakResult",
    "ThetaScanRow",
    "sweep",
    "find_hmax",
    "localization_length",
    "theta_scan",
    "DEFAULT_H_RANGE",
]

DEFAULT_H_RANGE = (1e-2, 1e2)
SCAN_POINTS = 240              # coarse log-grid size for peak bracketing
GOLDEN_REL_TOL = 5e-5          # final bracket width stays below 1e-4 * h_max
LAMBDA_I_FLOOR = 1e-12         # below this the branch counts as unattenuated
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepRow:
    h: float
    B: float
    theta: float
    n: int
    branch: str
    lambda_r: float
    lambda_i: float
    residual: float
    loc_length: float | None = None


@dataclass(frozen=True)
class SweepTable:
    rows: tuple

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


@dataclass(frozen=True)
class PeakResult:
    h_max: float
    lambda_i_max: float
    bracket: tuple


@dataclass(frozen=True)
class ThetaScanRow:
    theta: float
    branch: str
    max_lambda_i: float


class _BranchLine:
    """Acoustic and largest-lambda_i secondary lambda_i along one (theta, B, n) line.

    The constructor solves the seed grid (u = 1 at large h_b) and the
    descending coarse h grid as one batch (``dispersion._track_to``) and
    keeps both branches' lambda_i along the grid in ``grid_lambda_i``.  A
    single point (golden-section refinement) is one single-point solve,
    continued from the visited h_b nearest it, coarse and golden-section
    points included (refinement stays local, so this is safe).
    """

    def __init__(self, theta: float, B: float, n: int, grid):
        self.theta = theta
        self.B = B
        self.n = n
        with np.errstate(over="ignore"):   # an overflowed top is _track_to's DomainError
            h_b = np.asarray(grid, dtype=float) * (1.0 + B)
        rows, path = dispersion._track_to(h_b, theta, n)
        # acoustic u and log(h_b) of every visited point, in visit order
        self._u = [complex(roots[k]) for roots, k in zip(rows, path)]
        self._log_h_b = np.array([math.log(hb) for hb in h_b])
        self.grid_lambda_i = {
            branch: np.array([_branch_lambda_i(roots, k, branch)
                              for roots, k in zip(rows, path)])
            for branch in ("acoustic", "secondary")}

    def lambda_i(self, h: float, branch: str) -> float:
        h_b = h * (1.0 + self.B)
        roots = dispersion._eig_roots([h_b], self.theta, self.n)[0]
        near = int(np.argmin(np.abs(self._log_h_b - math.log(h_b))))
        (k,) = dispersion._follow([roots], self._u[near])
        self._log_h_b = np.append(self._log_h_b, math.log(h_b))
        self._u.append(complex(roots[k]))
        return _branch_lambda_i(roots, k, branch)


def _branch_lambda_i(roots, k: int, branch: str) -> float:
    """lambda_i of root k (acoustic), or the largest lambda_i of the other roots."""
    if branch == "acoustic":
        return dispersion.principal_lambda(roots[k]).imag
    # no other root: the branch escaped to infinity at a degenerate angle
    return max((dispersion.principal_lambda(u).imag
                for j, u in enumerate(roots) if j != k), default=math.inf)


def _sweep_row(h: float, B: float, theta: float, n: int,
               root: dispersion.DispersionRoot) -> SweepRow:
    return SweepRow(h=h, B=B, theta=theta, n=n, branch=root.branch,
                    lambda_r=root.lam.real, lambda_i=root.lam.imag,
                    residual=root.residual)


_NUMERICAL_ERRORS = (ConvergenceError, SingularDenominatorError, DomainError)


def _line_roots(h_b: np.ndarray, theta: float, n: int) -> list:
    """Roots at every h_b of one sweep line's batch, from one batched solve.

    If the batch fails numerically, the points are solved one at a time and
    each point that fails again gets None.
    """
    try:
        return dispersion._eig_roots(h_b, theta, n)
    except _NUMERICAL_ERRORS:
        pass
    out = []
    for hb in h_b:
        try:
            out.append(dispersion._eig_roots([hb], theta, n)[0])
        except _NUMERICAL_ERRORS:
            out.append(None)
    return out


def sweep(theta_list, B_list, h_grid, n: int,
          branch_policy: str = "acoustic") -> SweepTable:
    """Continuation-tracked roots for every (theta, B) line of the h grid.

    Rows are ordered theta-major, then B, then h descending.  Each line,
    with the seed grid that continues the acoustic root to its top, is one
    batched solve.  Numerical failures of a point solve become explicit
    rows (branch "error", NaN values) rather than silently dropped; other
    exceptions propagate.
    """
    theta_list = list(theta_list)
    B_list = list(B_list)
    h_grid = np.asarray(sorted(set(float(h) for h in h_grid), reverse=True))
    if len(theta_list) == 0 or len(B_list) == 0 or h_grid.size == 0:
        raise DomainError("theta_list, B_list and h_grid must be nonempty")
    if not np.all((h_grid > 0) & (h_grid < math.inf)):
        raise DomainError("h_grid must be positive and finite")
    if not all(-1 < B < math.inf for B in B_list):
        raise DomainError("B_list values must satisfy -1 < B < inf")
    if branch_policy not in ("acoustic", "all"):
        raise DomainError("branch_policy must be 'acoustic' or 'all'")
    for theta in theta_list:
        dispersion._cos2(theta, n)   # DomainError for a bad n or theta

    rows = []
    for theta in theta_list:
        for B in B_list:
            with np.errstate(over="ignore"):   # an overflowed top is _track_to's DomainError
                h_b_line = h_grid * (1.0 + B)
            line, path = dispersion._track_to(h_b_line, theta, n, _line_roots)
            labelled = dispersion._label_branches(line, path, h_b_line, theta, n,
                                                  branch_policy)
            for h, roots in zip(h_grid, labelled):
                if roots is None:
                    rows.append(SweepRow(h=h, B=B, theta=theta, n=n,
                                         branch="error", lambda_r=math.nan,
                                         lambda_i=math.nan, residual=math.nan))
                    continue
                rows.extend(_sweep_row(h, B, theta, n, root) for root in roots)
    return SweepTable(rows=tuple(rows))


def _golden_max(f, a: float, b: float, rel_tol: float):
    """Golden-section maximization on a log-h axis."""
    la, lb = math.log(a), math.log(b)
    lc = lb - INV_PHI * (lb - la)
    ld = la + INV_PHI * (lb - la)
    fc, fd = f(math.exp(lc)), f(math.exp(ld))
    while (lb - la) > rel_tol:
        if fc >= fd:
            lb, ld, fd = ld, lc, fc
            lc = lb - INV_PHI * (lb - la)
            fc = f(math.exp(lc))
        else:
            la, lc, fc = lc, ld, fd
            ld = la + INV_PHI * (lb - la)
            fd = f(math.exp(ld))
    h_lo, h_hi = math.exp(la), math.exp(lb)
    h_best = math.sqrt(h_lo * h_hi)
    return h_best, f(h_best), (h_lo, h_hi)


def find_hmax(theta: float, B: float, n: int = 2, branch: str = "acoustic",
              h_range: tuple = DEFAULT_H_RANGE) -> PeakResult:
    """Locate the maximum-absorption state h_max on a branch.

    Coarse log-grid scan (>= 200 points) to bracket the peak, then
    golden-section refinement until the bracket is under 1e-4 relative
    width.  Raises
    :class:`NoInteriorMaximumError` when lambda_i is monotone on the range
    or the branch is unattenuated (e.g. the acoustic branch at theta=pi/4).
    """
    lo, hi = h_range
    if not 0 < lo < hi < math.inf:
        raise DomainError("h_range must satisfy 0 < lo < hi < inf")
    if not -1 < B < math.inf:
        raise DomainError("B must satisfy -1 < B < inf")
    if branch not in ("acoustic", "secondary"):
        raise DomainError("branch must be 'acoustic' or 'secondary'")
    grid = np.geomspace(hi, lo, SCAN_POINTS)[::-1]   # visit descending, report ascending
    line = _BranchLine(theta, B, n, grid[::-1])
    values = line.grid_lambda_i[branch][::-1]
    k = int(np.argmax(values))
    if values[k] < LAMBDA_I_FLOOR:
        raise NoInteriorMaximumError(
            "lambda_i is zero on the whole range (unattenuated branch)")
    if k == 0 or k == len(grid) - 1:
        raise NoInteriorMaximumError(
            "lambda_i is monotone on the range: no interior maximum")
    h_best, li_best, bracket = _golden_max(
        lambda h: line.lambda_i(h, branch),
        grid[k - 1], grid[k + 1], GOLDEN_REL_TOL)
    return PeakResult(h_max=h_best, lambda_i_max=li_best, bracket=bracket)


def localization_length(table: SweepTable) -> SweepTable:
    """Attach the localization length 1/lambda_i to every row.

    Rows with lambda_i at (numerical) zero get an explicit infinite marker,
    never a large sentinel.
    """
    rows = []
    for row in table:
        if not math.isfinite(row.lambda_i) or row.lambda_i < LAMBDA_I_FLOOR:
            loc = math.inf
        else:
            loc = 1.0 / row.lambda_i
        rows.append(replace(row, loc_length=loc))
    return SweepTable(rows=tuple(rows))


def _max_over_h(f, grid: np.ndarray, values: np.ndarray) -> float:
    """Maximum of f over an ascending h grid with known values: refined when interior."""
    if np.any(np.isinf(values)):
        return math.inf
    k = int(np.argmax(values))
    if values[k] < LAMBDA_I_FLOOR:
        return 0.0
    if k == 0 or k == len(grid) - 1:
        return float(values[k])
    _, best, _ = _golden_max(f, grid[k - 1], grid[k + 1], GOLDEN_REL_TOL)
    return float(max(best, values[k]))


def theta_scan(B: float, n: int, h_cap: float, theta_grid) -> list:
    """Max-over-h attenuation per orientation, acoustic and secondary branches.

    For each theta the table reports max lambda_i over h in (0, h_cap] on
    the acoustic branch and on the largest-lambda_i secondary branch.  At
    theta = pi/4 (n = 2) the acoustic value is 0 while the secondary value
    is Im sqrt(1 + i*h_cap*(1+B)), the resonance jump.  Angles where the
    secondary root escapes to infinity report inf.
    """
    h_lo = h_cap * 1e-4
    if not 0 < h_lo < h_cap < math.inf:
        raise DomainError("h_cap must be finite, with h_cap*1e-4 > 0")
    if not -1 < B < math.inf:
        raise DomainError("B must satisfy -1 < B < inf")
    theta_grid = list(theta_grid)
    if not theta_grid:
        raise DomainError("theta_grid must be nonempty")
    grid = np.geomspace(h_lo, h_cap, SCAN_POINTS)
    rows = []
    for theta in theta_grid:
        line = _BranchLine(theta, B, n, grid[::-1])
        for branch in ("acoustic", "secondary"):
            best = _max_over_h(lambda h: line.lambda_i(h, branch), grid,
                               line.grid_lambda_i[branch][::-1])
            rows.append(ThetaScanRow(theta=theta, branch=branch, max_lambda_i=best))
    return rows
