"""Parameter sweeps and derived diagnostics.

Dispersion/attenuation curves over the rarefaction parameter h, the peak
absorption state h_max (argmax of lambda_i along a branch), the
localization-length column 1/lambda_i, and the orientation scan that
exhibits the resonance jump at theta = pi/4.
"""

from __future__ import annotations

import math
from collections import namedtuple
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
LAMBDA_I_FLOOR = 1e-12         # below this the branch counts as unattenuated
PEAK_LOG_TOL = 4 * dispersion.EPS   # peak bracket step, in log h, times max(1, |log h|)
REFINE_MAX_STEPS = 200         # refinement steps before ConvergenceError


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
    """The peak of lambda_i along a branch.

    bracket is the (lo, hi) interval in h of the final safeguard step: it
    contains h_max and may be only a few ulps wide.  Where the search
    keeps its coarse argmax, it is the coarse grid step on either side.
    """

    h_max: float
    lambda_i_max: float
    bracket: tuple


@dataclass(frozen=True)
class ThetaScanRow:
    theta: float
    branch: str
    max_lambda_i: float


# One branch's lambda_i along one (theta, B) coarse grid, ascending in h: u
# is the acoustic (continued) root at each h and branch_u the branch's own
# root, the acoustic one or the largest-lambda_i secondary (NaN where no
# other root exists).
_Line = namedtuple("_Line", "theta B h u branch branch_u lambda_i")


def _coarse_lines(theta: float, B: float, n: int, grid: np.ndarray) -> dict:
    """The acoustic and secondary :class:`_Line` of one ascending h grid.

    The seed grid and the grid, visited descending, are one batch
    (``dispersion._track_to``); both branches come from that batch.
    """
    with np.errstate(over="ignore"):   # an overflowed top is _track_to's DomainError
        h_b = grid[::-1] * (1.0 + B)
    rows, path = dispersion._track_to(h_b, theta, n)
    branches = _branch_roots(rows, path, n)
    u = branches["acoustic"][0][::-1]
    return {branch: _Line(theta, B, grid, u, branch, bu[::-1], li[::-1])
            for branch, (bu, li) in branches.items()}


def _principal(u: np.ndarray) -> np.ndarray:
    """:func:`dispersion.principal_lambda` of every entry; NaN stays NaN.

    np.sqrt already gives Re >= 0, so only Re = 0, Im < 0 flips.  The value
    is bit for bit principal_lambda's except where a part of u or of its
    root is 0 or subnormal, or |u| is near the smallest normal float: there
    np.sqrt and cmath.sqrt can differ in the last bit.
    """
    with np.errstate(invalid="ignore"):
        lam = np.sqrt(u)
    return np.where((lam.real == 0) & (lam.imag < 0), -lam, lam)


def _branch_roots(rows, path, n: int) -> dict:
    """Each row's root and lambda_i on both branches.

    Returns {branch: (root, lambda_i)}, each (K,): the acoustic branch is
    root ``path[j]`` of row j, the secondary the largest-lambda_i other
    root.  A row with no other root (it escaped to infinity at a degenerate
    angle) has secondary root NaN and lambda_i inf.  lambda_i comes from one
    pass over the NaN-padded (K, n) roots (:func:`_principal`), bit for bit
    ``dispersion.principal_lambda(u).imag`` of each root outside the cases
    that _principal names.
    """
    at = np.arange(len(rows))
    padded = np.full((len(rows), n), np.nan, dtype=complex)
    padded[np.arange(n) < np.array([len(r) for r in rows])[:, None]] = np.concatenate(rows)
    lam_i = _principal(padded).imag
    k = np.array(path)
    others = lam_i.copy()
    others[at, k] = np.nan
    j = np.argmax(np.where(np.isnan(others), -np.inf, others), axis=1)
    none = np.isnan(others[at, j])
    return {
        "acoustic": (padded[at, k], lam_i[at, k]),
        "secondary": (np.where(none, np.nan, padded[at, j]),
                      np.where(none, np.inf, others[at, j]))}


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


def _slope(u: np.ndarray, h_b: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """g = dlambda_i/dlog h_b along the branch through each root u, (K,) each.

    g = Im(h_b u' / (2 lambda)), with u' = du/dh_b = -f_h/f_u from
    ``dispersion._secular``; NaN or inf where that does not exist in
    floating point.
    """
    with np.errstate(all="ignore"):
        _, _, _, f_u, f_h = dispersion._secular(u[:, None], h_b, c2)
        return (h_b * (-f_h[:, 0] / f_u[:, 0]) / (2.0 * _principal(u))).imag


class _Search:
    """Illinois regula falsi for the root of g on one log-h bracket (Brent 1973).

    Each end is a visited point [log h, g, h, acoustic u, lambda_i], with
    g > 0 at ``lo`` and g < 0 at ``hi``.  A step bisects instead when the
    last three steps did not halve the bracket, or when the false-position
    step is not finite and inside the bracket (a slope that overflows).  A
    step stays PEAK_LOG_TOL away from both ends, so a converged end closes
    the bracket on the next step.
    """

    def __init__(self, lo: list, hi: list):
        self.lo, self.hi = lo, hi
        self.widths = [hi[0] - lo[0]]
        self.side = 0
        self.last = None      # a point that ended the search inside the bracket

    def propose(self):
        """The next log h, or None once the search has ended."""
        if self.last is not None:
            return None
        (x_lo, g_lo, *_), (x_hi, g_hi, *_) = self.lo, self.hi
        tol = PEAK_LOG_TOL * max(1.0, abs(x_lo), abs(x_hi))
        if x_hi - x_lo <= 2.0 * tol:
            return None
        x = x_lo + 0.5 * (x_hi - x_lo)
        if len(self.widths) < 4 or self.widths[-1] <= 0.5 * self.widths[-4]:
            with np.errstate(all="ignore"):
                step = (x_hi - x_lo) * (g_lo / (g_lo - g_hi))
            if 0.0 < step < x_hi - x_lo:
                x = min(max(x_lo + step, x_lo + tol), x_hi - tol)
        return x if x_lo < x < x_hi else None   # None: the point repeats an end

    def near_u(self, x: float) -> complex:
        """The acoustic u at the visited point nearest x: the nearer end."""
        return self.lo[3] if x - self.lo[0] <= self.hi[0] - x else self.hi[3]

    def update(self, point: list) -> None:
        """Take a solved point; a zero or non-finite slope ends the search."""
        g = point[1]
        if not (math.isfinite(g) and g != 0.0):
            self.last = point
        elif g > 0:
            self.lo = point
            if self.side > 0:   # hi kept twice: halve its g (Illinois)
                self.hi[1] *= 0.5
            self.side = 1
        else:
            self.hi = point
            if self.side < 0:
                self.lo[1] *= 0.5
            self.side = -1
        self.widths.append(self.hi[0] - self.lo[0])

    def best(self) -> tuple:
        """(h, lambda_i, bracket) at the larger lambda_i of the points kept."""
        points = [self.lo, self.hi] + ([self.last] if self.last else [])
        point = max(points, key=lambda p: p[4])
        return point[2], point[4], (self.lo[2], self.hi[2])


def _refine(lines: list, n: int) -> list:
    """(h_max, lambda_i_max, bracket) of every line's coarse peak, refined in lockstep.

    Each line's coarse argmax k is interior.  Its peak is the root of the
    slope g = dlambda_i/dlog h (:func:`_slope`) on [k-1, k] or [k, k+1],
    whichever carries the sign change + to -, found by :class:`_Search`
    in log h.  Every step is one theta-per-row ``_eig_roots`` batch of the
    lines still searching; each point is continued from the visited h
    nearest it, the nearer end of its bracket.  A search ends when its
    bracket is a few ulps wide (PEAK_LOG_TOL), when its next point repeats
    an end, or at a zero or non-finite slope; REFINE_MAX_STEPS steps raise
    ConvergenceError.  A line whose slope at the grid points has no such
    sign change, or is not finite, keeps its coarse argmax, with the
    bracket [k-1, k+1]; so does a line whose search ends below it.
    """
    theta = np.array([line.theta for line in lines])
    B = np.array([line.B for line in lines])
    acoustic = np.array([line.branch == "acoustic" for line in lines])
    c2 = dispersion._cos2(theta, n)
    ks = [int(np.argmax(line.lambda_i)) for line in lines]

    def around(name):   # each line's coarse values at k-1, k, k+1
        return np.array([getattr(line, name)[k - 1:k + 2] for line, k in zip(lines, ks)])

    h, u, li = around("h"), around("u"), around("lambda_i")
    g = _slope(around("branch_u").ravel(), (h * (1.0 + B)[:, None]).ravel(),
               np.repeat(c2, 3, axis=0)).reshape(-1, 3)

    def end(i, j):
        return [math.log(h[i, j]), g[i, j], h[i, j], u[i, j], li[i, j]]

    searches = {}
    for i, (g_left, g_mid, g_right) in enumerate(g):
        if g_mid > 0 and g_right < 0:
            searches[i] = _Search(end(i, 1), end(i, 2))
        elif g_mid < 0 and g_left > 0:
            searches[i] = _Search(end(i, 0), end(i, 1))
    for _ in range(REFINE_MAX_STEPS):
        step = {i: x for i, s in searches.items() if (x := s.propose()) is not None}
        if not step:
            break
        at = np.array(list(step))
        x = np.array(list(step.values()))
        h_new = np.exp(x)
        h_b = h_new * (1.0 + B[at])
        solved = dispersion._eig_roots(h_b, theta[at], n)
        path = [dispersion._follow([roots], searches[i].near_u(x_i))[0]
                for roots, i, x_i in zip(solved, step, x)]
        branches = _branch_roots(solved, path, n)
        (u_new, li_ac), (u_sec, li_sec) = branches["acoustic"], branches["secondary"]
        u_branch = np.where(acoustic[at], u_new, u_sec)
        li_new = np.where(acoustic[at], li_ac, li_sec)
        g_new = _slope(u_branch, h_b, c2[at])
        for i, *point in zip(step, x, g_new, h_new, u_new, li_new):
            searches[i].update(point)
    else:
        raise ConvergenceError(
            f"peak refinement did not converge in {REFINE_MAX_STEPS} steps")
    out = []
    for i in range(len(lines)):
        coarse = (h[i, 1], li[i, 1], (h[i, 0], h[i, 2]))
        found = searches[i].best() if i in searches else coarse
        out.append(found if found[1] >= coarse[1] else coarse)
    return [(float(hm), float(lm), (float(lo), float(hi))) for hm, lm, (lo, hi) in out]


def find_hmax(theta: float, B: float, n: int = 2, branch: str = "acoustic",
              h_range: tuple = DEFAULT_H_RANGE) -> PeakResult:
    """Locate the maximum-absorption state h_max on a branch.

    A coarse log-grid scan (SCAN_POINTS points, one batched solve) brackets
    the peak; :func:`_refine` then solves dlambda_i/dlog h = 0 on that
    bracket to a few ulps of log h.  Raises
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
    line = _coarse_lines(theta, B, n, grid)[branch]
    values = line.lambda_i
    k = int(np.argmax(values))
    if values[k] < LAMBDA_I_FLOOR:
        raise NoInteriorMaximumError(
            "lambda_i is zero on the whole range (unattenuated branch)")
    if k == 0 or k == len(grid) - 1:
        raise NoInteriorMaximumError(
            "lambda_i is monotone on the range: no interior maximum")
    ((h_max, lambda_i_max, bracket),) = _refine([line], n)
    return PeakResult(h_max=h_max, lambda_i_max=lambda_i_max, bracket=bracket)


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


def theta_scan(B: float, n: int, h_cap: float, theta_grid) -> list:
    """Max-over-h attenuation per orientation, acoustic and secondary branches.

    For each theta the table reports max lambda_i on the acoustic branch
    and on the largest-lambda_i secondary branch, over h on
    [1e-4 * h_cap, h_cap]: a grid of SCAN_POINTS log-spaced points, with
    an interior maximum refined between its grid neighbours, so no value
    comes from outside that range.  At
    theta = pi/4 (n = 2) the acoustic value is 0 while the secondary value
    is Im sqrt(1 + i*h_cap*(1+B)), the resonance jump.  Angles where the
    secondary root escapes to infinity report inf.  Each angle's coarse
    grid is one batched solve; the interior maxima of all angles are
    refined together (:func:`_refine`).
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
    rows, interior = [], []
    for theta in theta_grid:
        lines = _coarse_lines(theta, B, n, grid)
        for branch in ("acoustic", "secondary"):
            values = lines[branch].lambda_i
            k = int(np.argmax(values))
            if np.any(np.isinf(values)):
                best = math.inf
            elif values[k] < LAMBDA_I_FLOOR:
                best = 0.0
            elif k == 0 or k == len(grid) - 1:
                best = float(values[k])
            else:
                best = None
                interior.append((len(rows), lines[branch]))
            rows.append(ThetaScanRow(theta=theta, branch=branch, max_lambda_i=best))
    peaks = _refine([line for _, line in interior], n) if interior else []
    for (j, _), (_, best, _) in zip(interior, peaks):
        rows[j] = replace(rows[j], max_lambda_i=best)
    return rows
