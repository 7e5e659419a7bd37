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
from .errors import ConvergenceError, DomainError, NoInteriorMaximumError

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


# The coarse lines of every angle along one ascending h grid: u and
# lambda_i are columns 0 and 1 of the label-ordered rows of
# ``dispersion._track_to`` at each (angle, h), shape (L, K, 2): the acoustic
# (continued) root and the largest-lambda_i secondary one (NaN, with
# lambda_i inf, where no other root exists).
_Lines = namedtuple("_Lines", "theta B h u lambda_i")


def _coarse_lines(theta_list, B: float, n: int, grid: np.ndarray) -> _Lines:
    """The acoustic and secondary columns of every angle along one ascending h grid.

    For each angle, the seed grid and the grid, visited descending, are one
    batch (a one-line ``dispersion._track_to`` call) along
    h_b = ``dispersion._line(grid, B)``, which checks B; both columns come
    from that batch.
    """
    h_b = dispersion._line(grid[::-1], B)[None]
    tracked = [dispersion._track_to(h_b, theta, n) for theta in theta_list]
    u, lam = (np.concatenate(part)[:, ::-1, :2] for part in zip(*tracked))
    return _Lines(np.array(theta_list), B, grid, u, np.where(np.isnan(u), np.inf, lam.imag))


_ERROR_ROOT = ("error", complex(math.nan, math.nan), math.nan)


def _labelled_points(tables, n: int):
    """Each point of sweep columns with its roots, as (point, its (branch, lam, residual) triples).

    The one walk of the columns, for the records of :func:`sweep` and the
    CLI tables alike.  tables holds one (points, counts, lam, residual) per
    angle, the columns of :func:`_sweep_columns`.  A point with no root
    (count 0: its solve failed) has the one root ("error", NaN, NaN).
    """
    names = [dispersion._branch_name(j) for j in range(n)]
    for points, counts, lam, residual in tables:
        at = 0
        for point, count in zip(points, counts):
            end = at + count
            yield point, zip(names, lam[at:end], residual[at:end]) if count else [_ERROR_ROOT]
            at = end


def _line_roots(h_b: np.ndarray, theta: float, n: int) -> np.ndarray:
    """(K, n) unpolished roots at every h_b of one angle's sweep batch, from one batched solve.

    The ``solve`` of ``dispersion._track_to``: ``dispersion._eig_step``'s
    rows, which ``_track_to`` polishes where they are a line's own and
    leaves as they are where they only steer (seed rows).  If the batch's
    eigenvalue solve fails (ConvergenceError), each half of it is solved
    the same way, so a row that fails alone gets an all-NaN row and one
    failed row of K costs about 2 log2(K) more solves.  A row's roots do
    not depend on its batch, so every other row is the one-batch row.
    """
    try:
        return dispersion._eig_step(h_b, theta, n)[0]
    except ConvergenceError:
        if len(h_b) <= 1:
            return np.full((len(h_b), n), np.nan, dtype=complex)
    half = len(h_b) // 2
    return np.concatenate([_line_roots(h_b[:half], theta, n),
                           _line_roots(h_b[half:], theta, n)])


def _sweep_columns(theta_list, B_list, h_grid, n: int, branch_policy: str) -> list:
    """The labelled columns of a sweep, one (points, counts, lam, residual) per angle.

    points holds the (h, B, theta) of each point of the angle, as Python
    floats, B-major and then h descending; counts, lam and residual are
    that angle's columns of ``dispersion._label_branches``.  No record is
    built here: :func:`sweep` builds its rows from these columns, and the
    CLI writes its tables from them, both through :func:`_labelled_points`.
    The checks and the solves are those :func:`sweep` documents.
    """
    theta_list = list(theta_list)
    B_list = list(B_list)
    h_grid = np.asarray(sorted(set(float(h) for h in h_grid), reverse=True))
    if len(theta_list) == 0 or len(B_list) == 0 or h_grid.size == 0:
        raise DomainError("theta_list, B_list and h_grid must be nonempty")
    if not np.all((h_grid > 0) & (h_grid < math.inf)):
        raise DomainError("h_grid must be positive and finite")
    h_b = np.array([dispersion._line(h_grid, B) for B in B_list])
    if branch_policy not in ("acoustic", "all"):
        raise DomainError("branch_policy must be 'acoustic' or 'all'")
    for theta in theta_list:
        dispersion._cos2(theta, n)   # DomainError for a bad n or theta

    h_list, B_list = h_grid.tolist(), [float(B) for B in B_list]
    columns = []
    for theta in map(float, theta_list):
        u, lam = dispersion._track_to(h_b, theta, n, _line_roots)
        counts, lam, _, residual = dispersion._label_branches(u, lam, h_b, theta, n, branch_policy)
        points = [(h, B, theta) for B in B_list for h in h_list]
        columns.append((points, counts, lam, residual))
    return columns


def sweep(theta_list, B_list, h_grid, n: int,
          branch_policy: str = "acoustic") -> SweepTable:
    """Continuation-tracked roots for every (theta, B) line of the h grid.

    Rows are ordered theta-major, then B, then h descending, and hold h, B
    and theta as Python floats.  All lines of one theta, each with the
    seed grid that continues the acoustic root to its top, are one batched
    solve (``dispersion._track_to``), and their roots are labelled and
    certified together (``dispersion._label_branches``).  Every line's h_b
    is formed and checked (``dispersion._line``) before any solve: B must
    satisfy -1 < B < inf, and an h whose h_b = h (1 + B) underflows to 0
    raises DomainError.  A point whose eigenvalue solve fails
    (ConvergenceError), in its angle's batch and again on its own, becomes
    one explicit row (branch "error", NaN values) rather than being
    dropped, and so does every point of a line whose failed rows leave no
    solved row above h_b = 4 to start its continuation (see
    ``dispersion._track_to``); other exceptions propagate.
    """
    tables = _sweep_columns(theta_list, B_list, h_grid, n, branch_policy)
    return SweepTable(rows=tuple([SweepRow(h, B, theta, n, name, z.real, z.imag, res)
                                  for (h, B, theta), roots in _labelled_points(tables, n)
                                  for name, z, res in roots]))


def _slope(u: np.ndarray, h_b: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """g = dlambda_i/dlog h_b along the branch through each root u, (K,) each.

    g = Im(h_b u' / (2 lambda)), with u' = du/dh_b = -f_h/f_u: f_u comes
    from ``dispersion._secular``, and f_h = df/dh_b is formed here from its
    1/d_k as

        f_h = -(i/n) sum_k 1/d_k - (h_b/n) sum_k 1/d_k^2.

    NaN or inf where g does not exist in floating point.
    """
    with np.errstate(all="ignore"):
        inv, _, f_u = dispersion._secular(u[:, None], h_b, c2)
        n = c2.shape[-1]
        f_h = -(1j / n) * inv.sum(axis=2) - (h_b[:, None] / n) * (inv * inv).sum(axis=2)
        return (h_b * (-f_h[:, 0] / f_u[:, 0]) / (2.0 * dispersion._principal(u))).imag


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


def _refine(lines: _Lines, at: np.ndarray, column: np.ndarray, n: int) -> list:
    """(h_max, lambda_i_max, bracket) of each given line's coarse peak, refined in lockstep.

    Line i is column ``column[i]`` (0 acoustic, 1 secondary) of angle
    ``at[i]`` of ``lines``, and its coarse argmax k is interior.  Its peak
    is the root of the slope g = dlambda_i/dlog h (:func:`_slope`) on
    [k-1, k] or [k, k+1], whichever carries the sign change + to -, found
    by :class:`_Search` in log h.  Every step is one theta-per-row
    ``_eig_roots`` batch of the lines still searching, and one
    ``dispersion._nearest`` call picks, in each row of it, the root nearest
    the acoustic u at the visited h nearest that point, the nearer end of
    its bracket.  A search ends when its bracket is a few ulps wide
    (PEAK_LOG_TOL), when its next point repeats an end, or at a zero or
    non-finite slope; REFINE_MAX_STEPS steps raise ConvergenceError.  A
    line whose slope at the grid points has no such sign change, or is not
    finite, keeps its coarse argmax, with the bracket [k-1, k+1]; so does a
    line whose search ends below it.
    """
    theta = lines.theta[at]
    c2 = dispersion._cos2(theta, n)
    li = lines.lambda_i[at, :, column]
    window = li.argmax(axis=1)[:, None] + np.arange(-1, 2)   # coarse k-1, k, k+1

    def around(values):   # (lines, K) values, cut to each line's window
        return np.take_along_axis(values, window, axis=1)

    h, u, li = lines.h[window], around(lines.u[at, :, 0]), around(li)
    g = _slope(around(lines.u[at, :, column]).ravel(), dispersion._line(h, lines.B).ravel(),
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
        live = np.array(list(step))
        x = np.array(list(step.values()))
        h_new = np.exp(x)
        h_b = dispersion._line(h_new, lines.B)
        solved = dispersion._eig_roots(h_b, theta[live], n)
        near = dispersion._nearest(solved, [[searches[i].near_u(x_i)] for i, x_i in zip(step, x)])
        u_all, lam = dispersion._order(solved, near[:, 0].tolist())
        pick = np.arange(len(live)), column[live]
        u_new, u_branch = u_all[:, 0], u_all[pick]
        li_new = np.where(np.isnan(u_branch), np.inf, lam[pick].imag)
        g_new = _slope(u_branch, h_b, c2[live])
        for i, *point in zip(step, x, g_new, h_new, u_new, li_new):
            searches[i].update(point)
    else:
        raise ConvergenceError(
            f"peak refinement did not converge in {REFINE_MAX_STEPS} steps")
    out = []
    for i in range(len(at)):
        coarse = (h[i, 1], li[i, 1], (h[i, 0], h[i, 2]))
        found = searches[i].best() if i in searches else coarse
        out.append(found if found[1] >= coarse[1] else coarse)
    return [(float(hm), float(lm), (float(lo), float(hi))) for hm, lm, (lo, hi) in out]


def _peaks(lines: _Lines, columns: list, n: int) -> tuple:
    """The coarse peak of each wanted branch column of every line, classified.

    columns picks branch columns of ``lines`` (0 acoustic, 1 secondary).
    Each picked column of each line falls in the first of these classes
    that holds, with the value :func:`theta_scan` reports for it:

    - "escaped": lambda_i is inf somewhere on the grid, where the branch
      has no root (a secondary at a degenerate angle, or one the mu cut of
      ``dispersion._eig_step`` drops at large h_b); value inf;
    - "flat": the coarse maximum is below LAMBDA_I_FLOOR; value 0;
    - "edge": the coarse maximum is at an end of the grid; value that maximum;
    - "interior": refined by :func:`_refine`; value the refined maximum.

    Returns (kind, value, refined): kind and value are (L, len(columns))
    arrays, and refined holds the (h_max, lambda_i_max, bracket) of each
    interior column, in row-major order, all refined together.
    """
    li = lines.lambda_i[:, :, columns]
    k, peak = li.argmax(axis=1), li.max(axis=1)
    escaped, flat = np.isinf(li).any(axis=1), peak < LAMBDA_I_FLOOR
    edge = (k == 0) | (k == len(lines.h) - 1)
    kind = np.where(escaped, "escaped", np.where(flat, "flat", np.where(edge, "edge", "interior")))
    at, column = np.nonzero(kind == "interior")
    refined = _refine(lines, at, np.asarray(columns)[column], n)
    value = np.where(escaped, math.inf, np.where(flat, 0.0, peak))
    value[at, column] = [lam for _, lam, _ in refined]
    return kind, value, refined


def find_hmax(theta: float, B: float, n: int = 2, branch: str = "acoustic",
              h_range: tuple = DEFAULT_H_RANGE) -> PeakResult:
    """Locate the maximum-absorption state h_max on a branch.

    A coarse log-grid scan (SCAN_POINTS points, one batched solve) brackets
    the peak; :func:`_refine` then solves dlambda_i/dlog h = 0 on that
    bracket to a few ulps of log h.  The coarse line is classified by
    :func:`_peaks`, as :func:`theta_scan` classifies its lines, and every
    class but an interior maximum raises :class:`NoInteriorMaximumError`:
    where the branch's root is dropped somewhere on the range (lambda_i inf:
    a secondary that escapes at a degenerate angle, or that the mu cut drops
    at large h_b), where lambda_i is monotone on the range, or where the
    branch is unattenuated (e.g. the acoustic branch at theta=pi/4).
    h_range must be a (lo, hi) pair with 0 < lo < hi < inf, and branch
    "acoustic" or "secondary"; B (-1 < B < inf) is checked after them, where
    the coarse grid forms its h_b (``dispersion._line``).
    """
    try:
        h_range = np.asarray(h_range, dtype=float)
    except (TypeError, ValueError):
        h_range = None
    if np.shape(h_range) != (2,):
        raise DomainError("h_range must be a (lo, hi) pair")
    lo, hi = h_range
    if not 0 < lo < hi < math.inf:
        raise DomainError("h_range must satisfy 0 < lo < hi < inf")
    if branch not in ("acoustic", "secondary"):
        raise DomainError("branch must be 'acoustic' or 'secondary'")
    grid = np.geomspace(hi, lo, SCAN_POINTS)[::-1]   # visit descending, report ascending
    lines = _coarse_lines([theta], B, n, grid)
    kind, _, refined = _peaks(lines, [("acoustic", "secondary").index(branch)], n)
    if kind[0, 0] != "interior":
        raise NoInteriorMaximumError({
            "escaped": "lambda_i is inf on part of the range: the branch's root is dropped there",
            "flat": "lambda_i is zero on the whole range (unattenuated branch)",
            "edge": "lambda_i is monotone on the range: no interior maximum"}[kind[0, 0]])
    ((h_max, lambda_i_max, bracket),) = refined
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
    is Im sqrt(1 + i*h_cap*(1+B)), the resonance jump.  A branch whose
    root is dropped somewhere on the range reports inf: the secondary at a
    degenerate angle, where it escapes to infinity, and a secondary that
    the mu cut drops at large h_b.  Each angle's coarse grid is one batched
    solve; :func:`_peaks` classifies its lines as it does for
    :func:`find_hmax`, the interior maxima of all angles are refined
    together (:func:`_refine`), and each row is built once, after them.
    h_cap and a nonempty theta_grid are checked first; B (-1 < B < inf) is
    checked where the coarse grid forms its h_b (``dispersion._line``).
    """
    h_lo = h_cap * 1e-4
    if not 0 < h_lo < h_cap < math.inf:
        raise DomainError("h_cap must be finite, with h_cap*1e-4 > 0")
    theta_grid = list(theta_grid)
    if not theta_grid:
        raise DomainError("theta_grid must be nonempty")
    lines = _coarse_lines(theta_grid, B, n, np.geomspace(h_lo, h_cap, SCAN_POINTS))
    _, best, _ = _peaks(lines, [0, 1], n)
    return [ThetaScanRow(theta, branch, value)
            for theta, pair in zip(theta_grid, best.tolist())
            for branch, value in zip(("acoustic", "secondary"), pair)]
