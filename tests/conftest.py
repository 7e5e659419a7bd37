"""Shared test helpers: the one stand-in for the eigen solve (fixture ``eig_calls``),
the reference seed grid, the one reference for a continued line, the
hydrodynamic-limit terms, a CLI runner and the bit patterns of floats."""

import math

import numpy as np
import pytest

from bosewave import cli, dispersion as dsp


class EigCalls:
    """The stand-in for the eigen solve: each dispersion._eig_step call of a test, in order.

    Every call's h_b grid (a float copy) goes to ``grids`` and its angle,
    one theta or one per row, to ``thetas``; then the real solve runs.
    Every polished batch (``_eig_roots``) is one such call too.  After
    ``fail(error, message, at, tol)`` a call raises ``error(message)``
    instead where its grid holds one of the h_b values ``at``: exactly, or
    within ``tol`` when given.  Without ``at`` every call raises.
    """

    def __init__(self, solve):
        self.solve, self.grids, self.thetas, self.error = solve, [], [], None

    def __call__(self, h_b, theta, n):
        grid = np.array(h_b, dtype=float)
        self.grids.append(grid)
        self.thetas.append(theta)
        if self.error is not None and self.hit(grid):
            raise self.error(self.message)
        return self.solve(h_b, theta, n)

    def fail(self, error, message, at=None, tol=None):
        self.error, self.message = error, message
        if at is None:
            self.hit = lambda grid: True
        elif tol is None:
            at = set(np.asarray(at, dtype=float).tolist())
            self.hit = lambda grid: not at.isdisjoint(grid.tolist())
        else:
            self.hit = lambda grid: (np.abs(grid[:, None] - np.asarray(at)) < tol).any()

    @property
    def sizes(self) -> list:
        return [len(grid) for grid in self.grids]

    def clear(self):
        self.grids.clear()
        self.thetas.clear()


@pytest.fixture
def eig_calls(monkeypatch):
    """The test's dispersion._eig_step calls, recorded; see :class:`EigCalls`."""
    calls = EigCalls(dsp._eig_step)
    monkeypatch.setattr(dsp, "_eig_step", calls)
    return calls


def seed_grid(top):
    """The reference seed grid of a line whose top is h_b = top, and its solved rows.

    Built from the module constants alone, apart from dispersion._track_to.
    The grid runs from CONTINUATION_START (or 10 * top above it) down to
    top, CONTINUATION_PER_DECADE points a decade, without its last point,
    top.  Its solved rows are none for a top above TOP_OF_LINE, otherwise
    the grid from its last row above TOP_OF_LINE on.  Returns (grid, solved).
    """
    start = dsp.CONTINUATION_START if top <= dsp.CONTINUATION_START else 10.0 * top
    steps = max(2, int(np.ceil(abs(np.log10(start / top)) * dsp.CONTINUATION_PER_DECADE)) + 1)
    grid = np.geomspace(start, top, steps)[:-1]
    if top > dsp.TOP_OF_LINE:
        return grid, grid[:0]
    return grid, grid[np.count_nonzero(grid > dsp.TOP_OF_LINE) - 1:]


def follow_row_by_row(rows, u):
    """Reference: nearest-root continuation from u, one row at a time.

    The pick of each row is its live root nearest the last root found; an
    all-NaN row (a failed solve) gets None and is skipped.
    """
    dropped = np.isnan(rows)
    rows = np.where(dropped, np.inf, rows)   # at an infinite distance
    path = []
    for roots, gone in zip(rows, dropped.tolist()):
        k = int(np.abs(roots - u).argmin())
        if gone[k]:   # every live distance overflowed too, or the row is all NaN
            if all(gone):
                path.append(None)
                continue
            k = gone.index(False)
        u = roots[k]
        path.append(k)
    return path


_EIG_STEP = dsp._eig_step   # the real solve, whatever a test stands in for it


def reference_line(h_b, theta, n, failed=(), full_seed=False):
    """Reference for one line of dispersion._track_to: (grid, u, lam).

    grid, the line's batch, is the solved rows of :func:`seed_grid` (h_b[0])
    and then h_b.  Its rows are _eig_step's, polished (dispersion._polish)
    on the line's own; a row whose h_b is in ``failed`` is all NaN.
    follow_row_by_row continues from u = 0 through the live rows, and a
    line whose first live row lies at or below TOP_OF_LINE is all NaN; with
    ``full_seed``, from u = 1 through the whole seed grid instead.  u and
    lam, each (K, n), are the line's own rows in dispersion._order.
    """
    h_b = np.asarray(h_b, dtype=float)
    whole, solved = seed_grid(float(h_b[0]))
    seed = whole if full_seed else solved
    batch = np.concatenate((seed, h_b))
    rows, _, c2 = _EIG_STEP(batch, theta, n)
    rows[len(seed):] = dsp._polish(rows[len(seed):], h_b, c2)
    rows[np.isin(batch, failed)] = np.nan
    with np.errstate(all="ignore"):
        path = follow_row_by_row(rows, 1.0 if full_seed else 0.0)
    live = [h for h, k in zip(batch, path) if k is not None]
    line = rows[len(seed):]
    if not live or live[0] <= dsp.TOP_OF_LINE:
        line[:] = np.nan
    u, lam = dsp._order(line, [0 if k is None else k for k in path[len(seed):]])
    return np.concatenate((solved, h_b)), u, lam


def limit_terms(theta: float, n: int) -> tuple:
    """(h_b lambda_i limit, its h_b^-2 coefficient, lambda_r's h_b^-2 coefficient).

    The hydrodynamic expansion of the acoustic root, derived in the
    docstring of test_limits.py.
    """
    w = 2.0 * dsp._cos2(theta, n)
    p = 1.0 - w
    pw = np.mean(p * w)
    a1 = -np.mean(p ** 2)
    a2 = 2.0 * a1 * pw + np.mean(p ** 3)
    a3 = (2.0 * a2 * pw - a1 ** 2 * np.mean(w ** 2) - 3.0 * a1 * np.mean(p ** 2 * w)
          - np.mean(p ** 4))
    limit = 0.25 if n >= 3 else math.cos(2.0 * theta) ** 2 / 2.0
    assert -a1 / 2.0 == pytest.approx(limit, rel=1e-12, abs=1e-15)
    return limit, a3 / 2.0 - a1 * a2 / 4.0 + a1 ** 3 / 16.0, a1 ** 2 / 8.0 - a2 / 2.0


def run(capsys, *argv):
    """cli.main on argv: (exit code, stdout, stderr)."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()
