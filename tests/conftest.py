"""Shared test helpers: the one stand-in for the eigen solve (fixture ``eig_calls``),
the reference seed grid and the bit patterns of floats."""

import numpy as np
import pytest

from bosewave import dispersion as dsp


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
            self.hit = lambda grid: np.isin(grid, at).any()
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


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()
