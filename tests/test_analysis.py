import math

import numpy as np
import pytest

from bosewave import analysis, dispersion as dsp
from bosewave.errors import ConvergenceError, DomainError, NoInteriorMaximumError
from conftest import bits, seed_grid
from test_dispersion import follow_row_by_row

# frozen from a dense scan of the closed form u = (1+ih)/(2+ih):
# argmax_h Im sqrt(u) and its value (the value is exactly 1/(4*sqrt(3)))
HMAX_T0_B0 = 1.6903085
LI_MAX_T0_B0 = 0.14433757


# ------------------------------------------------------------------ find_hmax

def test_hmax_theta0_b0_matches_dense_scan_oracle():
    peak = analysis.find_hmax(0.0, 0.0, n=2)
    assert peak.h_max == pytest.approx(HMAX_T0_B0, abs=0.05)
    assert peak.lambda_i_max == pytest.approx(LI_MAX_T0_B0, abs=0.0005)
    assert peak.lambda_i_max == pytest.approx(1.0 / (4.0 * math.sqrt(3.0)),
                                              rel=1e-6)
    lo, hi = peak.bracket
    assert lo <= peak.h_max <= hi
    assert (hi - lo) < 1e-3 * peak.h_max


def test_hmax_scales_with_pauli_blocking():
    base = analysis.find_hmax(0.0, 0.0, n=2)
    shifted = analysis.find_hmax(0.0, 0.5, n=2)
    assert shifted.h_max == pytest.approx(base.h_max / 1.5, rel=1e-3)
    assert shifted.lambda_i_max == pytest.approx(base.lambda_i_max, abs=1e-6)


def test_hmax_pi4_acoustic_degenerate():
    with pytest.raises(NoInteriorMaximumError):
        analysis.find_hmax(math.pi / 4, 0.0, n=2)


def test_hmax_monotone_secondary_reports_no_interior_maximum():
    # secondary-branch attenuation grows with h: no interior peak
    with pytest.raises(NoInteriorMaximumError):
        analysis.find_hmax(math.pi / 4, 0.0, n=2, branch="secondary")


# secondaries that the mu cut drops at large h_b, and the one at the
# degenerate angle theta = 0, n = 2, which escapes at every h
@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
def test_hmax_where_the_branch_root_is_dropped_raises_no_interior_maximum(theta, n):
    lines = analysis._coarse_lines([theta], 0.0, n, np.geomspace(1e-2, 1e17, analysis.SCAN_POINTS))
    assert np.isinf(lines.lambda_i[0, :, 1]).any()
    with pytest.raises(NoInteriorMaximumError, match="lambda_i is inf"):
        analysis.find_hmax(theta, 0.0, n=n, branch="secondary", h_range=(1e-2, 1e17))


def test_peaks_classifies_each_column_by_the_first_rule_that_holds(eig_calls):
    # escaped (an inf at the coarse argmax), flat (below LAMBDA_I_FLOOR),
    # edge (the argmax at the grid's top) and interior; the interior line
    # has no secondary root (NaN u), so its refinement keeps the coarse peak
    h = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    lambda_i = np.array([[[0.1, 0.0], [0.2, 1e-13], [np.inf, 0.0], [0.1, 0.0], [0.1, 0.0]],
                         [[0.1, 0.1], [0.2, 0.3], [0.3, 0.2], [0.4, 0.1], [0.5, 0.05]]])
    u = np.stack([np.full((2, 5), 0.5 + 0.1j), np.full((2, 5), np.nan + 0j)], axis=-1)
    lines = analysis._Lines(theta=np.array([0.3, 0.4]), B=0.0, h=h, u=u, lambda_i=lambda_i)
    kind, value, refined = analysis._peaks(lines, [0, 1], 3)
    assert kind.tolist() == [["escaped", "flat"], ["edge", "interior"]]
    assert value.tolist() == [[math.inf, 0.0], [0.5, 0.3]]
    assert refined == [(2.0, 0.3, (1.0, 3.0))]
    kind, value, refined = analysis._peaks(lines, [1], 3)
    assert kind.tolist() == [["flat"], ["interior"]] and refined == [(2.0, 0.3, (1.0, 3.0))]
    assert eig_calls.sizes == []


def test_hmax_bad_range_rejected():
    with pytest.raises(DomainError):
        analysis.find_hmax(0.0, 0.0, h_range=(1.0, 0.1))


@pytest.mark.parametrize("h_range", [(1e-2, 1e2, 3), (1.0,), 1.0, None, "1:10",
                                     ("a", "b"), ((1e-2, 1e2),)])
def test_hmax_range_that_is_not_a_pair_names_h_range(h_range):
    with pytest.raises(DomainError, match="h_range"):
        analysis.find_hmax(0.0, 0.0, h_range=h_range)


def test_hmax_deterministic():
    a = analysis.find_hmax(0.1, 0.3, n=2)
    b = analysis.find_hmax(0.1, 0.3, n=2)
    assert a == b


def test_hmax_bracket_contract():
    peak = analysis.find_hmax(0.0, 0.0, n=2)
    lo, hi = peak.bracket
    assert hi - lo < 1e-4 * peak.h_max
    assert peak.lambda_i_max >= dsp.acoustic_root(lo, 0.0, 2).lambda_i - 1e-12
    assert peak.lambda_i_max >= dsp.acoustic_root(hi, 0.0, 2).lambda_i - 1e-12


def test_hmax_theta0_b0_is_the_exact_peak():
    # n = 2, theta = 0: u = (1 + ih)/(2 + ih), whose lambda_i peaks at
    # h = sqrt(20/7) with the value 1/(4 sqrt(3))
    peak = analysis.find_hmax(0.0, 0.0, n=2)
    assert peak.h_max == pytest.approx(math.sqrt(20.0 / 7.0), rel=1e-13)
    assert peak.lambda_i_max == pytest.approx(1.0 / (4.0 * math.sqrt(3.0)), rel=1e-14)
    lo, hi = peak.bracket
    assert lo <= peak.h_max <= hi
    (row, _) = analysis.theta_scan(0.0, 2, 10.0, [0.0])
    assert row.branch == "acoustic"
    assert row.max_lambda_i == pytest.approx(1.0 / (4.0 * math.sqrt(3.0)), rel=1e-14)


def reference_golden_max(f, a: float, b: float, rel_tol: float):
    """Golden-section maximization on a log-h axis (the search find_hmax used before)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    la, lb = math.log(a), math.log(b)
    lc = lb - inv_phi * (lb - la)
    ld = la + inv_phi * (lb - la)
    fc, fd = f(math.exp(lc)), f(math.exp(ld))
    while (lb - la) > rel_tol:
        if fc >= fd:
            lb, ld, fd = ld, lc, fc
            lc = lb - inv_phi * (lb - la)
            fc = f(math.exp(lc))
        else:
            la, lc, fc = lc, ld, fd
            ld = la + inv_phi * (lb - la)
            fd = f(math.exp(ld))
    h_lo, h_hi = math.exp(la), math.exp(lb)
    h_best = math.sqrt(h_lo * h_hi)
    return h_best, f(h_best), (h_lo, h_hi)


def test_hmax_is_at_least_a_fine_golden_section_search():
    rng = np.random.default_rng(15)
    h_range = (1e-4, 1e4)
    grid = np.geomspace(*h_range, analysis.SCAN_POINTS)
    for _ in range(60):
        n = int(rng.choice([2, 3]))
        theta, B = rng.uniform(0.0, math.pi / n), rng.uniform(-0.6, 0.8)
        # the coarse bracket and the acoustic root at its centre, from a sweep
        rows = list(analysis.sweep([theta], [B], grid, n))[::-1]
        k = int(np.argmax([row.lambda_i for row in rows]))
        assert 0 < k < len(grid) - 1
        u_k = complex(rows[k].lambda_r, rows[k].lambda_i) ** 2

        def lambda_i(h):
            roots = dsp._eig_roots([h * (1.0 + B)], theta, n)[0]
            return dsp.principal_lambda(roots[np.argmin(np.abs(roots - u_k))]).imag

        h_ref, li_ref, _ = reference_golden_max(lambda_i, grid[k - 1], grid[k + 1], 1e-13)
        peak = analysis.find_hmax(theta, B, n=n, h_range=h_range)
        assert peak.lambda_i_max >= li_ref * (1.0 - 1e-14)
        assert peak.h_max == pytest.approx(h_ref, rel=1e-7)


def reference_branch_lambda_i(roots, k: int, branch: str) -> float:
    """lambda_i of root k (acoustic), or the largest lambda_i of the other
    live (non-NaN) roots.

    The one-row-at-a-time form the coarse peak grids used before.
    """
    if branch == "acoustic":
        return dsp.principal_lambda(roots[k]).imag
    return max((dsp.principal_lambda(u).imag
                for j, u in enumerate(roots) if j != k and not np.isnan(u)),
               default=math.inf)


def test_coarse_branch_lambda_i_matches_the_row_by_row_form_bitwise():
    # columns 0 and 1 of dispersion._order, as the coarse grids read them
    rng = np.random.default_rng(15)
    count = 0
    for n in (2, 3, 4, 6, 8):
        degenerate = [j * math.pi / (2 * n) for j in range(2 * n)] + [math.pi / 4]
        for theta in degenerate + list(rng.uniform(0.0, math.pi, 4)):
            h_b = np.geomspace(1e8, 1e-5, 200)
            # the top lies above h_b = 4: continued from u = 0, unseeded
            rows = dsp._eig_roots(h_b, theta, n)
            path = dsp._follow(rows)
            lines = analysis._coarse_lines([theta], 0.0, n, h_b[::-1])
            for j, branch in enumerate(("acoustic", "secondary")):
                want = [reference_branch_lambda_i(r, k, branch) for r, k in zip(rows, path)]
                assert np.array(want).tobytes() == lines.lambda_i[0, ::-1, j].tobytes()
            count += len(rows)
    assert count >= 10_000


@pytest.mark.parametrize("n, theta, B", [(2, 0.0, 0.0), (3, 0.3, -0.3), (6, 0.2, 0.6)])
def test_slope_matches_a_finite_difference_of_lambda_i(n, theta, B):
    step = 1e-5
    for h in np.geomspace(0.1, 10.0, 9):
        lines = analysis._coarse_lines([theta], B, n, h * np.exp([-step, 0.0, step]))
        for j in (0, 1):   # the acoustic and the secondary column
            li, u = lines.lambda_i[0, :, j], lines.u[0, :, j]
            g = analysis._slope(u[1:2], np.array([h * (1.0 + B)]), dsp._cos2(theta, n))
            if math.isinf(li[1]):   # the secondary escaped to infinity at theta = 0
                assert math.isnan(g[0])
                continue
            assert g[0] == pytest.approx((li[2] - li[0]) / (2 * step), rel=1e-6, abs=1e-9)


def test_refine_keeps_the_coarse_peak_where_the_slope_is_not_finite(eig_calls):
    # no secondary root there (NaN): no slope, so no search and no solve
    u = np.stack([np.full(3, 0.5 + 0.1j), np.full(3, np.nan + 0j)], axis=-1)
    lambda_i = np.stack([np.full(3, 0.05), [0.1, 0.3, 0.2]], axis=-1)
    lines = analysis._Lines(theta=np.array([0.3]), B=0.0, h=np.array([1.0, 2.0, 3.0]),
                            u=u[None], lambda_i=lambda_i[None])
    assert analysis._refine(lines, np.array([0]), np.array([1]), 3) == [(2.0, 0.3, (1.0, 3.0))]
    assert eig_calls.sizes == []


def test_refine_picks_each_step_with_one_nearest_call(monkeypatch):
    # each refinement step is one theta-per-row batch, and the root nearest
    # each line's visited u is picked by one _nearest call on that batch,
    # as a one-row continuation from that u picks it
    solved, picked = [], []
    real_eig, real_nearest = dsp._eig_roots, dsp._nearest

    def eig_roots(h_b, theta, n):
        rows = real_eig(h_b, theta, n)
        if np.ndim(theta):   # a refinement step, one angle per row
            solved.append(rows)
        return rows

    def nearest(rows, u):
        picks = real_nearest(rows, u)
        if any(rows is batch for batch in solved):   # not a _follow table
            picked.append((rows, u, picks))
        return picks

    monkeypatch.setattr(dsp, "_eig_roots", eig_roots)
    monkeypatch.setattr(dsp, "_nearest", nearest)
    analysis.theta_scan(0.5, 3, 10.0, np.linspace(0.05, 0.5, 5))
    assert len(solved) > 5 and len(picked) == len(solved)
    for rows, (seen, u, picks) in zip(solved, picked):
        assert seen is rows and np.shape(u) == picks.shape == (len(rows), 1)
        assert picks[:, 0].tolist() == [follow_row_by_row(r[None], u_l)[0]
                                        for r, (u_l,) in zip(rows, u)]


def test_sweep_rows_equal_rows_built_by_keyword(monkeypatch):
    # the rows sweep builds from the one walk of the columns, error row
    # included, against the keyword form
    points = [(2.0, 0.5, 0.3), (1.0, 0.5, 0.3), (0.5, 0.5, 0.3), (0.25, 0.5, 0.3)]
    counts = [3, 0, 2, 1]
    lam = [1 + 0.1j, 0.5 + 0.2j, 0.3 + 0.3j, 0.9 + 0.05j, 0.4 + 0.4j, 0.8 + 0.01j]
    residual = [1e-16, 2e-16, 3e-16, 4e-16, 5e-16, 6e-16]
    want, at = [], 0
    for (h, B, theta), count in zip(points, counts):
        if count == 0:
            want.append(analysis.SweepRow(h=h, B=B, theta=theta, n=3, branch="error",
                                          lambda_r=math.nan, lambda_i=math.nan,
                                          residual=math.nan))
        want += [analysis.SweepRow(h=h, B=B, theta=theta, n=3,
                                   branch="acoustic" if j == 0 else f"secondary({j})",
                                   lambda_r=lam[at + j].real, lambda_i=lam[at + j].imag,
                                   residual=residual[at + j]) for j in range(count)]
        at += count

    def swept(*columns):   # the rows sweep builds from these columns of one angle
        monkeypatch.setattr(analysis, "_sweep_columns", lambda *args: [columns])
        return list(analysis.sweep([0.3], [0.5], [1.0], 3, "all"))

    assert repr(swept(points, counts, lam, residual)) == repr(want)
    assert repr(swept(points[1:2], [0], [], [])) == repr(want[3:4])
    # the walk: each point once, with its roots, and one "error" root where
    # it has none
    walked = [(point, [(name, z.real, z.imag, res) for name, z, res in roots])
              for point, roots in analysis._labelled_points([(points, counts, lam, residual)], 3)]
    assert [point for point, _ in walked] == points
    assert repr([(*point, *root) for point, roots in walked for root in roots]) == \
        repr([(r.h, r.B, r.theta, r.branch, r.lambda_r, r.lambda_i, r.residual) for r in want])


def test_eigvals_failure_is_a_convergence_error_and_error_rows(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with pytest.raises(ConvergenceError, match="^eigenvalue solve failed: Eigenvalues"):
        dsp._eig_roots([1.0], 0.3, 2)
    # the batch fails, then every point on its own
    rows = list(analysis.sweep([0.3], [0.0, -0.9], [10.0, 1.0], 3, "all"))
    assert [(r.B, r.h, r.branch) for r in rows] == \
        [(B, h, "error") for B in (0.0, -0.9) for h in (10.0, 1.0)]
    assert all(math.isnan(r.lambda_r) and math.isnan(r.residual) for r in rows)


def test_sweep_line_whose_failed_top_leaves_no_live_row_above_4_is_error_rows(eig_calls):
    # the B = 0 line's top, h_b = 7, fails in its batch and on its own; its
    # next rows lie at or below h_b = 4, where the root of smallest |u| need
    # not be the acoustic one, so each of its points is an "error" row; the
    # B = 1 line, h_b from 14 down, is as it is without the failure
    h = [7.0, 2.0, 0.5]
    clean = list(analysis.sweep([0.3], [0.0, 1.0], h, 3, "all"))
    eig_calls.fail(ConvergenceError, "synthetic failure", at=[7.0])
    rows = list(analysis.sweep([0.3], [0.0, 1.0], h, 3, "all"))
    assert [(r.h, r.branch) for r in rows if r.B == 0.0] == [(h_i, "error") for h_i in h]
    assert all(math.isnan(r.lambda_r) and math.isnan(r.residual) for r in rows if r.B == 0.0)
    assert repr([r for r in rows if r.B == 1.0]) == repr([r for r in clean if r.B == 1.0])


def test_theta_scan_of_flat_and_edge_lines_is_one_coarse_batch(eig_calls):
    # at pi/4 the acoustic line is flat (0) and the secondary peaks at the
    # grid's top edge: nothing to refine, so the coarse batch is the only one
    rows = analysis.theta_scan(0.5, 2, 10.0, [math.pi / 4])
    assert [r.max_lambda_i for r in rows] == [
        0.0, pytest.approx(np.sqrt(1 + 1j * 10.0 * 1.5).imag, rel=1e-12)]
    assert len(eig_calls.grids) == 1


# ---------------------------------------------------------------------- sweep

def test_sweep_rows_ordered_and_certified():
    thetas = [0.0, math.pi / 8, math.pi / 4]
    h_grid = np.geomspace(1e-2, 1e2, 21)
    table = analysis.sweep(thetas, [0.0], h_grid, 2)
    assert len(table) == 3 * 21
    rows = list(table)
    # ordering: theta-major, h descending
    assert [r.theta for r in rows[:21]] == [0.0] * 21
    hs = [r.h for r in rows[:21]]
    assert hs == sorted(hs, reverse=True)
    for row in rows:
        assert row.residual < 1e-9
        assert row.lambda_r > 0


def test_sweep_lambda_r_rises_to_hydrodynamic_limit():
    h_grid = np.geomspace(1e-2, 1e2, 25)
    table = analysis.sweep([0.0, math.pi / 8, math.pi / 4], [0.0], h_grid, 2)
    for theta in (0.0, math.pi / 8, math.pi / 4):
        line = [r for r in table if r.theta == theta]
        lam_r = [r.lambda_r for r in line][::-1]   # ascending h
        assert all(b >= a - 1e-12 for a, b in zip(lam_r, lam_r[1:]))
        assert lam_r[-1] == pytest.approx(1.0, abs=2e-2)


def test_sweep_pi4_line_is_unit_undamped():
    table = analysis.sweep([math.pi / 4], [0.0], np.geomspace(0.01, 100, 15), 2)
    for row in table:
        assert row.lambda_r == pytest.approx(1.0, abs=1e-10)
        assert abs(row.lambda_i) < 1e-10


def test_sweep_programming_errors_propagate(eig_calls):
    eig_calls.fail(TypeError, "synthetic programming error", at=[1.0], tol=1e-12)
    with pytest.raises(TypeError):
        analysis.sweep([0.2], [0.0], [10.0, 1.0, 0.1], 2)


def test_point_secondary_query_solves_once(eig_calls):
    roots = dsp.solve_roots(dsp.assemble_polynomial(1.0, 0.3, 3))
    eig_calls.clear()
    assert dsp.select_branch(roots, 1.0, 0.3, 3, policy="all")[1].lambda_i > 0
    assert len(eig_calls.grids) == 1


def _seed_then(h_b):
    """The seed grid's tail from its last row above h_b = 4 (none for a top above 4), then h_b."""
    return np.concatenate([seed_grid(h_b[0])[1], h_b])


def _is_seed_then(batch, h_b):
    """batch is the seed grid's tail from its last row above h_b = 4, then h_b."""
    return batch.tobytes() == _seed_then(h_b).tobytes()


def test_find_hmax_coarse_grid_is_one_batched_solve(eig_calls):
    grids = eig_calls.grids
    theta, B, n = 0.3, -0.2, 3
    analysis.find_hmax(theta, B, n=n)
    # one batch (the seed grid's tail, then the whole coarse grid), then at
    # most 16 refinement batches of the one line's point
    coarse = np.geomspace(1e2, 1e-2, analysis.SCAN_POINTS) * (1.0 + B)
    assert _is_seed_then(grids[0], coarse)
    assert 1 <= len(grids) - 1 <= 16 and {len(g) for g in grids[1:]} == {1}


def test_theta_scan_branches_share_one_batch_per_angle(eig_calls):
    grids, thetas = eig_calls.grids, eig_calls.thetas
    theta_grid, B, h_cap = [0.2, math.pi / 4, 0.9], 0.4, 10.0
    analysis.theta_scan(B, 2, h_cap, theta_grid)
    coarse = np.geomspace(h_cap * 1e-4, h_cap, analysis.SCAN_POINTS)[::-1] * (1.0 + B)
    # per angle: one batch (seed tail, then the coarse grid) for both
    # branches; then at most 16 refinement batches shared by all angles,
    # each holding at most the two branches of every angle, one angle per row
    L = len(theta_grid)
    assert all(_is_seed_then(g, coarse) for g in grids[:L])
    assert thetas[:L] == theta_grid
    refine = grids[L:]
    assert 1 <= len(refine) <= 16
    assert all(1 <= len(g) <= 2 * L for g in refine)
    assert all(len(t) == len(g) and set(t) <= set(theta_grid)
               for t, g in zip(thetas[L:], refine))


def test_theta_scan_lockstep_equals_one_angle_at_a_time():
    for B, n in ((0.5, 3), (-0.4, 2)):
        theta_grid = list(np.linspace(0.0, math.pi / 2, 9))
        together = analysis.theta_scan(B, n, 10.0, theta_grid)
        alone = [row for theta in theta_grid
                 for row in analysis.theta_scan(B, n, 10.0, [theta])]
        assert [(r.theta, r.branch, float(r.max_lambda_i).hex()) for r in together] == \
            [(r.theta, r.branch, float(r.max_lambda_i).hex()) for r in alone]


def test_sweep_line_is_one_batched_solve(eig_calls):
    grids = eig_calls.grids
    h_grid = np.geomspace(1e-2, 1e2, 7)
    Bs = [0.0, -0.3]
    table = analysis.sweep([0.1, 0.5], Bs, h_grid, 3, branch_policy="all")
    assert len(table) == 2 * 2 * 7 * 3
    # per theta: one batch, each line's seed grid tail and then the line,
    # in B order
    assert len(grids) == 2
    want = np.concatenate([_seed_then(h_grid[::-1] * (1.0 + B)) for B in Bs])
    for g in grids:
        assert g.tobytes() == want.tobytes()


def test_sweep_secondaries_match_select_branch():
    h, theta, B, n = 0.7, 0.35, 0.2, 4
    rows = list(analysis.sweep([theta], [B], [h], n, branch_policy="all"))
    h_b = h * (1.0 + B)
    roots = dsp.select_branch(dsp._eig_roots([h_b], theta, n)[0], h_b, theta, n,
                              policy="all")
    assert [r.branch for r in rows] == [r.branch for r in roots]
    assert [complex(r.lambda_r, r.lambda_i) for r in rows] == [r.lam for r in roots]
    lines = analysis._coarse_lines([theta], B, n, np.array([h]))
    assert lines.lambda_i[0, 0, 1] == roots[1].lambda_i


@pytest.mark.parametrize("n", [2, 3])
def test_sweep_acoustic_rows_agree_bitwise_with_point_and_track(n):
    # n >= 4 is left out: there the three paths can land on different
    # branches (the measured branch swaps of the fixed-step continuation)
    h_grid = np.geomspace(1e-2, 1e2, 25)
    thetas, Bs = [0.0, 0.3, math.pi / 8, 0.7], [0.0, 0.5, -0.3]
    rows = list(analysis.sweep(thetas, Bs, h_grid, n))
    h_desc = h_grid[::-1]
    h_track = np.concatenate([np.geomspace(1e6, 2e2, 30), h_desc])
    for i, (theta, B) in enumerate((t, b) for t in thetas for b in Bs):
        line = rows[i * len(h_desc):(i + 1) * len(h_desc)]
        track = dsp.continuation_track(theta, n, B, h_track)[-len(h_desc):]
        for row, h, tracked in zip(line, h_desc, track):
            assert (row.theta, row.B, row.h) == (theta, B, h)
            lam = complex(row.lambda_r, row.lambda_i)
            assert lam == dsp.acoustic_root(h * (1.0 + B), theta, n).lam
            assert lam == tracked.lam


@pytest.mark.parametrize("n", [2, 3])
def test_sweep_all_rows_agree_bitwise_with_the_point_lookup(n):
    # every labelled root, secondaries included: branch, lambda and the
    # residual certificate of each row equal the lookup's at that h_b; a
    # third of the angles are the degenerate k pi/(4n)
    h_grid = np.geomspace(1e-2, 1e2, 25)
    thetas = list(dict.fromkeys([0.0, 0.3, math.pi / 8, 0.7]
                                + [k * math.pi / (4 * n) for k in range(4 * n)]))
    Bs = [0.0, 0.5, -0.3]
    rows = list(analysis.sweep(thetas, Bs, h_grid, n, branch_policy="all"))
    got = {}
    for row in rows:
        got.setdefault((row.theta, row.B, row.h), []).append(
            (row.branch, *bits([row.lambda_r, row.lambda_i, row.residual])))
    assert len(got) == len(thetas) * len(Bs) * len(h_grid)
    for (theta, B, h), labelled in got.items():
        h_b = h * (1.0 + B)
        roots = dsp.solve_roots(dsp.assemble_polynomial(h_b, theta, n))
        want = [(r.branch, *bits([r.lam.real, r.lam.imag, r.residual]))
                for r in dsp.select_branch(roots, h_b, theta, n, "all")]
        assert labelled == want, (theta, B, h)


def test_sweep_hb_collapse_between_b_values():
    h_grid = np.geomspace(1e-1, 1e1, 11)
    t1 = analysis.sweep([0.3], [0.3], h_grid, 2)
    t2 = analysis.sweep([0.3], [0.7], h_grid * (1.3 / 1.7), 2)
    for r1, r2 in zip(t1, t2):
        assert r1.lambda_r == pytest.approx(r2.lambda_r, rel=1e-12)
        assert r1.lambda_i == pytest.approx(r2.lambda_i, rel=1e-12, abs=1e-12)


def test_sweep_all_policy_appends_secondary_rows():
    table = analysis.sweep([math.pi / 4], [0.0], [1.0], 2, branch_policy="all")
    rows = list(table)
    assert [r.branch for r in rows] == ["acoustic", "secondary(1)"]
    assert rows[1].lambda_i == pytest.approx(0.45508986056222733, rel=1e-9)


def test_sweep_empty_inputs_rejected():
    with pytest.raises(DomainError):
        analysis.sweep([], [0.0], [1.0], 2)
    with pytest.raises(DomainError):
        analysis.sweep([0.0], [0.0], [-1.0], 2)


def test_sweep_failures_become_error_rows(monkeypatch, eig_calls):
    # the line's one batch (its top h_b = 10 lies above 4, so it holds no
    # seed row) and its point h_b = 1 fail; the other points solve one at
    # a time
    eig_calls.fail(ConvergenceError, "synthetic failure", at=[1.0], tol=1e-12)
    table_rows = list(analysis.sweep([0.2], [0.0], [10.0, 1.0, 0.1], 2))
    assert len(table_rows) == 3
    bad = [r for r in table_rows if r.branch == "error"]
    assert len(bad) == 1
    assert bad[0].h == 1.0
    assert math.isnan(bad[0].lambda_r)
    good = [r for r in table_rows if r.branch == "acoustic"]
    assert all(r.residual < 1e-9 for r in good)
    monkeypatch.undo()
    clean = list(analysis.sweep([0.2], [0.0], [10.0, 1.0, 0.1], 2))
    assert [table_rows[0], table_rows[2]] == [clean[0], clean[2]]


# -------------------------------------------------------- localization length

def test_localization_reciprocal_of_attenuation():
    table = analysis.sweep([0.0], [0.0], [HMAX_T0_B0], 2)
    out = analysis.localization_length(table)
    (row,) = list(out)
    assert row.loc_length == pytest.approx(1.0 / row.lambda_i, rel=1e-15)
    assert row.loc_length == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-6)


def test_localization_rounded_reciprocal_example():
    assert 1.0 / 0.1443 == pytest.approx(6.930, abs=1e-3)


def test_localization_infinite_marker_at_pi4():
    table = analysis.sweep([math.pi / 4], [0.0], [1.0, 0.1], 2)
    out = analysis.localization_length(table)
    for row in out:
        assert math.isinf(row.loc_length)


def test_localization_minimum_at_hmax():
    peak = analysis.find_hmax(0.0, 0.0, n=2)
    h_grid = np.geomspace(1e-2, 1e2, 101)
    out = analysis.localization_length(analysis.sweep([0.0], [0.0], h_grid, 2))
    rows = list(out)
    best = min(rows, key=lambda r: r.loc_length)
    assert best.h == pytest.approx(peak.h_max, rel=0.1)
    assert best.loc_length == pytest.approx(1.0 / peak.lambda_i_max, rel=1e-3)


def test_localization_idempotent_reciprocity():
    table = analysis.sweep([0.1], [0.0], np.geomspace(0.1, 10, 7), 2)
    once = analysis.localization_length(table)
    twice = analysis.localization_length(once)
    for r1, r2 in zip(once, twice):
        assert r1.loc_length == r2.loc_length


# ------------------------------------------------------------------ theta_scan

def scan_value(rows, theta, branch):
    for row in rows:
        if row.branch == branch and row.theta == pytest.approx(theta, abs=1e-12):
            return row.max_lambda_i
    raise AssertionError("missing row")


def test_theta_scan_pi4_secondary_closed_form():
    grid = [math.pi / 8, math.pi / 4, 3 * math.pi / 8]
    rows = analysis.theta_scan(0.0, 2, 10.0, grid)
    want = dsp.principal_lambda(1 + 10j).imag
    assert scan_value(rows, math.pi / 4, "secondary") == pytest.approx(
        want, rel=1e-6)
    assert scan_value(rows, math.pi / 4, "acoustic") == 0.0


def test_theta_scan_bose_fermi_ratio():
    rows_bose = analysis.theta_scan(0.5, 2, 10.0, [math.pi / 4])
    rows_fermi = analysis.theta_scan(-0.5, 2, 10.0, [math.pi / 4])
    bose = scan_value(rows_bose, math.pi / 4, "secondary")
    fermi = scan_value(rows_fermi, math.pi / 4, "secondary")
    assert bose == pytest.approx(dsp.principal_lambda(1 + 15j).imag, rel=1e-6)
    assert fermi == pytest.approx(dsp.principal_lambda(1 + 5j).imag, rel=1e-6)
    assert bose / fermi == pytest.approx(1.8502902307662688, abs=0.01)


def test_theta_scan_acoustic_decreases_toward_pi4():
    grid = np.linspace(0.0, math.pi / 4, 6)
    rows = analysis.theta_scan(0.0, 2, 10.0, grid)
    vals = [scan_value(rows, t, "acoustic") for t in grid]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 0.0


def test_theta_scan_mirror_symmetric_about_pi4():
    grid = np.linspace(0.0, math.pi / 2, 9)
    rows = analysis.theta_scan(0.0, 2, 10.0, grid)
    for branch in ("acoustic", "secondary"):
        for k in range(4):
            lo = scan_value(rows, grid[k], branch)
            hi = scan_value(rows, grid[8 - k], branch)
            if math.isinf(lo) or math.isinf(hi):
                assert lo == hi
            else:
                assert lo == pytest.approx(hi, abs=1e-9)


def test_theta_scan_secondary_escapes_at_degenerate_angle():
    rows = analysis.theta_scan(0.0, 2, 10.0, [0.0])
    assert math.isinf(scan_value(rows, 0.0, "secondary"))


def test_theta_scan_bad_cap_rejected():
    with pytest.raises(DomainError):
        analysis.theta_scan(0.0, 2, -1.0, [0.1])


@pytest.mark.parametrize("call, name", [
    (lambda: analysis.find_hmax(0.0, -1.0), "B"),
    (lambda: analysis.find_hmax(0.0, math.nan), "B"),
    (lambda: analysis.find_hmax(0.0, 0.0, h_range=(1.0, math.inf)), "h_range"),
    (lambda: analysis.theta_scan(-1.0, 2, 10.0, [0.1]), "B"),
    (lambda: analysis.theta_scan(math.inf, 2, 10.0, [0.1]), "B"),
    (lambda: analysis.theta_scan(0.0, 2, math.inf, [0.1]), "h_cap"),
    (lambda: analysis.sweep([0.0], [-1.0], [1.0], 2), "B"),
    (lambda: analysis.sweep([0.0], [0.0, math.nan], [1.0], 2), "B"),
    (lambda: analysis.sweep([0.0], [0.0], [1.0, math.inf], 2), "h_grid"),
    (lambda: analysis.sweep([0.0], [0.0], [1.0, math.nan], 2), "h_grid"),
    (lambda: analysis.sweep([0.0], [0.0], [1.0], 1), "n must be an integer"),
    (lambda: analysis.sweep([0.0], [0.0], [1.0], 2.5), "n must be an integer"),
    (lambda: analysis.sweep([0.0, math.inf], [0.0], [1.0], 2), "theta"),
    (lambda: analysis.theta_scan(0.0, 2, 10.0, [math.nan]), "theta"),
    (lambda: analysis.sweep([0.0], [0.0], [1.0], 2, branch_policy="secondary"),
     "branch_policy"),
    (lambda: analysis.find_hmax(0.0, 0.0, branch="all"), "branch"),
    (lambda: analysis.theta_scan(0.0, 2, 10.0, []), "theta_grid"),
], ids=["hmax B=-1", "hmax B=nan", "hmax h_range=1:inf", "theta_scan B=-1",
        "theta_scan B=inf", "theta_scan h_cap=inf", "sweep B=-1", "sweep B=nan",
        "sweep h=inf", "sweep h=nan", "sweep n=1", "sweep n=2.5", "sweep theta=inf",
        "theta_scan theta=nan", "sweep policy=secondary", "hmax branch=all",
        "theta_scan empty grid"])
def test_out_of_domain_or_non_finite_input_raises_domain_error(call, name):
    with pytest.raises(DomainError, match=name):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: analysis.theta_scan(0.0, 2, 1e-320, [0.1]), "h_cap"),
    (lambda: analysis.theta_scan(0.0, 2, 1e308, [0.1]), "h_b"),
    (lambda: analysis.theta_scan(1e308, 2, 10.0, [0.1]), "h_b"),
    (lambda: analysis.find_hmax(0.0, 1e308), "h_b"),
    (lambda: analysis.find_hmax(0.0, 0.0, h_range=(1.0, 1e308)), "h_b"),
    (lambda: analysis.sweep([0.0], [1e308], [1.0], 2), "h_b"),
    (lambda: analysis.sweep([0.0], [0.0], [1e-320], 2), "h_b"),
    # the lowest h_b = 5e-324 * 0.1 rounds to 0
    (lambda: analysis.sweep([0.0], [-0.9], np.geomspace(5e-324, 1e-300, 3), 2), "h_b"),
], ids=["theta_scan h_cap=1e-320", "theta_scan h_cap=1e308", "theta_scan B=1e308",
        "hmax B=1e308", "hmax h_range=1:1e308", "sweep B=1e308", "sweep h=1e-320",
        "sweep h_b underflows to 0"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_h_b_grid_outside_the_float_range_raises_domain_error(call, name):
    with pytest.raises(DomainError, match=name):
        call()


def test_refine_raises_convergence_error_after_its_step_budget(monkeypatch):
    # the acoustic n = 2 peak at theta = 0 needs more than one step
    monkeypatch.setattr(analysis, "REFINE_MAX_STEPS", 1)
    with pytest.raises(ConvergenceError, match="did not converge in 1 steps"):
        analysis.find_hmax(0.0, 0.0)
