import math

import numpy as np
import pytest

from bosewave import analysis, dispersion as dsp
from bosewave.errors import DomainError, NoInteriorMaximumError

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


def test_hmax_bad_range_rejected():
    with pytest.raises(DomainError):
        analysis.find_hmax(0.0, 0.0, h_range=(1.0, 0.1))


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
    """lambda_i of root k (acoustic), or the largest lambda_i of the other roots.

    The one-row-at-a-time form the coarse peak grids used before.
    """
    if branch == "acoustic":
        return dsp.principal_lambda(roots[k]).imag
    return max((dsp.principal_lambda(u).imag
                for j, u in enumerate(roots) if j != k), default=math.inf)


def test_coarse_branch_lambda_i_matches_the_row_by_row_form_bitwise():
    rng = np.random.default_rng(15)
    count = 0
    for n in (2, 3, 4, 6, 8):
        degenerate = [j * math.pi / (2 * n) for j in range(2 * n)] + [math.pi / 4]
        for theta in degenerate + list(rng.uniform(0.0, math.pi, 4)):
            h_b = np.geomspace(1e8, 1e-5, 200)
            rows, path = dsp._track_to(h_b, theta, n)
            branches = analysis._branch_roots(rows, path, n)
            for branch, (_, lambda_i) in branches.items():
                want = [reference_branch_lambda_i(r, k, branch) for r, k in zip(rows, path)]
                assert np.array(want).tobytes() == lambda_i.tobytes()
            count += len(rows)
    assert count >= 10_000


@pytest.mark.parametrize("n, theta, B", [(2, 0.0, 0.0), (3, 0.3, -0.3), (6, 0.2, 0.6)])
def test_slope_matches_a_finite_difference_of_lambda_i(n, theta, B):
    step = 1e-5
    for h in np.geomspace(0.1, 10.0, 9):
        line = analysis._coarse_lines(theta, B, n, h * np.exp([-step, 0.0, step]))
        for branch in ("acoustic", "secondary"):
            li, u = line[branch].lambda_i, line[branch].branch_u
            g = analysis._slope(u[1:2], np.array([h * (1.0 + B)]), dsp._cos2(theta, n))
            if math.isinf(li[1]):   # the secondary escaped to infinity at theta = 0
                assert math.isnan(g[0])
                continue
            assert g[0] == pytest.approx((li[2] - li[0]) / (2 * step), rel=1e-6, abs=1e-9)


def test_refine_keeps_the_coarse_peak_where_the_slope_is_not_finite(eig_batches):
    # no secondary root there (NaN): no slope, so no search and no solve
    h = np.array([1.0, 2.0, 3.0])
    line = analysis._Line(theta=0.3, B=0.0, h=h, u=np.full(3, 0.5 + 0.1j),
                          branch="secondary", branch_u=np.full(3, np.nan + 0j),
                          lambda_i=np.array([0.1, 0.3, 0.2]))
    assert analysis._refine([line], 3) == [(2.0, 0.3, (1.0, 3.0))]
    assert eig_batches == []


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


def test_sweep_programming_errors_propagate(monkeypatch):
    real = dsp._eig_roots

    def broken(h_b, theta, n):
        if np.any(np.abs(np.asarray(h_b) - 1.0) < 1e-12):
            raise TypeError("synthetic programming error")
        return real(h_b, theta, n)

    monkeypatch.setattr(analysis.dispersion, "_eig_roots", broken)
    with pytest.raises(TypeError):
        analysis.sweep([0.2], [0.0], [10.0, 1.0, 0.1], 2)


def test_point_secondary_query_solves_once(eig_batches):
    roots = dsp.solve_roots(dsp.assemble_polynomial(1.0, 0.3, 3))
    eig_batches.clear()
    assert dsp.select_branch(roots, 1.0, 0.3, 3, policy="all")[1].lambda_i > 0
    assert len(eig_batches) == 1


def _eig_batches(monkeypatch, thetas=None):
    """The h_b grids of the _eig_roots calls a test makes, in order.

    The angle (or per-row angles) of each call is appended to ``thetas``.
    """
    real = dsp._eig_roots
    grids = []

    def recording(h_b, theta, n):
        grids.append(np.array(h_b, dtype=float))
        if thetas is not None:
            thetas.append(theta)
        return real(h_b, theta, n)

    monkeypatch.setattr(analysis.dispersion, "_eig_roots", recording)
    return grids


def _is_seed_then(batch, h_b):
    """batch is a seed grid from CONTINUATION_START (or 10*h_b[0]) followed by h_b."""
    top = h_b[0]
    start = dsp.CONTINUATION_START if top <= dsp.CONTINUATION_START else 10.0 * top
    return (len(batch) > len(h_b) and batch[0] == start
            and np.array_equal(batch[-len(h_b):], h_b)
            and np.all(np.diff(batch[:len(batch) - len(h_b) + 1]) < 0))


def test_find_hmax_coarse_grid_is_one_batched_solve(monkeypatch):
    grids = _eig_batches(monkeypatch)
    theta, B, n = 0.3, -0.2, 3
    analysis.find_hmax(theta, B, n=n)
    # one batch (the seed grid, then the whole coarse grid), then at most
    # 16 refinement batches of the one line's point
    coarse = np.geomspace(1e2, 1e-2, analysis.SCAN_POINTS) * (1.0 + B)
    assert _is_seed_then(grids[0], coarse)
    assert 1 <= len(grids) - 1 <= 16 and {len(g) for g in grids[1:]} == {1}


def test_theta_scan_branches_share_one_batch_per_angle(monkeypatch):
    thetas = []
    grids = _eig_batches(monkeypatch, thetas)
    theta_grid, B, h_cap = [0.2, math.pi / 4, 0.9], 0.4, 10.0
    analysis.theta_scan(B, 2, h_cap, theta_grid)
    coarse = np.geomspace(h_cap * 1e-4, h_cap, analysis.SCAN_POINTS)[::-1] * (1.0 + B)
    # per angle: one batch (seed grid, then the coarse grid) for both
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


def test_sweep_line_is_one_batched_solve(monkeypatch):
    grids = _eig_batches(monkeypatch)
    h_grid = np.geomspace(1e-2, 1e2, 7)
    Bs = [0.0, -0.3]
    table = analysis.sweep([0.1, 0.5], Bs, h_grid, 3, branch_policy="all")
    assert len(table) == 2 * 2 * 7 * 3
    # per (theta, B) line: one batch, the seed grid and then the line
    assert len(grids) == 4
    for g, B in zip(grids, Bs * 2):
        assert _is_seed_then(g, h_grid[::-1] * (1.0 + B))


def test_sweep_secondaries_match_select_branch():
    h, theta, B, n = 0.7, 0.35, 0.2, 4
    rows = list(analysis.sweep([theta], [B], [h], n, branch_policy="all"))
    h_b = h * (1.0 + B)
    roots = dsp.select_branch(dsp._eig_roots([h_b], theta, n)[0], h_b, theta, n,
                              policy="all")
    assert [r.branch for r in rows] == [r.branch for r in roots]
    assert [complex(r.lambda_r, r.lambda_i) for r in rows] == [r.lam for r in roots]
    line = analysis._coarse_lines(theta, B, n, np.array([h]))["secondary"]
    assert line.lambda_i[0] == roots[1].lambda_i


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


def test_sweep_failures_become_error_rows(monkeypatch):
    from bosewave.errors import ConvergenceError

    real = dsp._eig_roots

    def flaky(h_b, theta, n):
        # the line's one batch (seed grid down to h_b = 10, then the line)
        # and its point h_b = 1 fail; the seed points and the other points
        # solve one at a time
        if np.any(np.abs(np.asarray(h_b) - 1.0) < 1e-12):
            raise ConvergenceError("synthetic failure")
        return real(h_b, theta, n)

    monkeypatch.setattr(analysis.dispersion, "_eig_roots", flaky)
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
], ids=["hmax B=-1", "hmax B=nan", "hmax h_range=1:inf", "theta_scan B=-1",
        "theta_scan B=inf", "theta_scan h_cap=inf", "sweep B=-1", "sweep B=nan",
        "sweep h=inf", "sweep h=nan", "sweep n=1", "sweep n=2.5", "sweep theta=inf",
        "theta_scan theta=nan", "sweep policy=secondary"])
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
], ids=["theta_scan h_cap=1e-320", "theta_scan h_cap=1e308", "theta_scan B=1e308",
        "hmax B=1e308", "hmax h_range=1:1e308", "sweep B=1e308", "sweep h=1e-320"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_h_b_grid_outside_the_float_range_raises_domain_error(call, name):
    with pytest.raises(DomainError, match=name):
        call()
