import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bosewave import dispersion as dsp
from bosewave.errors import (
    ConvergenceError,
    DomainError,
    NoInteriorMaximumError,  # noqa: F401  (re-exported path check)
    SingularDenominatorError,
)
from conftest import bits, seed_grid

# frozen oracle values (computed from the closed forms; see test bodies)
LAMBDA_H1_T0 = 0.7850017617921874 + 0.1273882491316916j      # sqrt(0.6+0.2j)
LAMBDA_1PLUS1J = 1.09868411346781 + 0.45508986056222733j     # sqrt(1+1j)


def roots_multiset_close(a, b, tol=1e-9):
    a = sorted(a, key=lambda u: (u.real, u.imag))
    b = sorted(b, key=lambda u: (u.real, u.imag))
    return len(a) == len(b) and all(
        abs(x - y) <= tol * max(1.0, abs(y)) for x, y in zip(a, b))


# ---------------------------------------------------------------- assembly

def test_assemble_n2_theta0_degree_collapses_to_one():
    poly = dsp.assemble_polynomial(1.0, 0.0, 2)
    assert poly.degree == 1
    # monic form of -(2+i)u + (1+i)
    root = -poly.coeffs[1] / poly.coeffs[0]
    assert root == pytest.approx((1 + 1j) / (2 + 1j), rel=1e-14)


def test_assemble_n2_pi4_matches_factorization():
    poly = dsp.assemble_polynomial(1.0, math.pi / 4, 2)
    assert poly.degree == 2
    # (u-1)(u-(1+i)) = u^2 - (2+i)u + (1+i)
    np.testing.assert_allclose(poly.coeffs,
                               [1.0, -(2 + 1j), (1 + 1j)], rtol=1e-14)


def test_assemble_hydrodynamic_root_near_one():
    poly = dsp.assemble_polynomial(1e6, 0.3, 2)
    assert poly.degree == 2
    roots = dsp.solve_roots(poly)
    assert min(abs(u - 1.0) for u in roots) < 1e-3


def test_assemble_quadratic_closed_form_any_theta():
    # full-degree case: coefficients proportional to
    # sin^2(2θ) u^2 - (2+ih)u + (1+ih)
    h_b, theta = 2.5, 0.4
    poly = dsp.assemble_polynomial(h_b, theta, 2)
    s = math.sin(2 * theta) ** 2
    want = np.array([s, -(2 + 1j * h_b), (1 + 1j * h_b)]) / s
    np.testing.assert_allclose(poly.coeffs, want, rtol=1e-13)


def test_assemble_rejects_bad_params():
    with pytest.raises(DomainError):
        dsp.assemble_polynomial(-1.0, 0.0, 2)
    with pytest.raises(DomainError):
        dsp.assemble_polynomial(1.0, 0.0, 1)


def cleared_exact(h_b, theta, n):
    """Reference: the cleared polynomial of the float inputs in exact arithmetic.

    h_b and every cos^2 from ``dsp._cos2`` are integers over one common power
    of two D, so each d_m = (D + iH) - 2 C_m u has Gaussian-integer
    coefficients.  The recurrence T <- T d + P, P <- P d builds P = prod_m d_m
    and T = sum_m prod_{j!=m} d_j; n P - iH T is n D^n times the cleared
    polynomial.  Returns its descending coefficients as (re, im) int pairs.
    """
    ratios = [x.as_integer_ratio() for x in (h_b, *map(float, dsp._cos2(theta, n)))]
    D = max(q for _, q in ratios)
    H, *C = [p * (D // q) for p, q in ratios]

    def times_d(re, im, b):   # ascending coefficients times (D + iH) + b u
        return ([x * D - y * H + b * s for x, y, s in zip(re + [0], im + [0], [0] + re)],
                [x * H + y * D + b * s for x, y, s in zip(re + [0], im + [0], [0] + im)])

    p_re, p_im, t_re, t_im = [1], [0], [0], [0]
    for c in C:
        t_re, t_im = times_d(t_re, t_im, -2 * c)
        t_re = [t + q for t, q in zip(t_re, p_re + [0])]
        t_im = [t + q for t, q in zip(t_im, p_im + [0])]
        p_re, p_im = times_d(p_re, p_im, -2 * c)
    return [(n * x + H * w, n * y - H * v)
            for x, y, v, w in zip(p_re, p_im, t_re, t_im)][::-1]


def exact_trimmed_monic(h_b, theta, n):
    """The exact trim of ``cleared_exact`` and its monic coefficients, each
    correctly rounded (int / int true division rounds correctly)."""
    c = cleared_exact(h_b, theta, n)
    norms = [x * x + y * y for x, y in c]
    tol = Fraction(dsp.TRIM_REL_TOL)
    floor = max(norms) * tol.numerator ** 2
    k = 0
    while k < len(c) - 1 and norms[k] * tol.denominator ** 2 < floor:
        k += 1
    lead_re, lead_im = c[k]
    return np.array([complex((x * lead_re + y * lead_im) / norms[k],
                             (y * lead_re - x * lead_im) / norms[k]) for x, y in c[k:]])


def seeded_triples(seed, count, lo, hi):
    # one triple in three at a degenerate angle k pi/(4n), where leading
    # coefficients vanish and are trimmed
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 10))
        theta = (int(rng.integers(0, 8 * n)) * math.pi / (4 * n) if i % 3 == 0
                 else float(rng.uniform(-math.pi, math.pi)))
        yield float(10.0 ** rng.uniform(lo, hi)), theta, n


# The worst error measured over both samples is 1.95e-15 relative per
# coefficient (n = 9, h_b = 11, theta = 3pi/4); the bound is twice that.
EXACT_COEFF_REL_TOL = 4e-15


@pytest.mark.parametrize("seed, count, lo, hi", [(25, 3000, -8, 12), (34, 1000, -300, 300)],
                         ids=["h_b 1e-8..1e12", "h_b 1e-300..1e300"])
@pytest.mark.filterwarnings("error")
def test_assemble_polynomial_matches_the_exact_cleared_product(seed, count, lo, hi):
    for h_b, theta, n in seeded_triples(seed, count, lo, hi):
        got = dsp.assemble_polynomial(h_b, theta, n).coeffs
        want = exact_trimmed_monic(h_b, theta, n)
        assert len(got) == len(want), (h_b, theta, n)
        err = np.abs(got - want)
        assert (err <= EXACT_COEFF_REL_TOL * np.abs(want)).all(), (h_b, theta, n, got, want)


@pytest.mark.filterwarnings("error")
def test_assemble_polynomial_is_finite_over_the_float_range():
    for n in range(2, 9):
        # the grid holds 1e-300 and 1e300; 1e30 and 1e160 complete the pairs
        # (1e30, 8), (1e160, 2), (1e300, 3) and (1e-300, 5)
        for h_b in (*10.0 ** np.arange(-300, 308, 8), 1e30, 1e160, 1.7e308):
            for theta in (0.3, 0.0, math.pi / 4, math.pi / 2):
                poly = dsp.assemble_polynomial(float(h_b), theta, n)
                assert np.isfinite(poly.coeffs).all() and poly.degree >= 1, (h_b, theta, n)


@pytest.mark.parametrize("h_b, n", [(1e30, 8), (1e29, 3), (1e160, 2), (1e300, 3)])
@pytest.mark.filterwarnings("error")
def test_oracle_lookup_equals_acoustic_root_at_huge_h_b(h_b, n):
    # the cleared polynomial once collapsed to degree 0 (or overflowed) here;
    # only a consistency check: the acoustic value at 1e30 is ROADMAP item
    # 7's known defect
    roots = dsp.solve_roots(dsp.assemble_polynomial(h_b, 0.3, n))
    got = dsp.select_branch(roots, h_b, 0.3, n)
    assert repr(got) == repr(dsp.acoustic_root(h_b, 0.3, n))


@pytest.mark.parametrize("call", [
    lambda theta, n: dsp.acoustic_root(1.0, theta, n),
    lambda theta, n: dsp.select_branch(np.array([0.6 + 0.2j, 1.0 + 1.0j]), 1.0, theta, n),
    lambda theta, n: dsp.residual(LAMBDA_H1_T0, 1.0, theta, n),
    lambda theta, n: dsp.root_residual(LAMBDA_H1_T0, 1.0, theta, n),
    lambda theta, n: dsp.continuation_track(theta, n, 0.0, [1e4, 1.0]),
    lambda theta, n: dsp.assemble_polynomial(1.0, theta, n),
], ids=["acoustic_root", "select_branch", "residual", "root_residual",
        "continuation_track", "assemble_polynomial"])
@pytest.mark.filterwarnings("error")
def test_bad_n_or_theta_raises_domain_error(call):
    # _cos2 checks n and theta for every dispersion function that takes n
    for theta, n, message in ((0.3, 1, "n must be an integer >= 2"),
                              (0.3, 2.5, "n must be an integer >= 2"),
                              (math.nan, 2, "theta must be finite"),
                              (math.inf, 2, "theta must be finite")):
        with pytest.raises(DomainError, match=message):
            call(theta, n)


@pytest.mark.filterwarnings("error")
def test_non_finite_h_b_or_theta_rejected_by_the_oracles():
    for call in (lambda: dsp.assemble_polynomial(math.inf, 0.3, 2),
                 lambda: dsp.assemble_polynomial(math.nan, 0.3, 2),
                 lambda: dsp.closed_form_n2(math.inf, 0.3),
                 lambda: dsp.closed_form_n2(math.nan, 0.3)):
        with pytest.raises(DomainError, match="h_b must be positive and finite"):
            call()
    for theta in (math.nan, math.inf):
        with pytest.raises(DomainError, match="theta must be finite"):
            dsp.closed_form_n2(1.0, theta)


# ------------------------------------------------------------ root solving

def test_solve_factored_quadratic():
    poly = dsp.assemble_polynomial(1.0, math.pi / 4, 2)
    roots = sorted(dsp.solve_roots(poly), key=lambda u: abs(u))
    assert roots[0] == pytest.approx(1.0 + 0j, abs=1e-12)
    assert roots[1] == pytest.approx(1.0 + 1.0j, abs=1e-12)


def test_solve_linear_case():
    poly = dsp.assemble_polynomial(1.0, 0.0, 2)
    (root,) = dsp.solve_roots(poly)
    assert root == pytest.approx(0.6 + 0.2j, rel=1e-14)


def test_solve_degree_zero_errors():
    poly = dsp.DispersionPolynomial(coeffs=np.array([1.0 + 0j]), degree=0,
                                    params=(1.0, 0.0, 2))
    with pytest.raises(DomainError):
        dsp.solve_roots(poly)


def test_oracle_equivalence_1000_random():
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        h_b = 10.0 ** rng.uniform(-3, 3)
        theta = rng.uniform(0.0, math.pi / 2)
        got = dsp.solve_roots(dsp.assemble_polynomial(h_b, theta, 2))
        want = dsp.closed_form_n2(h_b, theta)
        assert roots_multiset_close(list(got), list(want)), (h_b, theta)


@settings(max_examples=200, deadline=None)
@given(h_b=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e),
       theta=st.floats(min_value=1e-3, max_value=math.pi / 2 - 1e-3))
def test_oracle_equivalence_property(h_b, theta):
    got = dsp.solve_roots(dsp.assemble_polynomial(h_b, theta, 2))
    want = dsp.closed_form_n2(h_b, theta)
    assert roots_multiset_close(list(got), list(want))


# ------------------------------------------------------------- eigen route

DEGENERATE = [(2, 0.0), (3, math.pi / 6), (4, 0.0), (4, math.pi / 4)]


def certified(roots, h_b, theta, n):
    return all(dsp.root_residual(dsp.principal_lambda(u), h_b, theta, n) < 1e-9
               for u in roots)


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("h_b", [1e2, 1e4, 1e6])
def test_solve_roots_keeps_every_root_at_large_hb(n, h_b):
    # the trimmed polynomial loses degree here; the roots must not go with it
    roots = dsp.solve_roots(dsp.assemble_polynomial(h_b, 0.3, n))
    assert len(roots) == n
    assert certified(roots, h_b, 0.3, n)


@pytest.mark.parametrize("n,theta", DEGENERATE)
@pytest.mark.parametrize("h_b", [1e-3, 1.0, 1e3, 1e6])
def test_degenerate_angle_drops_one_root_at_infinity(n, theta, h_b):
    # exactly one velocity is perpendicular to the wave: its mu is 0
    roots = dsp.solve_roots(dsp.assemble_polynomial(h_b, theta, n))
    assert len(roots) == n - 1
    assert certified(roots, h_b, theta, n)


@pytest.mark.parametrize("n,theta", DEGENERATE)
@pytest.mark.parametrize("offset", [1e-6, -1e-6])
@pytest.mark.parametrize("h_b", [1e-3, 1.0])
def test_near_degenerate_angle_keeps_every_root(n, theta, offset, h_b):
    roots = dsp.solve_roots(dsp.assemble_polynomial(h_b, theta + offset, n))
    assert len(roots) == n
    # the returning root is the large one, of order 1 / cos^2 ~ 1e12
    big = max(roots, key=abs)
    assert abs(big) > 1e9
    assert certified([big], h_b, theta + offset, n)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([3, 4, 6]),
       h_b=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e),
       frac=st.floats(min_value=0.01, max_value=0.49))
def test_eigen_roots_match_companion_roots_at_full_degree(n, h_b, frac):
    # frac keeps theta off the degenerate angles 0, pi/(2n) and pi/n (mod
    # pi/n), where np.roots itself loses accuracy
    theta = frac * math.pi / n
    poly = dsp.assemble_polynomial(h_b, theta, n)
    assume(poly.degree == n)
    assert roots_multiset_close(list(dsp.solve_roots(poly)),
                                list(np.roots(poly.coeffs)), tol=1e-8)


def test_polish_certifies_large_secondaries():
    # unpolished eigenvalues leave a residual near 1e-8 here
    roots = dsp.solve_roots(dsp.assemble_polynomial(1e6, 0.6, 3))
    assert max(dsp.root_residual(dsp.principal_lambda(u), 1e6, 0.6, 3)
               for u in roots) < 1e-12


def test_polish_keeps_close_pair_apart():
    roots = sorted(dsp.solve_roots(dsp.assemble_polynomial(1e-9, math.pi / 4, 2)),
                   key=lambda u: u.imag)
    assert roots[0] == pytest.approx(1.0, abs=1e-15)
    assert roots[1] == pytest.approx(1.0 + 1e-9j, abs=1e-15)


@pytest.mark.parametrize("h_b", [1e-12, 1.0, 1e6])
def test_polish_leaves_a_root_on_a_pole_and_a_dropped_root(h_b):
    # c2 = 1/2 twice puts both poles at u = 1 + i h_b, where d = 0 exactly:
    # the step there is not finite, and the NaN root has none either
    u = np.array([[1.0 + 1j * h_b, np.nan]])
    out = dsp._polish(u, np.array([h_b]), np.array([0.5, 0.5]))
    assert out.tobytes() == u.tobytes()


def test_polynomial_vanishes_at_the_solved_roots():
    for h_b, theta, n in [(0.3, 0.4, 2), (2.0, 0.7, 5), (1.0, 1.1, 8)]:
        poly = dsp.assemble_polynomial(h_b, theta, n)
        for u in dsp.solve_roots(poly):
            size = np.polyval(np.abs(poly.coeffs), abs(u))   # the terms' scale
            assert abs(poly(u)) < 1e-12 * size, (h_b, theta, n, u)


def test_solve_roots_checks_the_params_h_b():
    poly = dsp.DispersionPolynomial(coeffs=np.array([1.0, 0j]), degree=1,
                                    params=(math.nan, 0.3, 2))
    with pytest.raises(DomainError, match="h_b"):
        dsp.solve_roots(poly)


def test_dispersion_root_lambda_r_is_the_real_part():
    root = dsp.acoustic_root(1.0, 0.3, 3)
    assert root.lambda_r == root.lam.real and root.lambda_i == root.lam.imag


def test_batched_solve_matches_pointwise():
    h_b = np.geomspace(1e6, 1e-3, 50)
    for roots, hb in zip(dsp._eig_roots(h_b, 0.3, 4), h_b):
        single = dsp.solve_roots(dsp.assemble_polynomial(hb, 0.3, 4))
        np.testing.assert_allclose(roots, single, rtol=1e-14)


def test_theta_per_row_batch_matches_one_angle_calls_bitwise():
    rng = np.random.default_rng(15)
    for n in (2, 3, 4, 6, 8):
        h_b = 10.0 ** rng.uniform(-4.0, 8.0, 400)
        theta = rng.uniform(0.0, math.pi, 400)
        # degenerate angles: velocities perpendicular to the wave, and pi/4
        theta[::5] = rng.integers(0, 2 * n, 80) * math.pi / (2 * n)
        theta[::7] = math.pi / 4
        for roots, hb, t in zip(dsp._eig_roots(h_b, theta, n), h_b, theta):
            assert roots.tobytes() == dsp._eig_roots([hb], float(t), n)[0].tobytes()


def test_theta_per_row_needs_one_angle_per_h_b():
    with pytest.raises(DomainError, match="theta"):
        dsp._eig_roots([1.0, 2.0], [0.1, 0.2, 0.3], 3)
    with pytest.raises(DomainError, match="theta"):
        dsp._eig_roots([1.0, 2.0], [0.1, math.nan], 3)


@pytest.mark.parametrize("n, theta, h_b", [(2, 0.3, 1.7), (3, 0.2, 0.05), (6, 1.1, 40.0)])
def test_secular_derivatives_match_finite_differences(n, theta, h_b):
    c2 = dsp._cos2(theta, n)
    u = dsp._eig_roots([h_b], theta, n)[0][None, :]
    inv, f, f_u = dsp._secular(u, np.array([h_b]), c2)
    # f_h = df/dh_b as analysis._slope forms it from 1/d
    f_h = -(1j / n) * inv.sum(axis=2) - (h_b / n) * (inv * inv).sum(axis=2)
    du, dh = 1e-6 * np.abs(u), 1e-6 * h_b
    _, fu_p, _ = dsp._secular(u + du, np.array([h_b]), c2)
    _, fu_m, _ = dsp._secular(u - du, np.array([h_b]), c2)
    _, fh_p, _ = dsp._secular(u, np.array([h_b + dh]), c2)
    _, fh_m, _ = dsp._secular(u, np.array([h_b - dh]), c2)
    np.testing.assert_allclose(f, 0.0, atol=1e-12)
    np.testing.assert_allclose(f_u, (fu_p - fu_m) / (2 * du), rtol=1e-6)
    np.testing.assert_allclose(f_h, (fh_p - fh_m) / (2 * dh), rtol=1e-6)


def test_continuation_is_one_batched_solve(eig_calls):
    dsp.continuation_track(0.3, 3, 0.0, np.geomspace(1e4, 1e-2, 40))
    assert eig_calls.sizes == [40]
    roots = dsp._eig_roots(np.array([1.0]), 0.3, 3)[0]
    eig_calls.clear()
    dsp.select_branch(roots, 1.0, 0.3, 3)
    assert len(eig_calls.grids) == 1 and eig_calls.sizes[0] > 1


# ------------------------------------------------------------- closed form

def test_closed_form_linear_root():
    (u,) = dsp.closed_form_n2(1.0, 0.0)
    assert u == pytest.approx(0.6 + 0.2j, rel=1e-15)


def test_closed_form_pi4_factorization():
    roots = sorted(dsp.closed_form_n2(1.0, math.pi / 4), key=abs)
    assert roots[0] == pytest.approx(1.0 + 0j, abs=1e-14)
    assert roots[1] == pytest.approx(1.0 + 1.0j, abs=1e-14)


def test_closed_form_small_hb_limit():
    (u,) = dsp.closed_form_n2(1e-12, 0.0)
    assert u == pytest.approx(0.5, abs=1e-11)


# -------------------------------------------------------- principal lambda

def test_principal_lambda_identity():
    assert dsp.principal_lambda(1.0 + 0j) == 1.0 + 0j


def test_principal_lambda_frozen_values():
    lam = dsp.principal_lambda(0.6 + 0.2j)
    assert lam == pytest.approx(LAMBDA_H1_T0, rel=1e-14)
    lam = dsp.principal_lambda(1 + 1j)
    assert lam == pytest.approx(LAMBDA_1PLUS1J, rel=1e-14)


def test_principal_lambda_branch_convention():
    # negative real u: Re lam = 0 so Im lam >= 0
    lam = dsp.principal_lambda(-4.0 + 0j)
    assert lam == pytest.approx(2j, abs=1e-15)
    lam = dsp.principal_lambda(complex(-4.0, -0.0))
    assert lam.imag >= 0 or lam.real > 0


@given(u=st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                            allow_nan=False, allow_infinity=False))
def test_principal_lambda_squares_back(u):
    lam = dsp.principal_lambda(u)
    assert lam.real >= 0
    assert cmath.isclose(lam * lam, u, rel_tol=1e-12)


# ----------------------------------------------------------------- residual

def test_residual_exact_zero_at_pi4_root():
    assert dsp.residual(1.0 + 0j, 1.0, math.pi / 4, 2) == pytest.approx(0, abs=1e-15)


def test_residual_half_at_theta0():
    # 1 - (i/2)[1/(i-1) + 1/(1+i)] = 1/2
    val = dsp.residual(1.0 + 0j, 1.0, 0.0, 2)
    assert val == pytest.approx(0.5 + 0j, abs=1e-15)


def test_residual_small_at_acoustic_roots():
    rng = np.random.default_rng(7)
    for _ in range(50):
        h_b = 10.0 ** rng.uniform(-2, 2)
        theta = rng.uniform(1e-3, math.pi / 2 - 1e-3)
        n = int(rng.integers(2, 5))
        root = dsp.acoustic_root(h_b, theta, n)
        assert root.residual < 1e-9


def test_residual_singular_denominator_raises():
    # secondary root at theta=pi/4: u = 1 + i h_b makes both denominators zero
    lam = dsp.principal_lambda(1 + 1j)
    with pytest.raises(SingularDenominatorError):
        dsp.residual(lam, 1.0, math.pi / 4, 2)
    # the pole-cleared certificate still certifies it
    assert dsp.root_residual(lam, 1.0, math.pi / 4, 2) < 1e-9


# a root between two poles about 5e-5 (relative) apart: the rational form
# is rounding noise there (secondary(4) read 1.0e-9 before the poles were cleared)
NEAR_POLE_POINT = (0.6758669065080306, 0.261556510741024, 6)


def test_root_residual_certifies_roots_next_to_a_pole():
    h_b, theta, n = NEAR_POLE_POINT
    roots = dsp.select_branch(dsp._eig_roots([h_b], theta, n)[0], h_b, theta, n,
                              policy="all")
    assert len(roots) == 6
    assert all(r.residual < 1e-9 for r in roots)
    assert roots[4].branch == "secondary(4)" and roots[4].residual < 1e-12


def test_root_residual_rejects_perturbed_roots_next_to_a_pole():
    h_b, theta, n = NEAR_POLE_POINT
    for r in dsp.select_branch(dsp._eig_roots([h_b], theta, n)[0], h_b, theta, n,
                               policy="all"):
        assert dsp.root_residual(r.lam * (1.0 + 1e-9), h_b, theta, n) > 1e-9


@pytest.mark.parametrize("offset", [0.0, 1e-7, -1e-7, 1e-4, 1e-2])
@pytest.mark.parametrize("h_b", [1e-2, 1.0, 1e2])
def test_root_residual_certifies_n2_secondary_near_pi4(offset, h_b):
    theta = math.pi / 4 + offset
    roots = dsp.select_branch(dsp._eig_roots([h_b], theta, 2)[0], h_b, theta, 2,
                              policy="all")
    assert [r.branch for r in roots] == ["acoustic", "secondary(1)"]
    assert all(r.residual < 1e-9 for r in roots)


def test_root_residual_away_from_poles_is_the_rational_form():
    rng = np.random.default_rng(11)
    for _ in range(40):
        h_b = 10.0 ** rng.uniform(-1, 3)
        theta = rng.uniform(0.05, math.pi / 2 - 0.05)
        n = int(rng.integers(2, 7))
        for u in dsp._eig_roots([h_b], theta, n)[0]:
            lam = dsp.principal_lambda(u)
            c2 = np.cos(theta + np.arange(n) * np.pi / n) ** 2
            d = 1.0 + 1j * h_b - 2.0 * u * c2
            if np.min(np.abs(d) / (1.0 + h_b + 2.0 * abs(u) * c2)) > 1e-2:
                assert dsp.root_residual(lam, h_b, theta, n) == abs(
                    dsp.residual(lam, h_b, theta, n))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h_b", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_lambda_form_functions_reject_a_bad_h_b(h_b):
    for call in (dsp.root_residual, dsp.residual, dsp.mode_shape):
        with pytest.raises(DomainError, match="h_b must be positive and finite"):
            call(LAMBDA_H1_T0, h_b, 0.0, 2)
    with pytest.raises(DomainError, match="h_b must be positive and finite"):
        dsp._certify([LAMBDA_H1_T0, LAMBDA_H1_T0], [1.0, h_b], 0.0, 2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [math.nan, math.inf, complex(1.0, math.nan)])
def test_lambda_form_functions_reject_a_non_finite_lam(lam):
    for call in (dsp.root_residual, dsp.residual, dsp.mode_shape):
        with pytest.raises(DomainError, match="lam must be finite"):
            call(lam, 1.0, 0.3, 2)


# ------------------------------------------------------ batched certificate

def reference_root_residual(lam, h_b, theta, n):
    """root_residual as it was evaluated one root at a time, before a line's
    roots were certified in one vectorised pass."""
    c2 = dsp._cos2(theta, n)
    denoms = 1.0 + 1j * h_b - 2.0 * lam * lam * c2
    scales = 1.0 + h_b + 2.0 * abs(lam) ** 2 * c2
    size = np.abs(denoms)
    if 1.0 + h_b + 2.0 * abs(lam) ** 2 < 1e154:   # >= every |d_k|: no overflow
        size2 = size * size
    else:
        with np.errstate(over="ignore"):   # an infinite |d_k|^2 adds no noise
            size2 = size * size
    if size.min() > 0.0 and (
            dsp.EPS * (h_b / n) * (scales / size2).sum() < dsp.CLEAR_POLE_NOISE):
        return abs(complex(1.0 - (1j * h_b / n) * np.sum(1.0 / denoms)))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_ratio = scales / size
        order = np.argsort(-inv_ratio)
        cleared, weight = 1, 1.0 / inv_ratio[order[0]]
        while cleared < n:
            far = order[cleared:]
            spread = inv_ratio[far] + inv_ratio[order[:cleared]].sum()
            if (dsp.EPS * (h_b / n) * weight * np.sum(spread / size[far])
                    < dsp.CLEAR_POLE_NOISE):
                break
            weight /= inv_ratio[order[cleared]]
            cleared += 1
    d = denoms[order[:cleared]]
    prod = np.prod(d)
    others = sum(np.prod(np.delete(d, j)) for j in range(cleared))
    rest = np.sum(1.0 / denoms[order[cleared:]])
    value = prod - (1j * h_b / n) * (others + prod * rest)
    return float(abs(value) / np.prod(scales[order[:cleared]]))


def certificate_lines(seed):
    """Seeded (lams, h_b, theta, n) lines: the roots at 24 h_b each, and
    the same roots moved by 1e-9 (relative).  theta is 0, pi/4, within
    1e-9..1e-4 of a k pi/(2n), or uniform; h_b runs from 1e-4 to 1e8, or
    from 1e100 to 1e300."""
    rng = np.random.default_rng(seed)
    for line in range(64):
        n = int(rng.choice([2, 3, 4, 6, 8]))
        kind = line % 4
        if kind == 0:
            theta = float(rng.choice([0.0, math.pi / 4]))
        elif kind == 1:
            theta = (int(rng.integers(0, 2 * n)) * math.pi / (2 * n)
                     + float(rng.choice([1e-9, -1e-9, 1e-7, -1e-4])))
        else:
            theta = float(rng.uniform(0.0, math.pi))
        lo, hi = (100, 300) if line % 5 == 0 else (-4, 8)
        h_b = 10.0 ** np.sort(rng.uniform(lo, hi, 24))[::-1]
        lams, at = [], []
        for hb, roots in zip(h_b, dsp._eig_roots(h_b, theta, n)):
            for u in roots[~np.isnan(roots)]:
                lam = dsp.principal_lambda(u)
                lams += [lam, lam * (1.0 + 1e-9)]
                at += [float(hb)] * 2
        yield lams, at, theta, n


def pole_lines():
    """Roots on or next to a pole: the n = 2 secondary at theta = pi/4
    (u = 1 + i h_b zeroes both denominators) and near it, and the root
    between two nearly coinciding poles at NEAR_POLE_POINT."""
    for offset in (0.0, 1e-12, -1e-9, 1e-7):
        theta = math.pi / 4 + offset
        h_b = list(10.0 ** np.linspace(-3, 6, 40))
        yield ([dsp.principal_lambda(1.0 + 1j * hb) for hb in h_b]
               + [dsp.principal_lambda(u) for hb in h_b
                  for u in dsp._eig_roots([hb], theta, 2)[0]],
               h_b + [hb for hb in h_b for _ in dsp._eig_roots([hb], theta, 2)[0]],
               theta, 2)
    h_b, theta, n = NEAR_POLE_POINT
    lams = [dsp.principal_lambda(u) for u in dsp._eig_roots([h_b], theta, n)[0]]
    yield lams, [h_b] * len(lams), theta, n


def test_labelled_lambda_is_principal_lambda_bitwise():
    # the array square root of dispersion._order against cmath.sqrt; one
    # line in three at a degenerate angle k pi/(4n), where roots are dropped
    rng = np.random.default_rng(21)
    count = 0
    for line in range(300):
        n = int(rng.choice([2, 3, 4, 6, 8]))
        theta = (int(rng.integers(0, 4 * n)) * math.pi / (4 * n) if line % 3 == 0
                 else float(rng.uniform(0.0, math.pi)))
        h_b = 10.0 ** np.sort(rng.uniform(-40, 300, 40))[::-1]
        rows = dsp._eig_roots(h_b, theta, n)
        _, lams, us, _ = dsp._label_branches(*dsp._order(rows, follow_row_by_row(rows, 1.0)),
                                             h_b, theta, n, "all")
        for lam, u in zip(lams, us):
            want = dsp.principal_lambda(u)
            assert bits([lam.real, lam.imag]) == bits([want.real, want.imag]), (u, n, theta)
            count += 1
    assert count >= 15_000   # above h_b ~ 1e14 most rows keep one root


@pytest.mark.filterwarnings("error")
def test_certify_and_root_residual_equal_the_reference_bitwise(monkeypatch):
    real, slow = dsp._clear_poles, []

    def counting(*args):
        slow.append(args)
        return real(*args)

    monkeypatch.setattr(dsp, "_clear_poles", counting)
    count = 0
    for lams, h_b, theta, n in [*certificate_lines(seed=14), *pole_lines()]:
        # next to a degenerate angle at h_b above about 1e160 the reference
        # warned, where its noise estimate overflowed and where its
        # certificate came out NaN; _certify returns the same bits quietly
        with np.errstate(all="ignore"):
            want = bits([reference_root_residual(lam, hb, theta, n)
                         for lam, hb in zip(lams, h_b)])
        assert bits(dsp._certify(lams, h_b, theta, n)) == want, (theta, n)
        assert bits([dsp.root_residual(lam, hb, theta, n)
                     for lam, hb in zip(lams, h_b)]) == want, (theta, n)
        count += len(lams)
    assert count >= 10_000
    # both paths ran (each root is certified twice): some roots cleared
    # their poles, most did not
    assert 100 < len(slow) < count


def test_certify_takes_an_empty_batch():
    assert dsp._certify([], [], 0.3, 2).shape == (0,)


def test_sweep_certifies_each_line_once(monkeypatch):
    from bosewave import analysis

    real, calls = dsp._certify, []

    def counting(lam, h_b, theta, n):
        calls.append(len(lam))
        return real(lam, h_b, theta, n)

    monkeypatch.setattr(dsp, "_certify", counting)
    for policy, per_point in (("acoustic", 1), ("all", 3)):
        calls.clear()
        table = analysis.sweep([0.2, 0.5], [0.0, 0.5, -0.5], [10.0, 1.0, 0.1, 0.01],
                               3, policy)
        # one call per angle, holding every root of its three lines
        assert calls == [3 * 4 * per_point] * 2
        assert len(table) == 6 * 4 * per_point


# --------------------------------------------------------------- mode shape

def test_mode_shape_symmetric_at_pi4():
    shape = dsp.mode_shape(1.0 + 0j, 1.0, math.pi / 4, 2)
    np.testing.assert_allclose(shape.amplitudes, [1.0, 1.0], rtol=1e-12)


def test_mode_shape_theta0_distinct_finite():
    root = dsp.acoustic_root(1.0, 0.0, 2)
    shape = dsp.mode_shape(root.lam, 1.0, 0.0, 2)
    a = shape.amplitudes
    assert np.all(np.isfinite(a.view(float)))
    assert abs(a[0] - a[1]) > 1e-3
    assert np.max(np.abs(a)) == pytest.approx(1.0, rel=1e-12)


def test_mode_shape_rows_satisfy_eigenproblem():
    rng = np.random.default_rng(11)
    for _ in range(25):
        h_b = 10.0 ** rng.uniform(-2, 2)
        theta = rng.uniform(1e-2, math.pi / 2 - 1e-2)
        n = int(rng.integers(2, 5))
        root = dsp.acoustic_root(h_b, theta, n)
        a = dsp.mode_shape(root.lam, h_b, theta, n).amplitudes
        c2 = np.cos(theta + np.arange(n) * np.pi / n) ** 2
        rows = (1 + 1j * h_b - 2 * root.lam ** 2 * c2) * a \
            - (1j * h_b / n) * np.sum(a)
        assert np.max(np.abs(rows)) < 1e-9


def test_mode_shape_requires_a_root():
    with pytest.raises(DomainError):
        dsp.mode_shape(0.5 + 0.5j, 1.0, 0.3, 2)


@pytest.mark.filterwarnings("error")
def test_mode_shape_rejects_a_nan_lambda():
    with pytest.raises(DomainError, match="lam must be finite"):
        dsp.mode_shape(complex(math.nan, 0.0), 1.0, 0.3, 2)


def test_mode_shape_singular_at_pi4_secondary():
    lam = dsp.principal_lambda(1 + 1j)
    with pytest.raises(SingularDenominatorError):
        dsp.mode_shape(lam, 1.0, math.pi / 4, 2)


# ----------------------------------------------------------- branch select

def test_select_acoustic_at_pi4_is_unity():
    roots = dsp.solve_roots(dsp.assemble_polynomial(1.0, math.pi / 4, 2))
    root = dsp.select_branch(roots, 1.0, math.pi / 4, 2, policy="acoustic")
    assert abs(root.lam - 1.0) < 1e-10
    assert root.branch == "acoustic"


def test_select_all_orders_secondary_by_attenuation():
    roots = dsp.solve_roots(dsp.assemble_polynomial(1.0, math.pi / 4, 2))
    out = dsp.select_branch(roots, 1.0, math.pi / 4, 2, policy="all")
    assert [r.branch for r in out] == ["acoustic", "secondary(1)"]
    assert out[1].lam == pytest.approx(LAMBDA_1PLUS1J, rel=1e-12)


def test_select_acoustic_hydrodynamic():
    roots = dsp.solve_roots(dsp.assemble_polynomial(1e4, 0.0, 2))
    root = dsp.select_branch(roots, 1e4, 0.0, 2, policy="acoustic")
    assert abs(root.lam - 1.0) < 1e-3


def test_select_branch_unknown_policy_rejected():
    roots = dsp.solve_roots(dsp.assemble_polynomial(1.0, 0.3, 2))
    with pytest.raises(DomainError, match="policy"):
        dsp.select_branch(roots, 1.0, 0.3, 2, policy="secondary")


def test_acoustic_lookups_return_the_first_labelled_root():
    roots = dsp.solve_roots(dsp.assemble_polynomial(1.0, 0.3, 3))
    root = dsp.acoustic_root(1.0, 0.3, 3)
    assert isinstance(root, dsp.DispersionRoot)
    assert dsp.select_branch(roots, 1.0, 0.3, 3, policy="acoustic") == root
    first = dsp.select_branch(roots, 1.0, 0.3, 3, policy="all")[0]
    assert first.branch == root.branch == "acoustic"
    assert (np.array([first.lam, first.u, first.residual]).tobytes()
            == np.array([root.lam, root.u, root.residual]).tobytes())


def test_select_branch_empty_roots_rejected():
    with pytest.raises(DomainError):
        dsp.select_branch(np.array([]), 1.0, 0.0, 2)


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan), math.inf])
def test_select_branch_non_finite_roots_rejected(bad):
    roots = [0.6 + 0.2j, bad] if isinstance(bad, complex) else [bad, 0.6 + 0.2j]
    with pytest.raises(DomainError, match="roots must be finite"):
        dsp.select_branch(np.array(roots, dtype=complex), 1.0, 0.3, 2,
                          policy="all")


@pytest.mark.parametrize("h_b", [1.0, 10.0])
def test_select_branch_rejects_roots_not_1d_or_more_than_n(h_b):
    # a 2-D array raised a bare TypeError, and 4 "roots" at n = 2 were
    # labelled up to secondary(3)
    roots = dsp.solve_roots(dsp.assemble_polynomial(h_b, 0.3, 2))
    for bad in (roots[None], roots[:, None], np.complex128(roots[0])):
        with pytest.raises(DomainError, match="roots must be a 1-D array"):
            dsp.select_branch(bad, h_b, 0.3, 2)
    with pytest.raises(DomainError, match="roots must hold at most n = 2 values"):
        dsp.select_branch(np.concatenate([roots, roots + 1.0]), h_b, 0.3, 2, policy="all")


def test_select_branch_labels_polynomial_oracle_roots_like_the_point_lookup():
    # roots the lookup did not solve itself: np.roots of the cleared-
    # denominator polynomial, which the continuation runs into; where the
    # trim drops a root (degree below the lookup's root count) only the
    # acoustic root is compared
    rng = np.random.default_rng(30)
    for i in range(1000):
        n = int(rng.integers(2, 9))
        theta = (int(rng.integers(0, 4 * n)) * math.pi / (2 * n) if i % 4 == 0
                 else float(rng.uniform(0.0, math.pi)))
        h_b = float(10.0 ** rng.uniform(-3, 6))
        poly = dsp.assemble_polynomial(h_b, theta, n)
        roots = dsp.solve_roots(poly)
        want = dsp.select_branch(roots, h_b, theta, n, policy="all")
        got = dsp.select_branch(np.roots(poly.coeffs), h_b, theta, n, policy="all")
        if poly.degree < len(roots):
            got, want = got[:1], want[:1]
        assert [r.branch for r in got] == [r.branch for r in want], (h_b, theta, n)
        for g, w in zip(got, want):
            assert abs(g.u - w.u) <= 1e-9 * abs(w.u), (h_b, theta, n, g.branch)


def test_select_branch_degenerate_crossing_reported():
    # at theta=pi/4 the two roots are 1 and 1+i*h_b: within 1e-8 of each
    # other for tiny h_b, which must be reported, not resolved silently
    from bosewave.errors import BranchAmbiguityError
    h_b = 1e-9
    roots = dsp.solve_roots(dsp.assemble_polynomial(h_b, math.pi / 4, 2))
    with pytest.raises(BranchAmbiguityError):
        dsp.select_branch(roots, h_b, math.pi / 4, 2)


def test_dispersion_root_u_is_lambda_squared():
    for h_b, theta, n in [(0.5, 0.2, 2), (3.0, 0.6, 3), (12.0, 0.1, 4)]:
        for root in dsp.select_branch(
                dsp.solve_roots(dsp.assemble_polynomial(h_b, theta, n)),
                h_b, theta, n, policy="all"):
            assert abs(root.lam ** 2 - root.u) <= 1e-12 * max(1.0, abs(root.u))


# ------------------------------------------------------------- continuation

def follow_row_by_row(rows, u):
    """Reference: the row-by-row loop ``_follow`` ran before its pick table."""
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


def random_root_rows(rng, K: int, n: int) -> np.ndarray:
    """(K, n) roots: O(1), of magnitude 1e-300 to 1e300, or at +-1e308 (1 + i).

    At +-1e308 (1 + i) a distance between roots of opposite sign overflows,
    so every live distance of a row can be inf.  Some roots are dropped
    (NaN), and the first, a middle and the last row may be all NaN.
    """
    kind = rng.integers(3)
    if kind == 0:
        rows = rng.normal(size=(K, n)) + 1j * rng.normal(size=(K, n))
    elif kind == 1:
        size = 10.0 ** rng.uniform(-300, 300, (K, n))
        rows = size * np.exp(2j * np.pi * rng.random((K, n)))
    else:
        sign = rng.choice([-1.0, 1.0], (K, n))
        rows = np.empty((K, n), dtype=complex)
        rows.real = sign * 1e308 * (1.0 + 0.5 * rng.random((K, n)))
        rows.imag = sign * 1e308 * (1.0 + 0.5 * rng.random((K, n)))
    rows[rng.random((K, n)) < rng.choice([0.0, 0.2, 0.5])] = np.nan
    for row in (0, K // 2, K - 1):
        if K and rng.random() < 0.2:
            rows[row] = np.nan
    return rows


def test_follow_equals_the_row_by_row_loop():
    # every K from 0 to 80 with every n from 2 to 8, on the live rows from
    # u = 0 (the failed rows are _track_to's, tested there); the pick table
    # runs inf - inf (two dropped roots) and overflowing distances, quietly
    rng = np.random.default_rng(25)
    overflowed = 0
    for i in range(3402):
        K, n = i % 81, 2 + i % 7
        rows = random_root_rows(rng, K, n)
        rows = rows[~np.isnan(rows).all(axis=1)]
        with np.errstate(all="ignore"):
            want = follow_row_by_row(rows, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = dsp._follow(rows)
        assert path == want, (i, K, n)
        assert all(type(k) is int for k in path)
        overflowed += bool((np.abs(rows.real) >= 1e308).any())
    assert overflowed > 500


def test_nearest_on_one_row_lines_equals_the_row_by_row_loop():
    # an all-NaN row, which the loop marks None, gets 0
    rng = np.random.default_rng(26)
    for i in range(300):
        n = 2 + i % 7
        rows = random_root_rows(rng, 40, n)
        rows[rng.random(40) < 0.1] = np.nan
        u = rng.normal(size=40) + 1j * rng.normal(size=40)
        with np.errstate(all="ignore"):
            want = [follow_row_by_row(row[None], u_l)[0] for row, u_l in zip(rows, u)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            picks = dsp._nearest(rows, u[:, None])
        assert picks.shape == (40, 1)
        assert picks[:, 0].tolist() == [0 if k is None else k for k in want]
        assert [k is None for k in want] == np.isnan(rows).all(axis=1).tolist()


def test_continuation_matches_closed_form_oracle():
    h_grid = np.array([1e4, 10.0, 1.0])
    tracked = dsp.continuation_track(0.0, 2, 0.0, h_grid)
    for h, root in zip(h_grid, tracked):
        (u,) = dsp.closed_form_n2(h, 0.0)
        assert root.lam == pytest.approx(dsp.principal_lambda(u), rel=1e-12)
        assert root.residual < 1e-9


def test_continuation_pi4_constant_unity():
    h_grid = np.geomspace(1e4, 1e-2, 30)
    tracked = dsp.continuation_track(math.pi / 4, 2, 0.0, h_grid)
    for root in tracked:
        assert abs(root.lam - 1.0) < 1e-10


def test_continuation_hb_collapse_between_b_values():
    # same h_b reached through different (h, B) pairs gives identical lambdas
    h_grid = np.geomspace(1e4, 0.1, 25)
    a = dsp.continuation_track(0.3, 2, 0.7, h_grid)
    b = dsp.continuation_track(0.3, 2, 0.0, h_grid * 1.7)
    for ra, rb in zip(a, b):
        assert ra.lam == rb.lam


def test_continuation_requires_descending_seeded_grid():
    with pytest.raises(DomainError):
        dsp.continuation_track(0.0, 2, 0.0, np.array([10.0, 1.0]))
    with pytest.raises(DomainError):
        dsp.continuation_track(0.0, 2, 0.0, np.array([1e4, 1.0, 10.0]))


@pytest.mark.parametrize("h_grid", [1e4, [[1e4, 1.0]]], ids=["scalar", "2-D"])
@pytest.mark.filterwarnings("error")
def test_continuation_rejects_an_h_grid_that_is_not_1d(h_grid):
    with pytest.raises(DomainError, match="h_grid must be a 1-D array"):
        dsp.continuation_track(0.3, 2, 0.0, h_grid)


@pytest.mark.parametrize("h_grid", [[1e5, math.nan], [1e5, -1.0], [math.inf, 1e5]],
                         ids=["nan", "negative", "inf"])
def test_continuation_names_h_grid_for_a_bad_entry(h_grid):
    with pytest.raises(DomainError, match="h_grid entries must be positive and finite"):
        dsp.continuation_track(0.3, 2, 0.0, h_grid)


def test_continuation_starts_at_the_acoustic_root_near_full_blocking():
    # at B -> -1 the top h_b = 0.1 lies far below h_b = 4, where u = 1 alone
    # picks a secondary root (0.96424 + 0.03207i)
    B = -0.99999
    (first, _) = dsp.continuation_track(0.3, 3, B, [1e4, 1.0])
    assert first.lam == dsp.acoustic_root(1e4 * (1.0 + B), 0.3, 3).lam


def test_continuation_top_out_of_float_range_raises_the_lookup_error():
    with pytest.raises(DomainError, match="h_b") as lookup:
        dsp.acoustic_root(1e308, 0.3, 2)
    with pytest.raises(DomainError) as line:
        dsp.continuation_track(0.3, 2, 0.0, [1e308, 1.0])
    assert str(line.value) == str(lookup.value)


def test_continuation_line_that_overflows_raises_without_a_warning():
    # the top h_b = 1e308 * (1 + B) overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="h_b"):
            dsp.continuation_track(0.3, 2, 1.0, [1e308, 1.0])


@pytest.mark.parametrize("B", [-2.0, -1.0, math.nan, math.inf])
def test_continuation_checks_b_like_every_line(B):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="B must satisfy"):
            dsp.continuation_track(0.3, 2, B, [1e4, 1.0])


@pytest.mark.filterwarnings("ignore:acoustic lambda_i < 0")
def test_continuation_equals_sweep_and_acoustic_root_on_random_lines_bitwise():
    # tops h from 1e4 to 1e8 (one line in twenty up to 1e300); half the
    # lines nearly blocked, B within 1e-7..1 of -1, so their top h_b can
    # lie far below h_b = 4
    from bosewave import analysis
    from bosewave.errors import BranchAmbiguityError
    rng = np.random.default_rng(20)
    for _ in range(400):
        n = int(rng.choice([2, 3, 4, 6, 8]))
        theta = float(rng.uniform(0.0, math.pi / n))
        if rng.random() < 0.2:
            theta = int(rng.integers(0, 2 * n)) * math.pi / (2 * n)
        B = (-1.0 + 10.0 ** rng.uniform(-7, 0) if rng.random() < 0.5
             else float(rng.uniform(-0.5, 2.0)))
        exponent = rng.uniform(4, 8) if rng.random() < 0.95 else rng.uniform(8, 300)
        top = float(10.0 ** exponent)
        h_grid = np.geomspace(top, top * 10.0 ** -rng.uniform(1, 8),
                              int(rng.integers(2, 16)))
        where = (n, theta, B, top)
        track = dsp.continuation_track(theta, n, B, h_grid)
        rows = analysis.sweep([theta], [B], h_grid, n).rows
        assert [(r.lam.real, r.lam.imag, r.residual) for r in track] == \
            [(r.lambda_r, r.lambda_i, r.residual) for r in rows], where
        try:
            lookup = dsp.acoustic_root(float(h_grid[0] * (1.0 + B)), theta, n)
        except BranchAmbiguityError:
            continue
        assert track[0].lam == lookup.lam, where


# ------------------------------------------------------ spec invariants

@pytest.mark.parametrize("n", [2, 3, 4])
def test_theta_symmetry_multiset(n):
    rng = np.random.default_rng(100 + n)
    thetas = np.linspace(1e-3, math.pi / n - 1e-3, 50)
    for theta in thetas:
        h_b = 10.0 ** rng.uniform(-2, 2)
        base = list(dsp.solve_roots(dsp.assemble_polynomial(h_b, theta, n)))
        shifted = list(dsp.solve_roots(
            dsp.assemble_polynomial(h_b, theta + math.pi / n, n)))
        mirrored = list(dsp.solve_roots(
            dsp.assemble_polynomial(h_b, math.pi / n - theta, n)))
        assert roots_multiset_close(base, shifted)
        assert roots_multiset_close(base, mirrored)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hydrodynamic_limit_all_theta(n):
    for theta in np.linspace(0.0, math.pi / n, 7):
        root = dsp.acoustic_root(1e6, float(theta), n)
        assert abs(root.lam - 1.0) < 1e-4


def test_acoustic_lambda_i_nonnegative_over_grid():
    for theta in np.linspace(0.0, math.pi / 2, 9):
        for h_b in np.geomspace(1e-2, 1e2, 17):
            root = dsp.acoustic_root(float(h_b), float(theta), 2)
            assert root.lam.imag >= -1e-12


def test_theta_normalization_does_not_move_roots():
    # solving at theta and theta + pi/n gives identical root multisets
    got = list(dsp.solve_roots(dsp.assemble_polynomial(2.0, 0.35, 3)))
    other = list(dsp.solve_roots(
        dsp.assemble_polynomial(2.0, 0.35 + math.pi / 3, 3)))
    assert roots_multiset_close(got, other, tol=1e-10)


def seed_then_line(h_b, theta, n):
    """Reference: the seed continuation to h_b[0], then h_b continued from its u.

    Two separate solves, the seed grid (conftest.seed_grid) with h_b[0] and
    h_b; returns the seed grid and its solved rows, both without h_b[0], the
    line's roots and its path.
    """
    grid, solved = seed_grid(float(h_b[0]))
    seed = dsp._eig_roots(np.append(grid, h_b[0]), theta, n)
    u_top = seed[-1][follow_row_by_row(seed, 1.0)[-1]]
    line = dsp._eig_roots(h_b, theta, n)
    return grid, solved, line, follow_row_by_row(line, u_top)


class Recording:
    """A ``solve`` for ``_track_to`` that keeps every grid and its rows."""

    def __init__(self, alter=None):
        self.batches, self.results, self.alter = [], [], alter

    def __call__(self, grid, theta, n):
        self.batches.append(np.array(grid))
        rows = dsp._eig_step(grid, theta, n)[0]
        if self.alter is not None:
            rows = self.alter(self.batches[-1], rows)
        self.results.append(rows)
        return rows


def assert_in_label_order(got, line, path, where=None):
    """got, a one-line ``_track_to`` result, is ``_order`` of the line's rows and path."""
    (u,), (lam,) = got
    want_u, want_lam = dsp._order(line, path)
    assert u.tobytes() == want_u.tobytes(), where
    assert lam.tobytes() == want_lam.tobytes(), where


@pytest.mark.parametrize("top", [1e-1, 4.0, 5.0, 1e1, 1e2, 1e8])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_track_to_folds_the_seed_into_the_line_batch_bitwise(n, top):
    # the one batch is the seed grid from its last row above h_b = 4 (none
    # for a top above 4), then the line; at top = 4 * (1 + B) the line
    # starts at, above and below 4, and at top = 5 * (1 + B) above it or,
    # for B = -0.5, below it; top = 1e8 lies above CONTINUATION_START; at
    # top = 0.1 a line continued from u = 1 without the seed lands on
    # another root for some (theta, B); theta = pi/2 (and 0 for even n)
    # leaves n - 1 roots, one velocity being perpendicular to the wave
    for theta in (0.0, 0.3, math.pi / 4, math.pi / 2):
        for B in (0.0, 0.5, -0.5):
            h_b = np.geomspace(top, top * 1e-5, 33) * (1.0 + B)
            grid, solved, line, path = seed_then_line(h_b, theta, n)
            solve = Recording()
            got = dsp._track_to(h_b[None], theta, n, solve)
            assert len(solve.batches) == 1
            assert solve.batches[0].tobytes() == np.concatenate([solved, h_b]).tobytes()
            # the seed rows only steer, unpolished; _track_to polishes the
            # line's rows in place
            steer = dsp._eig_step(grid, theta, n)[0][len(grid) - len(solved):]
            for got_rows, want in zip(solve.results[0], np.concatenate([steer, line]),
                                      strict=True):
                assert got_rows.tobytes() == want.tobytes(), (theta, B)
            assert_in_label_order(got, line, path, (theta, B))


def test_short_seed_equals_the_full_seed_on_random_lines_bitwise():
    # the pick of smallest |u| at the first solved row, the last one above
    # h_b = 4 (the line's top if above 4), against the whole seed grid
    # continued from u = 1, in label order; tops from 1e-4 to 1e300, most
    # of them below the seed start; one line in five on a degenerate angle,
    # where a velocity can be perpendicular to the wave
    rng = np.random.default_rng(18)
    for _ in range(600):
        n = int(rng.integers(2, 9))
        theta = float(rng.uniform(0.0, math.pi / n))
        if rng.random() < 0.2:
            theta = int(rng.integers(0, 2 * n)) * math.pi / (2 * n)
        exponent = rng.uniform(-4, 8) if rng.random() < 0.8 else rng.uniform(8, 300)
        top = float(10.0 ** exponent)
        h_b = np.geomspace(top, top * 10.0 ** -rng.uniform(0, 6), int(rng.integers(1, 20)))
        _, _, line, path = seed_then_line(h_b, theta, n)
        solve = Recording()
        got = dsp._track_to(h_b[None], theta, n, solve)
        where = (n, theta, top)
        assert len(solve.batches) == 1, where
        assert_in_label_order(got, line, path, where)


def track_alone(h_b, theta, n, solve=None):
    """Each line of h_b through its own one-line ``_track_to`` call."""
    lines = [dsp._track_to(line[None], theta, n, solve) for line in h_b]
    return tuple(np.concatenate(part) for part in zip(*lines))


def assert_same_lines(got, want):
    for part, want_part in zip(got, want, strict=True):
        assert part.shape == want_part.shape
        assert part.tobytes() == want_part.tobytes()


def record_follow(monkeypatch) -> list:
    """The bytes of the rows each ``_follow`` call continues through, in order."""
    real, followed = dsp._follow, []

    def follow(rows):
        followed.append(rows.tobytes())
        return real(rows)

    monkeypatch.setattr(dsp, "_follow", follow)
    return followed


@pytest.mark.parametrize("n", [2, 3, 6])
def test_track_to_lines_equal_one_line_calls_bitwise(n, monkeypatch):
    # tops below h_b = 4, between 4 and CONTINUATION_START, and above it;
    # theta = pi/2 leaves a velocity perpendicular to the wave, so each row
    # has n - 1 roots and one NaN
    followed = record_follow(monkeypatch)
    h_b = np.outer([0.01, 1.0, 3e3, 1e8], np.geomspace(1.0, 1e-4, 17))
    for theta in (0.3, math.pi / 4, math.pi / 2):
        solve = Recording()
        together = dsp._track_to(h_b, theta, n, solve)
        assert len(solve.batches) == 1
        followed_together = followed[:]
        followed.clear()
        # each line is continued through the seed rows and line it has alone
        assert_same_lines(together, track_alone(h_b, theta, n))
        assert followed == followed_together
        followed.clear()
        if theta == math.pi / 2:
            assert (np.isnan(together[0]).sum(axis=2) == 1).all()


def test_track_to_lines_with_a_failed_solve_equal_one_line_calls_bitwise(eig_calls):
    from bosewave import analysis

    theta, n = 0.4, 3
    h_b = np.outer([0.5, 2.0, 1e3], np.geomspace(1.0, 1e-3, 9))
    # a failed point inside line 1, and the top of line 2, its first solved
    # row (its top lies above h_b = 4, so no seed row is solved), after
    # which line 2 goes on from u = 0 at its next row
    eig_calls.fail(ConvergenceError, "eigenvalue solve failed", at=[h_b[1, 4], h_b[2, 0]])
    u, lam = together = dsp._track_to(h_b, theta, n, analysis._line_roots)
    assert np.isnan(u[1, 4]).all() and np.isnan(lam[1, 4]).all()
    assert np.isnan(u[2, 0]).all() and np.isnan(lam[2, 0]).all()
    assert np.isnan(u).all(axis=2).sum() == 2
    assert_same_lines(together, track_alone(h_b, theta, n, analysis._line_roots))
    # line 2 goes on as the line of its later points would alone
    tail = dsp._track_to(h_b[2:, 1:], theta, n, analysis._line_roots)
    assert_same_lines((u[2:, 1:], lam[2:, 1:]), tail)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_track_to_starts_a_line_with_a_failed_top_only_above_4(n):
    # a top in (4, 10] solves no seed row; with that row NaN-filled, a line
    # whose next live row lies at or below h_b = 4 comes back all NaN (the
    # top-of-line rule does not cover a pick there); a next row above 4
    # starts the line as the line of its later points alone
    def nan_top(grid, rows):
        rows[0] = np.nan
        return rows

    for theta in (0.0, 0.3, math.pi / 4):
        for top in (4.5, 7.0, 10.0):
            for below in (4.0, 3.9, 1.0, 1e-3):
                h_b = np.array([[top, below, below / 10.0]])
                for part in dsp._track_to(h_b, theta, n, Recording(nan_top)):
                    assert part.shape == (1, 3, n) and np.isnan(part).all(), (theta, top, below)
            h_b = np.array([[top, 4.2, 1.0, 1e-3]])
            u, lam = dsp._track_to(h_b, theta, n, Recording(nan_top))
            assert np.isnan(u[0, 0]).all() and np.isnan(lam[0, 0]).all()
            assert_same_lines((u[:, 1:], lam[:, 1:]), dsp._track_to(h_b[:, 1:], theta, n))


def test_follow_never_picks_a_dropped_root():
    nan = complex(math.nan)
    rows = np.array([
        [nan, 3.0, 2.0],           # np.argmin would pick the NaN of column 0
        [1.0, nan, 2.5],           # nearer u = 2.0, the last root found, than 0
        [nan, -1.5e308 - 1.5e308j, nan],   # every live distance overflows
    ])
    assert dsp._follow(rows) == [2, 2, 1]


def test_track_to_matches_a_row_after_a_failed_one_to_the_last_root_found(monkeypatch):
    # the rows above with a failed solve between the first two, on a line
    # above h_b = 4 (no seed row), unpolished
    nan = complex(math.nan)
    rows = np.array([
        [nan, 3.0, 2.0],
        [nan, nan, nan],           # a failed solve
        [1.0, nan, 2.5],           # nearer u = 2.0, the last root found, than 0
        [nan, -1.5e308 - 1.5e308j, nan],
    ])
    monkeypatch.setattr(dsp, "_polish", lambda u, h_b, c2: u)
    (u,), _ = dsp._track_to([[100.0, 50.0, 20.0, 10.0]], 0.3, 3, lambda h, t, k: rows.copy())
    assert u[:, 0].tobytes() == np.array([2.0, nan, 2.5, rows[3, 1]]).tobytes()
    assert np.isnan(u[1]).all()


def test_track_to_walks_the_live_rows_as_the_row_by_row_loop():
    # random failed solves (NaN-filled rows) in the seed part and in the
    # line part, runs of consecutive ones and failed first rows: each line
    # is the row-by-row loop from u = 0 through its seed and line rows,
    # which marks a failed row None and goes on from the last root found;
    # a line whose first row failed starts at its first live row only
    # above h_b = 4, and otherwise comes back all NaN
    rng = np.random.default_rng(39)
    restarts = killed = failed_seeds = 0
    for i in range(600):
        n = 2 + i % 7
        theta = float(rng.uniform(0.0, math.pi / n))
        top = float(10.0 ** rng.uniform(-3, 1.5))
        h_b = np.geomspace(top, top * 10.0 ** -rng.uniform(0, 3), int(rng.integers(1, 12)))

        def fail(grid, rows):
            failed = rng.random(len(rows)) < rng.choice([0.0, 0.1, 0.3])
            if rng.random() < 0.5:   # a run of consecutive failed rows
                at = int(rng.integers(len(rows)))
                failed[at:at + int(rng.integers(2, 5))] = True
            failed[0] |= rng.random() < 0.3
            rows[failed] = np.nan
            return rows

        solve = Recording(fail)
        got = dsp._track_to(h_b[None], theta, n, solve)
        grid, solved = solve.batches[0], solve.results[0]
        steer = len(grid) - len(h_b)
        failed = np.isnan(solved).all(axis=1)
        line = dsp._eig_roots(h_b, theta, n)
        line[failed[steer:]] = np.nan
        with np.errstate(all="ignore"):
            want = follow_row_by_row(np.concatenate((solved[:steer], line)), 0.0)
        live = [j for j, k in enumerate(want) if k is not None]
        if not live or grid[live[0]] <= dsp.TOP_OF_LINE:
            line[:] = np.nan
            killed += 1
        else:
            restarts += None in want[live[0]:live[-1]]
        failed_seeds += bool(failed[:steer].any())
        path = [0 if k is None else k for k in want[steer:]]
        assert_in_label_order(got, line, path, (i, n, theta, top))
    assert restarts > 100 and killed > 50 and failed_seeds > 100


def test_point_lookup_solves_the_short_seed(eig_calls):
    # 5 seed rows from 10**(5/8) ~ 4.2, the last above h_b = 4, down to
    # 10**(1/8), then h_b = 1 (49 rows in the whole seed grid); above
    # h_b = 4 the point's own row alone
    dsp.acoustic_root(1.0, 0.3, 8)
    dsp.acoustic_root(5.0, 0.3, 8)
    assert eig_calls.sizes == [6, 1]


def test_select_branch_above_top_of_line_solves_nothing(eig_calls):
    # the continuation runs into the given roots: above h_b = 4 it takes
    # their root of smallest |u| and makes no eigen batch
    for h_b in (np.nextafter(dsp.TOP_OF_LINE, 5.0), 5.0, 1e3, 1e8):
        for theta, n in ((0.3, 2), (0.0, 4), (math.pi / 2, 3), (0.7, 8)):
            roots = dsp.solve_roots(dsp.assemble_polynomial(h_b, theta, n))
            eig_calls.clear()
            for policy in ("acoustic", "all"):
                dsp.select_branch(roots, h_b, theta, n, policy)
            assert eig_calls.sizes == [], (h_b, theta, n)


def test_select_branch_at_or_below_top_of_line_solves_the_seed_rows_alone(eig_calls):
    # one eigen batch, the seed rows of acoustic_root's batch without the point
    grids = eig_calls.grids
    for h_b in (dsp.TOP_OF_LINE, 1.0, 1e-3):
        for theta, n in ((0.3, 2), (math.pi / 2, 3), (0.7, 8)):
            roots = dsp.solve_roots(dsp.assemble_polynomial(h_b, theta, n))
            grids.clear()
            dsp.acoustic_root(h_b, theta, n)
            (lookup,) = grids
            grids.clear()
            dsp.select_branch(roots, h_b, theta, n, "all")
            (seed,) = grids
            assert len(seed) >= 1 and h_b not in seed
            assert lookup.tobytes() == np.append(seed, h_b).tobytes()


def test_line_above_top_of_line_builds_no_seed_grid(monkeypatch):
    real, calls = np.geomspace, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dsp.np, "geomspace", counting)
    dsp._track_to([[4.5, 1.0, 1e-3], [1e8, 1e3, 1.0]], 0.3, 3)
    dsp.acoustic_root(np.nextafter(dsp.TOP_OF_LINE, 5.0), 0.3, 3)
    dsp.continuation_track(0.3, 3, 0.0, [1e4, 1.0])
    assert calls == []
    dsp.acoustic_root(dsp.TOP_OF_LINE, 0.3, 3)
    assert len(calls) == 1


@pytest.mark.parametrize("lookup", [
    lambda h_b: dsp.acoustic_root(h_b, 0.3, 2),
    lambda h_b: dsp.select_branch(np.array([1.0 + 0j]), h_b, 0.3, 2),
], ids=["acoustic_root", "select_branch"])
def test_lookup_above_top_of_line_keeps_the_float_range_check(lookup):
    # 10 * h_b overflows: no seed grid is built above h_b = 4, yet the
    # check of the grid's range still runs
    with pytest.raises(DomainError, match="h_b = 1e\\+308 is too far from 1e\\+06"):
        lookup(1e308)


def secular_r(nu, theta, n):
    """R(nu) = sum_k w_k/(nu - w_k), w_k = 2 cos^2_k, at every nu and theta: (T, P)."""
    w = 2.0 * dsp._cos2(np.atleast_1d(theta), n)[:, None, :]
    return (w / (np.asarray(nu)[None, :, None] - w)).sum(axis=2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 17])
def test_secular_sum_is_at_least_n_over_4_on_the_circle(n):
    # the top-of-line lemma: Re(e^{i phi} R) >= n/4 on nu = 2 e^{i phi};
    # phi = 0 is left out, where a velocity parallel to the wave puts its
    # pole w_k = 2 on the circle; the angles include every degenerate one
    rng = np.random.default_rng(40 + n)
    phi = 2.0 * np.pi * (np.arange(4096) + 0.5) / 4096
    nu = 2.0 * np.exp(1j * phi)
    theta = np.concatenate([np.linspace(0.0, math.pi / n, 8 * n + 1),
                            rng.uniform(0.0, math.pi, 64)])
    r = secular_r(nu, theta, n)
    assert (np.abs(r) >= (1.0 - 1e-12) * n / 4).all()
    # next to the pole at nu = 2 the real part carries the rounding of |R|
    slack = 1e-12 * n / 4 + 1e-14 * np.abs(r)
    assert ((np.exp(1j * phi) * r).real >= n / 4 - slack).all()


def test_secular_bound_is_reached_at_n_2_theta_0():
    (r,) = secular_r([-2.0], 0.0, 2)
    assert abs(r[0]) == pytest.approx(0.5, rel=1e-15)


def test_one_root_lies_below_half_of_one_plus_i_h_b_above_h_b_4():
    # so above h_b = 4 the acoustic root is the root of smallest |u|
    rng = np.random.default_rng(41)
    for n in (2, 3, 4, 5, 6, 8, 17):
        h_b = 10.0 ** rng.uniform(math.log10(4.0), 6.0, 400)
        h_b[0] = np.nextafter(4.0, 5.0)
        theta = rng.uniform(0.0, math.pi / n, 400)
        theta[::5] = rng.integers(0, 2 * n, 80) * math.pi / (2 * n)
        rows = dsp._eig_roots(h_b, theta, n)
        inside = np.abs(rows) < np.abs(1.0 + 1j * h_b)[:, None] / 2   # NaN: False
        assert (inside.sum(axis=1) == 1).all(), n


@pytest.mark.parametrize("h_b", [1e308, 1e-320, math.inf, 0.0])
def test_continuation_grid_out_of_float_range_raises_domain_error(h_b):
    with pytest.raises(DomainError, match="h_b"):
        dsp.acoustic_root(h_b, 0.0, 2)


# --------------------------------------------------------- point lookups

def test_acoustic_root_is_one_batched_solve(eig_calls):
    dsp.acoustic_root(1.0, 0.3, 3)
    assert len(eig_calls.grids) == 1 and eig_calls.sizes[0] > 1


def lookup_points(count, seed):
    """Seeded (h_b, theta, n); one in five on, or 1e-9 / 1e-7 off, a degenerate angle."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.choice([2, 3, 4, 6, 8]))
        h_b = float(10.0 ** rng.uniform(-4, 7))
        theta = float(rng.uniform(0.0, math.pi / n))
        if rng.random() < 0.2:
            theta = (int(rng.integers(0, 2 * n)) * math.pi / (2 * n)
                     + float(rng.choice([0.0, 1e-9, -1e-9, 1e-7, -1e-7])))
        yield h_b, theta, n


def outcome(call):
    try:
        return repr(call())
    except Exception as exc:  # the reference's error must be raised too
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("policy", ["acoustic", "all"])
def test_point_lookup_equals_a_single_point_solve_bitwise(policy):
    def labelled(h_b, theta, n):   # the lookup's columns as select_branch's records
        lam, u, res = dsp._branches_at(h_b, theta, n, "all")
        return [dsp.DispersionRoot(lam[j], u[j], "acoustic" if j == 0 else f"secondary({j})",
                                   res[j]) for j in range(len(lam))]

    lookup = dsp.acoustic_root if policy == "acoustic" else labelled
    for h_b, theta, n in lookup_points(1000, seed=8):
        (row,) = dsp._eig_roots([h_b], theta, n)
        want = outcome(lambda: dsp.select_branch(
            row[~np.isnan(row)], h_b, theta, n, policy))
        assert outcome(lambda: lookup(h_b, theta, n)) == want, (h_b, theta, n)


@pytest.mark.parametrize("h_b", [dsp.TOP_OF_LINE, 1.0, 1e-3, 1e-12])
def test_select_branch_polishes_no_seed_row(monkeypatch, eig_calls, h_b):
    # the seed rows only steer the continuation into the given roots and
    # are never returned, so they get no Newton polish; acoustic_root
    # polishes the one row of its one batch that it returns
    real, polished = dsp._polish, []

    def counting(u, h_b, c2):
        polished.append(len(u))
        return real(u, h_b, c2)

    monkeypatch.setattr(dsp, "_polish", counting)
    for theta, n in ((0.3, 2), (0.5, 3), (0.7, 8)):
        roots = dsp.solve_roots(dsp.assemble_polynomial(h_b, theta, n))
        for policy in ("acoustic", "all"):
            eig_calls.clear()
            polished.clear()
            dsp.select_branch(roots, h_b, theta, n, policy)
            assert len(eig_calls.grids) == 1 and polished == [], (theta, n, policy)
        eig_calls.clear()
        polished.clear()
        dsp.acoustic_root(h_b, theta, n)
        assert polished == [1] and len(eig_calls.grids) == 1, (theta, n)


def test_select_branch_on_solve_roots_equals_acoustic_root_below_top_of_line():
    # select_branch and acoustic_root steer through the same unpolished
    # seed rows into the same root, down to h_b = 1e-14 and next to the
    # degenerate angles: the same record, or the same error and message
    rng = np.random.default_rng(32)
    for _ in range(2000):
        n = int(rng.integers(2, 9))
        h_b = float(10.0 ** rng.uniform(-14.0, math.log10(dsp.TOP_OF_LINE)))
        theta = float(rng.uniform(0.0, math.pi / n))
        if rng.random() < 0.25:
            theta = (int(rng.integers(0, 2 * n)) * math.pi / (2 * n)
                     + float(rng.choice([0.0, 1e-9, -1e-9, 1e-12, -1e-12])))
        (row,) = dsp._eig_roots([h_b], theta, n)   # solve_roots, without its oracle polynomial
        got = outcome(lambda: dsp.select_branch(row[~np.isnan(row)], h_b, theta, n))
        want = outcome(lambda: dsp.acoustic_root(h_b, theta, n))
        assert got == want, (h_b, theta, n)


@pytest.mark.parametrize("h_b", [dsp.TOP_OF_LINE, 1.0, 1e-3, 1e-12])
def test_point_lookups_polish_only_their_row(monkeypatch, capsys, eig_calls, h_b):
    # one place polishes: a point lookup's one batch is its seed rows and
    # its point, and only the point's row, the one it returns, is polished;
    # a sweep line polishes its own rows and none of its seed rows
    from bosewave import analysis, cli
    real, polished = dsp._polish, []

    def counting(u, h_b, c2):
        polished.append(len(u))
        return real(u, h_b, c2)

    monkeypatch.setattr(dsp, "_polish", counting)
    lookups = {
        "acoustic_root": lambda theta, n: dsp.acoustic_root(h_b, theta, n),
        "_branches_at": lambda theta, n: dsp._branches_at(h_b, theta, n, "all"),
        "roots": lambda theta, n: cli.main(["roots", f"--h={h_b!r}", f"--theta={theta!r}",
                                            f"--n={n}", "--branch=all"]),
    }
    for theta, n in ((0.3, 2), (0.5, 3), (0.7, 8)):
        for name, lookup in lookups.items():
            eig_calls.clear()
            polished.clear()
            lookup(theta, n)
            assert len(eig_calls.grids) == 1 and eig_calls.sizes[0] > 1, (name, theta, n)
            assert polished == [1], (name, theta, n)
        eig_calls.clear()
        polished.clear()
        analysis.sweep([theta], [0.0, -0.5], np.geomspace(h_b, h_b * 1e-3, 5), n)
        assert len(eig_calls.grids) == 1 and eig_calls.sizes[0] > 10, (theta, n)
        assert polished == [10], (theta, n)
    capsys.readouterr()


def test_select_branch_on_solve_roots_equals_acoustic_root_or_its_error():
    # both lookups steer through the same unpolished seed rows, so they
    # return the same record or raise the same error, message included;
    # the listed crossings are degenerate ones where a lookup steered by
    # polished seed rows picks (and quotes) the other of its two roots; the
    # listed records are points where both lookups return a record
    rng = np.random.default_rng(33)
    records = [(0.1, 0.3, 4), (10.0, 0.3, 4), (1e-3, 0.3, 8), (1e-12, 0.3, 4)]
    points = [(3.341481095986718e-12, 2.91719317933338, 7),
              (2.688800600365188e-14, -1e-09, 4),
              (2.059634599802765e-14, 0.7853981643974483, 2),
              (1e-9, math.pi / 4, 2),
              *records]
    for _ in range(300):
        n = int(rng.integers(2, 9))
        h_b = float(10.0 ** rng.uniform(-14.0, 2.0))
        theta = float(rng.uniform(0.0, math.pi / n))
        if rng.random() < 0.25:
            theta = (int(rng.integers(0, 2 * n)) * math.pi / (2 * n)
                     + float(rng.choice([0.0, 1e-9, -1e-9, 1e-12, -1e-12])))
        points.append((h_b, theta, n))
    errors = 0
    for h_b, theta, n in points:
        want = outcome(lambda: dsp.acoustic_root(h_b, theta, n))
        got = outcome(lambda: dsp.select_branch(
            dsp.solve_roots(dsp.assemble_polynomial(h_b, theta, n)), h_b, theta, n))
        assert got == want, (h_b, theta, n)
        assert (h_b, theta, n) not in records or want.startswith("DispersionRoot("), want
        errors += want.startswith("BranchAmbiguityError: ")
    assert errors >= 4


def nearest_with_ambiguity_check(roots, u_target):
    """The nearest-root search that held the point lookups' ambiguity check."""
    from bosewave.errors import BranchAmbiguityError
    order = np.argsort(np.abs(roots - u_target))
    if len(order) > 1:
        best, second = roots[order[0]], roots[order[1]]
        if abs(best - second) < dsp.AMBIGUITY_TOL * max(1.0, abs(best)):
            raise BranchAmbiguityError(
                f"two roots within {dsp.AMBIGUITY_TOL} of each other near "
                f"u = {u_target:.6g}: degenerate crossing")
    return int(order[0])


def test_ambiguity_check_equals_the_nearest_root_search():
    # a point lookup raises BranchAmbiguityError, with the same message,
    # exactly where the nearest-root search on its labelled row did: rows
    # NaN-padded (fewer roots than n), with an exact duplicate (of the
    # continued root or of another), and on or next to degenerate angles
    rng = np.random.default_rng(34)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(2, 9))
        h_b = float(10.0 ** rng.uniform(-14.0, 2.0))
        theta = float(rng.uniform(0.0, math.pi / n))
        if rng.random() < 0.25:
            theta = (int(rng.integers(0, 2 * n)) * math.pi / (2 * n)
                     + float(rng.choice([0.0, 1e-9, -1e-9, 1e-12, -1e-12])))
        roots = dsp.solve_roots(dsp.assemble_polynomial(h_b, theta, n))
        kind = int(rng.integers(3))
        if kind == 1:   # a NaN-padded row
            roots = roots[:int(rng.integers(1, len(roots) + 1))]
        elif kind == 2:   # an exact duplicate, in place of the last root
            roots = np.append(roots[:n - 1], roots[int(rng.integers(len(roots)))])
        (u,), _ = dsp._track_to([[h_b]], theta, n, roots=roots)
        want = outcome(lambda: nearest_with_ambiguity_check(u[0], complex(u[0, 0])))
        got = outcome(lambda: dsp._branches_at(h_b, theta, n, "all", roots))
        raised = want.startswith("BranchAmbiguityError: ")
        assert got.startswith("BranchAmbiguityError: ") == raised, (h_b, theta, n, kind)
        if raised:
            assert got == want, (h_b, theta, n, kind)
        seen.add((kind, raised, bool(np.isnan(u[0]).any())))
    assert {(0, False), (0, True), (1, False), (2, True)} <= {key[:2] for key in seen}
    assert (1, False, True) in seen


def test_point_lookup_reports_a_degenerate_crossing():
    from bosewave.errors import BranchAmbiguityError
    with pytest.raises(BranchAmbiguityError):
        dsp.acoustic_root(1e-9, math.pi / 4, 2)
    with pytest.raises(BranchAmbiguityError):
        dsp._branches_at(1e-9, math.pi / 4, 2, "all")


@pytest.mark.xfail(strict=True, reason="below h_b ~ 1e-26 every point lookup is "
                   "uncertified (residual 1); ROADMAP item 7")
def test_point_lookup_is_certified_at_tiny_h_b():
    assert dsp.acoustic_root(1e-30, 0.3, 2).residual < 1e-9
