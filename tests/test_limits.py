"""The hydrodynamic limit of the acoustic root, h_b -> inf, the free-streaming
limit of every root, h_b -> 0, and the decoupled roots at degenerate angles
(ROADMAP item 15).

With eps = 1/(i h_b), w_k = 2 cos^2[theta + (k-1)pi/n], p_k = 1 - w_k and
u = lambda^2 = 1 + delta, every denominator is d_k = i h_b (1 + eps v_k),
v_k = p_k - delta w_k, so the relation reads <1/(1 + eps v)> = 1, <.> the
mean over k.  As <w> = 1 and <p> = 0 for n >= 2, <v> = -delta, and the
expansion in eps gives

    delta = -eps <v^2> + eps^2 <v^3> - eps^3 <v^4> + ...
          = a1 eps + a2 eps^2 + a3 eps^3 + O(eps^4),
    a1 = -<p^2>,  a2 = 2 a1 <pw> + <p^3>,
    a3 = 2 a2 <pw> - a1^2 <w^2> - 3 a1 <p^2 w> - <p^4>.

With eps = -i/h_b and lambda = sqrt(1 + delta) = 1 + delta/2 - delta^2/8
+ delta^3/16 - ...,

    h_b lambda_i = -a1/2 + (a3/2 - a1 a2/4 + a1^3/16)/h_b^2 + O(h_b^-4),
    lambda_r     = 1 + (a1^2/8 - a2/2)/h_b^2 + O(h_b^-4),

and -a1/2 = (<w^2> - 1)/2 is 1/4 for every n >= 3 (<w^2> = 3/2) and
cos^2(2 theta)/2 for n = 2.

Each check allows twice the h_b^-2 term, which also covers the smaller
O(h_b^-4) remainder at h_b >= 1e2, plus a rounding allowance ROUNDING,
relative.  Above h_b = 4 the acoustic root keeps the eigenvalue of its
solve: the Newton polish holds it, since a step on the rational relation,
whose u-derivative is about 1/h_b there, would move it by about eps h_b.
Over the sample below, h_b = 1e2 to 1e10, the measured worst error beyond
the h_b^-2 allowance is 8.1e-15 (h_b lambda_i at h_b = 1e10, n = 7), and
ROUNDING = 5e-14 leaves a margin of 6.  At h_b = 1e30 and 1e300 the
eigen solve itself loses lambda_i (ROADMAP items 7 and 14): those cases
are strict xfails, with the measured worst error in each reason.

At the free-streaming end each root sits next to its own pole
nu = (1 + i h_b)/u = w_j, and at a generic angle (every w_j simple)

    lambda_j = (1 + i h_b (1 - 1/n)/2)/sqrt(w_j) + O(h_b^2),

so lambda_i = (1 - 1/n) h_b/(2 sqrt(w_j)) to a relative O(h_b).
"""

import math

import numpy as np
import pytest

from bosewave import dispersion as dsp

ROUNDING = 5e-14   # measured worst 8.1e-15, a margin of 6


def limit_terms(theta: float, n: int) -> tuple:
    """(h_b lambda_i limit, its h_b^-2 coefficient, lambda_r's h_b^-2 coefficient)."""
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


def angles(n: int, rng) -> list:
    """Every multiple of pi/(4n) in [0, pi), the degenerate angles among them, and 12 random ones."""
    return [j * math.pi / (4 * n) for j in range(4 * n)] + list(rng.uniform(0.0, math.pi, 12))


def worst_errors(h_b: float) -> tuple:
    """The worst lambda_i and lambda_r errors over n = 2..8, each over its tolerance.

    The lambda_i error is relative to the limit, or to 1/4 where the n = 2
    limit cos^2(2 theta)/2 falls below it (it is 0 at theta = pi/4).
    """
    rng = np.random.default_rng(15)
    worst_i = worst_r = 0.0
    for n in range(2, 9):
        for theta in angles(n, rng):
            limit, second_i, second_r = limit_terms(theta, n)
            scale = max(limit, 0.25)
            lam = dsp.acoustic_root(h_b, theta, n).lam
            err_i = abs(h_b * lam.imag - limit) / scale
            err_r = abs(lam.real - 1.0)
            worst_i = max(worst_i, err_i / (2.0 * abs(second_i) / scale / h_b / h_b + ROUNDING))
            worst_r = max(worst_r, err_r / (2.0 * abs(second_r) / h_b / h_b + ROUNDING))
    return worst_i, worst_r


def xfail(reason: str):
    return pytest.mark.xfail(strict=True, reason=reason + "; ROADMAP items 7 and 14")


@pytest.mark.parametrize("h_b", [
    1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e10,
    pytest.param(1e30, marks=xfail("h_b lambda_i off by 0.23 (n >= 3)")),
    pytest.param(1e300, marks=xfail("h_b lambda_i off by 2.0 (n = 2) to 2.2 (n >= 3)")),
])
def test_acoustic_root_approaches_the_hydrodynamic_limit(h_b):
    worst_i, worst_r = worst_errors(h_b)
    assert worst_i <= 1.0, worst_i
    assert worst_r <= 1.0, worst_r


@pytest.mark.parametrize("n", range(3, 9))
def test_coinciding_velocities_leave_the_decoupled_root(n):
    # where m >= 2 of the w_j > 0 coincide (theta = 0 and pi/(2n)), m - 1
    # amplitude patterns summing to zero over them solve
    # (1 + i h_b - u w_j) a = 0 on their own, so u = (1 + i h_b)/w_j is a
    # root at every h_b
    h_b = np.geomspace(1e-6, 1e6, 25)
    for theta in (0.0, math.pi / (2 * n)):
        w = np.sort(2.0 * dsp._cos2(theta, n))
        w = w[w > 1e-12]
        same = np.isclose(w[1:], w[:-1], rtol=1e-12, atol=0.0)
        groups = w[1:][same & ~np.append(False, same[:-1])]   # one w_j per group
        assert len(groups) == ((n - 1) // 2 if theta == 0.0 or n % 2 else n // 2)
        rows = dsp._eig_roots(h_b, theta, n)
        for w_j in groups:
            want = (1.0 + 1j * h_b) / w_j
            err = np.nanmin(np.abs(rows - want[:, None]), axis=1) / np.abs(want)
            # measured worst 1.4e-15; 1e-14 leaves a margin of 7
            assert err.max() <= 1e-14, (theta, w_j, err.max())


@pytest.mark.parametrize("n", range(2, 9))
def test_free_streaming_roots_keep_their_attenuation(n):
    # 10 lookups per n at h_b log-uniform in [1e-20, 1e-14] and angles at
    # least 1e-3 from every degenerate angle k pi/(2n), so the O(h_b)
    # remainder of the identity is below 1e-14 relative; the measured worst
    # error over 2,520 such lookups is 6.0e-16
    rng = np.random.default_rng(100 + n)
    step = math.pi / (2 * n)
    for _ in range(10):
        theta = rng.uniform(0.0, math.pi)
        while abs(theta - step * round(theta / step)) < 1e-3:
            theta = rng.uniform(0.0, math.pi)
        h_b = 10.0 ** rng.uniform(-20.0, -14.0)
        lam, _, res = dsp._branches_at(h_b, theta, n, "all")
        w = 2.0 * dsp._cos2(theta, n)
        assert len(lam) == n
        for z, r in zip(lam, res):
            w_j = w[np.argmin(np.abs(z.real - 1.0 / np.sqrt(w)))]
            want = (1.0 - 1.0 / n) * h_b / (2.0 * math.sqrt(w_j))
            assert z.imag > 0.0, (theta, h_b, z)
            assert abs(z.imag - want) <= 1e-12 * want, (theta, h_b, z, want)
            assert r < 1e-9, (theta, h_b, z, r)
