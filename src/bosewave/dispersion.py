"""Complex dispersion relation of the 2n-velocity gas.

Plane waves D_m = a_m exp(i(kx - wt)) in the linearized kinetic system obey

    (1 + i*h_b - 2*lambda^2 * cos^2[theta+(m-1)pi/n]) a_m
        - (i*h_b/n) * sum_k a_k = 0,         m = 1..n,

with lambda = k*c/(sqrt(2)*omega): A a = u C a with u = lambda^2,
A = (1 + i*h_b) I - (i*h_b/n) 11^T and C = 2 diag(cos^2[...]).  Eliminating
the amplitudes gives the scalar relation

    1 - (i*h_b/n) * sum_m 1/(1 + i*h_b - 2*lambda^2*cos^2[...]) = 0,

the secular equation of the diagonal-plus-rank-one matrix A^-1 C, where
A^-1 = (I + (i*h_b/n) 11^T)/(1 + i*h_b).  So every root is u = 1/mu over
the eigenvalues mu of A^-1 C, and a grid of h_b values is one stacked
eigenvalue call; mu ~ 0 is a root at infinity (a velocity perpendicular to
the wave) and is dropped, and the other roots get guarded Newton steps on
the rational relation.  The cleared polynomial in u, an independent oracle,
has u^k coefficient e_k(b) a^(n-k-1) (1 + i*h_b*k/n), a = 1 + i*h_b and
b_m = -2 cos^2_m: prod_m (a + b_m u) = sum_k e_k(b) a^(n-k) u^k, and the
skip-one sum is its derivative in a.

The acoustic branch is the one continued from lambda = 1 as h_b -> inf
(the hydrodynamic limit).  Above h_b = TOP_OF_LINE = 4 it is the root of
smallest |u| (the top-of-line rule).  With nu = (1 + i h_b)/u and
w_k = 2 cos^2_k, every root solves R(nu) = sum_k w_k/(nu - w_k) = n/(i h_b).
On the circle nu = 2 e^{i phi}, with a_k = w_k/2 <= 1,

    Re(e^{i phi} R) = sum_k a_k (1 - a_k cos phi)/(1 - 2 a_k cos phi + a_k^2)
                   >= sum_k a_k/2 = n/4,

so |R| >= n/4 > n/h_b there once h_b > 4.  By Rouche's theorem exactly one
root then has |nu| > 2, that is |u| < |1 + i h_b|/2, and no root crosses
that circle as h_b falls from inf to 4, so it is the root continued from
u = 1.  So each line is continued from u = 0 at its top if that lies
above h_b = 4, and otherwise at the last row above 4 of a seed grid that
runs from h_b = CONTINUATION_START down to it.  A point lookup labels
that continuation's last row, the roots at the point itself: the caller's
roots when given (no solve above h_b = 4, the seed rows alone below it),
otherwise the point's own row of the one batched solve, whose line a
small cache keeps, so the lookups of one point share one solve.  The one
rule of the Newton polish: seed rows only steer the continuation by
distance and are never returned, so they are never polished; a line's
own rows are polished, or given.

Conventions: forward wave exp(i(kx - wt)) with real omega > 0, so
lambda_r >= 0 and lambda_i >= 0 means damped rightward propagation.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (
    BranchAmbiguityError,
    ConvergenceError,
    DomainError,
    SingularDenominatorError,
)

__all__ = [
    "DispersionPolynomial",
    "DispersionRoot",
    "ModeShape",
    "assemble_polynomial",
    "solve_roots",
    "closed_form_n2",
    "principal_lambda",
    "residual",
    "root_residual",
    "mode_shape",
    "select_branch",
    "acoustic_root",
    "continuation_track",
]

TRIM_REL_TOL = 1e-13          # leading-coefficient trim, relative to max |coeff|
MU_CUT_REL = 1e-14            # eigenvalue mu = 1/u dropped below this * max |mu|
CLEAR_POLE_NOISE = 1e-10      # rational-form rounding above this: clear the pole
EPS = np.finfo(float).eps
NEWTON_STEPS = 2              # polish steps on the rational relation
CONTRACT_RESIDUAL_TOL = 1e-9  # acceptance bound carried by DispersionRoot
SINGULAR_TOL = 1e-14          # denominator magnitude treated as singular
AMBIGUITY_TOL = 1e-8          # two roots this close at an endpoint: degenerate
CONTINUATION_START = 1e6      # h_b where the acoustic seed grid starts
TOP_OF_LINE = 4.0             # above this h_b the acoustic root is the one of smallest |u|
CONTINUATION_PER_DECADE = 8
POINT_CACHE_SIZE = 4          # one-point continuations kept for reuse


def _cos2(theta, n: int) -> np.ndarray:
    """cos^2[theta + (m-1)pi/n], m = 1..n; the one check of n and theta.

    A scalar theta gives shape (n,); a (K,) array of angles, one per row of
    a batch, gives shape (K, n).
    """
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise DomainError("n must be an integer >= 2")
    if np.ndim(theta):
        theta = np.asarray(theta, dtype=float)[:, None]
        if not np.isfinite(theta).all():
            raise DomainError("theta must be finite")
    elif not math.isfinite(theta):
        raise DomainError("theta must be finite")
    return np.cos(theta + np.arange(n) * np.pi / n) ** 2


@dataclass(frozen=True)
class DispersionPolynomial:
    """Monic cleared-denominator polynomial in u = lambda^2 (an oracle form).

    coeffs are complex, ordered by descending degree, with leading
    coefficients of relative magnitude below TRIM_REL_TOL trimmed away
    (roots escaping to infinity at degenerate angles are dropped, not
    fabricated).  The coefficients are finite for every finite h_b.
    """

    coeffs: np.ndarray
    degree: int
    params: tuple  # (h_b, theta, n) snapshot

    def __call__(self, u: complex) -> complex:
        return complex(np.polyval(self.coeffs, u))


@dataclass(frozen=True)
class DispersionRoot:
    """One root of the dispersion relation.

    lam is the principal lambda (Re >= 0); u = lam^2; branch is "acoustic"
    or "secondary(j)"; residual is the magnitude of the rational dispersion
    relation at lam, except next to a resolvent pole, where rounding swamps
    that form and the relation with the nearest pole (or nearly coinciding
    pair of poles) cleared is reported instead (see :func:`root_residual`).
    """

    lam: complex
    u: complex
    branch: str
    residual: float

    @property
    def lambda_r(self) -> float:
        return self.lam.real

    @property
    def lambda_i(self) -> float:
        return self.lam.imag


@dataclass(frozen=True)
class ModeShape:
    """Amplitude vector a_m, scaled so the largest-magnitude entry is 1."""

    amplitudes: np.ndarray


def assemble_polynomial(h_b: float, theta: float, n: int) -> DispersionPolynomial:
    """Clear the denominators of the dispersion relation.

    Returns the monic polynomial prod_m d_m(u) - (i*h_b/n) sum_m prod_{j!=m} d_j(u)
    with d_m(u) = a + b_m*u, a = 1 + i*h_b, b_m = -2*cos^2[theta+(m-1)pi/n].
    prod_m d_m = sum_k e_k(b) a^(n-k) u^k (e_k elementary symmetric), whose
    a-derivative is the skip-one sum; over a^(n-1), u^k has the O(1) factors
    e_k(b) (1/a)^k (1 + i*h_b*(k/n)), so nothing overflows.  For n=2 this is
    sin^2(2*theta)*u^2 - (2+i*h_b)*u + (1+i*h_b) up to the monic scaling.
    """
    if not 0 < h_b < math.inf:
        raise DomainError("h_b must be positive and finite")
    z = 1j * h_b
    e = np.poly(2.0 * _cos2(theta, n))[::-1]   # e_k(b) at u^k, descending
    deg = np.arange(n, -1, -1)
    poly = e * (1.0 / (1.0 + z)) ** deg * (1.0 + z * (deg / n))

    mag = np.abs(poly)
    k = int(np.argmax(mag >= TRIM_REL_TOL * mag.max()))
    poly = poly[k:] / poly[k]
    return DispersionPolynomial(coeffs=poly, degree=len(poly) - 1,
                                params=(h_b, theta, n))


def _secular(u: np.ndarray, h_b: np.ndarray, c2: np.ndarray):
    """The rational relation f and its u-derivative for (K, m) roots u.

    h_b has shape (K,) and c2 shape (n,) or (K, n).  Returns inv = 1/d
    (K, m, n), with d_k = 1 + i h_b - 2 u cos^2_k, and f and f_u = df/du,
    each (K, m):

        f   = 1 - (i h_b/n) sum_k 1/d_k
        f_u = -(i h_b/n) sum_k 2 cos^2_k/d_k^2

    The one u-form builder of the denominators; the one user of
    f_h = df/dh_b, ``analysis._slope``, forms it from 1/d.  Callers set the
    errstate.
    """
    n = c2.shape[-1]
    c2 = c2[..., None, :]
    z = 1j * h_b[:, None]
    inv = 1.0 / (1.0 + z[:, :, None] - 2.0 * u[:, :, None] * c2)
    f = 1.0 - (z / n) * inv.sum(axis=2)
    f_u = -(2.0 * z / n) * (inv * inv * c2).sum(axis=2)
    return inv, f, f_u


def _polish(u: np.ndarray, h_b: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Guarded Newton steps on the rational relation f for (K, n) roots u.

    Newton runs on d_j d_k f, d_j and d_k the two denominators nearest zero,
    so roots next to a pole or on two coinciding poles converge too.  A
    step is taken only where it is finite and shorter than a quarter of the
    distance to the nearest other root; so NaN (dropped) roots stay NaN, and
    a root exactly on a pole, whose step is not finite, is left alone.  In a
    row above TOP_OF_LINE the live root of smallest |u|, the acoustic root,
    is held: f_u is about 1/h_b there, so a step of rounding-level f would
    move its eigenvalue by about eps h_b.  c2 has shape (n,), or (K, n) for
    one angle per row.
    """
    n = c2.shape[-1]
    gap = np.abs(u[:, :, None] - u[:, None, :]) + np.diag(np.full(n, np.inf))
    reach = 0.25 * np.fmin.reduce(gap, axis=2)   # fmin skips the NaN roots
    held = h_b > TOP_OF_LINE
    reach[held, np.fmin(np.abs(u[held]), np.inf).argmin(axis=1)] = 0.0   # NaN |u| -> inf
    c2_rows = c2[..., None, :]
    row, root = np.arange(len(u))[:, None], np.arange(n)
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            inv, f, fp = _secular(u, h_b, c2)
            j = np.argsort(np.abs(inv), axis=2)   # the two nearest poles last
            weighted = c2_rows * inv
            poles = weighted[row, root, j[..., -2]] + weighted[row, root, j[..., -1]]
            step = f / (fp - 2.0 * poles * f)
            u = np.where(np.abs(step) < reach, u - step, u)
    return u


def _eig_step(h_b, theta, n: int) -> tuple:
    """Unpolished roots u at every h_b of a 1-D grid: one eigvals call.

    theta is one angle for the whole grid or a (K,) array, one per h_b.
    u = 1/mu over the eigenvalues of the (K, n, n) stack of A^-1 C; mu below
    MU_CUT_REL of its row's largest |mu| is a root at infinity, dropped: its
    entry is NaN.  Each row is solved on its own, so a row's roots do not
    depend on the other rows of the batch.  Returns (u, h_b, c2), the
    arguments of :func:`_polish`.  u is what a ``solve`` of
    :func:`_track_to` returns: unpolished, since its seed rows only steer
    the continuation; :func:`_track_to` polishes a line's own rows.
    """
    h_b = np.asarray(h_b, dtype=float)
    if not ((h_b > 0) & (h_b < math.inf)).all():
        raise DomainError("h_b must be positive and finite")
    c2 = _cos2(theta, n)
    if c2.ndim == 2 and len(c2) != len(h_b):
        raise DomainError("theta must be one angle or one angle per h_b")
    z = 1j * h_b[:, None, None]
    try:
        mu = np.linalg.eigvals((np.eye(n) + z / n) * (2.0 * c2[..., None, :] / (1.0 + z)))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue solve failed: {exc}") from None
    size = np.abs(mu)
    keep = size > MU_CUT_REL * size.max(axis=1, keepdims=True)
    u = np.divide(1.0, mu, out=np.full_like(mu, np.nan), where=keep)
    return u, h_b, c2


def _eig_roots(h_b, theta, n: int) -> np.ndarray:
    """Roots u at every h_b of a 1-D grid: the (K, n) :func:`_eig_step`, polished.

    For rows that are returned; a continuation's seed rows, which only
    steer it, take :func:`_eig_step` alone (see :func:`_track_to`).
    """
    return _polish(*_eig_step(h_b, theta, n))


def solve_roots(poly: DispersionPolynomial, maxiter: int = 200) -> np.ndarray:
    """All finite roots u of the dispersion relation at ``poly.params``.

    The roots come from (h_b, theta, n), not from the trimmed coefficients:
    u = 1/mu over the eigenvalues mu of A^-1 C, then NEWTON_STEPS guarded
    Newton steps on the rational relation (none from exactly on a pole).
    mu below MU_CUT_REL of the largest |mu| is a root at infinity and is
    dropped, leaving n roots, or n - 1 when a velocity is perpendicular to
    the wave.
    ``maxiter`` is kept for compatibility and unused.
    """
    if poly.degree < 1:
        raise DomainError("polynomial degree must be >= 1")
    h_b, theta, n = poly.params
    (roots,) = _eig_roots([h_b], theta, n)
    return roots[~np.isnan(roots)]


def closed_form_n2(h_b: float, theta: float) -> np.ndarray:
    """Independent oracle for n=2: roots of sin^2(2θ)u^2 - (2+i h_b)u + (1+i h_b).

    Uses the numerically stable quadratic formula; collapses to the linear
    root (1+i h_b)/(2+i h_b) when sin^2(2θ) is below the trim tolerance.
    """
    if not 0 < h_b < math.inf:
        raise DomainError("h_b must be positive and finite")
    if not math.isfinite(theta):
        raise DomainError("theta must be finite")
    z = 1j * h_b
    s = np.sin(2.0 * theta) ** 2
    coeffs = np.array([s, -(2.0 + z), 1.0 + z], dtype=complex)
    scale = np.max(np.abs(coeffs))
    if abs(s) < TRIM_REL_TOL * scale:
        return np.array([(1.0 + z) / (2.0 + z)])
    disc = cmath.sqrt(coeffs[1] ** 2 - 4.0 * coeffs[0] * coeffs[2])
    if abs(coeffs[1] - disc) >= abs(coeffs[1] + disc):
        q = -(coeffs[1] - disc) / 2.0
    else:
        q = -(coeffs[1] + disc) / 2.0
    return np.array([q / coeffs[0], coeffs[2] / q])


def principal_lambda(u: complex) -> complex:
    """Square root of u on the forward-wave branch: Re > 0, or Re = 0 and Im >= 0."""
    lam = cmath.sqrt(u)
    if lam.real < 0 or (lam.real == 0 and lam.imag < 0):
        lam = -lam
    return lam


def _denominators(lam, h_b, c2: np.ndarray) -> np.ndarray:
    """d_k = 1 + i h_b - 2 lam^2 cos^2_k for (R,) arrays lam and h_b: (R, n).

    The one lambda-form builder of the denominators, and the one check of
    h_b for the functions that take lam.  2 lam^2 is formed on the real and
    imaginary parts the way Python multiplies complex numbers (numpy's
    complex multiply can round the last bit differently), so each row is
    bit for bit the scalar ``1.0 + 1j*h_b - 2.0*lam*lam*c2``.
    """
    lam = np.asarray(lam, dtype=complex)
    h_b = np.asarray(h_b, dtype=float)
    if not ((h_b > 0) & (h_b < math.inf)).all():
        raise DomainError("h_b must be positive and finite")
    a, b = lam.real, lam.imag
    a2, b2 = 2.0 * a, 2.0 * b
    re = a2 * a - b2 * b
    im = a2 * b + b2 * a
    d = np.empty((len(lam), len(c2)), dtype=complex)
    d.real = 1.0 - re[:, None] * c2
    d.imag = h_b[:, None] - im[:, None] * c2
    return d


def residual(lam: complex, h_b: float, theta: float, n: int) -> complex:
    """Left side of the rational dispersion relation, evaluated exactly.

    Raises :class:`SingularDenominatorError` if any denominator is within
    1e-14 of zero (e.g. the secondary root at theta = pi/4, n = 2), and
    DomainError for a NaN or infinite lam.
    """
    if not cmath.isfinite(lam):
        raise DomainError("lam must be finite")
    (denoms,) = _denominators([lam], [h_b], _cos2(theta, n))
    if np.any(np.abs(denoms) < SINGULAR_TOL):
        raise SingularDenominatorError(
            "resolvent denominator vanishes at this lambda")
    return complex(1.0 - (1j * h_b / n) * np.sum(1.0 / denoms))


def _certify(lam, h_b, theta: float, n: int) -> np.ndarray:
    """:func:`root_residual` of every (lam, h_b) pair of two (R,) arrays.

    Each d_k = 1 + i h_b - 2 lam^2 cos^2 carries a rounding error of about
    eps * scale_k, scale_k = 1 + h_b + 2|lam|^2 cos^2, so the rational form
    carries eps (h_b/n) sum_k scale_k/|d_k|^2 of noise.  Where that stays
    below CLEAR_POLE_NOISE the value is |residual|, for all rows in one
    vectorised pass; the other rows clear their nearest poles one at a time
    (:func:`_clear_poles`).  Each value is bit for bit the evaluation of
    its root on its own: |lam| and |f| use np.hypot, which is Python's
    abs(complex), and the denominators come from :func:`_denominators`.
    """
    lam = np.asarray(lam, dtype=complex)
    h_b = np.asarray(h_b, dtype=float)
    c2 = _cos2(theta, n)
    denoms = _denominators(lam, h_b, c2)
    size = np.abs(denoms)
    # |lam|^2 through libm pow, as Python's abs(lam) ** 2 rounds it (x * x
    # rounds differently for about one x in a thousand)
    lam2 = np.float_power(np.hypot(lam.real, lam.imag), 2.0)
    scales = (1.0 + h_b)[:, None] + (2.0 * lam2)[:, None] * c2
    h_n = h_b / n
    # an infinite |d_k|^2 adds no noise; a zero |d_k| makes the noise
    # infinite and a NaN one makes it NaN, so those rows clear their poles
    # too, and a certificate that overflows there comes out NaN
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        noise = EPS * h_n * np.add.reduce(scales / (size * size), 1)
        total = np.add.reduce(1.0 / denoms, 1)
        # |1 - (i h_b/n) total|, rounded as the complex expression rounds
        out = np.hypot(1.0 + h_n * total.imag, h_n * total.real)
        for i in (~(noise < CLEAR_POLE_NOISE)).nonzero()[0]:
            out[i] = _clear_poles(denoms[i], scales[i], size[i], float(h_b[i]), n)
    return out


def _clear_poles(denoms: np.ndarray, scales: np.ndarray, size: np.ndarray,
                 h_b: float, n: int) -> float:
    """One root's residual with its nearest poles cleared (see root_residual).

    Runs inside :func:`_certify`'s errstate.
    """
    inv_ratio = scales / size               # inf exactly at a pole
    order = np.argsort(-inv_ratio)          # nearest pole first
    cleared, weight = 1, 1.0 / inv_ratio[order[0]]   # prod of |d_j|/scale_j
    while cleared < n:
        far = order[cleared:]
        # noise from the error in each remaining d_k and in each cleared d_j
        spread = inv_ratio[far] + inv_ratio[order[:cleared]].sum()
        if EPS * (h_b / n) * weight * np.sum(spread / size[far]) < CLEAR_POLE_NOISE:
            break
        weight /= inv_ratio[order[cleared]]
        cleared += 1
    d = denoms[order[:cleared]]
    prod = np.prod(d)
    others = sum(np.prod(np.delete(d, j)) for j in range(cleared))
    rest = np.sum(1.0 / denoms[order[cleared:]])
    value = prod - (1j * h_b / n) * (others + prod * rest)
    return float(abs(value) / np.prod(scales[order[:cleared]]))


def root_residual(lam: complex, h_b: float, theta: float, n: int) -> float:
    """|residual|, with the nearest poles cleared where the rational form is noise.

    Where the rounding noise of the rational form (see :func:`_certify`)
    reaches CLEAR_POLE_NOISE, the relation is multiplied through by the
    nearest denominator d_j and normalized by its scale:

        |d_j - (i h_b/n)(1 + d_j sum_{k!=j} 1/d_k)| / scale_j.

    If the noise of that form still reaches CLEAR_POLE_NOISE (a second pole
    nearly coincides, e.g. the secondary root at theta = pi/4 for n = 2),
    the next-nearest pole is cleared the same way, and so on.  A NaN or
    infinite lam raises DomainError.
    """
    if not cmath.isfinite(lam):
        raise DomainError("lam must be finite")
    return float(_certify([lam], [h_b], theta, n)[0])


def mode_shape(lam: complex, h_b: float, theta: float, n: int) -> ModeShape:
    """Amplitudes a_m = C/(1 + i h_b - 2 lam^2 cos^2[...]), max-normalized.

    Requires lam to be a verified root (root_residual below the contract
    tolerance); raises :class:`SingularDenominatorError` when a denominator
    magnitude is below 1e-12.
    """
    if not root_residual(lam, h_b, theta, n) < CONTRACT_RESIDUAL_TOL:
        raise DomainError("lam is not a root of the dispersion relation "
                          "(residual check failed)")
    (denoms,) = _denominators([lam], [h_b], _cos2(theta, n))
    if np.any(np.abs(denoms) < 1e-12):
        raise SingularDenominatorError(
            "mode shape undefined: resolvent denominator below 1e-12")
    amps = 1.0 / denoms
    amps = amps / amps[np.argmax(np.abs(amps))]
    return ModeShape(amplitudes=amps)


def _nearest(rows, u) -> np.ndarray:
    """The index of the root nearest each u in its row of an (L, n) array of roots.

    The one nearest-root pick.  u is an (L, m) array, m values per row, and
    the picks have its shape.  A NaN root is dropped, at an infinite
    distance, and never picked: where the nearest distance lands on one
    (every live distance overflowed too) the row's first live root is
    taken, and an all-NaN row gets 0.  A NaN u (a dropped root, in
    :func:`_follow`'s table) gets a pick that is never read.
    """
    gone = np.isnan(rows)
    u = np.asarray(u)[:, :, None]
    # inf - inf for a dropped root against a dropped u; overflowing distances
    with np.errstate(invalid="ignore", over="ignore"):
        picks = np.abs(np.where(gone, np.inf, rows)[:, None, :] - u).argmin(axis=2)
    if gone.any():
        dropped = gone[np.arange(len(rows))[:, None], picks]
        picks = np.where(dropped, gone.argmin(axis=1)[:, None], picks)
    return picks


def _follow(rows) -> list:
    """Nearest-root continuation from u = 0 through a (K, n) array of solved roots.

    The one continuation: returns the index of the continued root in each
    row, each row holding at least one live root.  The first pick is the
    first row's root of smallest |u|.  One :func:`_nearest` pass gives, for
    every root of each row (and for u = 0, before the first row), the index
    of the nearest root of the next row; the path then walks that (K, n)
    table.
    """
    before = np.concatenate((np.zeros((1, rows.shape[1]), dtype=complex), rows))[:-1]
    path, k = [], 0   # the first row of `before` is u = 0, n times
    for picks in _nearest(rows, before).tolist():
        k = picks[k]
        path.append(k)
    return path


def _track_to(h_b, theta: float, n: int, solve=None, roots=None) -> tuple:
    """The roots of each line of h_b in label order, continued from its top-of-line pick.

    The one seeded solve, and the one place that knows which rows of its
    batch are seed rows.  h_b is an (L, K) array: L lines of K points on
    the one angle theta.  A line's seed grid runs from CONTINUATION_START
    (or 10 * its top above it) down to its top h_b[l, 0], without its last
    point.  A line whose top lies above TOP_OF_LINE builds no seed grid and
    solves no seed row; any other solves the seed rows from the last one
    above TOP_OF_LINE down.  Either way a top too far from
    CONTINUATION_START for such a grid in floating point raises
    DomainError; then n and theta are checked.  One batch of ``solve``,
    which returns the unpolished roots of every row (``_eig_step``'s unless
    given), holds every line's seed rows, in line order, then the lines'
    own rows: [seed_0, ..., seed_{L-1}, line_0, ..., line_{L-1}].  The seed
    rows only steer the continuation by distance and are never returned,
    so they are never polished; the own rows are the batch's tail,
    polished in place by one :func:`_polish` call.  ``roots``, given for a
    one-point line (a 1-D array of at most n values, taken to be the roots
    at that point), is that tail's one row, NaN-padded to n columns: it is
    neither solved nor polished, and n and theta are checked before it is
    sized by n.  A failed solve (a ``solve`` that NaN-fills a row) is an
    all-NaN row, and this is the one place that knows it: each line is
    continued on its own with ``_follow`` from u = 0 through the live rows
    of its seed rows and then its own rows, so a row after a failed one is
    matched to the last root found, and a failed row keeps the pick 0,
    which :func:`_order` leaves all NaN.  The line's first pick is its
    first live row's root of smallest |u|.  Its first row lies above
    TOP_OF_LINE, where this is the acoustic root (the top-of-line rule, see
    the module docstring); where that row failed, the line starts at its
    first live row only if that row lies above TOP_OF_LINE too, and
    otherwise the rule does not cover the pick, and the line comes back
    all NaN.  Each row is solved and polished on its own, so a line's roots
    do not depend on the other lines.  Returns (u, lam), each (L, K, n):
    every row in :func:`_order`, the continued root first, NaN where
    dropped or where a solve failed.
    """
    h_b = np.asarray(h_b, dtype=float)
    seeds = []
    for top in h_b[:, 0].tolist():
        if not 0 < top < math.inf:
            raise DomainError("h_b must be positive and finite")
        start = CONTINUATION_START if top <= CONTINUATION_START else 10.0 * top
        decades = np.log10(start / top)
        if not decades < math.inf:
            raise DomainError(f"h_b = {top:.6g} is too far from {CONTINUATION_START:g} "
                              "for a continuation grid in floating point")
        if top > TOP_OF_LINE:
            seed = h_b[:0, 0]
        else:
            steps = int(np.ceil(decades * CONTINUATION_PER_DECADE)) + 1
            seed = np.geomspace(start, top, steps)   # its last point is the top
            seed = seed[:-1][seed[1:] <= TOP_OF_LINE]   # from the last row above it
        seeds.append(seed)
    c2 = _cos2(theta, n)
    grid = np.concatenate((*seeds, h_b.ravel()))
    steer = len(grid) - h_b.size
    solve = solve or (lambda h, t, k: _eig_step(h, t, k)[0])
    if roots is None:
        batch = solve(grid, theta, n)
        batch[steer:] = _polish(batch[steer:], grid[steer:], c2)
    else:   # one point, its row given; n and theta are checked before roots is sized by n
        if len(roots) > len(c2):
            raise DomainError(f"roots must hold at most n = {n} values")
        batch = np.full((len(grid), n), np.nan, dtype=complex)
        batch[steer, :len(roots)] = roots
        if steer:
            batch[:steer] = solve(grid[:steer], theta, n)
    own, path, at = batch[steer:].reshape(*h_b.shape, -1), [], 0
    for seed, line, h_line in zip(seeds, own, h_b):
        rows = np.concatenate((batch[at:at + len(seed)], line))
        (live,) = (~np.isnan(rows).all(axis=1)).nonzero()
        if len(live) == len(rows):
            picks = _follow(rows)
        else:   # failed solves: walk the live rows, from the first only above TOP_OF_LINE
            picks = np.zeros(len(rows), dtype=int)
            if len(live) and np.append(seed, h_line)[live[0]] > TOP_OF_LINE:
                picks[live] = _follow(rows[live])
            else:
                line[:] = np.nan
        path.extend(picks[len(seed):])
        at += len(seed)
    return tuple(part.reshape(own.shape) for part in _order(batch[steer:], path))


def _line(h, B):
    """h_b = h (1 + B) along an h grid (or at one h): the one check of B.

    Every line forms its h_b here: ``sweep``, the coarse peak grids and
    their refinement, ``continuation_track`` and the CLI points.  B may be
    an array that broadcasts against h.  An h_b that overflows comes out
    inf, without a warning, for :func:`_track_to` to reject; one that
    underflows to 0 raises DomainError here.
    """
    if not np.all((B > -1) & (B < math.inf)):
        raise DomainError("B must satisfy -1 < B < inf")
    with np.errstate(over="ignore"):
        h_b = np.multiply(h, 1.0 + B)
    if np.any(h_b == 0):
        raise DomainError("h_b must be positive and finite")
    return h_b


def _principal(u: np.ndarray) -> np.ndarray:
    """:func:`principal_lambda` of every entry; NaN stays NaN.

    np.sqrt already gives Re >= 0, so only Re = 0, Im < 0 flips.  That it
    is bit for bit principal_lambda on the roots the program labels is
    checked by test_labelled_lambda_is_principal_lambda_bitwise.
    """
    with np.errstate(invalid="ignore"):
        lam = np.sqrt(u)
    np.negative(lam, out=lam, where=(lam.real == 0) & (lam.imag < 0))
    return lam


def _order(rows, path) -> tuple:
    """Each row's roots and lambda in label order: (u, lam), each (K, n).

    The one ordering of a row's roots: root ``path[j]`` of row j (the
    continued, acoustic one) first, then the others by descending lambda_i,
    ties in column order, and the dropped (NaN) roots last.  Column 1 is
    the largest-lambda_i secondary root.  An all-NaN row (a failed solve,
    path 0) stays all NaN.
    """
    lam = _principal(rows)
    at = np.arange(len(rows))
    key = -lam.imag                     # NaN sorts last
    key[at, path] = -np.inf
    order = key.argsort(axis=1, kind="stable")
    at = at[:, None]
    return rows[at, order], lam[at, order]


def _branch_name(j: int) -> str:
    """The label of a row's j-th root in label order: "acoustic", then "secondary(j)"."""
    return "acoustic" if j == 0 else f"secondary({j})"


def _label_branches(u, lam, h_b, theta: float, n: int, policy: str) -> tuple:
    """The labelled roots of every row of one angle, as plain columns.

    The one place roots get their branch labels: u and lam are (..., n)
    rows in :func:`_order`, one per entry of h_b, and each row's first
    root is the "acoustic" one; under policy "all" the other live roots
    follow, named by :func:`_branch_name`.  Every labelled root is
    certified by one :func:`_certify` call.  Returns (counts, lam, u,
    residual): the number of labelled roots of each row (0 where no root
    was continued), then the lambda, u and certificate of every labelled
    root as flat lists, row by row in label order.  No record is built
    here; each public record is built once from these columns.
    """
    if policy not in ("acoustic", "all"):
        raise DomainError("policy must be 'acoustic' or 'all'")
    if policy == "acoustic":
        u, lam = u[..., :1], lam[..., :1]
    live = ~np.isnan(u)
    counts = live.sum(axis=-1).ravel()
    lam = lam[live]
    residual = _certify(lam, np.asarray(h_b, dtype=float).repeat(counts), theta, n)
    return counts.tolist(), lam.tolist(), u[live].tolist(), residual.tolist()


@functools.lru_cache(maxsize=POINT_CACHE_SIZE)
def _point_track(h_b: float, theta: float, n: int) -> tuple:
    """The one-point :func:`_track_to` line (u, lam) at h_b, read-only, reused per key.

    Only plain int and float keys reach it (:func:`_branches_at`), and an
    int and a float of one value solve the same batch, so equal keys share
    one entry.  A lookup that raises caches nothing.
    """
    track = _track_to([[h_b]], theta, n)
    for part in track:
        part.flags.writeable = False
    return track


def _plain(value, kinds=(int, float)) -> bool:
    """A Python int or float scalar, not a bool (np.float64 is a float)."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _branches_at(h_b: float, theta: float, n: int, policy: str = "acoustic",
                 roots=None) -> tuple:
    """One row's columns of :func:`_label_branches` at h_b: (lam, u, residual).

    The one point lookup: the row at h_b of a one-point :func:`_track_to`
    line, in label order, the continued (acoustic) root first.  That row is
    ``roots`` when given (a 1-D array of at most n values, taken to be the
    roots at h_b), which is neither solved nor polished; otherwise it is
    solved in the one batch with the seed rows and polished alone, a line
    that :func:`_point_track` keeps when h_b and theta are int or float
    scalars and n an int.  The seed rows only steer the continuation and
    are never polished.  The check below, the labels and the certificates
    run on every call.  Another live root of the row within AMBIGUITY_TOL
    * max(1, |u_0|) of the continued root u_0 raises BranchAmbiguityError.
    """
    if roots is None and _plain(h_b) and _plain(theta) and _plain(n, int):
        (u,), (lam,) = _point_track(h_b, theta, n)
    else:
        (u,), (lam,) = _track_to([[h_b]], theta, n, roots=roots)
    u_0 = u[0, 0]
    if (np.abs(u[0, 1:] - u_0) < AMBIGUITY_TOL * max(1.0, abs(u_0))).any():
        raise BranchAmbiguityError(f"two roots within {AMBIGUITY_TOL} of each other near "
                                   f"u = {complex(u_0):.6g}: degenerate crossing")
    return _label_branches(u, lam, [h_b], theta, n, policy)[1:]


def select_branch(roots, h_b: float, theta: float, n: int, policy: str = "acoustic"):
    """Classify roots into the acoustic branch and secondary branches.

    ``roots`` are taken to be the roots u of the dispersion relation at
    (h_b, theta, n), such as :func:`solve_roots` returns: a nonempty 1-D
    array of at most n finite values, or DomainError.  The acoustic branch
    is the root connected by continuation to lambda = 1 as h_b -> infinity;
    the continuation runs into the given roots, so the point's own row is
    neither solved again nor polished, and the seed rows it steers through
    below h_b = 4 are never polished, since none of them is returned.
    policy="acoustic" returns that single :class:`DispersionRoot`;
    policy="all" returns every root, secondaries indexed in order of
    descending lambda_i.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.ndim != 1:
        raise DomainError("roots must be a 1-D array")
    if roots.size == 0:
        raise DomainError("roots must be nonempty")
    if not np.all(np.isfinite(roots)):
        raise DomainError("roots must be finite")
    lam, u, res = _branches_at(h_b, theta, n, policy, roots)
    selected = [DispersionRoot(lam[j], u[j], _branch_name(j), res[j]) for j in range(len(lam))]
    return selected[0] if policy == "acoustic" else selected


def acoustic_root(h_b: float, theta: float, n: int) -> DispersionRoot:
    """Acoustic-branch root at a single parameter point."""
    (lam,), (u,), (res,) = _branches_at(h_b, theta, n)
    return DispersionRoot(lam, u, "acoustic", res)


def continuation_track(theta: float, n: int, B: float, h_grid) -> list:
    """Track the acoustic branch down a descending h grid.

    The line h_b = h_grid * (1 + B) (:func:`_line`, so B must satisfy
    -1 < B < inf) is continued by :func:`_track_to`, the one seeded solve;
    its column 0 holds the acoustic rows ``sweep`` prints on the same h_b
    line, the first being ``acoustic_root`` at the top.  At each later h
    the root nearest (in u) to the previous one is taken.  The first
    (largest) h must be >= 1e4, as the public contract; the continuation
    does not depend on it.
    Monitors the lambda_i >= 0 convention and warns (does not clamp) on
    violations, which indicate a branch crossing.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.ndim != 1 or h_grid.size == 0 or np.any(np.diff(h_grid) >= 0):
        raise DomainError("h_grid must be a 1-D array sorted strictly descending")
    if not np.all((h_grid > 0) & (h_grid < math.inf)):   # NaN fails it too
        raise DomainError("h_grid entries must be positive and finite")
    if h_grid[0] < 1e4:
        raise DomainError("h_grid must start at h >= 1e4 for reliable seeding")
    h_b = _line(h_grid, B)
    u, lam = _track_to(h_b[None], theta, n)
    _, lam, u, res = _label_branches(u, lam, h_b, theta, n, "acoustic")
    out = list(map(DispersionRoot, lam, u, repeat("acoustic"), res))
    for h, root in zip(h_grid, out):
        if root.lam.imag < -1e-12:
            warnings.warn(
                f"acoustic lambda_i < 0 at h = {h:.6g} (branch-crossing "
                "diagnostic)", RuntimeWarning, stacklevel=2)
    return out
