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
the rational relation.  The cleared-denominator polynomial of degree <= n
in u is kept as an independent oracle.  The acoustic branch is the one
continued from lambda = 1 at large h_b (the hydrodynamic limit).  The
seed grid runs from h_b = 1e6 down to the line, but only its rows from
h_b = SEED_H = 100 down are solved: there u = 1 is certified at run time
to pick the acoustic root, as the one root far nearer u = 1 than any
other, and where it is not the whole grid is solved.  A point lookup
labels the roots of that continuation's last row, the solve at the point
itself, so it usually costs one batched solve.

Conventions: forward wave exp(i(kx - wt)) with real omega > 0, so
lambda_r >= 0 and lambda_i >= 0 means damped rightward propagation.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

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
NEAR_POLE_REL = 1e-12         # denominator within this of its scale: at a pole
CLEAR_POLE_NOISE = 1e-10      # rational-form rounding above this: clear the pole
EPS = np.finfo(float).eps
NEWTON_STEPS = 2              # polish steps on the rational relation
CONTRACT_RESIDUAL_TOL = 1e-9  # acceptance bound carried by DispersionRoot
SINGULAR_TOL = 1e-14          # denominator magnitude treated as singular
AMBIGUITY_TOL = 1e-8          # two roots this close at an endpoint: degenerate
CONTINUATION_START = 1e6      # h_b where the acoustic seed grid starts
CONTINUATION_PER_DECADE = 8
SEED_H = 100.0                # seed rows above this h_b are solved only if needed
SEED_RATIO = 1e-2             # seed certificate: bound on nearest/second-nearest |u - 1|


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
    fabricated).
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
    with d_m(u) = 1 + i*h_b - 2*u*cos^2[theta+(m-1)pi/n].  For n=2 this is
    sin^2(2*theta)*u^2 - (2+i*h_b)*u + (1+i*h_b) up to the monic scaling.
    """
    if not 0 < h_b < math.inf:
        raise DomainError("h_b must be positive and finite")
    z = 1j * h_b
    factors = [np.array([-2.0 * c2, 1.0 + z], dtype=complex) for c2 in _cos2(theta, n)]

    def product_skipping(skip):
        p = np.array([1.0 + 0j])
        for m, f in enumerate(factors):
            if m != skip:
                p = np.convolve(p, f)
        return p

    poly = product_skipping(None)
    tail = None
    for m in range(n):
        pm = product_skipping(m)
        tail = pm if tail is None else np.polyadd(tail, pm)
    poly = np.polyadd(poly, -(z / n) * tail)

    scale = np.max(np.abs(poly))
    k = 0
    while k < len(poly) - 1 and abs(poly[k]) < TRIM_REL_TOL * scale:
        k += 1
    poly = poly[k:] / poly[k]
    return DispersionPolynomial(coeffs=poly, degree=len(poly) - 1,
                                params=(h_b, theta, n))


def _secular(u: np.ndarray, h_b: np.ndarray, c2: np.ndarray):
    """The rational relation f and its derivatives for (K, m) roots u.

    h_b has shape (K,) and c2 shape (n,) or (K, n).  Returns d (K, m, n),
    with d_k = 1 + i h_b - 2 u cos^2_k, 1/d, and f, f_u = df/du and
    f_h = df/dh_b, each (K, m):

        f   = 1 - (i h_b/n) sum_k 1/d_k
        f_u = -(i h_b/n) sum_k 2 cos^2_k/d_k^2
        f_h = -(i/n) sum_k 1/d_k - (h_b/n) sum_k 1/d_k^2

    The one u-form builder of the denominators.  Callers set the errstate.
    """
    n = c2.shape[-1]
    c2 = c2[..., None, :]
    z = 1j * h_b[:, None]
    d = 1.0 + z[:, :, None] - 2.0 * u[:, :, None] * c2
    inv = 1.0 / d
    inv2 = inv * inv
    total = inv.sum(axis=2)
    f = 1.0 - (z / n) * total
    f_u = -(2.0 * z / n) * (inv2 * c2).sum(axis=2)
    f_h = -(1j / n) * total - (h_b[:, None] / n) * inv2.sum(axis=2)
    return d, inv, f, f_u, f_h


def _polish(u: np.ndarray, h_b: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Guarded Newton steps on the rational relation f for (K, n) roots u.

    Newton runs on d_j d_k f, d_j and d_k the two denominators nearest zero,
    so roots next to a pole or on two coinciding poles converge too.  NaN
    (dropped) roots stay NaN; a root at a pole is left alone; a step longer
    than a quarter of the distance to the nearest other root is not taken.
    c2 has shape (n,), or (K, n) for one angle per row.
    """
    n = c2.shape[-1]
    gap = np.abs(u[:, :, None] - u[:, None, :]) + np.diag(np.full(n, np.inf))
    reach = 0.25 * np.fmin.reduce(gap, axis=2)   # fmin skips the NaN roots
    c2_rows = c2[..., None, :]
    one_h = 1.0 + h_b[:, None, None]
    row, root = np.arange(len(u))[:, None], np.arange(n)
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            d, inv, f, fp, _ = _secular(u, h_b, c2)
            scale = one_h + 2.0 * np.abs(u[:, :, None]) * c2_rows
            clear = (np.abs(d) > NEAR_POLE_REL * scale).all(axis=2)
            j = np.argsort(np.abs(inv), axis=2)   # the two nearest poles last
            weighted = c2_rows * inv
            poles = weighted[row, root, j[..., -2]] + weighted[row, root, j[..., -1]]
            step = f / (fp - 2.0 * poles * f)
            u = np.where(clear & (np.abs(step) < reach), u - step, u)
    return u


def _eig_roots(h_b, theta, n: int) -> list:
    """Roots u at every h_b of a 1-D grid, one array each, from one eigvals call.

    theta is one angle for the whole grid or a (K,) array, one per h_b.
    u = 1/mu over the eigenvalues of the (K, n, n) stack of A^-1 C; mu below
    MU_CUT_REL of its row's largest |mu| is a root at infinity and dropped.
    Each row is solved on its own, so a row's roots do not depend on the
    other rows of the batch.
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
    return [row[k] for row, k in zip(_polish(u, h_b, c2), keep)]


def solve_roots(poly: DispersionPolynomial, maxiter: int = 200) -> np.ndarray:
    """All finite roots u of the dispersion relation at ``poly.params``.

    The roots come from (h_b, theta, n), not from the trimmed coefficients:
    u = 1/mu over the eigenvalues mu of A^-1 C, then NEWTON_STEPS guarded
    Newton steps on the rational relation (none at a pole).  mu below
    MU_CUT_REL of the largest |mu| is a root at infinity and is dropped,
    leaving n roots, or n - 1 when a velocity is perpendicular to the wave.
    ``maxiter`` is kept for compatibility and unused.
    """
    if poly.degree < 1:
        raise DomainError("polynomial degree must be >= 1")
    h_b, theta, n = poly.params
    return _eig_roots([h_b], theta, n)[0]


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
    1e-14 of zero (e.g. the secondary root at theta = pi/4, n = 2).
    """
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
    the next-nearest pole is cleared the same way, and so on.
    """
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


def _follow(rows, u: complex) -> list:
    """Nearest-root continuation from u through rows of already solved roots.

    The one continuation loop: returns the index of the continued root in
    each row.  A row that is None (a failed solve) gets None, and the path
    goes on from the last root found.
    """
    path = []
    for roots in rows:
        if roots is None:
            path.append(None)
            continue
        k = int(np.abs(roots - u).argmin())
        u = roots[k]
        path.append(k)
    return path


def _seeds(roots) -> bool:
    """Whether u = 1 certifies the acoustic root of a solved row.

    True when the row has exactly one root, or when the root nearest u = 1
    is nearer than SEED_RATIO times the second-nearest.  False for a failed
    solve (None), a row without roots, and a NaN distance.
    """
    if roots is None or len(roots) == 0:
        return False
    if len(roots) == 1:
        return True
    near, second = np.sort(np.abs(roots - 1.0))[:2]
    return bool(near < SEED_RATIO * second)


def _track_to(h_b, theta: float, n: int, solve=None):
    """Continue the acoustic root from u = 1 at large h_b along the grid h_b.

    The one seeded line solve.  The seed grid runs from CONTINUATION_START
    (or 10 * h_b[0] above it) down to h_b[0], without its last point.  Its
    rows from the first one at or below SEED_H (or h_b[0] itself, if no
    seed row is that low) and h_b are one batch of ``solve``
    (``_eig_roots`` unless given), continued from u = 1 with ``_follow``.
    If u = 1 does not certify the acoustic root of the batch's first row
    (:func:`_seeds`), the seed rows above it are solved as a second batch
    and the whole seed grid is continued from u = 1.  Each row is solved
    on its own, so a row's roots do not depend on the batch.  Returns
    (rows, path) along h_b: the roots at every h_b and the index of the
    continued root in each row.
    """
    top = float(h_b[0])
    if not 0 < top < math.inf:
        raise DomainError("h_b must be positive and finite")
    start = CONTINUATION_START if top <= CONTINUATION_START else 10.0 * top
    decades = abs(np.log10(start / top))
    if not decades < math.inf:
        raise DomainError(f"h_b = {top:.6g} is too far from {CONTINUATION_START:g} "
                          "for a continuation grid in floating point")
    steps = max(2, int(np.ceil(decades * CONTINUATION_PER_DECADE)) + 1)
    seed = np.geomspace(start, top, steps)[:-1]
    solve = solve or _eig_roots
    cut = int(np.count_nonzero(seed > SEED_H))   # the grid descends
    rows = solve(np.concatenate([seed[cut:], h_b]), theta, n)
    if not _seeds(rows[0]):
        rows, cut = solve(seed[:cut], theta, n) + rows, 0
    skip = len(seed) - cut
    return rows[skip:], _follow(rows, 1.0)[skip:]


def _nearest_with_ambiguity_check(roots: np.ndarray, u_target: complex) -> int:
    order = np.argsort(np.abs(roots - u_target))
    if len(order) > 1:
        best, second = roots[order[0]], roots[order[1]]
        if abs(best - second) < AMBIGUITY_TOL * max(1.0, abs(best)):
            raise BranchAmbiguityError(
                f"two roots within {AMBIGUITY_TOL} of each other near "
                f"u = {u_target:.6g}: degenerate crossing")
    return int(order[0])


def _label_branches(rows, path, h_b, theta: float, n: int, policy: str) -> list:
    """The labelled roots of every solved row of a line, certified in one pass.

    The one place roots get their branch labels: in each row, root
    ``path[j]`` is the "acoustic" root, and under policy "all" the other
    roots follow by descending lambda_i as secondary(1), secondary(2), ...
    Every root of the line is certified by one :func:`_certify` call.
    Returns one list of :class:`DispersionRoot` per row, or None where the
    row has no continued root (``path[j]`` is None).
    """
    if policy not in ("acoustic", "all"):
        raise DomainError("policy must be 'acoustic' or 'all'")
    picked, lams, h_at = [], [], []
    for roots, k, hb in zip(rows, path, h_b):
        if k is None:
            picked.append(None)
            continue
        us = [roots[k]]
        if policy == "all":
            us += sorted((u for j, u in enumerate(roots) if j != k),
                         key=lambda u: -principal_lambda(u).imag)
        picked.append(us)
        lams += [principal_lambda(u) for u in us]
        h_at += [hb] * len(us)
    residuals = iter(_certify(lams, h_at, theta, n).tolist())
    lam_of = iter(lams)
    return [None if us is None else [
        DispersionRoot(lam=next(lam_of), u=complex(u),
                       branch="acoustic" if j == 0 else f"secondary({j})",
                       residual=next(residuals))
        for j, u in enumerate(us)] for us in picked]


def _branches_at(h_b: float, theta: float, n: int, policy: str = "acoustic",
                 roots=None) -> list:
    """The labelled roots at h_b (``_label_branches``), the acoustic one first.

    The one point lookup: the acoustic root is the one nearest the
    continued root, and ``roots`` defaults to the continuation's row at
    h_b, the solve at h_b itself, so a point costs one batched solve.
    """
    (row,), (j,) = _track_to([h_b], theta, n)
    roots = row if roots is None else roots
    k = _nearest_with_ambiguity_check(roots, complex(row[j]))
    return _label_branches([roots], [k], [h_b], theta, n, policy)[0]


def select_branch(roots, h_b: float, theta: float, n: int, policy: str = "acoustic"):
    """Classify roots into the acoustic branch and secondary branches.

    The acoustic branch is the root connected by continuation to lambda = 1
    as h_b -> infinity.  policy="acoustic" returns that single
    :class:`DispersionRoot`; policy="all" returns every root, secondaries
    indexed in order of descending lambda_i.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.size == 0:
        raise DomainError("roots must be nonempty")
    if not np.all(np.isfinite(roots)):
        raise DomainError("roots must be finite")
    selected = _branches_at(h_b, theta, n, policy, roots)
    return selected[0] if policy == "acoustic" else selected


def acoustic_root(h_b: float, theta: float, n: int) -> DispersionRoot:
    """Acoustic-branch root at a single parameter point."""
    return _branches_at(h_b, theta, n)[0]


def continuation_track(theta: float, n: int, B: float, h_grid) -> list:
    """Track the acoustic branch down a descending h grid.

    The line h_b = h_grid * (1 + B) is continued from the certified short
    seed of :func:`_track_to`, the one seeded line solve, so its rows are
    the acoustic rows ``sweep`` prints on the same h_b line and the first
    is ``acoustic_root`` at the top.  At each later h the root nearest (in
    u) to the previous one is taken.  The first (largest) h must be >= 1e4,
    as the public contract; the seed does not depend on it.
    Monitors the lambda_i >= 0 convention and warns (does not clamp) on
    violations, which indicate a branch crossing.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.size == 0 or np.any(np.diff(h_grid) >= 0):
        raise DomainError("h_grid must be sorted strictly descending")
    if h_grid[0] < 1e4:
        raise DomainError("h_grid must start at h >= 1e4 for reliable seeding")
    h_b = h_grid * (1.0 + B)
    rows, path = _track_to(h_b, theta, n)
    out = [root for (root,) in _label_branches(rows, path, h_b, theta, n, "acoustic")]
    for h, root in zip(h_grid, out):
        if root.lam.imag < -1e-12:
            warnings.warn(
                f"acoustic lambda_i < 0 at h = {h:.6g} (branch-crossing "
                "diagnostic)", RuntimeWarning, stacklevel=2)
    return out
