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
continued from lambda = 1 at large h_b (the hydrodynamic limit); a point
lookup labels the roots of that continuation's last row, the solve at the
point itself, so it costs one batched solve.

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
CONTINUATION_START = 1e6      # h_b where the acoustic branch is seeded at u = 1
CONTINUATION_PER_DECADE = 8


def _cos2(theta: float, n: int) -> np.ndarray:
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
    if not h_b > 0:
        raise DomainError("h_b must be positive")
    if n < 2:
        raise DomainError("n must be >= 2")
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


def _polish(u: np.ndarray, h_b: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Guarded Newton steps on the rational relation f for (K, n) roots u.

    Newton runs on d_j d_k f, d_j and d_k the two denominators nearest zero,
    so roots next to a pole or on two coinciding poles converge too.  NaN
    (dropped) roots stay NaN; a root at a pole is left alone; a step longer
    than a quarter of the distance to the nearest other root is not taken.
    """
    n = len(c2)
    z = 1j * h_b[:, None]
    gap = np.abs(u[:, :, None] - u[:, None, :]) + np.diag(np.full(n, np.inf))
    reach = 0.25 * np.fmin.reduce(gap, axis=2)   # fmin skips the NaN roots
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            d = 1.0 + z[:, :, None] - 2.0 * u[:, :, None] * c2
            scale = 1.0 + h_b[:, None, None] + 2.0 * np.abs(u[:, :, None]) * c2
            clear = np.all(np.abs(d) > NEAR_POLE_REL * scale, axis=2)
            inv = 1.0 / d
            f = 1.0 - (z / n) * inv.sum(axis=2)
            fp = -(2.0 * z / n) * (inv * inv * c2).sum(axis=2)
            j = np.argsort(np.abs(inv), axis=2)[..., -2:]
            poles = np.take_along_axis(c2 * inv, j, axis=2).sum(axis=2)
            step = f / (fp - 2.0 * poles * f)
            u = np.where(clear & (np.abs(step) < reach), u - step, u)
    return u


def _eig_roots(h_b, theta: float, n: int) -> list:
    """Roots u at every h_b of a 1-D grid, one array each, from one eigvals call.

    u = 1/mu over the eigenvalues of the (K, n, n) stack of A^-1 C; mu below
    MU_CUT_REL of its row's largest |mu| is a root at infinity and dropped.
    """
    h_b = np.asarray(h_b, dtype=float)
    if not np.all((h_b > 0) & (h_b < math.inf)):
        raise DomainError("h_b must be positive and finite")
    if n < 2:
        raise DomainError("n must be >= 2")
    c2 = _cos2(theta, n)
    z = 1j * h_b[:, None, None]
    try:
        mu = np.linalg.eigvals((np.eye(n) + z / n) * (2.0 * c2 / (1.0 + z)))
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
    if not h_b > 0:
        raise DomainError("h_b must be positive")
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


def residual(lam: complex, h_b: float, theta: float, n: int) -> complex:
    """Left side of the rational dispersion relation, evaluated exactly.

    Raises :class:`SingularDenominatorError` if any denominator is within
    1e-14 of zero (e.g. the secondary root at theta = pi/4, n = 2).
    """
    denoms = 1.0 + 1j * h_b - 2.0 * lam * lam * _cos2(theta, n)
    if np.any(np.abs(denoms) < SINGULAR_TOL):
        raise SingularDenominatorError(
            "resolvent denominator vanishes at this lambda")
    return complex(1.0 - (1j * h_b / n) * np.sum(1.0 / denoms))


def root_residual(lam: complex, h_b: float, theta: float, n: int) -> float:
    """|residual|, with the nearest poles cleared where the rational form is noise.

    Each d_k = 1 + i h_b - 2 lam^2 cos^2 carries a rounding error of about
    eps * scale_k, scale_k = 1 + h_b + 2|lam|^2 cos^2, so the rational form
    carries eps (h_b/n) sum_k scale_k/|d_k|^2 of noise.  Where that reaches
    CLEAR_POLE_NOISE, the relation is multiplied through by the nearest
    denominator d_j and normalized by its scale:

        |d_j - (i h_b/n)(1 + d_j sum_{k!=j} 1/d_k)| / scale_j.

    If the noise of that form still reaches CLEAR_POLE_NOISE (a second pole
    nearly coincides, e.g. the secondary root at theta = pi/4 for n = 2),
    the next-nearest pole is cleared the same way, and so on.
    """
    c2 = _cos2(theta, n)
    denoms = 1.0 + 1j * h_b - 2.0 * lam * lam * c2
    scales = 1.0 + h_b + 2.0 * abs(lam) ** 2 * c2
    size = np.abs(denoms)
    if size.min() > 0.0 and (
            EPS * (h_b / n) * (scales / (size * size)).sum() < CLEAR_POLE_NOISE):
        return abs(complex(1.0 - (1j * h_b / n) * np.sum(1.0 / denoms)))
    with np.errstate(divide="ignore", invalid="ignore"):
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


def mode_shape(lam: complex, h_b: float, theta: float, n: int) -> ModeShape:
    """Amplitudes a_m = C/(1 + i h_b - 2 lam^2 cos^2[...]), max-normalized.

    Requires lam to be a verified root (root_residual below the contract
    tolerance); raises :class:`SingularDenominatorError` when a denominator
    magnitude is below 1e-12.
    """
    if root_residual(lam, h_b, theta, n) >= CONTRACT_RESIDUAL_TOL:
        raise DomainError("lam is not a root of the dispersion relation "
                          "(residual check failed)")
    denoms = 1.0 + 1j * h_b - 2.0 * lam * lam * _cos2(theta, n)
    if np.any(np.abs(denoms) < 1e-12):
        raise SingularDenominatorError(
            "mode shape undefined: resolvent denominator below 1e-12")
    amps = 1.0 / denoms
    amps = amps / amps[np.argmax(np.abs(amps))]
    return ModeShape(amplitudes=amps)


def _make_root(u: complex, h_b: float, theta: float, n: int, branch: str) -> DispersionRoot:
    lam = principal_lambda(u)
    return DispersionRoot(lam=lam, u=complex(u), branch=branch,
                          residual=root_residual(lam, h_b, theta, n))


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
        k = int(np.argmin(np.abs(roots - u)))
        u = roots[k]
        path.append(k)
    return path


def _track_to(h_b: float, theta: float, n: int):
    """Continue the acoustic root from u = 1 at large h_b down (or up) to h_b.

    Returns (u, roots): the continued root and the grid's last row, which is
    the solve at h_b itself (geomspace ends exactly on h_b, and each row of
    the batch is solved on its own), so it holds every root at h_b.
    """
    h_b = float(h_b)
    if not 0 < h_b < math.inf:
        raise DomainError("h_b must be positive and finite")
    start = CONTINUATION_START if h_b <= CONTINUATION_START else 10.0 * h_b
    decades = abs(np.log10(start / h_b))
    if not decades < math.inf:
        raise DomainError(f"h_b = {h_b:.6g} is too far from {CONTINUATION_START:g} "
                          "for a continuation grid in floating point")
    steps = max(2, int(np.ceil(decades * CONTINUATION_PER_DECADE)) + 1)
    rows = _eig_roots(np.geomspace(start, h_b, steps), theta, n)
    return complex(rows[-1][_follow(rows, 1.0)[-1]]), rows[-1]


def _nearest_with_ambiguity_check(roots: np.ndarray, u_target: complex) -> int:
    order = np.argsort(np.abs(roots - u_target))
    if len(order) > 1:
        best, second = roots[order[0]], roots[order[1]]
        if abs(best - second) < AMBIGUITY_TOL * max(1.0, abs(best)):
            raise BranchAmbiguityError(
                f"two roots within {AMBIGUITY_TOL} of each other near "
                f"u = {u_target:.6g}: degenerate crossing")
    return int(order[0])


def _split_branches(roots, k: int):
    """(root k, the other roots by descending lambda_i).

    The one place the secondary branches get their order; ``_label_branches``
    names them in that order.
    """
    rest = [complex(u) for j, u in enumerate(roots) if j != k]
    rest.sort(key=lambda u: -principal_lambda(u).imag)
    return complex(roots[k]), rest


def _label_branches(u_ac: complex, rest, h_b: float, theta: float, n: int) -> list:
    """The acoustic root u_ac, then rest as secondary(1), secondary(2), ..."""
    out = [_make_root(u_ac, h_b, theta, n, "acoustic")]
    for j, u in enumerate(rest, start=1):
        out.append(_make_root(u, h_b, theta, n, f"secondary({j})"))
    return out


def _branches_at(h_b: float, theta: float, n: int, policy: str = "acoustic",
                 roots=None):
    """Label the roots at h_b about the continued acoustic root.

    The one point lookup: ``roots`` defaults to the last row of the
    continuation to h_b, so a point costs one batched solve.
    """
    u, row = _track_to(h_b, theta, n)
    roots = row if roots is None else roots
    k = _nearest_with_ambiguity_check(roots, u)
    if policy == "acoustic":
        return _make_root(roots[k], h_b, theta, n, "acoustic")
    if policy != "all":
        raise DomainError("policy must be 'acoustic' or 'all'")
    return _label_branches(*_split_branches(roots, k), h_b, theta, n)


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
    return _branches_at(h_b, theta, n, policy, roots)


def acoustic_root(h_b: float, theta: float, n: int) -> DispersionRoot:
    """Acoustic-branch root at a single parameter point."""
    return _branches_at(h_b, theta, n)


def continuation_track(theta: float, n: int, B: float, h_grid) -> list:
    """Track the acoustic branch down a descending h grid.

    The first (largest) h must be >= 1e4 so the seed u = 1 is reliable; at
    each later h the root nearest (in u) to the previous one is taken.
    Monitors the lambda_i >= 0 convention and warns (does not clamp) on
    violations, which indicate a branch crossing.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.size == 0 or np.any(np.diff(h_grid) >= 0):
        raise DomainError("h_grid must be sorted strictly descending")
    if h_grid[0] < 1e4:
        raise DomainError("h_grid must start at h >= 1e4 for reliable seeding")
    h_b = h_grid * (1.0 + B)
    rows = _eig_roots(h_b, theta, n)
    out = []
    for h, hb, roots, k in zip(h_grid, h_b, rows, _follow(rows, 1.0)):
        root = _make_root(roots[k], hb, theta, n, "acoustic")
        if root.lam.imag < -1e-12:
            warnings.warn(
                f"acoustic lambda_i < 0 at h = {h:.6g} (branch-crossing "
                "diagnostic)", RuntimeWarning, stacklevel=2)
        out.append(root)
    return out
