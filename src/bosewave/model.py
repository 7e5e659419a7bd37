"""Physical and reduced parameters of the 2n-velocity gas.

A gas of identical particles restricted to 2n planar velocity directions
U_i = c*(cos[theta+(i-1)pi/n], sin[theta+(i-1)pi/n]) collides with effective
cross-section S around an equilibrium number density N0.  Quantum statistics
enter through the blocking factor (1 + gamma*N), summarized by the
dimensionless parameter B = gamma*N0 (B > 0 Bose, B < 0 Fermi, B = 0
classical).  A plane wave driven at angular frequency omega sees the gas
through two dimensionless groups only:

    h   = 4*c*S*N0/omega          (rarefaction parameter, ~ 1/Knudsen)
    h_b = h*(1 + B)

plus the orientation theta, which enters every formula through
cos^2[theta + (m-1)pi/n] and is therefore periodic with period pi/n.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

from .errors import DomainError

__all__ = ["ModelConfig", "ReducedParams", "validate", "reduced_params", "theta_period"]

_FLOAT_FIELDS = ("c", "S", "N0", "omega", "gamma", "B")   # validate makes these floats


def theta_period(n: int) -> float:
    """Fundamental period of the orientation angle: pi/n."""
    return math.pi / n


@dataclass(frozen=True)
class ModelConfig:
    """Parameters of the 2n-velocity gas and the driven wave.

    Either build directly from physical fields (gamma supplied, B derived)
    or via :meth:`from_reduced` from the dimensionless pair (h, B).
    """

    n: int = 2
    theta: float = 0.0
    c: float = 1.0
    S: float = 0.25
    N0: float = 1.0
    omega: float = 1.0
    gamma: float = 0.0
    B: float | None = None

    def __post_init__(self):
        if self.B is None:
            object.__setattr__(self, "B", self.gamma * self.N0)

    @classmethod
    def from_reduced(cls, n: int, theta: float, h: float, B: float,
                     omega: float = 1.0, c: float = 1.0) -> "ModelConfig":
        """Build a physical configuration realizing the reduced pair (h, B).

        Statistics default to gamma = +1 (Bose) for B > 0, gamma = -1 (Fermi)
        for B < 0 and gamma = 0 (classical) for B = 0; N0 is then fixed by
        B = gamma*N0 (N0 = 1 in the classical case) and S by h = 4*c*S*N0/omega.
        """
        if not 0 < h < math.inf:
            raise DomainError("h must satisfy 0 < h < inf")
        if not -1 < B < math.inf:
            raise DomainError("B must satisfy -1 < B < inf")
        if B > 0:
            gamma, N0 = 1.0, B
        elif B < 0:
            gamma, N0 = -1.0, -B
        else:
            gamma, N0 = 0.0, 1.0
        S = h * omega / (4.0 * c * N0)
        return validate(cls(n=n, theta=theta, c=c, S=S, N0=N0, omega=omega,
                            gamma=gamma, B=B))


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless groups seen by the dispersion relation."""

    h: float
    h_b: float
    knudsen_proxy: float


def validate(config: ModelConfig) -> ModelConfig:
    """Check all field domains and return the config in plain Python scalars.

    n becomes an int and every other field a float; the conversion of a
    numpy scalar, a 0-d array or an int is exact.  theta is reduced to the
    fundamental interval [0, pi/n); every downstream formula depends on it
    only through cos^2[theta+(m-1)pi/n], so this is exact.  A config already
    in that form is returned as it is; any other gets a converted copy.
    Raises :class:`DomainError` naming the offending field.
    """
    if not isinstance(config.n, numbers.Integral) or config.n < 2:
        raise DomainError("n must be an integer >= 2")
    for name in ("c", "S", "N0", "omega"):
        value = getattr(config, name)
        if not (value > 0) or not math.isfinite(value):
            raise DomainError(f"{name} must be strictly positive")
    if not math.isfinite(config.theta):
        raise DomainError("theta must be finite")
    if config.B is None or not math.isfinite(config.B):
        raise DomainError("B must be finite")
    if config.B <= -1.0:
        raise DomainError("B must exceed -1")
    # written so that a NaN gamma fails it too
    if not abs(config.B - config.gamma * config.N0) <= 1e-12 * max(1.0, abs(config.B)):
        raise DomainError("B inconsistent with gamma*N0")
    period = theta_period(config.n)
    values = [getattr(config, name) for name in _FLOAT_FIELDS]
    if (type(config.n) is int and type(config.theta) is float
            and all(type(v) is float for v in values) and 0.0 <= config.theta < period):
        return config
    theta = math.fmod(config.theta, period)
    if theta < 0:
        theta += period
    if theta >= period:  # fmod edge at exactly one period
        theta -= period
    return replace(config, n=int(config.n), theta=theta,
                   **dict(zip(_FLOAT_FIELDS, map(float, values))))


def reduced_params(config: ModelConfig) -> ReducedParams:
    """h = 4*c*S*N0/omega and h_b = h*(1+B) for a validated config."""
    h = 4.0 * config.c * config.S * config.N0 / config.omega
    return ReducedParams(h=h, h_b=h * (1.0 + config.B), knudsen_proxy=1.0 / h)
