"""Exception types shared across the package.

The CLI maps these onto exit codes: :class:`DomainError` (a parameter
outside its domain) exits 1, and every :class:`NumericalError` (a solver,
fit or simulation failure) exits 2.  Each numerical error also keeps its
builtin base, so code that catches e.g. ``RuntimeError`` still sees it.
"""


class DomainError(ValueError):
    """A parameter is outside its admissible domain. Message names the field."""


class NumericalError(Exception):
    """Base of the numerical failures below."""


class ConvergenceError(NumericalError, RuntimeError):
    """An iterative solver hit its iteration cap without meeting its tolerance."""


class SingularDenominatorError(NumericalError, ArithmeticError):
    """A resolvent denominator 1 + i*h_b - 2*lambda^2*cos^2 is (numerically) zero."""


class BranchAmbiguityError(NumericalError, RuntimeError):
    """Two roots coincide at a continuation endpoint; branch identity undecidable."""


class NoInteriorMaximumError(NumericalError, RuntimeError):
    """The attenuation curve has no interior peak on the requested range."""


class CFLError(NumericalError, ValueError):
    """Time step violates the advection or collision stability bound."""


class PositivityError(NumericalError, RuntimeError):
    """A nonlinear step drove a number density N_i = N0*(1+P_i) non-positive."""


class InstabilityError(NumericalError, RuntimeError):
    """A forced run blew past the instability guard (|field| > 1e3 * drive amplitude)."""


class FitError(NumericalError, RuntimeError):
    """Wave fitting failed (zero signal, under-resolved phase, or bad window)."""
