"""Exception hierarchy shared across the package.

Two broad families matter for the command line front end: validation
errors (bad input, exit code 2) and numerical errors (a procedure that
ran but failed to meet its target, exit code 3).
"""


class DecayLabError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DecayLabError):
    """Invalid input, configuration, or domain violation."""


class NumericalError(DecayLabError):
    """A numerical procedure failed to reach its accuracy or convergence target."""


class DomainError(ValidationError):
    """Argument outside the mathematical domain of the operation."""


class UnsupportedContinuation(ValidationError):
    """The spectral model does not admit complex analytic continuation."""


class BranchPointError(ValidationError):
    """Evaluation requested exactly at a branch point of the continuation."""


class GridTooNarrow(ValidationError):
    """Spatial grid does not contain the initial state to the required accuracy."""


class BasisUnavailable(ValidationError):
    """Requested continuum eigenfunction basis cannot be built on this grid."""


class ConfigParseError(ValidationError):
    """Config file could not be parsed; message carries line diagnostics."""


class QuadratureFailure(NumericalError):
    """A quadrature's error estimate exceeds its tolerance: the fixed exp-sinh
    rule of the branch-cut integral, ``amplitude.cut_integral``."""


class TruncationError(NumericalError):
    """Estimated contribution of a truncated integration tail exceeds tolerance."""


class NoConvergence(NumericalError):
    """Iterative solver exhausted its iteration budget."""


class DegenerateRoots(NumericalError):
    """Two roots coincide to within resolution (double pole)."""


class SingularMatrix(NumericalError):
    """Linear solve hit a (numerically) singular matrix."""


class SingularDenominator(NumericalError):
    """Closed-form expression evaluated at a vanishing denominator."""
