"""The package's exceptions: a base and two families.

The command line front end exits with 2 on a ``ValidationError`` (bad input
or configuration) and with 3 on a ``NumericalError`` (a procedure that ran
but missed its accuracy or convergence target).  Nothing else tells
failures apart, so no further classes are kept.
"""


class DecayLabError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DecayLabError):
    """Invalid input or configuration; exit code 2."""


class DomainError(ValidationError):
    """Argument outside the mathematical domain of the operation."""


class NumericalError(DecayLabError):
    """A numerical procedure missed its accuracy or convergence target; exit code 3."""
