"""Exception hierarchy shared across the package.

Each error carries a short machine-readable ``code`` used by the CLI
to build error payloads and pick exit codes.
"""

from __future__ import annotations


class G2CMError(Exception):
    """Base class for all domain errors."""

    code = "error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class InvalidDiscriminantError(G2CMError):
    code = "invalid-discriminant"


class DomainMismatchError(G2CMError):
    code = "domain-mismatch"


class NotTotallyImaginaryError(G2CMError):
    code = "not-totally-imaginary"


class ReducibleQuarticError(G2CMError):
    code = "reducible-quartic"


class NormNotPrimeError(G2CMError):
    code = "norm-not-prime"


class NotPrimitiveError(G2CMError):
    code = "not-primitive"


class CoefficientC2ZeroError(G2CMError):
    code = "c2-zero"


class InvalidCurveError(G2CMError):
    code = "invalid-curve"


class InvalidArgumentError(G2CMError):
    """A command-line option or environment setting out of range."""

    code = "invalid-argument"


class BudgetExceededError(G2CMError):
    code = "budget-exceeded"


class InternalInvariantError(G2CMError):
    """Raised when an exact computation produces an impossible result.

    Signals a bug in this package, never a user error.
    """

    code = "internal-invariant"
