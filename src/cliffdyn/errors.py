"""Exception types shared across the package.

The split mirrors the CLI exit codes: malformed input (2), violated
precondition (3), and numerical verification failure (1).
"""


class CliffdynError(Exception):
    """Base class for all package errors."""


class InputError(CliffdynError, ValueError):
    """Malformed or inconsistent input data (bad matrix, bad config)."""


class PreconditionError(CliffdynError, ValueError):
    """A documented precondition does not hold (wrong signature, mu = 0 window)."""


class VerificationError(CliffdynError, ArithmeticError):
    """A numerical identity failed beyond its tolerance; ``details`` holds the offending values."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details
