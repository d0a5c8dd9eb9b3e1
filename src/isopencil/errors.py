"""Exception hierarchy shared by the whole package.

Exit-code contract: invalid user input maps to 1, a disagreement between
two independent internal computations maps to 2.
"""

from __future__ import annotations

__all__ = [
    "IsopencilError",
    "InvalidInputError",
    "InvalidMonodromyError",
    "DisconnectedCoverError",
    "NotApplicableError",
    "CapabilityError",
    "InternalConsistencyError",
]


def is_int(value) -> bool:
    """True for an integer that is not a bool; every integer check uses it."""
    return isinstance(value, int) and not isinstance(value, bool)


class IsopencilError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidInputError(IsopencilError):
    """User-supplied data violates a documented precondition."""


class InvalidMonodromyError(InvalidInputError):
    """Branch data whose weighted element sum is nonzero, or too few points."""


class DisconnectedCoverError(InvalidInputError):
    """Branch and twist data fail to generate the whole group."""


class NotApplicableError(InvalidInputError):
    """The operation's hypothesis does not hold for this input."""


class CapabilityError(InvalidInputError):
    """Request exceeds the supported size or boundedness envelope."""


class InternalConsistencyError(IsopencilError):
    """Two independent computations of the same quantity disagree."""

    exit_code = 2
