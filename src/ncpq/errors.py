"""Exception hierarchy shared by the whole package.

The CLI maps these onto stable exit codes, so new error conditions should
reuse one of the classes below rather than raising bare ValueErrors.
"""

from __future__ import annotations


class NcpqError(Exception):
    """Base class for all errors raised by this package."""


class QuiverParseError(NcpqError):
    """Malformed quiver file. Carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(NcpqError):
    """An operation was called with input violating its contract."""


class NonFiniteTypeError(NcpqError):
    """An operation that needs finite type was requested outside it."""


class CapExceededError(NcpqError):
    """An enumeration grew past its configured cap."""
