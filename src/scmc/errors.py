"""Exception types shared across the package.

Everything derives from ScmcError so callers can catch the whole family;
the CLI maps these onto its exit-code contract.
"""
from __future__ import annotations


class ScmcError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ScmcError, ValueError):
    """An argument is outside its declared range or malformed."""


class FormatError(ScmcError, ValueError):
    """A serialized trace or run could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PreconditionError(ScmcError, ValueError):
    """An operation was called on input that violates its precondition."""


class OracleBoundError(ScmcError, ValueError):
    """The trace is longer than the oracle's configured size bound."""

    def __init__(self, length: int, bound: int):
        self.length = length
        self.bound = bound
        super().__init__(
            f"trace has {length} events, oracle bound is {bound} events"
        )


class DisabledEventError(ScmcError, ValueError):
    """step() was asked to execute an event whose guard is false."""


class ReplayError(ScmcError, ValueError):
    """A run failed to replay; carries the 1-based index of the bad event."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"event {index}: {message}")


class DataIndependenceError(ScmcError, RuntimeError):
    """The protocol's behaviour depended on data values during shadow replay."""


class SoundnessError(ScmcError, RuntimeError):
    """An internally produced certificate failed verification."""
