"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: precondition violations exit 2,
bound-limited (inconclusive) computations exit 3, failed internal checks
exit 4.
"""

from __future__ import annotations


class HwkitError(Exception):
    pass


class ParseError(HwkitError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class DimensionMismatch(HwkitError):
    pass


class PreconditionError(HwkitError):
    """A mathematical hypothesis of the requested computation fails.

    `hypothesis` names the violated hypothesis in plain mathematical terms,
    e.g. "b-function roots not contained in (-2-alpha,-alpha)".
    """

    def __init__(self, message: str, hypothesis: str | None = None):
        super().__init__(message)
        self.hypothesis = hypothesis or message


class NotQuasiHomogeneous(PreconditionError):
    pass


class NotIsolatedSingularity(PreconditionError):
    pass


class InconclusiveAtBound(HwkitError):
    """A bounded search ended without a verdict; never a refutation."""

    def __init__(self, message: str, bounds: dict | None = None):
        super().__init__(message)
        self.bounds = bounds or {}


class InternalCheckFailed(AssertionError):
    """An independent re-check of a computed result failed (a witness that
    does not re-evaluate, a syzygy that does not re-multiply to zero): a
    fault in hwkit, never a property of the input."""
