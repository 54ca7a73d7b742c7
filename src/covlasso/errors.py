"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`CovLassoError`, so callers can catch one base class at API
boundaries.  Solver non-convergence is *not* an exception: the solver
returns its best iterate with ``converged=False`` and leaves the policy
to the caller.
"""

from __future__ import annotations


class CovLassoError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(CovLassoError):
    """Matrix input is malformed (non-finite entries, wrong shape)."""


class SingularMatrix(CovLassoError):
    """``redundancy`` found a numerically singular spectrum.

    Raised when the smallest eigenvalue stays below 1e-300 even after
    the relative floor, or when every category but the target has zero
    second moment.
    """


class DimMismatch(CovLassoError):
    """Operands have incompatible dimensions."""


class DimTooSmall(CovLassoError):
    """The operation needs at least two categories."""


class EmptyAccumulator(CovLassoError):
    """finalize() called before any sample was accumulated."""


class OutOfRange(CovLassoError):
    """A scalar parameter lies outside its admissible interval."""


class DegenerateTarget(CovLassoError):
    """The target category has (numerically) zero second moment."""


class InvalidInput(CovLassoError):
    """A structured argument violates a precondition."""


class InvalidSpec(CovLassoError):
    """A synthetic-data specification is inconsistent."""


class InvalidLabels(CovLassoError):
    """Label values fall outside the valid category range."""


class MissingLabels(CovLassoError):
    """The operation needs per-sample labels but none are attached."""


class Diverged(CovLassoError):
    """An iterative fit produced a non-finite loss."""


class FormatError(CovLassoError):
    """A serialized file is malformed.

    ``position`` carries a human-readable location: a byte offset for
    binary files or a line number for CSV files.  It is always included
    in ``str(err)`` so command line diagnostics stay informative.
    """

    def __init__(self, message: str, position: str | None = None):
        if position is not None:
            message = f"{message} ({position})"
        super().__init__(message)
        self.position = position
