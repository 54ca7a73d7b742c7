"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`CovLassoError`, so callers can catch one base class at API
boundaries.  There is one class per outcome, and the command line maps
each to an exit code: :class:`InvalidInput` and :class:`FormatError`
exit 2, :class:`Degenerate` exits 4.  Within a class the message is
what tells cases apart.  Solver non-convergence is *not* an exception:
the solver returns its best iterate with ``converged=False`` and leaves
the policy to the caller.
"""

from __future__ import annotations


class CovLassoError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(CovLassoError):
    """An argument violates a precondition (shape, range, labels, spec)."""


class Degenerate(CovLassoError):
    """The problem is numerically degenerate.

    A singular spectrum in ``redundancy``, a target with zero second
    moment, or an iterative fit whose loss became non-finite.
    """


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
