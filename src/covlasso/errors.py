"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`CovLassoError`, so callers can catch one base class at API
boundaries.  There is one class per outcome, and the command line maps
each to an exit code: :class:`InvalidInput` exits 2 and
:class:`Degenerate` exits 4.  Within a class the message is what tells
cases apart; a parse error ends its message with the position of the
fault, such as ``(byte 24)`` or ``(line 3, column 2)``.  Solver
non-convergence is *not* an exception: the solver returns its best
iterate with ``converged=False`` and leaves the policy to the caller.
"""

from __future__ import annotations


class CovLassoError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(CovLassoError):
    """An argument or input file violates a precondition or its format."""


class Degenerate(CovLassoError):
    """The problem is numerically degenerate.

    A singular spectrum in ``redundancy``, a target with zero second
    moment, or an extension fit with a non-finite loss or no usable step.
    """
