"""Spectral conventions for symmetric matrices.

All heavy lifting is delegated to LAPACK through ``numpy.linalg``; this
module adds two conventions, used by the ``cov`` command and
``redundancy``: eigenvalues sorted in descending order with
roundoff-scale negatives clamped to zero, and log-determinants that
refuse a singular spectrum instead of returning -inf.  ``read_cov``
calls ``eigenvalues`` only on its rejection path, when a shifted
Cholesky factorization could not show the matrix PSD.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidMatrix, SingularMatrix

# Eigenvalues of a PSD-by-construction matrix may come back slightly
# negative from roundoff.  Anything within -NEG_EIG_BAND * max|S| of zero
# is clamped; genuinely indefinite input keeps its negative eigenvalues
# so the PSD check still sees them.
NEG_EIG_BAND = 1e-8


def eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of symmetric ``mat``, roundoff negatives clamped to zero."""
    vals = np.linalg.eigvalsh(mat)[::-1]
    band = NEG_EIG_BAND * float(np.max(np.abs(mat)))
    return np.where((vals < 0.0) & (vals >= -band), 0.0, vals)


def log_det(vals: np.ndarray, floor: float = 0.0) -> float:
    """Log-determinant from descending eigenvalues: sum(log(max(vals, floor))).

    Raises SingularMatrix when ``floor`` is zero and the spectrum touches
    zero (or is negative), since the log-determinant is then undefined.
    """
    if floor < 0.0:
        raise InvalidMatrix("floor must be nonnegative")
    lifted = np.maximum(vals, floor)
    if np.any(lifted <= 0.0):
        raise SingularMatrix(
            "log_det undefined: nonpositive eigenvalue with floor=0"
        )
    return float(np.sum(np.log(lifted)))
