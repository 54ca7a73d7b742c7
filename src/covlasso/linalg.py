"""Spectral conventions for symmetric matrices.

All heavy lifting is delegated to LAPACK through ``numpy.linalg``; this
module adds one convention: eigenvalues sorted in descending order with
roundoff-scale negatives clamped to zero.  Its one caller is
``read_cov``, on its rejection path, when a shifted Cholesky
factorization could not show the matrix PSD.
"""

from __future__ import annotations

import numpy as np

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

