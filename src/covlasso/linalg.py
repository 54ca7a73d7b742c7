"""Dense symmetric linear algebra used by every other module.

All heavy lifting is delegated to LAPACK through ``numpy.linalg``; this
module adds the conventions the rest of the package relies on: symmetric
immutable storage, eigenvalues sorted in descending order with
roundoff-scale negatives clamped to zero, and log-determinants that
refuse a singular spectrum instead of returning -inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, SingularMatrix

# Eigenvalues of a PSD-by-construction matrix may come back slightly
# negative from roundoff.  Anything within -NEG_EIG_BAND * max|S| of zero
# is clamped; genuinely indefinite input keeps its negative eigenvalues
# so the PSD check still sees them.
NEG_EIG_BAND = 1e-8


def _as_square_float(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise InvalidMatrix("matrix must have at least one row")
    if not np.all(np.isfinite(arr)):
        raise InvalidMatrix("matrix has non-finite entries")
    return arr


@dataclass(frozen=True)
class SymmetricMatrix:
    """A real symmetric matrix stored as an immutable float64 array.

    Construction symmetrizes the input as ``(M + M.T) / 2`` so tiny
    asymmetries from accumulation order cannot leak downstream.
    """

    data: np.ndarray

    def __init__(self, data):
        arr = _as_square_float(data)
        arr = (arr + arr.T) / 2.0
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data)))

    def eigenvalues(self) -> np.ndarray:
        """Descending eigenvalues with roundoff negatives clamped to zero."""
        vals = np.linalg.eigvalsh(self.data)[::-1]
        band = NEG_EIG_BAND * self.max_abs()
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

