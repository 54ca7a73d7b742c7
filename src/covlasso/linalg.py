"""Dense symmetric linear algebra used by every other module.

All heavy lifting is delegated to LAPACK through ``numpy.linalg.eigh``;
this module adds the conventions the rest of the package relies on:
eigenvalues sorted in descending order, roundoff-scale negative
eigenvalues clamped to zero, and an explicit relative spectral floor so
that inverting a near-singular second-moment matrix (zero-penalty
redundancy) degrades predictably instead of blowing up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, SingularMatrix

# Relative spectral floor: eigenvalues below REL * largest_eigenvalue are
# lifted to that floor wherever a floor applies.  Overridable per call site.
DEFAULT_EIG_FLOOR_REL = 1e-12

# Eigenvalues of a PSD-by-construction matrix may come back slightly
# negative from roundoff.  Anything within -NEG_EIG_BAND * max|S| of zero
# is clamped; genuinely indefinite input keeps its negative eigenvalues
# so the reconstruction identity still holds.
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
        """Descending eigenvalues, clamped as by :func:`eigendecompose`, no vectors."""
        return _clamp_roundoff(np.linalg.eigvalsh(self.data)[::-1], self)[0]


@dataclass(frozen=True)
class Eigendecomposition:
    """Spectral decomposition S = Q diag(eigenvalues) Q^T.

    eigenvalues are sorted in descending order and eigenvectors are the
    matching orthonormal columns.  ``clamped_count`` and
    ``min_raw_eigenvalue`` record how much roundoff-negative spectrum was
    snapped to zero during :func:`eigendecompose`.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clamped_count: int = 0
    min_raw_eigenvalue: float = 0.0

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False
        self.eigenvectors.flags.writeable = False

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def eigendecompose(sym: SymmetricMatrix) -> Eigendecomposition:
    """Eigendecompose a symmetric matrix, descending eigenvalue order.

    Negative eigenvalues no larger in magnitude than
    ``NEG_EIG_BAND * max|S|`` are artifacts of roundoff on a PSD matrix
    and are clamped to exactly zero; the count and the most negative raw
    value are kept as diagnostics.  Larger negative eigenvalues are
    preserved so ``Q diag(vals) Q^T`` still reconstructs the input.
    """
    vals, vecs = np.linalg.eigh(sym.data)
    min_raw = float(vals.min())
    vals, n_clamped = _clamp_roundoff(vals[::-1], sym)
    return Eigendecomposition(vals, vecs[:, ::-1].copy(), n_clamped, min_raw)


def _clamp_roundoff(vals: np.ndarray, sym: SymmetricMatrix) -> tuple[np.ndarray, int]:
    """``vals`` with entries in [-NEG_EIG_BAND * max|S|, 0) zeroed, and their count."""
    band = NEG_EIG_BAND * sym.max_abs()
    clamp = (vals < 0.0) & (vals >= -band)
    return np.where(clamp, 0.0, vals), int(clamp.sum())


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


def relative_floor(vals: np.ndarray, rel: float = DEFAULT_EIG_FLOOR_REL) -> float:
    """Absolute floor ``rel`` times the largest of descending eigenvalues ``vals``."""
    if rel < 0.0:
        raise InvalidMatrix("floor must be nonnegative")
    top = float(vals[0]) if vals.size else 0.0
    return rel * max(top, 0.0)
