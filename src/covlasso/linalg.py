"""Dense symmetric linear algebra used by every other module.

All heavy lifting is delegated to LAPACK through ``numpy.linalg.eigh``;
this module adds the conventions the rest of the package relies on:
eigenvalues sorted in descending order, roundoff-scale negative
eigenvalues clamped to zero, an explicit spectral floor so near-singular
second-moment matrices degrade predictably instead of blowing up, and
matrix square roots applied to vectors in the eigenbasis, never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, SingularMatrix

# Relative spectral floor: eigenvalues below REL * largest_eigenvalue are
# treated as zero wherever a floor applies.  Overridable per call site.
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


def log_det(eig: Eigendecomposition, floor: float = 0.0) -> float:
    """Log-determinant computed in log space as sum(log(max(vals, floor))).

    Raises SingularMatrix when ``floor`` is zero and the spectrum touches
    zero (or is negative), since the log-determinant is then undefined.
    """
    if floor < 0.0:
        raise InvalidMatrix("floor must be nonnegative")
    vals = np.maximum(eig.eigenvalues, floor)
    if np.any(vals <= 0.0):
        raise SingularMatrix(
            "log_det undefined: nonpositive eigenvalue with floor=0"
        )
    return float(np.sum(np.log(vals)))


def relative_floor(eig: Eigendecomposition, rel: float = DEFAULT_EIG_FLOOR_REL) -> float:
    """Absolute floor corresponding to a relative spectral threshold."""
    top = float(eig.eigenvalues[0]) if eig.n else 0.0
    return rel * max(top, 0.0)


@dataclass(frozen=True)
class SpectralRoot:
    """Floored symmetric square root R = Q diag(d) Q^T, applied but never formed.

    ``eig`` is S = Q diag(vals) Q^T and d = sqrt(max(vals, floor)); a product
    with R or R^{-1} is two matrix-vector products (Higham, 2008, ch. 6).
    """

    eig: Eigendecomposition
    floor: float

    @property
    def floored(self) -> bool:
        """Whether the floor lifted any eigenvalue of S."""
        return bool(np.min(self.eig.eigenvalues) < self.floor)

    def _roots(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.eig.eigenvalues, self.floor))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """R x = Q (d * Q^T x)."""
        q = self.eig.eigenvectors
        return q @ (self._roots() * (q.T @ x))

    def solve(self, x: np.ndarray) -> np.ndarray:
        """R^{-1} x = Q ((Q^T x) / d); SingularMatrix if some d < 1e-300."""
        roots = self._roots()
        if np.min(roots) < 1e-300:
            raise SingularMatrix(
                f"matrix numerically singular: smallest effective eigenvalue "
                f"{np.min(roots):.3e}"
            )
        q = self.eig.eigenvectors
        return q @ ((q.T @ x) / roots)

    def col_norms(self) -> np.ndarray:
        """Column norms of R: sqrt((Q*Q) max(vals, floor))."""
        q = self.eig.eigenvectors
        return np.sqrt((q * q) @ np.maximum(self.eig.eigenvalues, self.floor))


def spectral_root(
    sym: SymmetricMatrix, floor_rel: float = DEFAULT_EIG_FLOOR_REL
) -> SpectralRoot:
    """Square root of ``sym`` floored at ``floor_rel`` times its top eigenvalue."""
    if floor_rel < 0.0:
        raise InvalidMatrix("floor must be nonnegative")
    eig = eigendecompose(sym)
    return SpectralRoot(eig, relative_floor(eig, floor_rel))
