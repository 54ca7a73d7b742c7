"""Diagnostics built on top of the dependency solver.

Covers the closed-form zero-penalty error (how redundant a category is
given all the others), a sound pre-solve screening rule for coefficients
forced to zero, a verified Lipschitz-style bound on how KKT residuals
drift along the penalty path, a Markov-style tail certificate, and
two-sided bounds on the error reduction achievable at a given penalty.

Screening, slope bounds and error-reduction bounds are Gram-form: they
read only Chat c, bhat, diag(Chat) and cov_ii, through the lasso view
min ||y - X c||^2 + lam ||c||_1 with X^T X = Chat, X^T y = bhat and
||y||^2 = cov_ii.  That view, and every bound below, is valid whenever
cov_ii >= bhat^T Chat^+ bhat, which holds for every problem
``reduce_problem`` views in a PSD Cov.  As in the solver, vectors are
indexed like Cov, and screening rows and slope margins skip the target.
Only :func:`redundancy` eigendecomposes, because it inverts a possibly
singular matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovMatrix, ReducedProblem, reduce_problem
from .errors import (
    DegenerateTarget,
    DimTooSmall,
    InvalidInput,
    OutOfRange,
    SingularMatrix,
)
from .linalg import (
    DEFAULT_EIG_FLOOR_REL,
    SymmetricMatrix,
    eigendecompose,
    log_det,
    relative_floor,
)
from .solver import ReducedSolution, SolutionPath, _residual, _smooth_part, lambda_max


@dataclass(frozen=True)
class RedundancyReport:
    """How well a category is linearly predicted by all the others.

    ``min_error`` is the prediction error of the unpenalized optimum,
    equal to the reciprocal of the target diagonal entry of the inverse
    second-moment matrix.  ``log_det_ratio`` (full minus target-deleted
    minor) and ``eigen_error_sum`` (sum of squared target eigenvector
    weights over eigenvalues) recompute the same quantity through
    different factorizations as a cross-check.  ``relative_error``
    rescales by the target's own second moment into [0, 1]: 0 means the
    category is an exact linear combination of the rest, 1 means the
    rest carry no information about it.
    """

    target: int
    min_error: float
    log_det_ratio: float
    eigen_error_sum: float
    relative_error: float
    floored: bool

    def max_disagreement(self) -> float:
        """Largest relative deviation between the three computation routes."""
        ref = self.min_error
        if ref <= 0.0:
            return float("inf")
        via_det = float(np.exp(self.log_det_ratio))
        via_eig = 1.0 / self.eigen_error_sum
        return max(abs(via_det - ref), abs(via_eig - ref)) / ref


def redundancy(
    cov: CovMatrix, target: int, eig_floor_rel: float = DEFAULT_EIG_FLOOR_REL
) -> RedundancyReport:
    """Zero-penalty prediction error of ``target``, three ways.

    Route 1 solves Cov x = e_target (LU) and inverts the target entry;
    route 2 takes exp of the log-determinant difference between the full
    matrix and the target-deleted minor; route 3 expands the inverse
    diagonal entry in the eigenbasis.  When the spectrum dips below the
    relative floor all routes fall back to the floored eigenbasis and
    ``floored`` is set.  That route's ``min_error`` is clamped to cov_ii:
    no least-squares error exceeds it, but the inverse of a spectrum
    lifted by a large floor can.  One ``eigh`` of Cov serves routes 1
    and 3; the minor's log-determinant needs its eigenvalues only.
    """
    n = cov.n
    if n < 2:
        raise DimTooSmall("redundancy needs at least two categories")
    if not 0 <= target < n:
        raise OutOfRange(f"target {target} outside [0, {n})")
    full = cov.mat.data
    cov_ii = float(full[target, target])
    if cov_ii <= 1e-300:
        raise DegenerateTarget(
            f"category {target} has numerically zero second moment"
        )

    eig = eigendecompose(cov.mat)
    floor = relative_floor(eig.eigenvalues, eig_floor_rel)
    lifted = np.maximum(eig.eigenvalues, floor)
    floored = bool(np.min(eig.eigenvalues) < floor)
    weights = eig.eigenvectors[target, :]

    if np.min(lifted) < 1e-300:
        raise SingularMatrix(
            f"matrix numerically singular: smallest effective eigenvalue "
            f"{np.min(lifted):.3e}"
        )
    if not floored:
        basis = np.zeros(n)
        basis[target] = 1.0
        min_error = 1.0 / float(np.linalg.solve(full, basis)[target])
    else:
        inv_entry = float((eig.eigenvectors @ (weights / lifted))[target])
        min_error = min(1.0 / inv_entry, cov_ii)

    keep = np.arange(n) != target
    minor = SymmetricMatrix(full[np.ix_(keep, keep)]).eigenvalues()
    minor_floor = relative_floor(minor, eig_floor_rel)
    ratio = log_det(eig.eigenvalues, floor) - log_det(minor, minor_floor)
    eigen_sum = float(np.sum(weights * weights / lifted))

    return RedundancyReport(
        target=target,
        min_error=min_error,
        log_det_ratio=ratio,
        eigen_error_sum=eigen_sum,
        relative_error=min_error / cov_ii,
        floored=floored or bool(np.min(minor) < minor_floor),
    )


@dataclass(frozen=True)
class ScreeningRow:
    """Per-category screening data; ``index`` is the category's index in Cov."""

    index: int
    correlation_ratio: float
    certificate_threshold: float


@dataclass(frozen=True)
class ScreeningReport:
    """Pre-solve support screening for one target and penalty.

    ``certified_zero`` lists categories whose coefficient is provably
    zero at this penalty (a sound certificate derived from the residual
    drift bound along the path).  ``heuristic_zero`` lists categories
    whose cross moment with the target falls below half the penalty; on
    many instances this also predicts a zero coefficient, but it carries
    no guarantee and is reported for monitoring only.
    """

    target: int
    lam: float
    lam_max: float
    certified_zero: frozenset[int]
    heuristic_zero: frozenset[int]
    per_category: tuple[ScreeningRow, ...]


def _drift_rates(rp: ReducedProblem) -> np.ndarray:
    """Per-coordinate bound sqrt(Chat_jj cov_ii) on d(r_j / lam) / d(1/lam).

    In the lasso view of the module docstring the dual point (y - X c)/lam
    is the projection of y/lam onto a convex set, hence 1-Lipschitz in
    1/lam with constant ||y|| = sqrt(cov_ii) (Ndiaye et al., 2017), and
    r_j = X_j^T (X c - y) with ||X_j|| = sqrt(Chat_jj).  Valid whenever
    cov_ii >= bhat^T Chat^+ bhat.
    """
    return np.sqrt(np.diag(rp.cov.mat.data) * rp.cov_ii)


def screen(cov: CovMatrix, target: int, lam: float) -> ScreeningReport:
    """Certify zero coefficients before solving.

    At the largest useful penalty the solution is zero and the KKT
    residual is -bhat.  The residual-over-penalty vector drifts at a
    bounded rate as the penalty shrinks, so a category whose normalized
    cross moment |bhat_j| / max|bhat| stays strictly below
    1 - 2 sqrt(Chat_jj cov_ii) |1/lam - 1/lam_max| can never activate at
    this penalty (see :func:`_drift_rates`; the rule is sound whenever
    cov_ii >= bhat^T Chat^+ bhat, true for every problem carved from a
    PSD Cov).  A 1e-12 guard band keeps the strict comparison sound
    under roundoff.
    """
    rp = reduce_problem(cov, target)
    lmax = lambda_max(rp)
    if not (np.isfinite(lam) and 0.0 < lam < lmax):
        raise OutOfRange(
            f"penalty must lie in (0, {lmax}) for screening, got {lam}"
        )

    binf = float(np.max(np.abs(rp.bhat)))
    ratios = np.abs(rp.bhat) / binf
    drift = 2.0 * _drift_rates(rp) * abs(1.0 / lam - 1.0 / lmax)
    thresholds = 1.0 - drift

    certified: list[int] = []
    heuristic: list[int] = []
    rows: list[ScreeningRow] = []
    half = 0.5 * lam
    for j in range(rp.n):
        if j == target:
            continue
        guard = 1e-12 * max(1.0, abs(float(thresholds[j])))
        if ratios[j] < thresholds[j] - guard:
            certified.append(j)
        if abs(float(rp.bhat[j])) < half:
            heuristic.append(j)
        rows.append(
            ScreeningRow(
                index=j,
                correlation_ratio=float(ratios[j]),
                certificate_threshold=float(thresholds[j]),
            )
        )

    return ScreeningReport(
        target=target,
        lam=float(lam),
        lam_max=lmax,
        certified_zero=frozenset(certified),
        heuristic_zero=frozenset(heuristic),
        per_category=tuple(rows),
    )


@dataclass(frozen=True)
class SlopeBoundCheck:
    """Verified residual-drift margins along a solved penalty path.

    One margin per consecutive grid pair: the worst-coordinate slack
    left in the drift bound (nonnegative margins everywhere means the
    bound held, which certifies the path solutions are mutually
    consistent).
    """

    margins: tuple[float, ...]
    passed: bool

    @property
    def pairs(self) -> int:
        return len(self.margins)


def check_slope_bounds(rp: ReducedProblem, path: SolutionPath) -> SlopeBoundCheck:
    """Verify the residual drift bound on every consecutive path pair.

    For penalties lam1, lam2 in (0, lam_max] and each off-target
    coordinate j the solved residuals r = Chat c - bhat must satisfy

        |r_j(lam1)/lam1 - r_j(lam2)/lam2|
            <= sqrt(Chat_jj cov_ii) |1/lam1 - 1/lam2|

    up to 1e-8 roundoff slack (see :func:`_drift_rates`; valid whenever
    cov_ii >= bhat^T Chat^+ bhat).  All path points must have converged.
    """
    if any(not s.converged for s in path.solutions):
        raise InvalidInput("slope bound check needs a fully converged path")
    lmax = lambda_max(rp)
    if any(l > lmax * (1.0 + 1e-12) for l in path.lambdas):
        raise InvalidInput(
            "slope bound check is only valid for penalties at or below "
            "the zero-solution threshold"
        )

    rates = _drift_rates(rp)
    residuals = [_residual(rp, s.coef) for s in path.solutions]
    margins: list[float] = []
    for k in range(len(path.lambdas) - 1):
        l1, l2 = path.lambdas[k], path.lambdas[k + 1]
        lhs = np.abs(residuals[k] / l1 - residuals[k + 1] / l2)
        slack = rates * abs(1.0 / l1 - 1.0 / l2) + 1e-8 - lhs
        slack[rp.target] = np.inf  # the target has no residual
        margins.append(float(np.min(slack)))
    return SlopeBoundCheck(
        margins=tuple(margins),
        passed=bool(all(m >= 0.0 for m in margins)),
    )


@dataclass(frozen=True)
class MarkovCertificate:
    """Tail certificate for the absolute prediction residual.

    ``holds`` applies the decision rule
    expected_sq_error <= tolerance * tail_prob.  Through Markov's
    inequality on the squared residual the certified statement
    P(|residual| >= tolerance) <= tail_prob is guaranteed whenever
    tolerance >= 1; below that the rule is the same scaling applied
    heuristically, so choose tolerances accordingly.
    """

    tolerance: float
    tail_prob: float
    expected_sq_error: float
    holds: bool


def certify(solution, tolerance: float, tail_prob: float) -> MarkovCertificate:
    """Certify a tail bound for an embedded dependency solution."""
    if not np.isfinite(tolerance) or tolerance <= 0.0:
        raise InvalidInput(f"tolerance must be positive, got {tolerance}")
    if not np.isfinite(tail_prob) or not 0.0 <= tail_prob <= 1.0:
        raise InvalidInput(f"tail probability must lie in [0, 1], got {tail_prob}")
    err = float(solution.pred_error)
    return MarkovCertificate(
        tolerance=float(tolerance),
        tail_prob=float(tail_prob),
        expected_sq_error=err,
        holds=bool(err <= tolerance * tail_prob),
    )


@dataclass(frozen=True)
class ErrorReductionBounds:
    """Bracket on the error reduction cov_ii - pred_error at one penalty.

    ``identity_value`` evaluates the exact dual identity at the solved
    point (equal to the true reduction at an exact optimum, up to solver
    tolerance); ``lower``/``upper`` bracket the same quantity using only
    the zero-solution dual point, so they can be computed without
    solving at this penalty.
    """

    lower: float
    upper: float
    identity_value: float


def error_reduction_bounds(
    rp: ReducedProblem, lam: float, sol: ReducedSolution
) -> ErrorReductionBounds:
    """Two-sided bounds on how much the solved dependency reduces error.

    The reduction cov_ii - pred_error(lam) equals 2 bhat^T c - c^T Chat c
    at the solved point.  In the lasso view of the module docstring it is
    ||y||^2 - lam^2 ||u(lam)||^2 at the optimal dual point
    u = (y - X c)/lam, which moves at most ||y|| = sqrt(cov_ii) per unit
    of 1/lam (see :func:`_drift_rates`) and equals y/lam_max at lam_max;
    so ||u(lam)|| >= sqrt(cov_ii) (2/lam_max - 1/lam) and the reduction is
    at most

        cov_ii (1 - lam^2 max(0, 2/lam_max - 1/lam)^2),

    valid whenever cov_ii >= bhat^T Chat^+ bhat (every problem carved
    from a PSD Cov).  The reduction is trivially nonnegative, giving the
    lower end.
    """
    if not sol.converged:
        raise InvalidInput("error reduction bounds need a converged solution")
    lmax = lambda_max(rp)
    if lmax <= 0.0:
        raise OutOfRange("target is uncorrelated with every other category")
    if not (np.isfinite(lam) and 0.0 < lam <= lmax * (1.0 + 1e-12)):
        raise OutOfRange(f"penalty must lie in (0, {lmax}], got {lam}")

    identity_value = -_smooth_part(rp, sol.coef)
    shrunk = lam * max(0.0, 2.0 / lmax - 1.0 / lam)
    upper = rp.cov_ii * (1.0 - shrunk * shrunk)
    return ErrorReductionBounds(lower=0.0, upper=upper, identity_value=identity_value)


def pair_covariance(cov: CovMatrix, i: int, j: int) -> float:
    """Co-adaptation weight |E[f_i f_j]| for a pair of categories.

    The magnitude of the cross moment is the natural penalty weight for
    training procedures that discourage one category's logit from
    co-adapting with another's.
    """
    if not (0 <= i < cov.n and 0 <= j < cov.n):
        raise OutOfRange(f"indices ({i}, {j}) outside [0, {cov.n})")
    if i == j:
        raise InvalidInput("pair covariance needs two distinct categories")
    return float(abs(cov.mat.data[i, j]))
