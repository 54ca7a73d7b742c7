"""Diagnostics built on top of the dependency solver.

Covers the closed-form zero-penalty error (how redundant a category is
given all the others), a sound pre-solve screening rule for coefficients
forced to zero, and a verified Lipschitz-style bound on how KKT residuals
drift along the penalty path.

Screening and slope bounds are Gram-form: they read only Chat c, bhat,
diag(Chat) and cov_ii, through the lasso view
min ||y - X c||^2 + lam ||c||_1 with X^T X = Chat, X^T y = bhat and
||y||^2 = cov_ii.  That view, and every bound below, is valid whenever
cov_ii >= bhat^T Chat^+ bhat, which holds for every problem
``reduce_problem`` views in a PSD Cov.  As in the solver, vectors are
indexed like Cov, and screening rows and slope margins skip the target.
Only :func:`redundancy` eigendecomposes, because it inverts a possibly
singular matrix; eigenvalues below ``EIG_FLOOR_REL`` times the largest
are lifted to that floor, and the report says so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovMatrix, ReducedProblem, reduce_problem
from .errors import Degenerate, InvalidInput
from .solver import SolutionPath, _residual, lambda_max

# Relative spectral floor of :func:`redundancy`: eigenvalues below this
# times the largest are lifted to it, and the report is ``floored``.
EIG_FLOOR_REL = 1e-12


@dataclass(frozen=True)
class RedundancyReport:
    """How well a category is linearly predicted by all the others.

    ``min_error`` is the prediction error of the unpenalized optimum,
    equal to the reciprocal of the target diagonal entry of the inverse
    second-moment matrix.  ``eigen_error_sum`` (sum of squared target
    eigenvector weights over eigenvalues) is that diagonal entry through
    a different factorization, as a cross-check.  ``relative_error``
    rescales by the target's own second moment into [0, 1]: 0 means the
    category is an exact linear combination of the rest, 1 means the
    rest carry no information about it.

    The routes are independent only when ``floored`` is false: a floored
    ``min_error`` is itself derived from ``eigen_error_sum``.  Unfloored,
    they agree to about u kappa(Cov) relative (u the unit roundoff, kappa
    the condition number), so ``max_disagreement`` is small only on
    well-conditioned input.
    """

    target: int
    min_error: float
    eigen_error_sum: float
    relative_error: float
    floored: bool

    def max_disagreement(self) -> float:
        """Relative deviation of 1 / eigen_error_sum from ``min_error``."""
        ref = self.min_error
        if ref <= 0.0:
            return float("inf")
        return abs(1.0 / self.eigen_error_sum - ref) / ref


def redundancy(cov: CovMatrix, target: int) -> RedundancyReport:
    """Zero-penalty prediction error of ``target``, two ways, from one ``eigh``.

    Route 1 solves Cov x = e_target (LU) and inverts the target entry;
    route 2 expands the inverse diagonal entry in the eigenbasis.  When
    the spectrum dips below the relative floor ``EIG_FLOOR_REL``, the
    LU solve is skipped, ``floored`` is set and ``min_error`` is route
    2's, clamped to cov_ii, which no least-squares error exceeds.  By
    Cauchy interlacing the target-deleted minor can dip below its own
    relative floor only when Cov does, so Cov's spectrum alone decides.
    """
    full = cov.data
    cov_ii = reduce_problem(cov, target).cov_ii
    if cov_ii <= 1e-300:
        raise Degenerate(f"category {target} has numerically zero second moment")

    vals, vecs = np.linalg.eigh(full)
    vals, weights = vals[::-1], vecs[target, ::-1]
    floor = EIG_FLOOR_REL * float(vals[0])
    lifted = np.maximum(vals, floor)
    floored = bool(np.min(vals) < floor)
    if np.min(lifted) < 1e-300:
        raise Degenerate(
            f"matrix numerically singular: smallest effective eigenvalue "
            f"{np.min(lifted):.3e}"
        )
    # In a PSD matrix a zero diagonal entry means a zero row and column.
    if np.max(np.delete(np.diag(full), target)) <= 0.0:
        raise Degenerate(f"every category other than {target} has zero second moment")
    eigen_sum = float(np.sum(weights * weights / lifted))
    if not floored:
        basis = np.zeros(cov.n)
        basis[target] = 1.0
        min_error = 1.0 / float(np.linalg.solve(full, basis)[target])
    else:
        min_error = min(1.0 / eigen_sum, cov_ii)

    return RedundancyReport(
        target=target,
        min_error=min_error,
        eigen_error_sum=eigen_sum,
        relative_error=min_error / cov_ii,
        floored=floored,
    )


@dataclass(frozen=True)
class ScreeningReport:
    """Pre-solve support screening for one target and penalty.

    ``certified_zero`` lists categories whose coefficient is provably
    zero at this penalty (a sound certificate derived from the residual
    drift bound along the path).  ``heuristic_zero`` lists categories
    whose cross moment with the target falls below half the penalty; on
    many instances this also predicts a zero coefficient, but it carries
    no guarantee and is reported for monitoring only.  ``per_category``
    holds, per category but the target, the dict the screening report
    writes: ``index`` in Cov, ``correlation_ratio`` and ``certificate_threshold``.
    """

    target: int
    lam: float
    lam_max: float
    certified_zero: frozenset[int]
    heuristic_zero: frozenset[int]
    per_category: tuple[dict, ...]


def _drift_rates(rp: ReducedProblem) -> np.ndarray:
    """Per-coordinate bound sqrt(Chat_jj cov_ii) on d(r_j / lam) / d(1/lam).

    In the lasso view of the module docstring the dual point (y - X c)/lam
    is the projection of y/lam onto a convex set, hence 1-Lipschitz in
    1/lam with constant ||y|| = sqrt(cov_ii) (Ndiaye et al., 2017), and
    r_j = X_j^T (X c - y) with ||X_j|| = sqrt(Chat_jj).  Valid whenever
    cov_ii >= bhat^T Chat^+ bhat.
    """
    return np.sqrt(np.diag(rp.cov.data) * rp.cov_ii)


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
        raise InvalidInput(f"penalty must lie in (0, {lmax}) for screening, got {lam}")

    binf = float(np.max(np.abs(rp.bhat)))
    ratios = np.abs(rp.bhat) / binf
    with np.errstate(over="ignore", invalid="ignore"):
        drift = 2.0 * _drift_rates(rp) * abs(1.0 / lam - 1.0 / lmax)
    thresholds = 1.0 - drift
    if not np.all(np.isfinite(thresholds)):
        raise InvalidInput(
            f"penalty {lam} is too small: the screening threshold overflows"
        )
    guard = 1e-12 * np.maximum(1.0, np.abs(thresholds))
    others = np.arange(rp.n) != target
    certified = np.flatnonzero(others & (ratios < thresholds - guard))
    heuristic = np.flatnonzero(others & (np.abs(rp.bhat) < 0.5 * lam))
    idx = np.flatnonzero(others)
    rows = tuple(
        {"index": j, "correlation_ratio": r, "certificate_threshold": t}
        for j, r, t in zip(
            idx.tolist(), ratios[idx].tolist(), thresholds[idx].tolist()
        )
    )

    return ScreeningReport(
        target=target,
        lam=float(lam),
        lam_max=lmax,
        certified_zero=frozenset(certified.tolist()),
        heuristic_zero=frozenset(heuristic.tolist()),
        per_category=rows,
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


def check_slope_bounds(
    rp: ReducedProblem, path: SolutionPath
) -> SlopeBoundCheck | None:
    """Verify the residual drift bound on every consecutive path pair.

    For penalties lam1, lam2 in (0, lam_max] and each off-target
    coordinate j the solved residuals r = Chat c - bhat must satisfy

        |r_j(lam1)/lam1 - r_j(lam2)/lam2|
            <= sqrt(Chat_jj cov_ii) |1/lam1 - 1/lam2|

    up to 1e-8 roundoff slack (see :func:`_drift_rates`; valid whenever
    cov_ii >= bhat^T Chat^+ bhat).  Returns ``None``, checking nothing,
    when the bound does not apply: the path has fewer than two points,
    a point did not converge, or a penalty exceeds lam_max (1 + 1e-12).
    """
    sols = path.solutions
    top = lambda_max(rp) * (1.0 + 1e-12)
    if len(sols) < 2 or not all(s.converged and s.lam <= top for s in sols):
        return None

    rates = _drift_rates(rp)
    residuals = [_residual(rp, s.coef) for s in sols]
    margins: list[float] = []
    for k in range(len(sols) - 1):
        l1, l2 = sols[k].lam, sols[k + 1].lam
        lhs = np.abs(residuals[k] / l1 - residuals[k + 1] / l2)
        slack = rates * abs(1.0 / l1 - 1.0 / l2) + 1e-8 - lhs
        slack[rp.target] = np.inf  # the target has no residual
        margins.append(float(np.min(slack)))
    return SlopeBoundCheck(
        margins=tuple(margins),
        passed=bool(all(m >= 0.0 for m in margins)),
    )
