"""L1-penalized dependency solver on reduced second-moment problems.

For a reduced problem (Chat, bhat, cov_ii) and penalty lam > 0 the
solver minimizes

    J(c) = c^T Chat c - 2 bhat^T c + lam * ||c||_1

over coefficient vectors c for the off-target categories.  Plugging the
minimizer back in with the fixed -1 coefficient on the target gives the
prediction error  c^T Chat c - 2 bhat^T c + cov_ii,  the mean squared
residual of approximating the target logit by a sparse combination of
the others.

The minimizer is computed by cyclic coordinate descent with exact
per-coordinate soft-threshold updates, followed by an exact linear
solve on the detected active set (accepted only when it preserves the
sign pattern and does not increase the objective).  Optimality is
certified by :func:`certificates`, from one product Chat c: the KKT
conditions and a Gram-form duality gap, with no factorization, square
root or spectral floor.  :func:`solve` certifies its final iterate once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovMatrix, ReducedProblem
from .errors import DimMismatch, InvalidInput, InvalidMatrix

# Stop a sweep pass once no coordinate moved more than this (relative to
# the iterate's scale); hard cap on sweeps is 100 per coordinate.
SWEEP_TOL = 1e-10
SWEEP_CAP_PER_COORD = 100

# Diagonal entries at or below this are treated as exactly zero
# curvature; their coordinates are pinned to 0 for the whole solve.
PIN_THRESHOLD = 1e-300

# Coefficients with magnitude above this count as support members.
SUPPORT_TOL = 1e-10


def soft_threshold(x: float, t: float) -> float:
    """Shrink x toward zero by t, clamping to zero inside [-t, t]."""
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


@dataclass(frozen=True)
class SolutionCertificates:
    """Optimality evidence for a primal iterate; see :func:`certificates`."""

    kkt_max_violation: float
    kkt_valid: bool
    dual_gap: float
    dual_feasibility_violation: float


@dataclass(frozen=True)
class ReducedSolution:
    """Solver output in reduced coordinates, with its certificates."""

    coef: np.ndarray
    lam: float
    objective: float
    iterations: int
    certificates: SolutionCertificates
    pinned: tuple[int, ...] = ()

    def __post_init__(self):
        self.coef.flags.writeable = False

    @property
    def converged(self) -> bool:
        """Whether the final iterate passed the KKT check."""
        return self.certificates.kkt_valid


@dataclass(frozen=True)
class DependencySolution:
    """A solution embedded back into full category coordinates.

    ``theta`` has the fixed -1 at the target and the solved coefficients
    elsewhere; ``support`` lists the full-coordinate categories with
    coefficients beyond the support tolerance.
    """

    target: int
    theta: np.ndarray
    lam: float
    support: tuple[int, ...]
    pred_error: float
    converged: bool
    certificates: SolutionCertificates

    def __post_init__(self):
        self.theta.flags.writeable = False

    @property
    def n(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class SolutionPath:
    """Solutions along a descending penalty grid."""

    lambdas: tuple[float, ...]
    solutions: tuple[ReducedSolution, ...]
    errors: tuple[float, ...]
    monotone: bool


def lambda_max(rp: ReducedProblem) -> float:
    """Smallest penalty at which the all-zero solution is optimal.

    Equals 2 * max|bhat|: at c = 0 the KKT condition requires every
    |bhat_j| <= lam / 2.
    """
    return 2.0 * float(np.max(np.abs(rp.bhat)))


def _smooth_part(rp: ReducedProblem, c: np.ndarray) -> float:
    """c^T Chat c - 2 bhat^T c, as (c^T Chat) c: reports hold its last bits."""
    return float(c @ rp.chat.data @ c - 2.0 * rp.bhat @ c)


def reduced_objective(rp: ReducedProblem, lam: float, coef: np.ndarray) -> float:
    c = np.asarray(coef, dtype=np.float64)
    return _smooth_part(rp, c) + lam * float(np.abs(c).sum())


def _polish_active_set(
    rp: ReducedProblem, lam: float, coef: np.ndarray, objective: float
) -> tuple[np.ndarray, float]:
    """Exact KKT solve on the detected active set, accepted only if safe.

    On the fixed sign pattern s the optimum solves
    Chat_AA c_A = bhat_A - (lam/2) s.  The candidate replaces the CD
    iterate only when it reproduces the sign pattern, stays finite and
    does not increase the objective, so this refinement can only move
    the iterate closer to the true minimizer.
    """
    support = np.flatnonzero(coef)
    if support.size == 0:
        return coef, objective
    sub = rp.chat.data[np.ix_(support, support)]
    signs = np.sign(coef[support])
    rhs = rp.bhat[support] - 0.5 * lam * signs
    try:
        sol = np.linalg.solve(sub, rhs)
    except np.linalg.LinAlgError:
        return coef, objective
    if not np.all(np.isfinite(sol)) or np.any(sol * signs <= 0.0):
        return coef, objective
    cand = np.zeros_like(coef)
    cand[support] = sol
    cand_obj = reduced_objective(rp, lam, cand)
    if cand_obj <= objective + 1e-12 * (1.0 + abs(objective)):
        return cand, cand_obj
    return coef, objective


def solve(
    rp: ReducedProblem, lam: float, init: np.ndarray | None = None
) -> ReducedSolution:
    """Minimize the penalized reduced objective at one penalty value.

    Cyclic coordinate descent in a fixed coordinate order; each update
    is the exact scalar minimizer
    soft_threshold(bhat_j - sum_{k != j} Chat_jk c_k, lam/2) / Chat_jj.
    Sweeping stops once the largest coordinate change in a full pass
    drops below 1e-10 * (1 + ||c||_inf) or after 100 sweeps per
    coordinate.  Coordinates whose diagonal entry is numerically zero
    are pinned at 0 and reported in ``pinned``.

    Non-convergence does not raise: ``converged`` is false when the
    :func:`certificates` of the final iterate fail the KKT check.
    """
    if not np.isfinite(lam) or lam <= 0.0:
        raise InvalidInput(f"penalty must be positive and finite, got {lam}")
    m = rp.m
    chat = rp.chat.data
    bhat = rp.bhat
    diag = np.ascontiguousarray(np.diag(chat))
    pinned_mask = diag <= PIN_THRESHOLD

    if init is None:
        coef = np.zeros(m)
    else:
        coef = np.asarray(init, dtype=np.float64).copy()
        if coef.shape != (m,):
            raise DimMismatch(f"init shape {coef.shape}, expected ({m},)")
        if not np.all(np.isfinite(coef)):
            raise InvalidInput("init has non-finite entries")
    coef[pinned_mask] = 0.0

    half = 0.5 * lam
    prod = chat @ coef  # running Chat @ coef, updated per coordinate
    cap = SWEEP_CAP_PER_COORD * m
    sweeps = 0
    while sweeps < cap:
        max_delta = 0.0
        for j in range(m):
            if pinned_mask[j]:
                continue
            cj = coef[j]
            g = bhat[j] - prod[j] + diag[j] * cj
            new = soft_threshold(g, half) / diag[j]
            if new != cj:
                prod += chat[:, j] * (new - cj)
                coef[j] = new
                delta = abs(new - cj)
                if delta > max_delta:
                    max_delta = delta
        sweeps += 1
        if max_delta <= SWEEP_TOL * (1.0 + float(np.max(np.abs(coef)))):
            break

    obj = reduced_objective(rp, lam, coef)
    coef, obj = _polish_active_set(rp, lam, coef, obj)
    return ReducedSolution(
        coef=coef,
        lam=float(lam),
        objective=obj,
        iterations=sweeps,
        certificates=certificates(rp, lam, coef),
        pinned=tuple(int(j) for j in np.flatnonzero(pinned_mask)),
    )


def certificates(
    rp: ReducedProblem, lam: float, coef: np.ndarray
) -> SolutionCertificates:
    """KKT and Gram-form duality-gap certificates for a primal iterate.

    Both read r = Chat c - bhat, formed once.  Coordinate j violates KKT
    by |r_j + (lam/2) sign(c_j)| if c_j != 0, else by max(0, |r_j| - lam/2);
    the iterate is KKT-valid if no violation exceeds 1e-6 * max(lam, 1).

    For the gap, write the problem as a lasso min ||y - X c||^2 + lam ||c||_1
    with X^T X = Chat, X^T y = bhat and ||y||^2 = cov_ii.  Such X and y
    exist, and the gap is a valid weak-duality bound, whenever
    cov_ii >= bhat^T Chat^+ bhat; that holds for every problem
    ``reduce_problem`` carves from a PSD Cov (a Schur complement).  The
    dual point is the residual y - X c rescaled into the feasible set
    ||X^T u||_inf <= lam/2 (Fercoq, Gramfort & Salmon, 2015):

        s = min(1, (lam/2) / ||r||_inf)
        gap = J(c) + (1-s)^2 cov_ii + 2 s (1-s) bhat^T c + s^2 c^T Chat c

    with J the objective.  The feasibility violation is
    max(0, (sqrt(2)/lam) ||r||_inf - sqrt(2)/2).  At an optimum s = 1 and
    the gap is 0.
    """
    if not np.isfinite(lam) or lam <= 0.0:
        raise InvalidInput(f"penalty must be positive and finite, got {lam}")
    c = np.asarray(coef, dtype=np.float64)
    if c.shape != (rp.m,):
        raise DimMismatch(f"coef shape {c.shape}, expected ({rp.m},)")

    chat_c = rp.chat.data @ c
    r = chat_c - rp.bhat
    abs_r = np.abs(r)
    half = 0.5 * lam
    violation = np.where(
        c != 0.0, np.abs(r + half * np.sign(c)), np.maximum(abs_r - half, 0.0)
    )
    worst = float(violation.max())
    r_inf = float(abs_r.max())

    sqrt2 = float(np.sqrt(2.0))
    feas_violation = max(0.0, sqrt2 / lam * r_inf - sqrt2 / 2.0)
    s = 1.0 if r_inf <= half else half / r_inf
    b_c = float(rp.bhat @ c)
    c_chat_c = float(c @ chat_c)
    primal = c_chat_c - 2.0 * b_c + lam * float(np.abs(c).sum())
    gap = (
        primal
        + (1.0 - s) ** 2 * rp.cov_ii
        + 2.0 * s * (1.0 - s) * b_c
        + s * s * c_chat_c
    )
    return SolutionCertificates(
        kkt_max_violation=worst,
        kkt_valid=worst <= 1e-6 * max(lam, 1.0),
        dual_gap=float(gap),
        dual_feasibility_violation=feas_violation,
    )


def reduced_prediction_error(rp: ReducedProblem, coef: np.ndarray) -> float:
    """Mean squared target residual for reduced coefficients.

    Expands theta^T Cov theta with the -1 target coefficient folded in:
    c^T Chat c - 2 bhat^T c + cov_ii, clamped below at zero.
    """
    c = np.asarray(coef, dtype=np.float64)
    return max(0.0, _smooth_part(rp, c) + rp.cov_ii)


def solution_path(rp: ReducedProblem, grid) -> SolutionPath:
    """Solve along a descending penalty grid with warm starts.

    The grid must be positive and nonincreasing (ties allowed).  The
    recorded ``monotone`` flag checks that prediction errors do not
    increase as the penalty decreases, with 1e-9 slack for solver
    tolerance.
    """
    lams = np.asarray(grid, dtype=np.float64)
    if lams.ndim != 1 or lams.size == 0:
        raise InvalidInput("penalty grid must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(lams)) or np.any(lams <= 0.0):
        raise InvalidInput("penalty grid must be positive and finite")
    if np.any(np.diff(lams) > 0.0):
        raise InvalidInput("penalty grid must be nonincreasing")

    solutions: list[ReducedSolution] = []
    errors: list[float] = []
    warm: np.ndarray | None = None
    for lam in lams:
        sol = solve(rp, float(lam), warm)
        warm = sol.coef
        solutions.append(sol)
        errors.append(reduced_prediction_error(rp, sol.coef))
    err = np.asarray(errors)
    monotone = bool(np.all(np.diff(err) <= 1e-9))
    return SolutionPath(
        lambdas=tuple(float(v) for v in lams),
        solutions=tuple(solutions),
        errors=tuple(errors),
        monotone=monotone,
    )


def embed(rs: ReducedSolution, rp: ReducedProblem) -> DependencySolution:
    """Lift a reduced solution to full coordinates; its certificates carry over."""
    if rs.coef.shape != (rp.m,):
        raise DimMismatch(
            f"solution has {rs.coef.shape[0]} coordinates, problem has {rp.m}"
        )
    theta = np.empty(rp.n)
    theta[rp.target] = -1.0
    mask = np.arange(rp.n) != rp.target
    theta[mask] = rs.coef

    support = tuple(
        int(j) for j in np.flatnonzero(mask & (np.abs(theta) > SUPPORT_TOL))
    )
    return DependencySolution(
        target=rp.target,
        theta=theta,
        lam=rs.lam,
        support=support,
        pred_error=reduced_prediction_error(rp, rs.coef),
        converged=rs.converged,
        certificates=rs.certificates,
    )


def prediction_error(cov: CovMatrix, theta: np.ndarray) -> float:
    """Quadratic form theta^T Cov theta, clamped below at zero."""
    t = np.asarray(theta, dtype=np.float64)
    if t.shape != (cov.n,):
        raise DimMismatch(f"theta shape {t.shape}, expected ({cov.n},)")
    if not np.all(np.isfinite(t)):
        raise InvalidMatrix("theta has non-finite entries")
    return max(0.0, float(t @ cov.mat.data @ t))
