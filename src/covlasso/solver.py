"""L1-penalized dependency solver on reduced second-moment problems.

For target i of a second-moment matrix Cov and penalty lam > 0 the
solver minimizes

    J(c) = c^T Chat c - 2 bhat^T c + lam * ||c||_1

over coefficients c of the off-target categories, where Chat is Cov
without row and column i and bhat is Cov's column i with entry i set
to 0.  Coefficient vectors are indexed like Cov with c_i held at
exactly 0, so Chat is never formed: off the target Cov c equals
Chat c, the target entry of every residual is read as 0, and the
target never enters the active set.  Plugging the minimizer back in
with the fixed -1 coefficient on the target gives the prediction error
c^T Chat c - 2 bhat^T c + cov_ii, the mean squared residual of
approximating the target logit by a sparse combination of the others.

The minimizer is followed exactly along the lasso homotopy (Osborne,
Presnell & Turlach, 2000; Efron et al., "Least angle regression",
2004) in mu = lam/2, from mu_0 = max|bhat|, where c = 0, downward.  With
active set A, signs s and g = bhat - Chat c, the KKT conditions read
g_A = mu s and |g_j| <= mu elsewhere, so on each segment

    c_A(mu) = Chat_AA^{-1} (bhat_A - mu s_A),

and g moves linearly in mu.  The segment ends at the first kink:

- entry: an inactive |g_j| reaches mu.  It counts only where |g_j| - mu
  grows as mu falls (1 - d_j > 0 on the +mu branch, 1 + d_j > 0 on the
  -mu branch, d = Chat_:A Chat_AA^{-1} s_A the slope of g); the new
  coefficient takes the branch's sign;
- exit: an active coefficient moving toward 0 (s_j v_j < 0 with
  v = Chat_AA^{-1} s_A) reaches it.

One event is taken per kink, and events already due at the current mu
are accepted there, so coordinates that tie enter one kink apart,
lowest index first; the walk is deterministic.  An entry whose Schur
complement Chat_jj - Chat_jA Chat_AA^{-1} Chat_Aj is at most m u Chat_jj
(u the unit roundoff) would make Chat_AA singular; it is refused until
the active set changes.  Its correlation is then a fixed combination of
the active ones, so it stays feasible (Tibshirani, "The lasso problem
and uniqueness", 2013).  A zero-curvature coordinate of a PSD Cov has a
zero row and never enters.  The number of kinks can grow exponentially
(Mairal & Yu, 2012), so the walk takes at most 10 m of them; a walk that
runs out returns its last breakpoint, whose certificates then fail at
the requested penalty.

Each requested penalty is read off its segment by a direct solve of
Chat_AA c_A = bhat_A - mu s_A, with coefficients whose sign disagrees
with s set to 0.  :func:`solve` walks to one penalty, and
:func:`solution_path` walks once through a whole grid.  Optimality is
certified by :func:`certificates`, from one product Chat c: the KKT
conditions and a Gram-form duality gap, with no factorization, square
root or spectral floor; every returned point is certified once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovMatrix, ReducedProblem
from .errors import DimMismatch, InvalidInput, InvalidMatrix

# The homotopy takes at most this many kinks per coordinate.
KINK_CAP_PER_COORD = 10

# Coefficients with magnitude above this count as support members.
SUPPORT_TOL = 1e-10


@dataclass(frozen=True)
class SolutionCertificates:
    """Optimality evidence for a primal iterate; see :func:`certificates`."""

    kkt_max_violation: float
    kkt_valid: bool
    dual_gap: float
    dual_feasibility_violation: float


@dataclass(frozen=True)
class ReducedSolution:
    """Solver output indexed like Cov (0 at the target), with its certificates."""

    coef: np.ndarray
    lam: float
    objective: float
    iterations: int
    certificates: SolutionCertificates

    def __post_init__(self):
        self.coef.flags.writeable = False

    @property
    def converged(self) -> bool:
        """Whether the final iterate passed the KKT check."""
        return self.certificates.kkt_valid


@dataclass(frozen=True)
class DependencySolution:
    """A solution with the target's fixed -1 coefficient in place.

    ``theta`` has the fixed -1 at the target and the solved coefficients
    elsewhere; ``support`` lists the categories with coefficients beyond
    the support tolerance.
    """

    target: int
    theta: np.ndarray
    lam: float
    support: tuple[int, ...]
    pred_error: float
    certificates: SolutionCertificates

    def __post_init__(self):
        self.theta.flags.writeable = False

    @property
    def converged(self) -> bool:
        """Whether the solution passed the KKT check."""
        return self.certificates.kkt_valid

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
    return float(c @ rp.cov.mat.data @ c - 2.0 * rp.bhat @ c)


def _residual(rp: ReducedProblem, c: np.ndarray) -> np.ndarray:
    """r = Chat c - bhat, indexed like Cov with r_target = 0."""
    r = rp.cov.mat.data @ c - rp.bhat
    r[rp.target] = 0.0
    return r


def reduced_objective(rp: ReducedProblem, lam: float, coef: np.ndarray) -> float:
    c = np.asarray(coef, dtype=np.float64)
    return _smooth_part(rp, c) + lam * float(np.abs(c).sum())


def _homotopy(rp: ReducedProblem, lams: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """Walk the lasso path once; return (coef, kinks) at each grid penalty.

    ``lams`` must be positive and nonincreasing.  The walk is in
    mu = lam/2 from mu_0 = max|bhat| down, one event per kink; see the
    module docstring for the segment formula, the event and tie rules,
    the refusal of singular entries and the kink budget.
    """
    cov = rp.cov.mat.data
    bhat = rp.bhat
    n = rp.n
    mus = 0.5 * lams
    schur_tol = rp.m * np.finfo(np.float64).eps
    budget = KINK_CAP_PER_COORD * rp.m
    in_a = np.zeros(n, dtype=bool)
    active: list[int] = []
    signs: list[float] = []
    mu = float(np.max(np.abs(bhat)))
    kinks = 0
    points: list[tuple[np.ndarray, int]] = []
    while True:
        idx = np.asarray(active, dtype=np.intp)
        s = np.asarray(signs, dtype=np.float64)
        rows = cov[idx]
        block = rows[:, idx]
        c_a, v = np.linalg.solve(block, np.stack([bhat[idx] - mu * s, s], axis=1)).T
        g = bhat - c_a @ rows  # -r at mu
        d = v @ rows  # g(mu - t) = g(mu) - t d on this segment

        # Entry at |g_j| = mu, only where |g_j| - mu grows as mu falls.
        t_up = np.full(n, np.inf)
        t_down = np.full(n, np.inf)
        up, down = 1.0 - d > 0.0, 1.0 + d > 0.0
        t_up[up] = (mu - g[up]) / (1.0 - d[up])
        t_down[down] = (mu + g[down]) / (1.0 + d[down])
        t = np.minimum(t_up, t_down)
        t[rp.target] = np.inf  # the target never enters
        # Exit where an active coefficient moves toward 0 and reaches it.
        t[idx] = np.inf
        shrinking = s * v < 0.0
        t[idx[shrinking]] = -c_a[shrinking] / v[shrinking]
        t = np.maximum(t, 0.0)

        while True:
            j = int(np.argmin(t))  # lowest index among ties
            if not np.isfinite(t[j]) or in_a[j]:
                break
            w = np.linalg.solve(block, rows[:, j])
            if cov[j, j] - rows[:, j] @ w > schur_tol * cov[j, j]:
                break
            t[j] = np.inf  # Chat_AA would turn singular: refuse j for now
        mu_next = mu - float(t[j])

        stop = len(points) + int(np.count_nonzero(mus[len(points):] >= mu_next))
        read = mus[len(points):stop]
        if stop < mus.size and kinks == budget:
            # Out of kinks: the rest of the grid gets the last breakpoint.
            read = np.concatenate([read, np.full(mus.size - stop, mu)])
        # Direct solves, never u - mu v: at mu_0 the difference leaves a
        # wrong-signed roundoff coefficient that fails KKT.
        sol = np.linalg.solve(block, bhat[idx, None] - np.multiply.outer(s, read))
        sol[sol * s[:, None] < 0.0] = 0.0
        for col in sol.T:
            coef = np.zeros(n)
            coef[idx] = col
            points.append((coef, kinks))
        if len(points) == mus.size:
            return points

        kinks += 1
        mu = mu_next
        if in_a[j]:
            pos = active.index(j)
            del active[pos], signs[pos]
        else:
            active.append(j)
            signs.append(1.0 if t_up[j] <= t_down[j] else -1.0)
        in_a[j] = not in_a[j]


def _point(rp: ReducedProblem, lam: float, coef: np.ndarray, kinks: int) -> ReducedSolution:
    return ReducedSolution(
        coef=coef,
        lam=lam,
        objective=reduced_objective(rp, lam, coef),
        iterations=kinks,
        certificates=certificates(rp, lam, coef),
    )


def solve(rp: ReducedProblem, lam: float) -> ReducedSolution:
    """Minimize the penalized reduced objective at one penalty value.

    The homotopy walked from lambda_max down to ``lam``; ``iterations``
    counts its kinks.  Non-convergence does not raise: ``converged`` is
    false when the :func:`certificates` of the returned point fail the
    KKT check, as after the kink budget runs out.
    """
    if not np.isfinite(lam) or lam <= 0.0:
        raise InvalidInput(f"penalty must be positive and finite, got {lam}")
    ((coef, kinks),) = _homotopy(rp, np.array([float(lam)]))
    return _point(rp, float(lam), coef, kinks)


def certificates(
    rp: ReducedProblem, lam: float, coef: np.ndarray
) -> SolutionCertificates:
    """KKT and Gram-form duality-gap certificates for a primal iterate.

    Both read r = Chat c - bhat, formed once, with r = 0 at the target,
    whose coefficient must be 0.  Coordinate j violates KKT
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
    if c.shape != (rp.n,):
        raise DimMismatch(f"coef shape {c.shape}, expected ({rp.n},)")
    if c[rp.target] != 0.0:
        raise InvalidInput(f"coefficient of target {rp.target} must be 0")

    r = _residual(rp, c)
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
    c_chat_c = float(c @ r) + b_c
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
    """Mean squared target residual for coefficients with 0 at the target.

    Expands theta^T Cov theta with the -1 target coefficient folded in:
    c^T Chat c - 2 bhat^T c + cov_ii, clamped below at zero.
    """
    c = np.asarray(coef, dtype=np.float64)
    return max(0.0, _smooth_part(rp, c) + rp.cov_ii)


def solution_path(rp: ReducedProblem, grid) -> SolutionPath:
    """Solve along a descending penalty grid with one homotopy walk.

    The grid must be positive and nonincreasing (ties allowed); each
    point's ``iterations`` counts the kinks walked to reach it.  The
    recorded ``monotone`` flag checks that prediction errors do not
    increase as the penalty decreases, with 1e-9 slack for roundoff.
    """
    lams = np.asarray(grid, dtype=np.float64)
    if lams.ndim != 1 or lams.size == 0:
        raise InvalidInput("penalty grid must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(lams)) or np.any(lams <= 0.0):
        raise InvalidInput("penalty grid must be positive and finite")
    if np.any(np.diff(lams) > 0.0):
        raise InvalidInput("penalty grid must be nonincreasing")

    solutions = tuple(
        _point(rp, float(lam), coef, kinks)
        for lam, (coef, kinks) in zip(lams, _homotopy(rp, lams))
    )
    errors = tuple(reduced_prediction_error(rp, s.coef) for s in solutions)
    return SolutionPath(
        lambdas=tuple(float(v) for v in lams),
        solutions=solutions,
        errors=errors,
        monotone=bool(np.all(np.diff(errors) <= 1e-9)),
    )


def embed(rs: ReducedSolution, rp: ReducedProblem) -> DependencySolution:
    """Set the target's fixed -1 coefficient; the certificates carry over."""
    if rs.coef.shape != (rp.n,):
        raise DimMismatch(
            f"solution has {rs.coef.shape[0]} coordinates, problem has {rp.n}"
        )
    theta = rs.coef.copy()
    theta[rp.target] = -1.0
    support = tuple(int(j) for j in np.flatnonzero(np.abs(rs.coef) > SUPPORT_TOL))
    return DependencySolution(
        target=rp.target,
        theta=theta,
        lam=rs.lam,
        support=support,
        pred_error=reduced_prediction_error(rp, rs.coef),
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
