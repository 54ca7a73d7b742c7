"""Property tests over randomly drawn shapes, data and batchings."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from covlasso import (
    CovMatrix,
    LogitMatrix,
    SymmetricMatrix,
    accumulate,
    certificates,
    embed,
    finalize,
    lambda_max,
    new_accumulator,
    reduce_problem,
    screen,
    solve,
)
from covlasso.covariance import BLOCK_ROWS
from covlasso.solver import reduced_objective

from oracles import enumerate_lasso, minor, root_form_gap


@st.composite
def batched_streams(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 3 * BLOCK_ROWS + 50))
    cuts = sorted(draw(st.lists(st.integers(0, rows), max_size=8)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(rows, n)) * rng.lognormal(0, 3, size=(rows, n))
    return data, cuts


@settings(max_examples=60, deadline=None)
@given(batched_streams())
def test_accumulation_is_invariant_to_batching(stream):
    data, cuts = stream
    n = data.shape[1]
    whole = accumulate(new_accumulator(n), LogitMatrix(data))
    parts = new_accumulator(n)
    for chunk in np.split(data, cuts, axis=0):
        if len(chunk):
            accumulate(parts, LogitMatrix(chunk))
    assert parts.count == whole.count
    assert_array_equal(finalize(parts).mat.data, finalize(whole).mat.data)


@st.composite
def rank_deficient_problems(draw):
    """A PSD Cov of order m + 1 <= 6 and rank 1..m + 1, a target and lam in (0, lam_max)."""
    m = draw(st.integers(1, 5))
    rank = draw(st.integers(1, m + 1))
    scale = 10.0 ** draw(st.integers(-4, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    frac = draw(st.floats(0.01, 0.99))
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(m + 1, rank)) * scale
    cov = CovMatrix(SymmetricMatrix(g @ g.T), 10)
    target = int(rng.integers(0, m + 1))
    lmax = lambda_max(reduce_problem(cov, target))
    return cov, target, frac * lmax


@st.composite
def degenerate_problems(draw):
    """A PSD Cov of order m + 1 <= 7: full rank, rank-deficient, rank 1 or
    with an exactly duplicated category, at scales 1e-4 to 1e4; a target
    and lam in (0, lam_max)."""
    m = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["full", "deficient", "rank1", "duplicate"]))
    scale = 10.0 ** draw(st.floats(-4.0, 4.0))
    seed = draw(st.integers(0, 2**32 - 1))
    frac = draw(st.floats(0.001, 0.999))
    rng = np.random.default_rng(seed)
    rank = {"full": m + 1, "deficient": int(rng.integers(1, m + 1)), "rank1": 1}.get(kind, m + 1)
    g = rng.normal(size=(m + 1, rank))
    if kind == "duplicate":
        a, b = rng.choice(m + 1, size=2, replace=False)
        g[a] = g[b]
    cov = CovMatrix(SymmetricMatrix((g @ g.T) * scale), 10)
    target = int(rng.integers(0, m + 1))
    return cov, target, frac * lambda_max(reduce_problem(cov, target))


def gap_scale(rp, lam, coef):
    """|J(c)| + cov_ii, the size a duality gap is measured against."""
    return abs(reduced_objective(rp, lam, coef)) + rp.cov_ii


@settings(max_examples=200, deadline=None)
@given(rank_deficient_problems())
def test_certified_zeros_are_zero_at_the_oracle_optimum(case):
    cov, target, lam = case
    rp = reduce_problem(cov, target)
    rep = screen(cov, target, lam)
    chat, bhat, keep = minor(rp)
    oracle, _ = enumerate_lasso(chat, bhat, lam)
    coef = np.zeros(rp.n)
    coef[keep] = oracle
    for j in rep.certified_zero:
        assert coef[j] == 0.0


@settings(max_examples=200, deadline=None)
@given(rank_deficient_problems())
def test_gap_at_solve_output_bounds_suboptimality(case):
    # The gap is never below -roundoff, never below the true
    # suboptimality J(c) - J*, and small wherever c is optimal to
    # roundoff: at the oracle optimum and at solve's output.
    cov, target, lam = case
    rp = reduce_problem(cov, target)
    sol = solve(rp, lam)
    chat, bhat, keep = minor(rp)
    oracle, best = enumerate_lasso(chat, bhat, lam)
    gap = embed(sol, rp).certificates.dual_gap
    size = gap_scale(rp, lam, sol.coef)
    assert gap >= -1e-12 * size
    assert gap >= sol.objective - best - 1e-12 * size
    if sol.objective - best <= 1e-12 * size:
        assert gap <= 1e-9 * size
    coef = np.zeros(rp.n)
    coef[keep] = oracle
    assert certificates(rp, lam, coef).dual_gap <= 1e-9 * gap_scale(rp, lam, coef)


@settings(max_examples=200, deadline=None)
@given(rank_deficient_problems(), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_gram_gap_matches_root_gap(case, seed, log_size):
    # The two gaps differ by (1-s)^2 (cov_ii - bhat^T Chat^+ bhat) >= 0,
    # which vanishes at s = 1.  The root form computes bhat^T Chat^+ bhat
    # with relative error up to cond(Chat) u, hence the (1-s)^2 cov_ii slack.
    cov, target, lam = case
    rp = reduce_problem(cov, target)
    chat, bhat, keep = minor(rp)
    # Around the solution, or anywhere on the scale of bhat / diag(Chat).
    rng = np.random.default_rng(seed)
    width = 10.0**log_size * np.max(np.abs(bhat)) / max(np.max(np.diag(chat)), 1e-300)
    x = rng.normal(size=rp.m) * width
    if seed % 2:
        x = x * 1e-3 + solve(rp, lam).coef[keep]
    coef = np.zeros(rp.n)
    coef[keep] = x
    gram = certificates(rp, lam, coef).dual_gap
    root = root_form_gap(chat, bhat, lam, x)
    tol = 1e-12 * gap_scale(rp, lam, coef)
    r_inf = np.max(np.abs(bhat - chat @ x))
    if r_inf <= 0.5 * lam:
        assert abs(gram - root) <= tol
    else:
        s = 0.5 * lam / r_inf
        assert gram >= root - tol - 1e-9 * (1.0 - s) ** 2 * rp.cov_ii


@settings(max_examples=300, deadline=None)
@given(degenerate_problems())
def test_homotopy_never_above_the_oracle_optimum(case):
    cov, target, lam = case
    assume(lam > 0.0)
    rp = reduce_problem(cov, target)
    chat, bhat, _ = minor(rp)
    _, best = enumerate_lasso(chat, bhat, lam)
    assert solve(rp, lam).objective <= best + 1e-9 * (abs(best) + rp.cov_ii)


@st.composite
def permuted_problems(draw):
    """A PSD Cov of order m + 1 <= 9 (full rank or not), a target, lam in
    (0, lam_max) and a permutation of the categories."""
    m = draw(st.integers(1, 8))
    full_rank = draw(st.booleans())
    scale = 10.0 ** draw(st.floats(-4.0, 4.0))
    seed = draw(st.integers(0, 2**32 - 1))
    frac = draw(st.floats(0.001, 0.999))
    rng = np.random.default_rng(seed)
    rank = m + 1 if full_rank else int(rng.integers(1, m + 1))
    g = rng.normal(size=(m + 1, rank))
    cov = CovMatrix(SymmetricMatrix((g @ g.T) * scale), 10)
    target = int(rng.integers(0, m + 1))
    perm = rng.permutation(m + 1)
    return cov, target, frac * lambda_max(reduce_problem(cov, target)), perm, full_rank


@settings(max_examples=100, deadline=None)
@given(permuted_problems())
def test_permuting_categories_permutes_the_solution(case):
    # Category perm[k] of Cov is category k of the permuted matrix.
    cov, target, lam, perm, full_rank = case
    assume(lam > 0.0)
    moved = CovMatrix(SymmetricMatrix(cov.mat.data[np.ix_(perm, perm)]), 10)
    moved_target = int(np.flatnonzero(perm == target)[0])
    rp = reduce_problem(cov, target)
    rp_moved = reduce_problem(moved, moved_target)
    sol, sol_moved = solve(rp, lam), solve(rp_moved, lam)
    assert sol_moved.coef[moved_target] == 0.0
    assert abs(sol_moved.objective - sol.objective) <= 1e-12 * (
        abs(sol.objective) + rp.cov_ii
    )
    if full_rank:
        support = embed(sol, rp).support
        assert sorted(int(perm[k]) for k in embed(sol_moved, rp_moved).support) == list(support)
