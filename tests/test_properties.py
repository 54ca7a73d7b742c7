"""Property tests over randomly drawn shapes, data and batchings."""

from dataclasses import asdict
from unittest.mock import patch

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from covlasso import (
    CovAccumulator,
    CovMatrix,
    LogitMatrix,
    accumulate,
    certificates,
    emit_report,
    evaluate,
    finalize,
    fit_extension,
    lambda_max,
    parse_report,
    reduce_problem,
    redundancy,
    report_theta,
    screen,
    solution_path,
    solve,
    solver,
)
from covlasso.analysis import EIG_FLOOR_REL
from covlasso.covariance import BLOCK_ROWS
from covlasso.evaluation import _base_terms, _extension_loss

from oracles import (
    dense_extension_loss_grad,
    determinant_error,
    enumerate_lasso,
    homotopy,
    minor,
    objective,
    root_form_gap,
    second_moment_bound,
    second_moment_exact,
)


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
    whole = accumulate(CovAccumulator(n), LogitMatrix(data))
    parts = CovAccumulator(n)
    for chunk in np.split(data, cuts, axis=0):
        if len(chunk):
            accumulate(parts, LogitMatrix(chunk))
    assert parts.count == whole.count
    got = finalize(whole).data
    assert_array_equal(finalize(parts).data, got)

    # Plain blocked summation stays within its gamma_{256 + ceil(N/256)}
    # bound of the exact mean.
    exact = second_moment_exact(data)
    bound = second_moment_bound(data, BLOCK_ROWS)
    assert (np.abs(got - exact) <= bound).all()


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
    cov = CovMatrix(g @ g.T, 10)
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
    cov = CovMatrix((g @ g.T) * scale, 10)
    target = int(rng.integers(0, m + 1))
    return cov, target, frac * lambda_max(reduce_problem(cov, target))


def gap_scale(rp, lam, coef):
    """|J(c)| + cov_ii, the size a duality gap is measured against."""
    chat, bhat, keep = minor(rp)
    return abs(objective(chat, bhat, lam, coef[keep])) + rp.cov_ii


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
    gap = sol.certificates.dual_gap
    size = gap_scale(rp, lam, sol.coef)
    assert gap >= -1e-12 * size
    assert gap >= sol.objective - best - 1e-12 * size
    if sol.objective - best <= 1e-12 * size:
        assert gap <= 1e-9 * size
    coef = np.zeros(rp.n)
    coef[keep] = oracle
    assert certificates(rp, lam, coef).dual_gap <= 1e-9 * gap_scale(rp, lam, coef)


# A Cov of rank 2 whose Chat has condition number 1.3e8.  Rounded to
# doubles, Cov is indefinite (eigenvalue -3e-14), and its exact Schur
# complement cov_ii - bhat^T Chat^-1 bhat is -1.0e-6, about cond(Chat) u
# relative to cov_ii: the Gram gap lies 1.9e-7 below the root gap.
_ILL_CONDITIONED_COV = np.array(
    [
        [186.09503237719767, 140.0086264844335, 110.2257571341875],
        [140.0086264844335, 279.11267516383975, 219.68802558828818],
        [110.2257571341875, 219.68802558828818, 172.9152219829593],
    ]
)


@settings(max_examples=200, deadline=None)
@given(rank_deficient_problems(), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
@example(
    case=(CovMatrix(_ILL_CONDITIONED_COV, 10), 0, 140.0086264844335),
    seed=0,
    log_size=0.0,
)
def test_gram_gap_matches_root_gap(case, seed, log_size):
    # The two gaps differ by (1-s)^2 (cov_ii - bhat^T Chat^+ bhat), which
    # vanishes at s = 1 and is >= 0 for an exactly PSD Cov.  Cov rounded to
    # doubles moves that Schur complement, and the root form computes
    # bhat^T Chat^+ bhat, with relative error up to cond(Chat) u, hence the
    # (1-s)^2 cov_ii cond(Chat) u slack.  cond(Chat) is taken over the
    # eigenvalues the root form keeps (above 1e-12 of the largest).
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
        eig = np.linalg.eigvalsh(chat)
        cond = eig[-1] / eig[eig > 1e-12 * eig[-1]][0]
        slack = cond * np.finfo(np.float64).eps * (1.0 - s) ** 2 * rp.cov_ii
        assert gram >= root - tol - slack


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
def grid_walks(draw):
    """Cov = X^T X / N of order 2..39 and rank min(N, n), often deficient,
    at scales 1e-4 to 1e4; a target, a 7-point nonincreasing grid in
    [1e-6, 2] lam_max, and a kink cap of 1, which often runs out, or the
    default."""
    n = draw(st.integers(2, 39))
    samples = draw(st.integers(1, 2 * n))
    scale = 10.0 ** draw(st.floats(-4.0, 4.0))
    seed = draw(st.integers(0, 2**32 - 1))
    logs = draw(st.lists(st.floats(-6.0, float(np.log10(2.0))), min_size=7, max_size=7))
    cap = draw(st.sampled_from([1, solver.KINK_CAP_PER_COORD]))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(samples, n)) @ rng.normal(size=(n, n))
    rp = reduce_problem(CovMatrix(x.T @ x / samples * scale, samples), int(rng.integers(0, n)))
    return rp, lambda_max(rp) * 10.0 ** np.sort(logs)[::-1], cap


@settings(max_examples=300, deadline=None)
@given(grid_walks())
def test_segment_reader_matches_the_one_loop_walk(case):
    rp, lams, cap = case
    with patch.object(solver, "KINK_CAP_PER_COORD", cap):
        got = solution_path(rp, lams).solutions
    want = homotopy(rp, lams, cap)
    assert [(s.coef.tobytes(), s.iterations) for s in got] == [
        (coef.tobytes(), kinks) for coef, kinks in want
    ]


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
    cov = CovMatrix((g @ g.T) * scale, 10)
    target = int(rng.integers(0, m + 1))
    perm = rng.permutation(m + 1)
    return cov, target, frac * lambda_max(reduce_problem(cov, target)), perm, full_rank


@settings(max_examples=100, deadline=None)
@given(permuted_problems())
def test_permuting_categories_permutes_the_solution(case):
    # Category perm[k] of Cov is category k of the permuted matrix.
    cov, target, lam, perm, full_rank = case
    assume(lam > 0.0)
    moved = CovMatrix(cov.data[np.ix_(perm, perm)], 10)
    moved_target = int(np.flatnonzero(perm == target)[0])
    rp = reduce_problem(cov, target)
    rp_moved = reduce_problem(moved, moved_target)
    sol, sol_moved = solve(rp, lam), solve(rp_moved, lam)
    assert sol_moved.coef[moved_target] == 0.0
    assert abs(sol_moved.objective - sol.objective) <= 1e-12 * (
        abs(sol.objective) + rp.cov_ii
    )
    if full_rank:
        assert sorted(int(perm[k]) for k in sol_moved.support) == list(sol.support)


@st.composite
def extension_problems(draw):
    """Base logits f (n1 <= 6), Theta (n1 x n2, n2 <= 3) and labels in [0, n1 + n2).

    The random rows have logits of scale 1e-4..1e4.  With n2 > 0, Theta's
    first column has norm 2 and three extra rows are f = a Theta_0 / 4,
    so that g_0 = a and max_j f_j <= a/2: new column 0 beats every base
    logit by at least a/2.  a = 4 takes the exp(m_b - p) rescale with
    the base mass still counted, a = 80 leaves it below roundoff, and
    a = 4000 underflows it to 0.
    """
    n1 = draw(st.integers(1, 6))
    n2 = draw(st.integers(0, 3))
    rows = draw(st.integers(1, 40))
    scale = 10.0 ** draw(st.floats(-4, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(size=(rows, n1)) * scale
    theta = rng.normal(size=(n1, n2))
    if n2:
        theta[:, 0] *= 2.0 / np.linalg.norm(theta[:, 0])
        data = np.vstack([data] + [a * theta[:, 0] / 4.0 for a in (4.0, 80.0, 4000.0)])
    labels = rng.integers(0, n1 + n2, size=data.shape[0])
    labels[0] = rng.integers(0, n1)
    if n2:
        labels[-3:] = rng.integers(0, n1), n1 + rng.integers(0, n2), rng.integers(0, n1)
    return data, labels, theta


@settings(max_examples=300, deadline=None)
@given(extension_problems())
def test_split_normalizer_matches_dense_softmax(case):
    data, labels, theta = case
    if theta.shape[1]:
        gap = (data @ theta).max(axis=1) - data.max(axis=1)
        assert gap[-3] > 0.0 and np.exp(-gap[-1]) == 0.0
    loss, resp = _extension_loss(_base_terms(data, labels), data @ theta)
    grad = data.T @ resp / data.shape[0]
    want_loss, want_grad = dense_extension_loss_grad(data, labels, theta)
    assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
    assert grad.shape == want_grad.shape
    assert np.all(np.abs(grad - want_grad) <= 1e-12 * max(1.0, float(np.abs(data).max())))


@st.composite
def scaled_fits(draw):
    """Low-rank base logits (n1 <= 8) at scales 1e-3 to 1e3, labels over n1 + n2."""
    n1 = draw(st.integers(1, 8))
    n2 = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 60))
    rank = draw(st.integers(1, n1 + n2))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, n1 + n2))
    labels = np.argmax(z + rng.normal(size=z.shape), axis=1)
    return LogitMatrix(z[:, :n1] * scale), labels, n2


@settings(max_examples=100, deadline=None)
@given(scaled_fits())
def test_extension_loss_never_rises_at_any_logit_scale(case):
    # The softmax curvature grows with the square of the logit scale; a
    # backtracked step, from the extrapolated point or, after a restart,
    # from the iterate, descends at every scale.  converged tells the
    # truth both ways: the dense oracle's ||g||_inf at the returned Theta
    # meets 1e-6 max|f| exactly when the fit says so, up to a roundoff
    # slack of 1e-9 max|f| (the fit's f Theta is carried across epochs,
    # not recomputed).  Some draws are too ill-conditioned to converge
    # within 300 epochs; see test_extension_fit_converges_at_any_logit_scale.
    base, labels, n2 = case
    fit = fit_extension(base, labels, n2, epochs=300)
    losses = np.array(fit.losses)
    assert np.all(np.diff(losses) <= 0.0)
    top = float(np.abs(base.data).max())
    excess = np.abs(dense_extension_loss_grad(base.data, labels, fit.theta)[1]).max() - 1e-6 * top
    if fit.converged:
        assert excess <= 1e-9 * top
    else:
        assert losses.size == 301 and excess > -1e-9 * top


@st.composite
def posed_fits(draw):
    """Extension fits with an attained minimum, at logit scales 1e-3 to 1e3.

    f = scale sqrt(rows/n1) Q diag(s) W for Q (rows x n1) and W with
    orthonormal columns and s in [1, 4], so f has full column rank and
    sigma_max/sigma_min <= 4.  Each row appears n2 + 1 times, labelled
    once with a base category and once with each new one, so no new
    category separates from the rest.
    """
    n1 = draw(st.integers(1, 8))
    n2 = draw(st.integers(1, 3))
    rows = draw(st.integers(n1, 30))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.normal(size=(rows, n1)))[0]
    w = np.linalg.qr(rng.normal(size=(n1, n1)))[0]
    f = (q * rng.uniform(1.0, 4.0, n1)) @ w * (np.sqrt(rows / n1) * scale)
    labels = np.tile(np.arange(n1 - 1, n1 + n2), rows)
    labels[:: n2 + 1] = rng.integers(0, n1, size=rows)
    return LogitMatrix(np.repeat(f, n2 + 1, axis=0)), labels, n2


@settings(max_examples=50, deadline=None)
@given(posed_fits())
def test_extension_fit_converges_at_any_logit_scale(case):
    # Where the minimum is attained the fit stops on its own rule within
    # the cap of 20000 epochs.  Large scales saturate the softmax and need
    # the most: in 13 500 scratch draws the median was 24 epochs over all
    # scales and 297 at scale 1e3, and the most was 8117 (scale 691).
    base, labels, n2 = case
    fit = fit_extension(base, labels, n2, epochs=20000)
    assert fit.converged
    assert np.all(np.diff(fit.losses) <= 0.0)
    top = float(np.abs(base.data).max())
    grad = dense_extension_loss_grad(base.data, labels, fit.theta)[1]
    assert np.abs(grad).max() <= 1e-6 * top + 1e-9 * top


@st.composite
def scaled_problems(draw):
    """A PSD Cov of order 2..29 and rank 1..n at scales 1e-3 to 1e3, a
    target, lam in (0, lam_max) and a power k of 4 in [-20, 20]."""
    n = draw(st.integers(2, 29))
    rank = draw(st.integers(1, n))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(n, rank))
    target = int(rng.integers(0, n))
    return (g @ g.T) * scale, target, draw(st.floats(0.001, 0.999)), draw(st.integers(-20, 20))


@settings(max_examples=100, deadline=None)
@given(scaled_problems())
def test_solve_is_invariant_to_power_of_four_scaling(case):
    # Every homotopy decision is a ratio or a relative test, and scaling
    # Cov and lam by 4^k is exact, so the walk must not change at all.
    mat, target, frac, k = case
    rp = reduce_problem(CovMatrix(mat, 10), target)
    lam = frac * lambda_max(rp)
    assume(lam > 0.0)
    sol = solve(rp, lam)
    scaled = solve(reduce_problem(CovMatrix(4.0**k * mat, 10), target), 4.0**k * lam)
    assert scaled.coef.tobytes() == sol.coef.tobytes()
    assert scaled.iterations == sol.iterations
    assert scaled.certificates.kkt_valid == sol.certificates.kkt_valid


@st.composite
def psd_covariances(draw):
    """A PSD Cov of order n in 2..8 and rank 1..n, at scales 1e-4 to 1e4."""
    n = draw(st.integers(2, 8))
    rank = draw(st.integers(1, n))
    scale = 10.0 ** draw(st.floats(-4.0, 4.0))
    seed = draw(st.integers(0, 2**32 - 1))
    g = np.random.default_rng(seed).normal(size=(n, rank))
    return CovMatrix((g @ g.T) * scale, 10)


@settings(max_examples=200, deadline=None)
@given(psd_covariances())
def test_redundancy_floors_with_its_minor_and_agrees_unfloored(cov):
    # Cauchy interlacing: a minor below its own relative floor puts Cov
    # below Cov's, so Cov's spectrum alone decides ``floored``.
    for target in range(cov.n):
        rep = redundancy(cov, target)
        keep = np.arange(cov.n) != target
        vals = np.linalg.eigvalsh(cov.data[np.ix_(keep, keep)])
        if vals[0] < (1.0 - 1e-6) * EIG_FLOOR_REL * vals[-1]:
            assert rep.floored
        if not rep.floored:
            assert rep.max_disagreement() <= 1e-6
            oracle = determinant_error(cov.data, target)
            assert abs(rep.min_error - oracle) <= 1e-8 * oracle


@st.composite
def labelled_solves(draw):
    """Labelled logits, a target and a penalty fraction in (0, 1] of lam_max.

    The fractions include 1 - 1e-12, where the one active coefficient is
    roundoff-sized.
    """
    n = draw(st.integers(2, 6))
    samples = draw(st.integers(2, 60))
    rank = draw(st.integers(1, n))
    scale = 10.0 ** draw(st.integers(-3, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    frac = draw(st.one_of(st.just(1.0 - 1e-12), st.floats(1e-3, 1.0)))
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(samples, rank)) @ rng.normal(size=(rank, n))
    data = scale * (data + 0.1 * rng.normal(size=(samples, n)))
    labels = rng.integers(0, n, size=samples)
    return LogitMatrix(data, labels), int(rng.integers(0, n)), frac


@settings(max_examples=200, deadline=None)
@given(labelled_solves())
def test_eval_of_a_report_reproduces_its_metrics(case):
    logits, target, frac = case
    cov = finalize(accumulate(CovAccumulator(logits.n), logits))
    rp = reduce_problem(cov, target)
    lam = frac * lambda_max(rp)
    assume(lam > 0.0)
    dep = solve(rp, lam)
    text = emit_report(dep, evaluate(logits, target, dep.theta))
    report = parse_report(text)
    again = evaluate(logits, target, report_theta(report, logits.n))
    assert report.metrics.keys() == asdict(again).keys() - {"target"}
    for key, value in report.metrics.items():
        got = getattr(again, key)
        assert type(got) is type(value), key
        if isinstance(value, float):
            assert got.hex() == value.hex(), key
        else:
            assert got == value, key
