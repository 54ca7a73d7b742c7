"""Independent reference implementations used only by the tests.

Everything here is deliberately written the slow, obviously-correct
way (closed forms, exhaustive enumeration, dense determinants) so the
package can be checked against code that shares none of its internals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np


def soft(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def solve_univariate(chat: float, bhat: float, lam: float) -> float:
    """Closed-form minimizer of c^2 chat - 2 bhat c + lam |c| (chat > 0)."""
    return soft(bhat, lam / 2.0) / chat


def solve_diagonal(diag: np.ndarray, bhat: np.ndarray, lam: float) -> np.ndarray:
    """Coordinate-separable closed form for diagonal quadratics."""
    return np.array(
        [soft(b, lam / 2.0) / d for d, b in zip(diag, bhat)]
    )


# Iterative coordinate descent stops at a tolerance, so a coefficient that
# is exactly 0 at the optimum may be left a little off it; below this
# magnitude its output counts as 0.  Only the oracle's output is read so.
CD_ZERO_TOL = 1e-10


def coordinate_descent(
    chat: np.ndarray,
    bhat: np.ndarray,
    lam: float,
    init: np.ndarray | None = None,
    tol: float = 1e-12,
    max_sweeps: int = 100_000,
) -> np.ndarray:
    """Cyclic coordinate descent with exact soft-threshold updates.

    Each update is soft(bhat_j - sum_{k != j} chat_jk c_k, lam/2) / chat_jj;
    coordinates with chat_jj <= 0 stay at 0.  Sweeps stop once no
    coordinate moved more than tol * (1 + ||c||_inf).
    """
    c = np.zeros(bhat.shape[0]) if init is None else np.array(init, dtype=np.float64)
    for _ in range(max_sweeps):
        moved = 0.0
        for j in range(c.size):
            if chat[j, j] <= 0.0:
                continue
            g = bhat[j] - chat[j] @ c + chat[j, j] * c[j]
            new = soft(g, lam / 2.0) / chat[j, j]
            moved = max(moved, abs(new - c[j]))
            c[j] = new
        if moved <= tol * (1.0 + float(np.max(np.abs(c)))):
            break
    return c


def objective(chat: np.ndarray, bhat: np.ndarray, lam: float, c: np.ndarray) -> float:
    return float(c @ chat @ c - 2.0 * bhat @ c + lam * np.abs(c).sum())


def prediction_error(cov: np.ndarray, theta: np.ndarray) -> float:
    """The full quadratic form theta^T Cov theta, unclamped."""
    return float(theta @ cov @ theta)


def error_reduction_upper(cov_ii: float, lam: float, lam_max: float) -> float:
    """Ceiling cov_ii (1 - lam^2 max(0, 2/lam_max - 1/lam)^2) on cov_ii - pred_error.

    The optimal dual point (y - X c)/lam equals y/lam_max at lam_max and
    moves at most ||y|| = sqrt(cov_ii) per unit of 1/lam.
    """
    shrunk = lam * max(0.0, 2.0 / lam_max - 1.0 / lam)
    return cov_ii * (1.0 - shrunk * shrunk)


def enumerate_lasso(
    chat: np.ndarray, bhat: np.ndarray, lam: float
) -> tuple[np.ndarray, float]:
    """Global minimizer by checking all 3^m sign patterns.

    For each pattern s the stationary point on the active set solves
    chat_AA x = bhat_A - (lam/2) s_A.  A pattern is feasible when the
    solved signs match s and its point satisfies the KKT conditions:
    the active equations and every inactive subgradient bound, within
    1e-9 of max(lam, max|chat|, max|bhat|).  The check matters for
    singular chat, where a solve on a singular active block can return
    a huge point that satisfies neither.  The optimum is the feasible
    candidate with the smallest objective; some optimum always has a
    nonsingular active block, so one is found even when chat is singular.
    """
    m = chat.shape[0]
    tol = 1e-9 * max(lam, float(np.max(np.abs(chat))), float(np.max(np.abs(bhat))))
    best_c = np.zeros(m)
    best_val = np.inf
    for pattern in product((-1.0, 0.0, 1.0), repeat=m):
        s = np.asarray(pattern)
        active = np.flatnonzero(s != 0.0)
        c = np.zeros(m)
        if active.size:
            try:
                x = np.linalg.solve(
                    chat[np.ix_(active, active)],
                    bhat[active] - 0.5 * lam * s[active],
                )
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(x)) or np.any(x * s[active] <= 0.0):
                continue
            c[active] = x
        r = chat @ c - bhat
        inactive = s == 0.0
        if np.any(np.abs(r[~inactive] + 0.5 * lam * s[~inactive]) > tol):
            continue
        if np.any(np.abs(r[inactive]) > 0.5 * lam + tol):
            continue
        val = objective(chat, bhat, lam, c)
        if val < best_val:
            best_val = val
            best_c = c
    return best_c, best_val


def minor(rp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit copies (Chat, bhat, keep) of a reduced problem's data.

    Chat is Cov with the target row and column deleted, bhat the target
    column without its target entry, and keep the indices of Cov that
    they retain, so an oracle's answer x corresponds to coef[keep].
    """
    keep = np.flatnonzero(np.arange(rp.n) != rp.target)
    full = rp.cov.data
    return full[np.ix_(keep, keep)].copy(), full[keep, rp.target].copy(), keep


def homotopy(rp, lams: np.ndarray, kink_cap: int) -> list[tuple[np.ndarray, int]]:
    """The lasso walk and its grid reader in one loop: (coef, kinks) per penalty.

    ``solver._homotopy`` as it was before the walk became a generator,
    with the kink budget kink_cap * m passed in.  The split must return
    the same coefficient bytes and kink counts.
    """
    cov = rp.cov.data
    bhat = rp.bhat
    n = rp.n
    mus = 0.5 * lams
    schur_tol = rp.m * np.finfo(np.float64).eps
    budget = kink_cap * rp.m
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


def screen_loop(rp, lam: float) -> tuple[set, set, list]:
    """``analysis.screen``'s rule one category at a time, in scalar arithmetic.

    Returns (certified, heuristic, rows) with rows (index, ratio,
    threshold) for every category but the target.  The arithmetic is the
    same as the vectorized rule's, so results must match bitwise.
    """
    bhat = rp.bhat
    binf = float(np.max(np.abs(bhat)))
    lmax = 2.0 * binf
    step = abs(1.0 / lam - 1.0 / lmax)
    certified, heuristic, rows = set(), set(), []
    for j in range(rp.n):
        if j == rp.target:
            continue
        ratio = abs(float(bhat[j])) / binf
        rate = float(np.sqrt(rp.cov.data[j, j] * rp.cov_ii))
        threshold = 1.0 - 2.0 * rate * step
        if ratio < threshold - 1e-12 * max(1.0, abs(threshold)):
            certified.add(j)
        if abs(float(bhat[j])) < 0.5 * lam:
            heuristic.add(j)
        rows.append((j, ratio, threshold))
    return certified, heuristic, rows


def determinant_error(mat: np.ndarray, target: int) -> float:
    """Zero-penalty error det(Cov) / det(minor) = 1 / (Cov^-1)_ii via slogdet.

    The minor is Cov with row and column ``target`` deleted; the ratio is
    taken as exp(slogdet(Cov) - slogdet(minor)), so it is independent of
    both the LU and the eigenvector route of ``redundancy``.
    """
    mat = np.asarray(mat, dtype=np.float64)
    keep = np.arange(mat.shape[0]) != target
    sign_full, log_full = np.linalg.slogdet(mat)
    sign_minor, log_minor = np.linalg.slogdet(mat[np.ix_(keep, keep)])
    assert sign_full > 0 and sign_minor > 0, "determinant oracle needs SPD input"
    return float(np.exp(log_full - log_minor))


def second_moment_exact(data: np.ndarray) -> np.ndarray:
    """Correctly rounded E[f f^T]: every product and sum in exact rationals."""
    rows = [[Fraction(float(v)) for v in row] for row in np.asarray(data)]
    n = len(rows[0])
    out = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            total = sum(row[i] * row[j] for row in rows) / len(rows)
            out[i, j] = out[j, i] = float(total)
    return out


def second_moment_bound(data: np.ndarray, block_rows: int) -> np.ndarray:
    """Entrywise error bound of a blocked sum of outer products, as a mean.

    Blocks of at most ``block_rows`` products summed plainly, then
    ceil(N / block_rows) block sums summed plainly (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 4.2): gamma_k with
    k = block_rows + ceil(N / block_rows), plus 4u for the division by N
    and the symmetrization, times (|X|^T |X|) / N.
    """
    x = np.abs(np.asarray(data, dtype=np.float64))
    u = 2.0**-53
    k = block_rows + -(-len(x) // block_rows)
    return (k * u / (1 - k * u) + 4 * u) * (x.T @ x / len(x))


def spd_matrix(rng: np.random.Generator, n: int, cond: float = 100.0, scale: float = 1.0) -> np.ndarray:
    """Random SPD matrix with prescribed condition number and scale."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = np.geomspace(1.0, 1.0 / cond, n) * scale
    return (q * eigs) @ q.T


def psd_by_band(mat: np.ndarray, band_rel: float) -> bool:
    """The eigenvalue band rule: lambda_min(mat) >= -band_rel * max|mat|."""
    return float(np.linalg.eigvalsh(mat)[0]) >= -band_rel * float(np.max(np.abs(mat)))


def dense_floored_root(sym: np.ndarray, rel: float) -> np.ndarray:
    """Dense symmetric root Q diag(sqrt(max(vals, rel * top))) Q^T.

    The m x m matrix the package never forms: eigenvalues below ``rel``
    times the largest are lifted to that floor before the square root.
    """
    vals, vecs = np.linalg.eigh(np.asarray(sym, dtype=np.float64))
    floor = rel * max(float(vals.max()), 0.0)
    return (vecs * np.sqrt(np.maximum(vals, floor))) @ vecs.T


def root_form_gap(
    chat: np.ndarray, bhat: np.ndarray, lam: float, c: np.ndarray, rel: float = 0.0
) -> float:
    """Duality gap through the symmetric root R of chat (floored at ``rel``).

    The lasso is posed with design R and response R^+ bhat: the dual
    candidate xi = sqrt(2) (R^+ bhat - R c) / lam is scaled into the box
    ||R xi||_inf <= sqrt(2)/2 and the gap is J(c) + (lam^2/2) ||shift||^2
    with shift = s xi - sqrt(2) R^+ bhat / lam.  Its squared response
    norm is bhat^T chat^+ bhat where the Gram form uses cov_ii.  R^+
    drops singular values below 1e-6 of the largest (eigenvalues of chat
    below 1e-12 of the largest), so roundoff in a singular chat's null
    space is not amplified.
    """
    root = dense_floored_root(chat, rel)
    pulled = np.linalg.pinv(root, rcond=1e-6) @ bhat
    sqrt2 = np.sqrt(2.0)
    xi = sqrt2 * (pulled - root @ c) / lam
    inf_norm = float(np.max(np.abs(root @ xi)))
    scale = 1.0 if inf_norm <= sqrt2 / 2.0 else (sqrt2 / 2.0) / inf_norm
    shift = xi * scale - sqrt2 * pulled / lam
    return objective(chat, bhat, lam, c) + 0.5 * lam * lam * float(shift @ shift)


def reference_normals(seed: int, count: int) -> np.ndarray:
    """Scalar-loop Marsaglia polar on a scalar-loop SplitMix64 stream.

    Mirrors the documented generation algorithm step for step; used to
    pin the vectorized implementation bit for bit.
    """
    mask = (1 << 64) - 1
    gamma = 0x9E3779B97F4A7C15
    state = seed & mask

    def next_unit() -> float:
        nonlocal state
        state = (state + gamma) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        return (z >> 11) * 2.0**-53

    out = []
    while len(out) < count:
        u = 2.0 * next_unit() - 1.0
        v = 2.0 * next_unit() - 1.0
        s = u * u + v * v
        if s >= 1.0 or s == 0.0:
            continue
        m = np.sqrt(-2.0 * np.log(s) / s)
        out.append(u * m)
        out.append(v * m)
    return np.asarray(out[:count])


def dense_extension_loss_grad(
    base_data: np.ndarray, labels: np.ndarray, theta: np.ndarray
) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy of [f, f Theta] over the whole stacked row.

    Builds the N x (n1 + n2) logits and normalizes every column each
    call, the plain formula the split base/new normalizer must match.
    """
    n1 = base_data.shape[1]
    n2 = theta.shape[1]
    z = np.hstack([base_data, base_data @ theta]) if n2 else base_data
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(z.shape[0])
    loss = float(np.mean(log_norm[:, 0] - shifted[rows, labels]))
    if n2 == 0:
        return loss, np.zeros((n1, 0))
    resp = np.exp(shifted[:, n1:] - log_norm)
    new_mask = labels >= n1
    resp[rows[new_mask], labels[new_mask] - n1] -= 1.0
    grad = base_data.T @ resp / base_data.shape[0]
    return loss, grad


def armijo_extension_fit(
    base_data: np.ndarray, labels: np.ndarray, n2: int, epochs: int
) -> tuple[np.ndarray, list[float]]:
    """Armijo backtracking on the dense loss: Theta and the loss at every iterate.

    The first try is 2N/||f||_F^2; a try t is accepted once the loss
    falls by t ||g||^2 / 2, else halved; a first-try acceptance starts
    the next epoch from 1.5 t.
    """
    theta = np.zeros((base_data.shape[1], n2))
    loss, grad = dense_extension_loss_grad(base_data, labels, theta)
    losses = [loss]
    step = 2.0 * base_data.shape[0] / float(np.sum(base_data**2))
    for _ in range(epochs):
        sq = float(np.sum(grad**2))
        halvings = 0
        while True:
            trial = theta - step * grad
            trial_loss, trial_grad = dense_extension_loss_grad(base_data, labels, trial)
            if trial_loss <= loss - step * sq / 2.0:
                break
            step /= 2.0
            halvings += 1
        theta, loss, grad = trial, trial_loss, trial_grad
        losses.append(loss)
        if halvings == 0:
            step *= 1.5
    return theta, losses


def replace_logit(data: np.ndarray, target: int, theta: np.ndarray) -> np.ndarray:
    """Copy of ``data`` with the target column set to sum_{j != target} theta_j f_j."""
    weights = np.array(theta, dtype=np.float64)
    weights[target] = 0.0
    out = np.array(data, dtype=np.float64)
    out[:, target] = out @ weights
    return out
