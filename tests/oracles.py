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
    full = rp.cov.mat.data
    return full[np.ix_(keep, keep)].copy(), full[keep, rp.target].copy(), keep


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


def spd_matrix(rng: np.random.Generator, n: int, cond: float = 100.0, scale: float = 1.0) -> np.ndarray:
    """Random SPD matrix with prescribed condition number and scale."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = np.geomspace(1.0, 1.0 / cond, n) * scale
    return (q * eigs) @ q.T


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
