"""Behavioral evaluation of solved dependencies and classifier extension.

Two jobs live here.  First, measuring what happens to a classifier when
one logit is replaced by its solved linear reconstruction: residual
sizes and top-1 accuracy before/after, overall and restricted to the
samples whose true label is the replaced category.  Second, fitting a
read-out matrix that expresses new categories as linear combinations of
a frozen base network's logits by minimizing softmax cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import LogitMatrix, check_labels, check_size
from .errors import Degenerate, InvalidInput


def _replaced_argmax(
    logits: LogitMatrix, target: int, theta: np.ndarray, pred_ori: np.ndarray
) -> np.ndarray:
    """Row argmax of the logits with the target column replaced, without a copy.

    The replacement is the reconstruction sum_{j != target} theta_j f_j;
    one that overflows is rejected.  Ties go to the lowest index, as in
    ``np.argmax``.  Where ``pred_ori`` is not the target it is already
    the best of the other columns; only rows it points at the target
    need an argmax that leaves the target out.
    """
    weights = theta.copy()
    weights[target] = 0.0
    new = logits.data @ weights
    if not np.all(np.isfinite(new)):
        raise InvalidInput("replaced target logit is not finite")
    best = pred_ori.copy()
    hit = np.flatnonzero(pred_ori == target)
    rows = logits.data[hit]
    rows[:, target] = -np.inf
    best[hit] = np.argmax(rows, axis=1)
    top = logits.data[np.arange(logits.samples), best]
    wins = (new > top) | ((new == top) & (target < best))
    return np.where(wins, target, best)


@dataclass(frozen=True)
class EvalMetrics:
    """Reconstruction and accuracy metrics for one replaced category.

    ``rel_err`` is a percentage: mean absolute residual over the mean
    absolute target logit.  Ties in the top-1 argmax resolve to the
    lowest index.  ``pos_acc``/``ori_pos_acc`` restrict to samples
    labeled with the target category and are None when there are none.
    """

    target: int
    samples: int
    abs_err: float
    rel_err: float
    acc: float
    ori_acc: float
    positives: int
    pos_acc: float | None
    ori_pos_acc: float | None


def evaluate(logits: LogitMatrix, target: int, theta: np.ndarray) -> EvalMetrics:
    """Score the dependency vector ``theta`` of ``target`` on labeled logits."""
    if logits.labels is None:
        raise InvalidInput("evaluation needs per-sample labels")
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (logits.n,):
        raise InvalidInput(
            f"logits have {logits.n} categories, theta has shape {theta.shape}"
        )
    if not 0 <= target < logits.n:
        raise InvalidInput(f"target {target} outside [0, {logits.n})")
    if theta[target] != -1.0:
        raise InvalidInput(f"theta must be -1 at target {target}, got {theta[target]}")
    residual = logits.data @ theta  # = reconstruction - target logit
    abs_err = float(np.mean(np.abs(residual)))
    target_scale = float(np.mean(np.abs(logits.data[:, target])))
    if target_scale <= 0.0:
        raise Degenerate("target logit is identically zero")
    rel_err = 100.0 * abs_err / target_scale

    # np.argmax copies a read-only array such as logits.data, so take the
    # first index of each row's maximum instead: for finite logits it is
    # the index np.argmax returns.
    data = logits.data
    pred_ori = (data == data.max(axis=1, keepdims=True)).argmax(axis=1)
    pred_new = _replaced_argmax(logits, target, theta, pred_ori)
    labels = logits.labels
    acc = float(np.mean(pred_new == labels))
    ori_acc = float(np.mean(pred_ori == labels))

    mask = labels == target
    positives = int(mask.sum())
    if positives:
        pos_acc = float(np.mean(pred_new[mask] == labels[mask]))
        ori_pos_acc = float(np.mean(pred_ori[mask] == labels[mask]))
    else:
        pos_acc = None
        ori_pos_acc = None
    return EvalMetrics(
        target=target,
        samples=logits.samples,
        abs_err=abs_err,
        rel_err=rel_err,
        acc=acc,
        ori_acc=ori_acc,
        positives=positives,
        pos_acc=pos_acc,
        ori_pos_acc=ori_pos_acc,
    )


# The fit stops once ||g||_inf <= GRAD_STOP_REL * max|f|: relative to the
# logit scale, so that rescaling f (and Theta inversely) stops at the same
# iterate.
GRAD_STOP_REL = 1e-6


@dataclass(frozen=True)
class ExtensionFit:
    """Fitted n1 x n2 read-out Theta, the loss at every iterate, and whether
    the gradient at Theta met the stopping rule."""

    theta: np.ndarray
    losses: tuple[float, ...]
    converged: bool

    def __post_init__(self):
        self.theta.flags.writeable = False


@dataclass(frozen=True)
class _BaseTerms:
    """Per-row softmax terms of the frozen base logits, fixed for a fit.

    ``peak`` is the row max m_b, ``mass`` the shifted base mass
    S_b = sum_j exp(f_j - m_b), and ``labelled`` the labelled logit of
    rows whose label is a base category (0 on the other rows, whose
    labelled logit is a new column and changes every epoch).
    """

    peak: np.ndarray
    mass: np.ndarray
    labelled: np.ndarray
    new_rows: np.ndarray
    new_cols: np.ndarray


def _base_terms(base_data: np.ndarray, labels: np.ndarray) -> _BaseTerms:
    """The one O(N n1) exp pass of a fit."""
    n1 = base_data.shape[1]
    peak = base_data.max(axis=1)
    mass = np.exp(base_data - peak[:, None]).sum(axis=1)
    rows = np.arange(base_data.shape[0])
    is_base = labels < n1
    labelled = np.zeros(base_data.shape[0])
    labelled[is_base] = base_data[rows[is_base], labels[is_base]]
    return _BaseTerms(peak, mass, labelled, rows[~is_base], labels[~is_base] - n1)


def _extension_loss(terms: _BaseTerms, new: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss and responsibilities R at new-column logits h = f Theta: O(N n2).

    The log normalizer is p + log(S_b exp(m_b - p) + sum_k exp(h_k - p))
    for the row peak p = max(m_b, max_k h_k).  R is the new columns'
    softmax minus the one-hot label; the Theta gradient is f^T R / N.
    """
    peak = np.maximum(terms.peak, new.max(axis=1, initial=-np.inf))
    shifted = new - peak[:, None]
    mass = terms.mass * np.exp(terms.peak - peak) + np.exp(shifted).sum(axis=1)
    log_norm = np.log(mass)
    labelled = terms.labelled.copy()
    labelled[terms.new_rows] = new[terms.new_rows, terms.new_cols]
    loss = float(np.mean(log_norm - (labelled - peak)))
    resp = np.exp(shifted - log_norm[:, None])
    resp[terms.new_rows, terms.new_cols] -= 1.0
    return loss, resp


def _armijo(
    terms: _BaseTerms, new: np.ndarray, loss: float, slope: np.ndarray, sq: float, step: float
) -> tuple[float, float, np.ndarray, float, np.ndarray]:
    """Backtrack from new-column logits h along -f g, where slope = f g.

    A try t is accepted once loss(h - t f g) <= loss - t ||g||^2/2, else
    halved.  Returns t, the next epoch's first try (1.5 t after a
    first-try acceptance, else t) and the accepted logits, loss and R.
    """
    grow = 1.5
    while True:
        trial = new - step * slope
        trial_loss, trial_resp = _extension_loss(terms, trial)
        if trial_loss <= loss - step * sq / 2.0:
            return step, grow * step, trial, trial_loss, trial_resp
        step, grow = step / 2.0, 1.0


def fit_extension(
    base: LogitMatrix, labels: np.ndarray, new_count: int, *, epochs: int = 500
) -> ExtensionFit:
    """Fit new-category read-out weights by accelerated gradient descent.

    ``labels`` may reference both base and new categories (values in
    [0, base.n + new_count)).  Theta starts at zero.  Each epoch first
    takes the gradient g at the iterate x and stops, converged, once
    ||g||_inf <= GRAD_STOP_REL max|f|; ``epochs`` caps the epoch count.
    Otherwise it takes one Armijo step (see ``_armijo``) from the
    extrapolated point y = x + beta (x - x_prev), with Nesterov's
    beta = (t_k - 1)/t_{k+1}, t_{k+1} = (1 + sqrt(1 + 4 t_k^2))/2, t_1 = 1
    (Beck & Teboulle 2009).  If the accepted point's loss exceeds loss(x),
    the momentum restarts (O'Donoghue & Candes 2015): t resets to 1 and
    the step is redone from x, where it always descends.  So the loss
    trace (one entry per iterate) never rises.  The first try is
    t = 2N/||f||_F^2 <= 1/L, for the softmax curvature bound
    L = lambda_max(f^T f)/(2N) (Boehning 1992); each epoch's search
    starts from the last one's carried step.  Steps are capped at the
    largest float64.  A non-finite initial loss or ||g||^2, or a first
    step of 0, raises Degenerate.

    Cost: one O(N n1) exp pass per fit; per epoch, three thin products
    with f (g at x and at y, and f g_y; g at y is g at x when y = x),
    one more on a restart (f g_x), and O(N n2) per try.  y is formed on
    both Theta and h = f Theta, so no product f Theta is taken.  Nothing
    N x n1 is allocated.
    """
    if new_count < 0:
        raise InvalidInput(f"new category count must be nonnegative, got {new_count}")
    check_size((base.n, new_count), (base.samples, new_count))
    lab = check_labels(labels, base.samples, base.n + new_count)
    if epochs < 0:
        raise InvalidInput(f"epoch count must be nonnegative, got {epochs}")

    f, rows = base.data, base.samples
    # An overflowing start raises Degenerate; an overflowing try is halved.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        terms = _base_terms(f, lab)
        theta, new = np.zeros((base.n, new_count)), np.zeros((rows, new_count))
        loss, resp = _extension_loss(terms, new)
        if not np.isfinite(loss):
            raise Degenerate(f"initial loss is not finite: {loss}")
        losses = [loss]
        converged = not new_count
        if new_count:
            cap = np.finfo(np.float64).max
            step = min(2.0 * rows / np.vdot(f, f), cap)
            if not step > 0.0:
                raise Degenerate(f"no positive first step: 2N/||f||_F^2 = {step}")
            stop = GRAD_STOP_REL * max(float(f.max()), -float(f.min()))
            momentum, prev_theta, prev_new = 1.0, theta, new
            for epoch in range(epochs + 1):
                grad = f.T @ resp / rows
                if np.abs(grad).max() <= stop:
                    converged = True
                    break
                if epoch == epochs:
                    break
                sq = np.vdot(grad, grad)
                if not np.isfinite(sq):
                    raise Degenerate(f"no finite step: ||g||^2 = {sq}")
                nxt = (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum)) / 2.0
                beta = (momentum - 1.0) / nxt
                at_y = theta, new, loss, grad, sq
                if beta:
                    y_new = new + beta * (new - prev_new)
                    y_loss, y_resp = _extension_loss(terms, y_new)
                    y_grad = f.T @ y_resp / rows
                    y_sq = np.vdot(y_grad, y_grad)
                    if np.isfinite(y_loss + y_sq):
                        at_y = theta + beta * (theta - prev_theta), y_new, y_loss, y_grad, y_sq
                y_theta, y_new, y_loss, y_grad, y_sq = at_y
                step, carry, trial, trial_loss, trial_resp = _armijo(
                    terms, y_new, y_loss, f @ y_grad, y_sq, step
                )
                if trial_loss > loss:  # restart from x
                    nxt, y_theta, y_grad = 1.0, theta, grad
                    step, carry, trial, trial_loss, trial_resp = _armijo(
                        terms, new, loss, f @ grad, sq, step
                    )
                prev_theta, prev_new = theta, new
                theta = y_theta - step * y_grad
                new, loss, resp = trial, trial_loss, trial_resp
                losses.append(loss)
                step, momentum = min(carry, cap), nxt
    return ExtensionFit(theta=theta, losses=tuple(losses), converged=converged)
