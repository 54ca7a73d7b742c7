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

from .covariance import LogitMatrix
from .errors import (
    DegenerateTarget,
    DimMismatch,
    Diverged,
    InvalidInput,
    InvalidLabels,
    MissingLabels,
)
from .solver import DependencySolution


def replace_logit(logits: LogitMatrix, solution: DependencySolution) -> LogitMatrix:
    """Swap the target column for its reconstruction from the others.

    The replacement column is sum_{j != target} theta_j f_j per sample;
    labels and names carry over unchanged.
    """
    if logits.n != solution.n:
        raise DimMismatch(
            f"logits have {logits.n} categories, solution has {solution.n}"
        )
    weights = solution.theta.copy()
    weights[solution.target] = 0.0
    data = logits.data.copy()
    data[:, solution.target] = logits.data @ weights
    return LogitMatrix(data, logits.labels, logits.names)


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


def evaluate(logits: LogitMatrix, solution: DependencySolution) -> EvalMetrics:
    """Score a dependency solution on labeled logit samples."""
    if logits.labels is None:
        raise MissingLabels("evaluation needs per-sample labels")
    if logits.n != solution.n:
        raise DimMismatch(
            f"logits have {logits.n} categories, solution has {solution.n}"
        )
    target = solution.target
    residual = logits.data @ solution.theta  # = reconstruction - target logit
    abs_err = float(np.mean(np.abs(residual)))
    target_scale = float(np.mean(np.abs(logits.data[:, target])))
    if target_scale <= 0.0:
        raise DegenerateTarget("target logit is identically zero")
    rel_err = 100.0 * abs_err / target_scale

    replaced = replace_logit(logits, solution)
    pred_new = np.argmax(replaced.data, axis=1)
    pred_ori = np.argmax(logits.data, axis=1)
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


@dataclass(frozen=True)
class ExtensionMatrix:
    """Read-out matrix mapping base logits to new-category logits."""

    base_n1: int
    new_n2: int
    theta: np.ndarray

    def __post_init__(self):
        if self.theta.shape != (self.base_n1, self.new_n2):
            raise DimMismatch(
                f"theta shape {self.theta.shape}, expected "
                f"({self.base_n1}, {self.new_n2})"
            )
        self.theta.flags.writeable = False


def extended_logits(base: LogitMatrix, ext: ExtensionMatrix) -> np.ndarray:
    """Concatenate base logits with the read-out columns [f, f Theta]."""
    if base.n != ext.base_n1:
        raise DimMismatch(
            f"base has {base.n} categories, extension expects {ext.base_n1}"
        )
    return np.hstack([base.data, base.data @ ext.theta])


@dataclass(frozen=True)
class ExtensionConfig:
    """Full-batch gradient descent settings for extension fitting."""

    step_size: float = 0.5
    epochs: int = 500


@dataclass(frozen=True)
class ExtensionFit:
    """Fitted extension plus its optimization trace."""

    matrix: ExtensionMatrix
    final_loss: float
    losses: tuple[float, ...]


def extension_loss_grad(
    base_data: np.ndarray, labels: np.ndarray, theta: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of [f, f Theta] and its Theta gradient.

    Exposed separately so the analytic gradient can be checked against
    finite differences.  The loss is convex in Theta (softmax
    cross-entropy composed with a linear map).
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


def fit_extension(
    base: LogitMatrix,
    labels: np.ndarray,
    new_count: int,
    config: ExtensionConfig = ExtensionConfig(),
) -> ExtensionFit:
    """Fit new-category read-out weights by full-batch gradient descent.

    ``labels`` may reference both base and new categories (values in
    [0, base.n + new_count)).  Theta starts at zero; each epoch applies
    one gradient step at the configured step size.  The recorded loss
    trace has one entry per iterate including the initial and final
    ones.  A non-finite loss aborts with Diverged.
    """
    if new_count < 0:
        raise InvalidInput(f"new category count must be nonnegative, got {new_count}")
    lab = np.asarray(labels)
    if lab.shape != (base.samples,):
        raise InvalidLabels(
            f"labels shape {lab.shape} does not match sample count {base.samples}"
        )
    if not np.issubdtype(lab.dtype, np.integer):
        raise InvalidLabels("labels must be integers")
    lab = lab.astype(np.int64)
    total = base.n + new_count
    if lab.min() < 0 or lab.max() >= total:
        raise InvalidLabels(
            f"labels must lie in [0, {total}), got range [{lab.min()}, {lab.max()}]"
        )
    if config.step_size <= 0.0 or not np.isfinite(config.step_size):
        raise InvalidInput(f"step size must be positive, got {config.step_size}")
    if config.epochs < 0:
        raise InvalidInput(f"epoch count must be nonnegative, got {config.epochs}")

    theta = np.zeros((base.n, new_count))
    losses: list[float] = []
    loss, grad = extension_loss_grad(base.data, lab, theta)
    if not np.isfinite(loss):
        raise Diverged(f"initial loss is not finite: {loss}")
    losses.append(loss)
    if new_count:
        for _ in range(config.epochs):
            theta = theta - config.step_size * grad
            loss, grad = extension_loss_grad(base.data, lab, theta)
            if not np.isfinite(loss):
                raise Diverged("loss became non-finite during fitting")
            losses.append(loss)
    matrix = ExtensionMatrix(base_n1=base.n, new_n2=new_count, theta=theta)
    return ExtensionFit(matrix=matrix, final_loss=losses[-1], losses=tuple(losses))
