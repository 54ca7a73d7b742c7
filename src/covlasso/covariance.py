"""Second-moment accumulation over logit samples.

The central object is the uncentered second-moment matrix
E[f(x) f(x)^T] of per-sample logit vectors; nothing here subtracts a
mean or normalizes scales.

Samples are grouped into blocks of ``BLOCK_ROWS`` rows by their absolute
position in the stream: sample k lands in block k // BLOCK_ROWS.  Each
full block is summed by one matrix product ``blk.T @ blk`` (BLAS SYRK)
and added to a running float64 sum; the partial last block is added the
same way at finalize.  Block boundaries do not depend on how the stream
is cut into batches, so any batching of the same samples gives
bit-identical accumulator state and finalized matrix, for a given BLAS
build and thread count.

Accuracy: each entry is a plain blocked sum of N products, up to 256
per block plus ceil(N / 256) block terms (Higham, Accuracy and Stability
of Numerical Algorithms, sec. 4.2), so each entry of the finalized
matrix is within about gamma_{256 + ceil(N/256)} * (|X|^T |X|)_ij / N of
the exact mean, where gamma_k = k u / (1 - k u) and u = 2^-53.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput


def check_labels(labels, samples: int, categories: int) -> np.ndarray:
    """Validate one integer label per sample in [0, categories); return int64 labels."""
    lab = np.asarray(labels)
    if lab.shape != (samples,):
        raise InvalidInput(
            f"labels shape {lab.shape} does not match sample count {samples}"
        )
    if not np.issubdtype(lab.dtype, np.integer):
        raise InvalidInput("labels must be integers")
    lab = lab.astype(np.int64)
    if lab.min() < 0 or lab.max() >= categories:
        raise InvalidInput(
            f"labels must lie in [0, {categories}), got range [{lab.min()}, {lab.max()}]"
        )
    return lab


def check_size(*shapes: tuple[int, ...]) -> None:
    """Refuse float64 array shapes past numpy's limit of 2^63 - 1 bytes."""
    for shape in shapes:
        if math.prod(shape) >= 1 << 60:
            raise InvalidInput(f"float64 array of shape {shape} exceeds 2^63 - 1 bytes")


@dataclass(frozen=True)
class LogitMatrix:
    """N samples of n per-category logits, optionally labeled and named."""

    data: np.ndarray
    labels: np.ndarray | None = None
    names: tuple[str, ...] | None = None

    def __init__(self, data, labels=None, names=None):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise InvalidInput(f"logit data must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidInput("logit data must have at least one row and column")
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):  # NaN propagates
            raise InvalidInput("logit data has non-finite entries")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

        if labels is not None:
            labels = check_labels(labels, arr.shape[0], arr.shape[1])
            labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != arr.shape[1]:
                raise InvalidInput(
                    f"expected {arr.shape[1]} category names, got {len(names)}"
                )
            seen: dict[str, int] = {}
            for k, s in enumerate(names):
                if (j := seen.setdefault(s, k)) != k:
                    raise InvalidInput(f"repeated name {s!r}: categories {j} and {k}")
        object.__setattr__(self, "names", names)

    @property
    def samples(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


BLOCK_ROWS = 256


class CovAccumulator:
    """Running blocked sum of outer products f f^T.

    ``sums`` holds the float64 sum of the products ``blk.T @ blk`` of all
    full blocks of ``BLOCK_ROWS`` samples, added in stream order.  The
    ``count % BLOCK_ROWS`` samples of the current partial block wait in
    the leading rows of ``pending``.
    """

    __slots__ = ("n", "count", "sums", "pending")

    def __init__(self, n: int):
        if n < 1:
            raise InvalidInput("accumulator needs at least one category")
        self.n = int(n)
        self.count = 0
        self.sums = np.zeros((n, n))
        self.pending = np.zeros((BLOCK_ROWS, n))


def accumulate(acc: CovAccumulator, batch: LogitMatrix) -> CovAccumulator:
    """Fold a batch of samples into the accumulator, in order.

    Samples fill blocks by absolute stream position and every full block
    is added as one matrix product, so any partitioning of the same
    stream into batches produces bit-identical accumulator state (for a
    given BLAS build and thread count).
    """
    if batch.n != acc.n:
        raise InvalidInput(
            f"batch has {batch.n} categories, accumulator expects {acc.n}"
        )
    # Copy rows into their absolute block slots; add each block that
    # fills.  Overflow is reported by finalize, not as a warning.
    rows = batch.data
    start = 0
    while start < len(rows):
        slot = acc.count % BLOCK_ROWS
        take = min(BLOCK_ROWS - slot, len(rows) - start)
        acc.pending[slot : slot + take] = rows[start : start + take]
        acc.count += take
        start += take
        if slot + take == BLOCK_ROWS:
            with np.errstate(over="ignore", invalid="ignore"):
                acc.sums += acc.pending.T @ acc.pending
    return acc


@dataclass(frozen=True)
class CovMatrix:
    """Finalized second-moment matrix with its sample count.

    ``data`` is an immutable square float64 copy of the input.  An input
    that differs from its transpose is symmetrized as ``M / 2 + M.T / 2``
    (equal to ``(M + M.T) / 2`` in the normal range, and finite for every
    finite M), so tiny asymmetries from accumulation order cannot leak
    downstream.  ``sample_count`` must be at least 1, as the NDCV format
    requires.
    """

    data: np.ndarray
    sample_count: int

    def __init__(self, data, sample_count: int):
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidInput(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise InvalidInput("matrix must have at least one row")
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise InvalidInput("matrix has non-finite entries")
        if sample_count < 1:
            raise InvalidInput(f"sample count must be positive, got {sample_count}")
        if not np.array_equal(arr, arr.T):
            arr = arr / 2.0 + arr.T / 2.0
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "sample_count", sample_count)

    @property
    def n(self) -> int:
        return self.data.shape[0]


def finalize(acc: CovAccumulator) -> CovMatrix:
    """Mean second moment of everything accumulated so far.

    The partial block's product is added to a temporary, so the
    accumulator is left unchanged and can keep accumulating.  The result
    is within the blocked-sum bound of the module docstring.  Accumulated
    rows are finite, so a non-finite result can only be float64 overflow,
    which raises InvalidInput.
    """
    if acc.count == 0:
        raise InvalidInput("no samples accumulated")
    tail = acc.count % BLOCK_ROWS
    with np.errstate(over="ignore", invalid="ignore"):
        sums = acc.sums
        if tail:
            blk = acc.pending[:tail]
            sums = sums + blk.T @ blk
        mean = sums / acc.count
    try:
        return CovMatrix(mean, acc.count)
    except InvalidInput:
        raise InvalidInput("second moment overflows float64") from None


def cross_covariance(f: LogitMatrix, g: LogitMatrix, target: int) -> CovMatrix:
    """Second moment of f with its target column replaced by g's.

    This is the between-network variant: the mixed sample vector keeps
    every category of ``f`` except ``target``, which is taken from ``g``
    sample-for-sample.  With ``g`` equal to ``f`` the result is
    bit-identical to the plain covariance.
    """
    if f.data.shape != g.data.shape:
        raise InvalidInput(
            f"logit matrices differ in shape: {f.data.shape} vs {g.data.shape}"
        )
    if not 0 <= target < f.n:
        raise InvalidInput(f"target {target} outside [0, {f.n})")
    mixed = f.data.copy()
    mixed[:, target] = g.data[:, target]
    return finalize(accumulate(CovAccumulator(f.n), LogitMatrix(mixed)))


@dataclass(frozen=True)
class ReducedProblem:
    """One category's regression on all the others, as a view of Cov.

    For target i this keeps ``cov`` itself, Cov's column i with entry i
    set to 0 (``bhat``) and the target's own second moment ``cov_ii``.
    Coefficient vectors are indexed like Cov, with the target entry held
    at exactly 0, so Chat, the target-deleted minor, is never formed:
    every product with Cov meets a zero coefficient at the target.
    """

    cov: CovMatrix
    target: int
    bhat: np.ndarray
    cov_ii: float

    def __post_init__(self):
        self.bhat.flags.writeable = False

    @property
    def n(self) -> int:
        return self.cov.n

    @property
    def m(self) -> int:
        """Number of free (off-target) coordinates."""
        return self.n - 1


def reduce_problem(cov: CovMatrix, target: int) -> ReducedProblem:
    """The one-vs-rest regression data for ``target``, viewing ``cov``."""
    n = cov.n
    if n < 2:
        raise InvalidInput("need at least two categories to form a reduced problem")
    if not 0 <= target < n:
        raise InvalidInput(f"target {target} outside [0, {n})")
    full = cov.data
    bhat = full[:, target].copy()
    bhat[target] = 0.0
    return ReducedProblem(cov, target, bhat, float(full[target, target]))
