"""Second-moment accumulation over logit samples.

The central object is the uncentered second-moment matrix
E[f(x) f(x)^T] of per-sample logit vectors; nothing here subtracts a
mean or normalizes scales.

Samples are grouped into blocks of ``BLOCK_ROWS`` rows by their absolute
position in the stream: sample k lands in block k // BLOCK_ROWS.  Each
full block is summed by one matrix product ``blk.T @ blk`` (BLAS SYRK),
and the block sums are combined with Neumaier-compensated summation per
matrix entry.  Block boundaries do not depend on how the stream is cut
into batches, so any batching of the same samples gives bit-identical
accumulator state and finalized matrix, for a given BLAS build and
thread count.

Accuracy: within a block the sum is a plain floating-point dot product,
so each entry of the finalized matrix is within about
gamma_256 * (|X|^T |X|)_ij / N of the exact mean, where
gamma_k = k u / (1 - k u) and u = 2^-53.  Across blocks the compensated
sum adds only O(u) relative to the result.  Merging partial
accumulators keeps every sample and agrees with sequential accumulation
to the same bound (exactly, on roundoff-free data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatch,
    DimTooSmall,
    EmptyAccumulator,
    InvalidInput,
    InvalidLabels,
    OutOfRange,
)
from .linalg import SymmetricMatrix


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
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("logit data has non-finite entries")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

        if labels is not None:
            lab = np.asarray(labels)
            if lab.shape != (arr.shape[0],):
                raise InvalidLabels(
                    f"labels shape {lab.shape} does not match sample count {arr.shape[0]}"
                )
            if not np.issubdtype(lab.dtype, np.integer):
                raise InvalidLabels("labels must be integers")
            lab = lab.astype(np.int64)
            if lab.min() < 0 or lab.max() >= arr.shape[1]:
                raise InvalidLabels(
                    f"labels must lie in [0, {arr.shape[1]}), got range "
                    f"[{lab.min()}, {lab.max()}]"
                )
            lab.flags.writeable = False
            labels = lab
        object.__setattr__(self, "labels", labels)

        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != arr.shape[1]:
                raise InvalidInput(
                    f"expected {arr.shape[1]} category names, got {len(names)}"
                )
        object.__setattr__(self, "names", names)

    @property
    def samples(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


BLOCK_ROWS = 256


def _neumaier(sums: np.ndarray, term: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (sums + term, rounding error of that addition) per entry."""
    # The branch keeps the low-order bits of whichever addend loses
    # precision in sums + term.
    t = sums + term
    lost = np.where(
        np.abs(sums) >= np.abs(term),
        (sums - t) + term,
        (term - t) + sums,
    )
    return t, lost


class CovAccumulator:
    """Running compensated sum of outer products f f^T.

    Keeps the Neumaier pair (sums, comp) per entry over all full blocks
    of ``BLOCK_ROWS`` samples; the block-summed value is ``sums + comp``.
    The ``count % BLOCK_ROWS`` samples of the current partial block wait
    in the leading rows of ``pending``.
    """

    __slots__ = ("n", "count", "sums", "comp", "pending")

    def __init__(self, n: int):
        if n < 1:
            raise DimTooSmall("accumulator needs at least one category")
        self.n = int(n)
        self.count = 0
        self.sums = np.zeros((n, n))
        self.comp = np.zeros((n, n))
        self.pending = np.zeros((BLOCK_ROWS, n))

    def _add_term(self, term: np.ndarray) -> None:
        self.sums, lost = _neumaier(self.sums, term)
        self.comp += lost

    def _push(self, rows: np.ndarray) -> None:
        # Copy rows into their absolute block slots; flush each block
        # that fills.
        start = 0
        while start < len(rows):
            slot = self.count % BLOCK_ROWS
            take = min(BLOCK_ROWS - slot, len(rows) - start)
            self.pending[slot : slot + take] = rows[start : start + take]
            self.count += take
            start += take
            if slot + take == BLOCK_ROWS:
                self._add_term(self.pending.T @ self.pending)


def new_accumulator(n: int) -> CovAccumulator:
    return CovAccumulator(n)


def accumulate(acc: CovAccumulator, batch: LogitMatrix) -> CovAccumulator:
    """Fold a batch of samples into the accumulator, in order.

    Samples fill blocks by absolute stream position and every full block
    is added as one matrix product, so any partitioning of the same
    stream into batches produces bit-identical accumulator state (for a
    given BLAS build and thread count).
    """
    if batch.n != acc.n:
        raise DimMismatch(
            f"batch has {batch.n} categories, accumulator expects {acc.n}"
        )
    acc._push(batch.data)
    return acc


def merge(a: CovAccumulator, b: CovAccumulator) -> CovAccumulator:
    """Combine two partial accumulators into the first one.

    The second accumulator's (sums, comp) pair is folded in through the
    same compensated update used per block, and its pending samples are
    then accumulated after the first one's.  Merge keeps every sample;
    it agrees with sequential accumulation exactly on roundoff-free data
    and to the stated accuracy bound otherwise.
    """
    if a.n != b.n:
        raise DimMismatch(f"cannot merge accumulators of order {a.n} and {b.n}")
    tail = b.count % BLOCK_ROWS
    rows = b.pending[:tail].copy()  # b may be a, whose pending rows move
    a._add_term(b.sums)
    a._add_term(b.comp)
    # A whole number of blocks keeps a's pending samples in their slots.
    a.count += b.count - tail
    a._push(rows)
    return a


@dataclass(frozen=True)
class CovMatrix:
    """Finalized second-moment matrix with its sample count."""

    mat: SymmetricMatrix
    sample_count: int

    @property
    def n(self) -> int:
        return self.mat.n


def finalize(acc: CovAccumulator) -> CovMatrix:
    """Mean second moment of everything accumulated so far.

    The partial block is folded into temporaries, so the accumulator is
    left unchanged and can keep accumulating.
    """
    if acc.count == 0:
        raise EmptyAccumulator("no samples accumulated")
    sums, comp = acc.sums, acc.comp
    tail = acc.count % BLOCK_ROWS
    if tail:
        blk = acc.pending[:tail]
        sums, lost = _neumaier(sums, blk.T @ blk)
        comp = comp + lost
    return CovMatrix(SymmetricMatrix((sums + comp) / acc.count), acc.count)


def cross_covariance(f: LogitMatrix, g: LogitMatrix, target: int) -> CovMatrix:
    """Second moment of f with its target column replaced by g's.

    This is the between-network variant: the mixed sample vector keeps
    every category of ``f`` except ``target``, which is taken from ``g``
    sample-for-sample.  With ``g`` equal to ``f`` the result is
    bit-identical to the plain covariance.
    """
    if f.data.shape != g.data.shape:
        raise DimMismatch(
            f"logit matrices differ in shape: {f.data.shape} vs {g.data.shape}"
        )
    if not 0 <= target < f.n:
        raise OutOfRange(f"target {target} outside [0, {f.n})")
    mixed = f.data.copy()
    mixed[:, target] = g.data[:, target]
    return finalize(accumulate(new_accumulator(f.n), LogitMatrix(mixed)))


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
        raise DimTooSmall("need at least two categories to form a reduced problem")
    if not 0 <= target < n:
        raise OutOfRange(f"target {target} outside [0, {n})")
    full = cov.mat.data
    bhat = full[:, target].copy()
    bhat[target] = 0.0
    return ReducedProblem(cov, target, bhat, float(full[target, target]))
