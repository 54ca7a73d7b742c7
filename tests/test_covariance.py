import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from covlasso import (
    DimMismatch,
    DimTooSmall,
    EmptyAccumulator,
    InvalidInput,
    InvalidLabels,
    LogitMatrix,
    OutOfRange,
    accumulate,
    cross_covariance,
    finalize,
    merge,
    new_accumulator,
    reduce_problem,
)
from covlasso.covariance import BLOCK_ROWS
from oracles import second_moment_exact

U = 2.0**-53
# Block sums are plain dot products of up to BLOCK_ROWS terms; the rest
# (compensated cross-block sum, division by N, symmetrization) adds a
# few units of roundoff.
GAMMA_BLOCK = BLOCK_ROWS * U / (1 - BLOCK_ROWS * U)
# Straddles block edges: spans several blocks and ends mid-block.
LONG = 3 * BLOCK_ROWS + 17


def assert_same_state(a, b):
    assert a.count == b.count
    assert_array_equal(a.sums, b.sums)
    assert_array_equal(a.comp, b.comp)
    tail = a.count % BLOCK_ROWS
    assert_array_equal(a.pending[:tail], b.pending[:tail])
    assert_array_equal(finalize(a).mat.data, finalize(b).mat.data)


def within_block_bound(got, data):
    absmom = np.abs(data).T @ np.abs(data) / len(data)
    return np.abs(got - second_moment_exact(data)) <= (GAMMA_BLOCK + 4 * U) * absmom


class TestLogitMatrix:
    def test_basic(self):
        m = LogitMatrix([[1.0, 2.0]], labels=[1], names=("a", "b"))
        assert m.samples == 1 and m.n == 2
        assert m.labels.tolist() == [1]

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            LogitMatrix([[np.inf, 0.0]])

    def test_rejects_bad_labels(self):
        with pytest.raises(InvalidLabels):
            LogitMatrix([[1.0, 2.0]], labels=[2])
        with pytest.raises(InvalidLabels):
            LogitMatrix([[1.0, 2.0]], labels=[-1])
        with pytest.raises(InvalidLabels):
            LogitMatrix([[1.0, 2.0]], labels=[0, 1])

    def test_rejects_bad_names(self):
        with pytest.raises(InvalidInput):
            LogitMatrix([[1.0, 2.0]], names=("only",))


class TestAccumulate:
    def test_single_row_outer_product(self):
        acc = accumulate(new_accumulator(2), LogitMatrix([[1.0, 2.0]]))
        assert_array_equal(finalize(acc).mat.data, [[1.0, 2.0], [2.0, 4.0]])
        assert acc.count == 1

    def test_finalize_means(self):
        acc = new_accumulator(2)
        accumulate(acc, LogitMatrix([[1.0, 0.0], [0.0, 1.0]]))
        cov = finalize(acc)
        assert_allclose(cov.mat.data, [[0.5, 0.0], [0.0, 0.5]])
        assert cov.sample_count == 2

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            accumulate(new_accumulator(3), LogitMatrix([[1.0, 2.0]]))

    def test_empty_finalize(self):
        with pytest.raises(EmptyAccumulator):
            finalize(new_accumulator(2))

    def test_batch_partition_is_bitwise_invariant(self, rng):
        # Cuts inside one block, and cuts that straddle block edges of a
        # stream spanning several blocks and ending mid-block.
        for rows, cuts in [
            (101, np.cumsum([8] * 12)),
            (LONG, [1, 255, 256, 257, 300, 511, 513, 768, 780]),
            (LONG, [BLOCK_ROWS, 2 * BLOCK_ROWS, 3 * BLOCK_ROWS]),
        ]:
            data = rng.normal(size=(rows, 7)) * rng.lognormal(0, 2, size=(rows, 7))
            whole = accumulate(new_accumulator(7), LogitMatrix(data))
            parts = new_accumulator(7)
            for chunk in np.split(data, cuts, axis=0):
                accumulate(parts, LogitMatrix(chunk))
            assert_same_state(whole, parts)

    def test_finalize_is_idempotent(self, rng):
        data = rng.normal(size=(LONG, 5)) * 1e3
        acc = accumulate(new_accumulator(5), LogitMatrix(data))
        snapshot = (acc.count, acc.sums.copy(), acc.comp.copy(), acc.pending.copy())
        first = finalize(acc).mat.data
        assert_array_equal(finalize(acc).mat.data, first)
        assert acc.count == snapshot[0]
        assert_array_equal(acc.sums, snapshot[1])
        assert_array_equal(acc.comp, snapshot[2])
        assert_array_equal(acc.pending, snapshot[3])

    @pytest.mark.parametrize("split", [17, BLOCK_ROWS, 300])
    def test_accumulate_after_finalize(self, rng, split):
        data = rng.normal(size=(LONG, 5)) * 1e3
        whole = accumulate(new_accumulator(5), LogitMatrix(data))
        acc = accumulate(new_accumulator(5), LogitMatrix(data[:split]))
        finalize(acc)
        accumulate(acc, LogitMatrix(data[split:]))
        assert_same_state(whole, acc)

    def test_within_block_bound_of_exact_mean(self, rng):
        # Sign-flipped copies of wide-range rows cancel the off-diagonal
        # sums, so the result is far below the |X|^T|X| scale the
        # bound is stated in.
        base = rng.normal(size=(400, 4)) * rng.lognormal(0, 3, size=(400, 4)) * 1e6
        flipped = base * np.array([1.0, -1.0, 1.0, -1.0])
        data = np.vstack([base, flipped, rng.normal(size=(18, 4))])
        data = data[rng.permutation(len(data))]
        cov = finalize(accumulate(new_accumulator(4), LogitMatrix(data)))
        absmom = np.abs(data).T @ np.abs(data) / len(data)
        assert np.abs(second_moment_exact(data)[0, 1]) < 1e-6 * absmom[0, 1]
        assert within_block_bound(cov.mat.data, data).all()

    def test_compensation_beats_naive_summation(self, rng):
        # Alternating huge/tiny rows; the compensated mean must match a
        # high-precision reference much more closely than float64 ulp noise.
        big = rng.normal(size=(500, 2)) * 1e9
        small = rng.normal(size=(500, 2))
        data = np.empty((1000, 2))
        data[0::2] = big
        data[1::2] = small
        acc = accumulate(new_accumulator(2), LogitMatrix(data))
        cov = finalize(acc)
        exact = np.zeros((2, 2), dtype=np.longdouble)
        for row in data.astype(np.longdouble):
            exact += np.outer(row, row)
        exact /= len(data)
        assert_allclose(cov.mat.data, exact.astype(np.float64), rtol=1e-14)

    def test_compensation_carries_across_blocks(self):
        # Each block sums exactly, but 2^68 + 256 rounds to 2^68; only
        # the compensation term keeps the 256 that survives when the
        # third block cancels the first.
        big, one = 2.0**30, 1.0
        data = np.vstack([
            np.full((BLOCK_ROWS, 2), big),
            np.full((BLOCK_ROWS, 2), one),
            np.tile([big, -big], (BLOCK_ROWS, 1)),
        ])
        cov = finalize(accumulate(new_accumulator(2), LogitMatrix(data)))
        assert cov.mat.data[0, 1] == second_moment_exact(data)[0, 1] == 1.0 / 3.0

    def test_finalize_is_psd(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 9))
            data = rng.normal(size=(int(rng.integers(1, 40)), n))
            cov = finalize(accumulate(new_accumulator(n), LogitMatrix(data)))
            vals = np.linalg.eigvalsh(cov.mat.data)
            assert vals[0] >= -1e-8 * max(vals[-1], 1e-300)


class TestMerge:
    def test_merge_equals_sequential_on_exact_data(self, rng):
        # Values exactly representable in float64 keep compensation at
        # zero, so merge must agree bitwise with one-stream accumulation.
        a_rows = LogitMatrix([[1.0, 2.0], [3.0, 4.0]])
        b_rows = LogitMatrix([[5.0, 6.0], [7.0, 8.0]])
        seq = accumulate(new_accumulator(2), a_rows)
        accumulate(seq, b_rows)
        left = accumulate(new_accumulator(2), a_rows)
        right = accumulate(new_accumulator(2), b_rows)
        assert_same_state(merge(left, right), seq)

        data = rng.integers(-8, 9, size=(LONG, 3)).astype(float)
        seq = accumulate(new_accumulator(3), LogitMatrix(data))
        for split in [77, BLOCK_ROWS, 300, 2 * BLOCK_ROWS, 700]:
            left = accumulate(new_accumulator(3), LogitMatrix(data[:split]))
            right = accumulate(new_accumulator(3), LogitMatrix(data[split:]))
            merged = merge(left, right)
            assert merged.count == seq.count
            assert_array_equal(finalize(merged).mat.data, finalize(seq).mat.data)
            if split % BLOCK_ROWS == 0:
                # A block-aligned left part leaves the right part's
                # samples in the same blocks as in one stream.
                assert_same_state(merged, seq)

    def test_merge_close_on_random_data(self, rng):
        # The reference is exact and independent of the accumulator, so
        # a merge that dropped samples cannot pass by matching itself.
        for sizes in [(77, 123), (300, 600), (5, 700)]:
            data = rng.normal(size=(sum(sizes), 5)) * 1e6
            seq = finalize(accumulate(new_accumulator(5), LogitMatrix(data)))
            left = accumulate(new_accumulator(5), LogitMatrix(data[: sizes[0]]))
            right = accumulate(new_accumulator(5), LogitMatrix(data[sizes[0] :]))
            both = finalize(merge(left, right))
            assert both.sample_count == seq.sample_count == len(data)
            assert within_block_bound(both.mat.data, data).all()
            assert within_block_bound(seq.mat.data, data).all()

    def test_merge_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            merge(new_accumulator(2), new_accumulator(3))


class TestCrossCovariance:
    def test_same_matrix_is_bitwise_plain_covariance(self, rng):
        data = rng.normal(size=(31, 4))
        f = LogitMatrix(data)
        plain = finalize(accumulate(new_accumulator(4), f))
        crossed = cross_covariance(f, f, 2)
        assert np.array_equal(plain.mat.data, crossed.mat.data)

    def test_target_column_swapped(self):
        f = LogitMatrix([[1.0, 2.0]])
        g = LogitMatrix([[3.0, 4.0]])
        cov = cross_covariance(f, g, 0)
        assert_allclose(cov.mat.data, [[9.0, 6.0], [6.0, 4.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            cross_covariance(LogitMatrix([[1.0, 2.0]]), LogitMatrix([[1.0, 2.0], [3.0, 4.0]]), 0)

    def test_target_out_of_range(self):
        f = LogitMatrix([[1.0, 2.0]])
        with pytest.raises(OutOfRange):
            cross_covariance(f, f, 2)


class TestReduce:
    def _cov(self, mat):
        from covlasso import CovMatrix, SymmetricMatrix

        return CovMatrix(SymmetricMatrix(mat), 10)

    def test_worked_example(self):
        cov = self._cov([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
        rp = reduce_problem(cov, 0)
        assert rp.cov is cov
        assert_allclose(rp.bhat, [0.0, 0.9, 0.0])
        assert rp.cov_ii == 1.0
        assert rp.m == 2 and rp.n == 3

    def test_middle_target_index_map(self):
        cov = self._cov(np.arange(1, 10).reshape(3, 3).astype(float))
        rp = reduce_problem(cov, 1)
        sym = cov.mat.data
        assert rp.cov is cov and rp.target == 1
        assert_array_equal(rp.bhat, [sym[0, 1], 0.0, sym[2, 1]])
        assert rp.cov_ii == sym[1, 1]
        assert not rp.bhat.flags.writeable

    def test_views_cov_instead_of_copying_the_minor(self):
        n = 400
        cov = self._cov(np.eye(n))
        tracemalloc.start()
        try:
            reduce_problem(cov, n // 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * n

    def test_too_small(self):
        with pytest.raises(DimTooSmall):
            reduce_problem(self._cov([[2.0]]), 0)

    def test_target_out_of_range(self):
        with pytest.raises(OutOfRange):
            reduce_problem(self._cov(np.eye(2)), 5)
