import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from covlasso import (
    CovAccumulator,
    CovMatrix,
    InvalidInput,
    LogitMatrix,
    accumulate,
    cross_covariance,
    finalize,
    reduce_problem,
)
from covlasso.covariance import BLOCK_ROWS
from conftest import raises_exact
from oracles import second_moment_bound, second_moment_exact

# Straddles block edges: spans several blocks and ends mid-block.
LONG = 3 * BLOCK_ROWS + 17


def assert_same_state(a, b):
    assert a.count == b.count
    assert_array_equal(a.sums, b.sums)
    tail = a.count % BLOCK_ROWS
    assert_array_equal(a.pending[:tail], b.pending[:tail])
    assert_array_equal(finalize(a).data, finalize(b).data)


def within_block_bound(got, data):
    # Plain sums within and across blocks: the bound grows with N.
    err = np.abs(got - second_moment_exact(data))
    return err <= second_moment_bound(data, BLOCK_ROWS)


class TestLogitMatrix:
    def test_basic(self):
        m = LogitMatrix([[1.0, 2.0]], labels=[1], names=("a", "b"))
        assert m.samples == 1 and m.n == 2
        assert m.labels.tolist() == [1]

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            LogitMatrix([[np.inf, 0.0]])
        for bad in (np.nan, -np.inf):
            data = np.ones((3, 4))
            data[1, 2] = bad
            with raises_exact(InvalidInput, "logit data has non-finite entries"):
                LogitMatrix(data)

    def test_finiteness_scan_allocates_no_mask(self):
        # A float64 array already in the stored layout is not copied, and
        # the scan needs no N x n boolean temporary.
        samples, n = 2000, 200
        data = np.random.default_rng(0).standard_normal((samples, n))
        tracemalloc.start()
        try:
            LogitMatrix(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < samples * n / 4, peak

    def test_never_freezes_the_callers_array(self):
        # The input is held uncopied, through a read-only view.
        data = np.zeros((3, 2))
        m = LogitMatrix(data)
        assert np.shares_memory(m.data, data) and not m.data.flags.writeable
        data[0, 0] = 1.0
        assert m.data[0, 0] == 1.0

    def test_rejects_bad_labels(self):
        with raises_exact(InvalidInput, "labels must lie in [0, 2), got range [2, 2]"):
            LogitMatrix([[1.0, 2.0]], labels=[2])
        expect = "labels must lie in [0, 2), got range [-1, -1]"
        with raises_exact(InvalidInput, expect):
            LogitMatrix([[1.0, 2.0]], labels=[-1])
        expect = "labels shape (2,) does not match sample count 1"
        with raises_exact(InvalidInput, expect):
            LogitMatrix([[1.0, 2.0]], labels=[0, 1])

    def test_rejects_bad_names(self):
        with pytest.raises(InvalidInput):
            LogitMatrix([[1.0, 2.0]], names=("only",))
        with raises_exact(InvalidInput, "repeated name 'b': categories 1 and 2"):
            LogitMatrix([[1.0, 2.0, 3.0]], names=("a", "b", "b"))


class TestCovMatrix:
    def test_symmetrizes_input(self, rng):
        s = CovMatrix([[1.0, 0.2], [0.4, 1.0]], 1)
        assert_allclose(s.data, [[1.0, 0.3], [0.3, 1.0]])
        # Bitwise the plain average (M + M.T) / 2 over the normal range.
        for _ in range(20):
            n = int(rng.integers(1, 12))
            m = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-50, 50)
            assert np.array_equal(CovMatrix(m, 1).data, (m + m.T) / 2.0)

    def test_rejects_non_finite(self):
        for bad in ([[1.0, np.nan], [np.nan, 1.0]], [[1.0, np.inf], [np.inf, 1.0]], [[-np.inf]]):
            with raises_exact(InvalidInput, "matrix has non-finite entries"):
                CovMatrix(bad, 1)

    def test_rejects_non_square(self):
        with raises_exact(InvalidInput, "expected a square matrix, got shape (2, 3)"):
            CovMatrix(np.ones((2, 3)), 1)

    def test_rejects_sample_count_below_one(self):
        # The NDCV format needs a positive count: 0 used to write a file
        # read_cov rejects, and -1 made write_cov raise struct.error.
        for count in (0, -1):
            expect = f"sample count must be positive, got {count}"
            with raises_exact(InvalidInput, expect):
                CovMatrix(np.eye(2), count)

    def test_data_is_immutable(self):
        s = CovMatrix(np.eye(2), 1)
        with pytest.raises(ValueError):
            s.data[0, 0] = 5.0

    def test_keeps_finite_input_finite(self):
        # Averaging as M / 2 + M.T / 2 cannot overflow: (M + M.T) / 2 made
        # a finite 1e308 diagonal inf.
        big = np.array([[1e308, 1.5e308], [1.7e308, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = CovMatrix([[1e308, 0.0], [0.0, 1.0]], 3).data
            averaged = CovMatrix(big, 3).data
        assert exact.tolist() == [[1e308, 0.0], [0.0, 1.0]]
        assert averaged.tolist() == [[1e308, 1.6e308], [1.6e308, 1.0]]

    def test_copies_and_never_freezes_the_input(self):
        mat = np.eye(2)
        s = CovMatrix(mat, 1)
        assert mat.flags.writeable
        mat[0, 0] = 5.0
        assert s.data[0, 0] == 1.0


class TestAccumulate:
    def test_single_row_outer_product(self):
        acc = accumulate(CovAccumulator(2), LogitMatrix([[1.0, 2.0]]))
        assert_array_equal(finalize(acc).data, [[1.0, 2.0], [2.0, 4.0]])
        assert acc.count == 1

    def test_finalize_means(self):
        acc = CovAccumulator(2)
        accumulate(acc, LogitMatrix([[1.0, 0.0], [0.0, 1.0]]))
        cov = finalize(acc)
        assert_allclose(cov.data, [[0.5, 0.0], [0.0, 0.5]])
        assert cov.sample_count == 2

    def test_dim_mismatch(self):
        expect = "batch has 2 categories, accumulator expects 3"
        with raises_exact(InvalidInput, expect):
            accumulate(CovAccumulator(3), LogitMatrix([[1.0, 2.0]]))

    def test_empty_finalize(self):
        with raises_exact(InvalidInput, "no samples accumulated"):
            finalize(CovAccumulator(2))

    def test_batch_partition_is_bitwise_invariant(self, rng):
        # Cuts inside one block, and cuts that straddle block edges of a
        # stream spanning several blocks and ending mid-block.
        for rows, cuts in [
            (101, np.cumsum([8] * 12)),
            (LONG, [1, 255, 256, 257, 300, 511, 513, 768, 780]),
            (LONG, [BLOCK_ROWS, 2 * BLOCK_ROWS, 3 * BLOCK_ROWS]),
        ]:
            data = rng.normal(size=(rows, 7)) * rng.lognormal(0, 2, size=(rows, 7))
            whole = accumulate(CovAccumulator(7), LogitMatrix(data))
            parts = CovAccumulator(7)
            for chunk in np.split(data, cuts, axis=0):
                accumulate(parts, LogitMatrix(chunk))
            assert_same_state(whole, parts)

    def test_finalize_is_idempotent(self, rng):
        data = rng.normal(size=(LONG, 5)) * 1e3
        acc = accumulate(CovAccumulator(5), LogitMatrix(data))
        snapshot = (acc.count, acc.sums.copy(), acc.pending.copy())
        first = finalize(acc).data
        assert_array_equal(finalize(acc).data, first)
        assert acc.count == snapshot[0]
        assert_array_equal(acc.sums, snapshot[1])
        assert_array_equal(acc.pending, snapshot[2])

    @pytest.mark.parametrize("split", [17, BLOCK_ROWS, 300])
    def test_accumulate_after_finalize(self, rng, split):
        data = rng.normal(size=(LONG, 5)) * 1e3
        whole = accumulate(CovAccumulator(5), LogitMatrix(data))
        acc = accumulate(CovAccumulator(5), LogitMatrix(data[:split]))
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
        cov = finalize(accumulate(CovAccumulator(4), LogitMatrix(data)))
        absmom = np.abs(data).T @ np.abs(data) / len(data)
        assert np.abs(second_moment_exact(data)[0, 1]) < 1e-6 * absmom[0, 1]
        assert within_block_bound(cov.data, data).all()

    def test_plain_blocked_sum_within_bound(self, rng):
        # Alternating huge/tiny rows, and a stream whose third block
        # cancels the first: 2^68 + 256 rounds to 2^68 across blocks, so
        # the mean comes out 0.0 where the exact one is 1/3.  Both stay
        # inside the gamma_{256 + ceil(N/256)} bound.
        mixed = np.empty((1000, 2))
        mixed[0::2] = rng.normal(size=(500, 2)) * 1e9
        mixed[1::2] = rng.normal(size=(500, 2))
        big = 2.0**30
        cancelling = np.vstack([
            np.full((BLOCK_ROWS, 2), big),
            np.full((BLOCK_ROWS, 2), 1.0),
            np.tile([big, -big], (BLOCK_ROWS, 1)),
        ])
        for data in (mixed, cancelling):
            got = finalize(accumulate(CovAccumulator(2), LogitMatrix(data))).data
            assert within_block_bound(got, data).all()
        assert got[0, 1] == 0.0  # the cancelling stream, checked last
        assert second_moment_exact(cancelling)[0, 1] == 1.0 / 3.0

    def test_finalize_is_psd(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 9))
            data = rng.normal(size=(int(rng.integers(1, 40)), n))
            cov = finalize(accumulate(CovAccumulator(n), LogitMatrix(data)))
            vals = np.linalg.eigvalsh(cov.data)
            assert vals[0] >= -1e-8 * max(vals[-1], 1e-300)


class TestCrossCovariance:
    def test_same_matrix_is_bitwise_plain_covariance(self, rng):
        data = rng.normal(size=(31, 4))
        f = LogitMatrix(data)
        plain = finalize(accumulate(CovAccumulator(4), f))
        crossed = cross_covariance(f, f, 2)
        assert np.array_equal(plain.data, crossed.data)

    def test_target_column_swapped(self):
        f = LogitMatrix([[1.0, 2.0]])
        g = LogitMatrix([[3.0, 4.0]])
        cov = cross_covariance(f, g, 0)
        assert_allclose(cov.data, [[9.0, 6.0], [6.0, 4.0]])

    def test_shape_mismatch(self):
        expect = "logit matrices differ in shape: (1, 2) vs (2, 2)"
        with raises_exact(InvalidInput, expect):
            cross_covariance(LogitMatrix([[1.0, 2.0]]), LogitMatrix([[1.0, 2.0], [3.0, 4.0]]), 0)

    def test_target_out_of_range(self):
        f = LogitMatrix([[1.0, 2.0]])
        with raises_exact(InvalidInput, "target 2 outside [0, 2)"):
            cross_covariance(f, f, 2)


class TestReduce:
    def _cov(self, mat):
        from covlasso import CovMatrix

        return CovMatrix(mat, 10)

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
        sym = cov.data
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
        with raises_exact(
            InvalidInput, "need at least two categories to form a reduced problem"
        ):
            reduce_problem(self._cov([[2.0]]), 0)

    def test_target_out_of_range(self):
        with raises_exact(InvalidInput, "target 5 outside [0, 2)"):
            reduce_problem(self._cov(np.eye(2)), 5)
