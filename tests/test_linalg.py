import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covlasso import CovMatrix, InvalidInput

from conftest import raises_exact


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
        with raises_exact(InvalidInput, "matrix has non-finite entries"):
            CovMatrix([[1.0, np.nan], [np.nan, 1.0]], 1)

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

