import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covlasso import CovMatrix, InvalidMatrix, eigenvalues


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
        with pytest.raises(InvalidMatrix):
            CovMatrix([[1.0, np.nan], [np.nan, 1.0]], 1)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidMatrix):
            CovMatrix(np.ones((2, 3)), 1)

    def test_rejects_sample_count_below_one(self):
        # The NDCV format needs a positive count: 0 used to write a file
        # read_cov rejects, and -1 made write_cov raise struct.error.
        for count in (0, -1):
            with pytest.raises(InvalidMatrix, match="sample count"):
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


class TestEigendecompose:
    """The spectrum conventions of ``eigenvalues``."""

    def test_identity(self):
        vals = eigenvalues(np.eye(2))
        assert_allclose(vals, [1.0, 1.0])

    def test_rank_one_all_ones(self):
        vals = eigenvalues(np.ones((2, 2)))
        assert_allclose(vals, [2.0, 0.0], atol=1e-12)

    def test_block_example(self):
        s = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert_allclose(eigenvalues(s), [1.9, 1.0, 0.1], atol=1e-12)

    def test_descending_and_equal_to_raw_spectrum(self, rng):
        # Indefinite input: no eigenvalue sits in the roundoff band, so
        # nothing is clamped and the values are eigvalsh's, reversed.
        for _ in range(25):
            n = int(rng.integers(1, 12))
            g = rng.normal(size=(n, n))
            s = (g + g.T) / 2.0
            max_abs = np.max(np.abs(s))
            vals = eigenvalues(s)
            assert np.all(np.diff(vals) <= 0.0)
            raw = np.linalg.eigvalsh(s)[::-1]
            if not np.any((raw < 0.0) & (raw >= -1e-8 * max_abs)):
                assert np.array_equal(vals, raw)
            assert_allclose(np.sum(vals), np.trace(s), atol=1e-10 * (1.0 + max_abs))

    def test_psd_clamping(self, rng):
        # Gram matrices can acquire tiny negative eigenvalues from
        # roundoff; after clamping the spectrum is nonnegative, and only
        # those roundoff negatives changed.
        clamped = 0
        for _ in range(10):
            g = rng.normal(size=(20, 8))
            s = g @ g.T  # rank 8 of 20: exact zeros expected
            vals = eigenvalues(s)
            raw = np.linalg.eigvalsh(s)[::-1]
            assert np.min(vals) >= 0.0
            assert np.min(raw) >= -1e-8 * np.max(np.abs(s))
            changed = vals != raw
            assert np.all(raw[changed] < 0.0) and np.all(vals[changed] == 0.0)
            clamped += int(changed.sum())
        assert clamped > 0
