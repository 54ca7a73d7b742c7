import numpy as np
import pytest
from numpy.testing import assert_allclose

from covlasso import CovMatrix, InvalidMatrix, SingularMatrix, eigenvalues, log_det


class TestCovMatrix:
    def test_symmetrizes_input(self):
        s = CovMatrix([[1.0, 0.2], [0.4, 1.0]], 1)
        assert_allclose(s.data, [[1.0, 0.3], [0.3, 1.0]])

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


class TestLogDet:
    def test_diagonal(self):
        vals = eigenvalues(np.diag([2.0, 3.0]))
        assert_allclose(log_det(vals), np.log(6.0), rtol=1e-14)

    def test_block_example(self):
        s = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert_allclose(log_det(eigenvalues(s)), np.log(0.19), rtol=1e-12)

    def test_zero_eigenvalue_raises_without_floor(self):
        vals = eigenvalues(np.ones((2, 2)))
        with pytest.raises(SingularMatrix):
            log_det(vals)
        assert np.isfinite(log_det(vals, floor=1e-12))

    def test_minor_identity(self, rng):
        # det(S) = det(minor_i) / (S^{-1})_ii for every index i.
        from oracles import spd_matrix

        for _ in range(10):
            n = int(rng.integers(2, 9))
            s = spd_matrix(rng, n, cond=1e3)
            full = log_det(eigenvalues(s))
            inv = np.linalg.inv(s)
            for i in range(n):
                keep = np.arange(n) != i
                minor = log_det(eigenvalues(s[np.ix_(keep, keep)]))
                assert_allclose(
                    full, minor + np.log(1.0 / inv[i, i]), rtol=1e-6
                )

    def test_negative_floor_rejected(self):
        vals = eigenvalues(np.eye(2))
        with pytest.raises(InvalidMatrix):
            log_det(vals, -1e-12)
