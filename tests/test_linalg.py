import numpy as np
import pytest
from numpy.testing import assert_allclose

from covlasso import (
    InvalidMatrix,
    SingularMatrix,
    SymmetricMatrix,
    eigendecompose,
    log_det,
)
from covlasso.linalg import relative_floor


class TestSymmetricMatrix:
    def test_symmetrizes_input(self):
        s = SymmetricMatrix([[1.0, 0.2], [0.4, 1.0]])
        assert_allclose(s.data, [[1.0, 0.3], [0.3, 1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidMatrix):
            SymmetricMatrix([[1.0, np.nan], [np.nan, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(InvalidMatrix):
            SymmetricMatrix(np.ones((2, 3)))

    def test_data_is_immutable(self):
        s = SymmetricMatrix(np.eye(2))
        with pytest.raises(ValueError):
            s.data[0, 0] = 5.0


class TestEigendecompose:
    def test_identity(self):
        e = eigendecompose(SymmetricMatrix(np.eye(2)))
        assert_allclose(e.eigenvalues, [1.0, 1.0])

    def test_rank_one_all_ones(self):
        e = eigendecompose(SymmetricMatrix(np.ones((2, 2))))
        assert_allclose(e.eigenvalues, [2.0, 0.0], atol=1e-12)

    def test_block_example(self):
        s = SymmetricMatrix([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
        e = eigendecompose(s)
        assert_allclose(e.eigenvalues, [1.9, 1.0, 0.1], atol=1e-12)

    def test_descending_orthonormal_reconstruction(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 12))
            s = SymmetricMatrix(rng.normal(size=(n, n)))
            e = eigendecompose(s)
            assert np.all(np.diff(e.eigenvalues) <= 1e-12)
            q = e.eigenvectors
            assert_allclose(q.T @ q, np.eye(n), atol=1e-10)
            recon = (q * e.eigenvalues) @ q.T
            assert np.max(np.abs(recon - s.data)) <= 1e-8 * (1.0 + s.max_abs())

    def test_psd_clamping(self, rng):
        # Gram matrices can acquire tiny negative eigenvalues from
        # roundoff; after clamping the spectrum is nonnegative.
        for _ in range(10):
            g = rng.normal(size=(20, 8))
            s = SymmetricMatrix(g @ g.T)  # rank 8 of 20: exact zeros expected
            e = eigendecompose(s)
            assert np.min(e.eigenvalues) >= 0.0
            assert e.min_raw_eigenvalue >= -1e-8 * s.max_abs()


class TestLogDet:
    def test_diagonal(self):
        vals = SymmetricMatrix(np.diag([2.0, 3.0])).eigenvalues()
        assert_allclose(log_det(vals), np.log(6.0), rtol=1e-14)

    def test_block_example(self):
        s = SymmetricMatrix([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert_allclose(log_det(s.eigenvalues()), np.log(0.19), rtol=1e-12)

    def test_zero_eigenvalue_raises_without_floor(self):
        vals = SymmetricMatrix(np.ones((2, 2))).eigenvalues()
        with pytest.raises(SingularMatrix):
            log_det(vals)
        assert np.isfinite(log_det(vals, floor=1e-12))

    def test_minor_identity(self, rng):
        # det(S) = det(minor_i) / (S^{-1})_ii for every index i.
        from oracles import spd_matrix

        for _ in range(10):
            n = int(rng.integers(2, 9))
            s = spd_matrix(rng, n, cond=1e3)
            full = log_det(SymmetricMatrix(s).eigenvalues())
            inv = np.linalg.inv(s)
            for i in range(n):
                keep = np.arange(n) != i
                minor = log_det(SymmetricMatrix(s[np.ix_(keep, keep)]).eigenvalues())
                assert_allclose(
                    full, minor + np.log(1.0 / inv[i, i]), rtol=1e-6
                )

    def test_relative_floor_helper(self):
        vals = SymmetricMatrix(np.diag([4.0, 1.0])).eigenvalues()
        assert relative_floor(vals, 1e-12) == pytest.approx(4e-12)

    def test_negative_floor_rejected(self):
        vals = SymmetricMatrix(np.eye(2)).eigenvalues()
        with pytest.raises(InvalidMatrix):
            relative_floor(vals, -1e-12)
        with pytest.raises(InvalidMatrix):
            log_det(vals, -1e-12)
