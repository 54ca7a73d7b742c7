import numpy as np
import pytest
from numpy.testing import assert_allclose

from covlasso import (
    InvalidMatrix,
    SingularMatrix,
    SpectralRoot,
    SymmetricMatrix,
    eigendecompose,
    log_det,
    spectral_root,
)
from covlasso.linalg import relative_floor


def dense(root):
    """The root matrix, one column per basis vector through ``apply``."""
    return np.column_stack([root.apply(e) for e in np.eye(root.eig.n)])


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


class TestSymSqrt:
    """The symmetric square root, applied through SpectralRoot.apply."""

    def test_rank_one_example(self):
        root = spectral_root(SymmetricMatrix(np.ones((2, 2))), 0.0)
        assert_allclose(dense(root), np.full((2, 2), np.sqrt(0.5)), atol=1e-12)

    def test_diagonal(self):
        root = spectral_root(SymmetricMatrix(np.diag([4.0, 9.0])))
        assert_allclose(dense(root), np.diag([2.0, 3.0]), atol=1e-12)
        assert_allclose(root.col_norms(), [2.0, 3.0], atol=1e-12)

    def test_square_reconstructs(self, rng):
        from oracles import spd_matrix

        for k in range(10):
            s = spd_matrix(rng, 6, cond=10.0**k)
            w = dense(spectral_root(SymmetricMatrix(s)))
            assert_allclose(w @ w, s, atol=1e-9 * np.abs(s).max())

    def test_floor_lifts_small_eigenvalues(self):
        e = eigendecompose(SymmetricMatrix(np.ones((2, 2))))
        w = dense(SpectralRoot(e, floor=0.04))
        vals = np.linalg.eigvalsh(w @ w)
        assert_allclose(sorted(vals), [0.04, 2.0], atol=1e-12)
        assert SpectralRoot(e, floor=0.04).floored
        assert not SpectralRoot(e, floor=0.0).floored

    def test_negative_floor_rejected(self):
        with pytest.raises(InvalidMatrix):
            spectral_root(SymmetricMatrix(np.eye(2)), -1e-12)


class TestSolveSpd:
    """Solves with the SPD root: SpectralRoot.solve applies root^{-1}, so
    two solves apply S^{-1}."""

    def test_worked_example(self):
        root = spectral_root(SymmetricMatrix([[1.0, 0.9], [0.9, 1.0]]), 0.0)
        x = root.solve(root.solve(np.array([1.0, 0.0])))
        assert_allclose(x, [1.0 / 0.19, -0.9 / 0.19], rtol=1e-12)
        assert_allclose(x, [5.2632, -4.7368], atol=5e-5)

    def test_residual_bound_under_conditioning(self, rng):
        from oracles import spd_matrix

        for cond in (1.0, 1e2, 1e4, 1e6, 1e8):
            s = spd_matrix(rng, 10, cond=cond)
            b = rng.normal(size=10)
            root = spectral_root(SymmetricMatrix(s), 0.0)
            x = root.solve(root.solve(b))
            assert np.linalg.norm(s @ x - b) <= 1e-6 * np.linalg.norm(b)

    def test_singular_raises(self):
        root = spectral_root(SymmetricMatrix(np.ones((2, 2))), 0.0)
        with pytest.raises(SingularMatrix, match="numerically singular"):
            root.solve(np.array([1.0, 0.0]))

    def test_floor_rescues_singular(self):
        e = eigendecompose(SymmetricMatrix(np.ones((2, 2))))
        x = SpectralRoot(e, floor=1e-6).solve(np.array([1.0, 1.0]))
        assert np.all(np.isfinite(x))


class TestLogDet:
    def test_diagonal(self):
        e = eigendecompose(SymmetricMatrix(np.diag([2.0, 3.0])))
        assert_allclose(log_det(e), np.log(6.0), rtol=1e-14)

    def test_block_example(self):
        s = SymmetricMatrix([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert_allclose(log_det(eigendecompose(s)), np.log(0.19), rtol=1e-12)

    def test_zero_eigenvalue_raises_without_floor(self):
        e = eigendecompose(SymmetricMatrix(np.ones((2, 2))))
        with pytest.raises(SingularMatrix):
            log_det(e)
        assert np.isfinite(log_det(e, floor=1e-12))

    def test_minor_identity(self, rng):
        # det(S) = det(minor_i) / (S^{-1})_ii for every index i.
        from oracles import spd_matrix

        for _ in range(10):
            n = int(rng.integers(2, 9))
            s = spd_matrix(rng, n, cond=1e3)
            full = log_det(eigendecompose(SymmetricMatrix(s)))
            inv = np.linalg.inv(s)
            for i in range(n):
                keep = np.arange(n) != i
                minor = log_det(
                    eigendecompose(SymmetricMatrix(s[np.ix_(keep, keep)]))
                )
                assert_allclose(
                    full, minor + np.log(1.0 / inv[i, i]), rtol=1e-6
                )

    def test_relative_floor_helper(self):
        e = eigendecompose(SymmetricMatrix(np.diag([4.0, 1.0])))
        assert relative_floor(e, 1e-12) == pytest.approx(4e-12)
