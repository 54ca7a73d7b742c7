import numpy as np
import pytest
from numpy.testing import assert_allclose

from covlasso import (
    CovMatrix,
    DegenerateTarget,
    DimTooSmall,
    InvalidInput,
    OutOfRange,
    SingularMatrix,
    SymmetricMatrix,
    certify,
    check_slope_bounds,
    embed,
    error_reduction_bounds,
    lambda_max,
    pair_covariance,
    redundancy,
    reduce_problem,
    screen,
    solution_path,
    solve,
)
from covlasso.solver import SUPPORT_TOL

from conftest import rp_from
from oracles import dense_floored_root, minor, spd_matrix


def cov_of(mat, count=100):
    return CovMatrix(SymmetricMatrix(mat), count)


BLOCK = [[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]]


class TestRedundancy:
    def test_diagonal_is_irreplaceable(self):
        rep = redundancy(cov_of(np.diag([2.0, 3.0])), 0)
        assert rep.min_error == pytest.approx(2.0, rel=1e-12)
        assert rep.relative_error == pytest.approx(1.0, rel=1e-12)
        assert rep.eigen_error_sum == pytest.approx(0.5, rel=1e-12)
        assert np.exp(rep.log_det_ratio) == pytest.approx(2.0, rel=1e-12)
        assert not rep.floored

    def test_correlated_block(self):
        rep = redundancy(cov_of(BLOCK), 0)
        assert rep.min_error == pytest.approx(0.19, rel=1e-10)
        assert rep.eigen_error_sum == pytest.approx(1.0 / 0.19, rel=1e-10)
        assert rep.relative_error == pytest.approx(0.19, rel=1e-10)
        assert rep.max_disagreement() <= 1e-6

    def test_fully_redundant_category_floors(self):
        rep = redundancy(cov_of(np.ones((2, 2))), 0)
        assert rep.floored
        assert rep.min_error <= 1e-9
        assert 0.0 <= rep.relative_error <= 1e-9

    def test_large_floor_never_reports_more_than_cov_ii(self):
        # The floored inverse of ones((3, 3)) at a 0.5 floor gives
        # 1 / 0.555... = 1.8 > cov_ii = 1.
        rep = redundancy(cov_of(np.ones((3, 3))), 0, eig_floor_rel=0.5)
        assert rep.floored
        assert rep.min_error == 1.0
        assert rep.relative_error == 1.0

    def test_singular_without_floor_raises(self):
        with pytest.raises(SingularMatrix, match="numerically singular"):
            redundancy(cov_of(np.ones((3, 3))), 0, eig_floor_rel=0.0)

    def test_degenerate_target(self):
        with pytest.raises(DegenerateTarget):
            redundancy(cov_of(np.diag([0.0, 1.0])), 0)

    def test_needs_two_categories(self):
        with pytest.raises(DimTooSmall):
            redundancy(cov_of([[1.0]]), 0)

    def test_routes_agree_on_random_spd(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 21))
            cov = cov_of(spd_matrix(rng, n, cond=float(rng.uniform(2, 1e6))))
            rep = redundancy(cov, int(rng.integers(0, n)))
            assert not rep.floored
            assert rep.max_disagreement() <= 1e-6
            assert 0.0 <= rep.relative_error <= 1.0 + 1e-9

    def test_matches_determinant_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            mat = spd_matrix(rng, n, cond=100.0)
            i = int(rng.integers(0, n))
            rep = redundancy(cov_of(mat), i)
            keep = np.arange(n) != i
            oracle = np.linalg.det(mat) / np.linalg.det(mat[np.ix_(keep, keep)])
            assert rep.min_error == pytest.approx(oracle, rel=1e-8)


class TestScreen:
    def test_worked_example_loose_penalty(self):
        rep = screen(cov_of(BLOCK), 0, 1.7)
        assert rep.lam_max == pytest.approx(1.8)
        assert rep.certified_zero == frozenset({2})
        assert rep.heuristic_zero == frozenset({2})
        # category 1 is too correlated to certify
        row1 = next(r for r in rep.per_category if r.index == 1)
        assert row1.correlation_ratio == pytest.approx(1.0)
        row2 = next(r for r in rep.per_category if r.index == 2)
        # 1 - 2 sqrt(Chat_22 cov_ii) (1/1.7 - 1/1.8) = 1 - 2 / 30.6
        assert row2.certificate_threshold == pytest.approx(1.0 - 2.0 / 30.6, rel=1e-14)

    def test_rows_cover_every_category_but_the_target(self, rng):
        cov = cov_of(spd_matrix(rng, 6))
        rep = screen(cov, 3, 0.5 * lambda_max(reduce_problem(cov, 3)))
        assert [r.index for r in rep.per_category] == [0, 1, 2, 4, 5]
        assert 3 not in rep.certified_zero | rep.heuristic_zero

    def test_slope_margins_ignore_the_target(self):
        # Category 1's drift rate sqrt(4 cov_ii) = 2 exceeds the target's
        # sqrt(cov_ii cov_ii) = 1, so counting the target would lower the
        # margin to 1.
        rp = reduce_problem(cov_of([[1.0, 0.5], [0.5, 4.0]]), 0)
        path = solution_path(rp, [1.0, 0.5])
        r1, r2 = (4.0 * float(s.coef[1]) - 0.5 for s in path.solutions)
        expect = 2.0 * (1.0 / 0.5 - 1.0 / 1.0) + 1e-8 - abs(r1 / 1.0 - r2 / 0.5)
        assert expect > 1.5
        assert check_slope_bounds(rp, path).margins == (pytest.approx(expect, rel=1e-12),)

    def test_worked_example_tight_penalty_certifies_nothing(self):
        rep = screen(cov_of(BLOCK), 0, 0.4)
        assert rep.certified_zero == frozenset()
        assert rep.heuristic_zero == frozenset({2})

    def test_penalty_range_enforced(self):
        cov = cov_of(BLOCK)
        with pytest.raises(OutOfRange):
            screen(cov, 0, 1.8)  # == lambda_max
        with pytest.raises(OutOfRange):
            screen(cov, 0, 0.0)
        with pytest.raises(OutOfRange):
            screen(cov, 0, -0.5)

    def test_uncorrelated_target_rejected(self):
        with pytest.raises(OutOfRange):
            screen(cov_of(np.eye(3)), 0, 0.1)

    def test_certificates_are_sound(self, rng):
        # every certified-zero category must actually be zero in the
        # solved support, across targets, penalties and conditioning
        for trial in range(30):
            n = int(rng.integers(3, 12))
            cov = cov_of(spd_matrix(rng, n, cond=float(rng.uniform(2, 1e4))))
            target = int(rng.integers(0, n))
            rp = reduce_problem(cov, target)
            lmax = lambda_max(rp)
            for frac in rng.uniform(0.01, 0.999, size=5):
                lam = float(frac) * lmax
                rep = screen(cov, target, lam)
                sol = solve(rp, lam)
                assert sol.converged
                active = set(np.flatnonzero(np.abs(sol.coef) > SUPPORT_TOL))
                assert not (rep.certified_zero & active)

    def test_heuristic_violation_rate_is_reported_not_asserted(self, rng):
        # The cross-moment screen is a monitored heuristic: measure how
        # often it wrongly predicts a zero, without gating on it.
        checked = violations = 0
        for _ in range(20):
            n = int(rng.integers(3, 10))
            cov = cov_of(spd_matrix(rng, n, cond=200.0))
            target = int(rng.integers(0, n))
            rp = reduce_problem(cov, target)
            lam = float(rng.uniform(0.05, 0.95)) * lambda_max(rp)
            rep = screen(cov, target, lam)
            sol = solve(rp, lam)
            active = set(np.flatnonzero(np.abs(sol.coef) > SUPPORT_TOL))
            checked += len(rep.heuristic_zero)
            violations += len(rep.heuristic_zero & active)
        rate = violations / checked if checked else 0.0
        print(f"\nheuristic zero-prediction violation rate: {rate:.4f} "
              f"({violations}/{checked})")
        assert 0.0 <= rate <= 1.0


class TestSlopeBounds:
    def test_holds_on_solved_paths(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 10))
            cov = cov_of(spd_matrix(rng, n, cond=1e3))
            rp = reduce_problem(cov, 0)
            lmax = lambda_max(rp)
            path = solution_path(rp, np.geomspace(lmax, lmax / 500.0, 12))
            check = check_slope_bounds(rp, path)
            assert check.passed
            assert check.pairs == 11
            assert all(m >= 0.0 for m in check.margins)

    def test_margins_match_direct_formula(self, rng):
        cov = cov_of(spd_matrix(rng, 5, cond=30.0))
        rp = reduce_problem(cov, 2)
        lmax = lambda_max(rp)
        path = solution_path(rp, [lmax, 0.4 * lmax])
        check = check_slope_bounds(rp, path)

        # The root's column norms are sqrt(diag Chat), and cov_ii bounds
        # ||root^-1 bhat||^2 = bhat^T Chat^-1 bhat from above.
        chat, bhat, keep = minor(rp)
        root = dense_floored_root(chat, 0.0)
        assert_allclose(np.linalg.norm(root, axis=0), np.sqrt(np.diag(chat)), rtol=1e-12)
        assert np.linalg.norm(np.linalg.solve(root, bhat)) ** 2 <= rp.cov_ii
        l1, l2 = path.lambdas
        r1 = chat @ path.solutions[0].coef[keep] - bhat
        r2 = chat @ path.solutions[1].coef[keep] - bhat
        lhs = np.abs(r1 / l1 - r2 / l2)
        rhs = np.sqrt(np.diag(chat) * rp.cov_ii) * abs(1.0 / l1 - 1.0 / l2) + 1e-8
        assert check.margins[0] == pytest.approx(float(np.min(rhs - lhs)), rel=1e-9)

    def test_requires_converged_path(self):
        from covlasso import ReducedSolution, SolutionCertificates, SolutionPath

        rp = rp_from(np.eye(2), [0.9, 0.0])
        fake = ReducedSolution(
            coef=np.zeros(3),
            lam=1.0,
            objective=0.0,
            iterations=1,
            certificates=SolutionCertificates(0.0, False, 0.0, 0.0),
        )
        path = SolutionPath((1.0, 0.5), (fake, fake), (1.0, 1.0), True)
        with pytest.raises(InvalidInput):
            check_slope_bounds(rp, path)

    def test_rejects_penalties_above_lambda_max(self):
        rp = rp_from(np.eye(2), [0.9, 0.0])
        path = solution_path(rp, [2.5, 0.9])  # 2.5 > lambda_max = 1.8
        with pytest.raises(InvalidInput):
            check_slope_bounds(rp, path)


class TestCertify:
    def _solution(self, pred_error=0.04):
        rp = rp_from([[1.0]], [np.sqrt(1.0 - pred_error)])
        sol = solve(rp, 1e-9)
        dep = embed(sol, rp)
        assert dep.pred_error == pytest.approx(pred_error, rel=1e-6)
        return dep

    def test_holds_when_error_small_enough(self):
        dep = self._solution(0.04)
        assert certify(dep, tolerance=0.5, tail_prob=0.1).holds
        assert not certify(dep, tolerance=0.3, tail_prob=0.1).holds

    def test_records_inputs(self):
        cert = certify(self._solution(), tolerance=2.0, tail_prob=0.25)
        assert cert.tolerance == 2.0
        assert cert.tail_prob == 0.25
        assert cert.expected_sq_error == pytest.approx(0.04, rel=1e-6)

    def test_validates_parameters(self):
        dep = self._solution()
        with pytest.raises(InvalidInput):
            certify(dep, tolerance=0.0, tail_prob=0.5)
        with pytest.raises(InvalidInput):
            certify(dep, tolerance=1.0, tail_prob=1.5)
        with pytest.raises(InvalidInput):
            certify(dep, tolerance=1.0, tail_prob=-0.1)


class TestErrorReductionBounds:
    def test_univariate_worked_example(self):
        rp = rp_from([[1.0]], [1.0])
        sol = solve(rp, 1.0)
        bounds = error_reduction_bounds(rp, 1.0, sol)
        assert bounds.identity_value == pytest.approx(0.75, abs=1e-10)
        assert bounds.lower == 0.0
        assert bounds.upper == pytest.approx(1.0, abs=1e-10)
        # lam = 1.6: c = 0.2, reduction 0.36; upper 1 - (1.6 (2/2 - 1/1.6))^2.
        bounds = error_reduction_bounds(rp, 1.6, solve(rp, 1.6))
        assert bounds.identity_value == pytest.approx(0.36, abs=1e-10)
        assert bounds.upper == pytest.approx(0.64, abs=1e-12)

    def test_identity_matches_reduction_everywhere(self, rng):
        for _ in range(15):
            n = int(rng.integers(3, 10))
            cov = cov_of(spd_matrix(rng, n, cond=1e3))
            rp = reduce_problem(cov, int(rng.integers(0, n)))
            lmax = lambda_max(rp)
            for frac in (1.0, 0.6, 0.2, 0.03):
                lam = frac * lmax
                sol = solve(rp, lam)
                bounds = error_reduction_bounds(rp, lam, sol)
                from covlasso.solver import reduced_prediction_error

                reduction = rp.cov_ii - reduced_prediction_error(rp, sol.coef)
                assert bounds.identity_value == pytest.approx(
                    reduction, abs=1e-8 * max(1.0, rp.cov_ii)
                )
                assert bounds.lower <= reduction + 1e-12
                assert reduction <= bounds.upper + 1e-9

    def test_validates_inputs(self):
        rp = rp_from([[1.0]], [1.0])
        sol = solve(rp, 1.0)
        with pytest.raises(OutOfRange):
            error_reduction_bounds(rp, 5.0, sol)  # above lambda_max
        with pytest.raises(OutOfRange):
            error_reduction_bounds(rp, 0.0, sol)
        from covlasso import ReducedSolution, SolutionCertificates

        fake = ReducedSolution(
            coef=np.zeros(2),
            lam=1.0,
            objective=0.0,
            iterations=1,
            certificates=SolutionCertificates(0.0, False, 0.0, 0.0),
        )
        with pytest.raises(InvalidInput):
            error_reduction_bounds(rp, 1.0, fake)


class TestPairCovariance:
    def test_reads_cross_moment_magnitude(self):
        cov = cov_of([[1.0, -0.7], [-0.7, 2.0]])
        assert pair_covariance(cov, 0, 1) == pytest.approx(0.7)
        assert pair_covariance(cov, 1, 0) == pytest.approx(0.7)

    def test_validates_indices(self):
        cov = cov_of(np.eye(2))
        with pytest.raises(InvalidInput):
            pair_covariance(cov, 1, 1)
        with pytest.raises(OutOfRange):
            pair_covariance(cov, 0, 2)
