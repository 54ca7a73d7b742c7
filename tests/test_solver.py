import numpy as np
import pytest
from numpy.testing import assert_allclose

from covlasso import (
    CovMatrix,
    DimMismatch,
    InvalidInput,
    SymmetricMatrix,
    certificates,
    embed,
    lambda_max,
    prediction_error,
    reduce_problem,
    solution_path,
    solve,
)
from covlasso import solver
from covlasso.solver import reduced_prediction_error

from conftest import rp_from
from oracles import (
    coordinate_descent,
    enumerate_lasso,
    minor,
    objective,
    solve_diagonal,
    solve_univariate,
    spd_matrix,
)


def rp_1d(chat=1.0, bhat=1.0, cov_ii=1.0):
    return rp_from([[chat]], [bhat], cov_ii)


class TestLambdaMax:
    def test_worked_example(self):
        assert lambda_max(rp_from(np.eye(2), [0.9, 0.0])) == pytest.approx(1.8)

    def test_zero_above_threshold(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 8))
            rp = rp_from(spd_matrix(rng, m), rng.normal(size=m))
            lmax = lambda_max(rp)
            sol = solve(rp, 1.0001 * lmax)
            assert np.all(sol.coef == 0.0)
            assert sol.converged


class TestSolve:
    def test_univariate_worked_examples(self):
        assert solve(rp_1d(), 1.0).coef[1] == pytest.approx(0.5, abs=1e-12)
        assert solve(rp_1d(), 3.0).coef[1] == 0.0

    def test_diagonal_worked_example(self):
        sol = solve(rp_from(np.eye(2), [0.9, 0.0]), 0.4)
        assert_allclose(sol.coef, [0.0, 0.7, 0.0], atol=1e-12)
        assert sol.converged

    def test_univariate_closed_form_sweep(self, rng):
        for _ in range(50):
            chat = float(rng.uniform(0.1, 5.0))
            bhat = float(rng.normal() * 3.0)
            lam = float(rng.uniform(0.01, 4.0))
            got = solve(rp_1d(chat, bhat), lam).coef[1]
            assert got == pytest.approx(solve_univariate(chat, bhat, lam), abs=1e-10)

    def test_diagonal_closed_form_sweep(self, rng):
        for _ in range(30):
            m = int(rng.integers(2, 9))
            diag = rng.uniform(0.1, 4.0, size=m)
            bhat = rng.normal(size=m) * 2.0
            lam = float(rng.uniform(0.01, 3.0))
            got = solve(rp_from(np.diag(diag), bhat), lam).coef[1:]
            assert_allclose(got, solve_diagonal(diag, bhat, lam), atol=1e-10)

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(12):
            m = int(rng.integers(2, 6))
            chat = spd_matrix(rng, m, cond=50.0)
            bhat = rng.normal(size=m)
            rp = rp_from(chat, bhat)
            lam = float(rng.uniform(0.05, 1.2) * lambda_max(rp))
            sol = solve(rp, lam)
            oracle_c, oracle_val = enumerate_lasso(chat, bhat, lam)
            assert sol.objective <= oracle_val + 1e-8
            assert abs(sol.objective - oracle_val) <= 1e-8 * (1.0 + abs(oracle_val))
            assert_allclose(sol.coef[1:], oracle_c, atol=1e-7)

    def test_matches_coordinate_descent_reference(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 7))
            rp = rp_from(spd_matrix(rng, m), rng.normal(size=m))
            lam = 0.3 * lambda_max(rp)
            chat, bhat, keep = minor(rp)
            ref = coordinate_descent(chat, bhat, lam, init=rng.normal(size=m))
            assert_allclose(solve(rp, lam).coef[keep], ref, atol=1e-8)

    def test_zero_curvature_coordinate_never_enters(self):
        rp = rp_from(np.diag([1.0, 0.0]), [0.5, 0.0])
        sol = solve(rp, 0.2)
        assert sol.coef[2] == 0.0
        assert sol.coef[1] == pytest.approx(0.4)
        assert sol.converged

    def test_iterations_count_kinks(self):
        # bhat = (0.9, 0.5) on the identity: entries at mu = 0.9 and 0.5.
        rp = rp_from(np.eye(2), [0.9, 0.5])
        assert [solve(rp, lam).iterations for lam in (2.0, 1.8, 1.2, 0.4)] == [0, 0, 1, 2]

    def test_tied_coordinates_enter_one_kink_each(self):
        rp = rp_from(np.eye(3), [0.5, -0.5, 0.5])
        sol = solve(rp, 0.4)
        assert_allclose(sol.coef, [0.0, 0.3, -0.3, 0.3], atol=1e-15)
        assert sol.iterations == 3
        assert sol.converged

    def test_exact_duplicate_category_is_refused(self):
        # Categories 1 and 2 are the same; Chat_AA with both would be
        # singular, so only the lower index enters.
        chat = np.array([[1.0, 1.0, 0.2], [1.0, 1.0, 0.2], [0.2, 0.2, 1.0]])
        bhat = np.array([0.8, 0.8, 0.3])
        rp = rp_from(chat, bhat)
        for lam in (1.0, 0.1, 1e-6):
            sol = solve(rp, lam)
            assert sol.coef[2] == 0.0
            assert sol.converged
            _, best = enumerate_lasso(chat, bhat, lam)
            assert sol.objective <= best + 1e-12

    def test_rank_one_cov_reaches_optimum(self):
        # On rank-1 Chat every coordinate is a multiple of every other, so
        # the optimum is not unique; seeds 47, 61 and 71 stall a cyclic
        # coordinate method 1e-4 to 1e-3 of |J| + cov_ii above it.
        for seed in range(40, 80):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 7))
            x = rng.normal(size=n)
            rp = reduce_problem(CovMatrix(SymmetricMatrix(np.outer(x, x)), 10), 0)
            lam = 0.1 * lambda_max(rp)
            sol = solve(rp, lam)
            chat, bhat, _ = minor(rp)
            _, best = enumerate_lasso(chat, bhat, lam)
            assert sol.objective - best <= 1e-9 * (abs(best) + rp.cov_ii)
            assert sol.converged

    def test_target_coefficient_is_exactly_zero(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 10))
            cov = CovMatrix(SymmetricMatrix(spd_matrix(rng, n)), 10)
            for target in range(n):
                rp = reduce_problem(cov, target)
                lmax = lambda_max(rp)
                path = solution_path(rp, np.geomspace(lmax, lmax / 1000.0, 5))
                for sol in (solve(rp, 0.01 * lmax), *path.solutions):
                    assert sol.coef.shape == (n,)
                    assert sol.coef[target] == 0.0
                    assert sol.converged

    def test_kink_budget_returns_last_breakpoint(self, monkeypatch):
        monkeypatch.setattr(solver, "KINK_CAP_PER_COORD", 0)
        rp = rp_from(np.eye(2), [0.9, 0.5])
        sol = solve(rp, 0.4)
        assert sol.iterations == 0
        assert np.all(sol.coef == 0.0)
        assert not sol.converged
        assert solve(rp, 1.8).converged

    def test_invalid_penalty(self):
        with pytest.raises(InvalidInput):
            solve(rp_1d(), 0.0)
        with pytest.raises(InvalidInput):
            solve(rp_1d(), -1.0)


class TestKkt:
    def test_valid_at_univariate_optimum(self):
        rp = rp_1d()
        cert = certificates(rp, 1.0, np.array([0.0, 0.5]))
        assert cert.kkt_max_violation == pytest.approx(0.0, abs=1e-15)
        assert cert.kkt_valid

    def test_valid_with_inactive_coordinate(self):
        rp = rp_from(np.eye(2), [0.9, 0.0])
        cert = certificates(rp, 0.4, np.array([0.0, 0.7, 0.0]))
        assert cert.kkt_max_violation == pytest.approx(0.0, abs=1e-15)
        assert cert.kkt_valid

    def test_invalid_off_optimum(self):
        # r = 0.9 - 1 = -0.1 on an active coordinate: |r + lam/2| = 0.4.
        cert = certificates(rp_1d(), 1.0, np.array([0.0, 0.9]))
        assert cert.kkt_max_violation == pytest.approx(0.4, rel=1e-15)
        assert not cert.kkt_valid

    def test_inactive_violation_is_excess_over_half_penalty(self):
        # c = 0, r = -1: max(0, |r| - lam/2) = 0.5.
        cert = certificates(rp_1d(), 1.0, np.zeros(2))
        assert cert.kkt_max_violation == pytest.approx(0.5, rel=1e-15)
        assert not cert.kkt_valid

    def test_solver_output_passes(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 10))
            rp = rp_from(spd_matrix(rng, m), rng.normal(size=m))
            lam = float(rng.uniform(0.05, 1.5) * max(lambda_max(rp), 0.1))
            sol = solve(rp, lam)
            ok = certificates(rp, lam, sol.coef).kkt_valid
            assert ok == sol.converged
            assert ok

    def test_valid_iff_violation_within_tolerance(self, rng):
        for _ in range(40):
            m = int(rng.integers(1, 8))
            rp = rp_from(spd_matrix(rng, m), rng.normal(size=m))
            lam = float(10.0 ** rng.uniform(-3, 2))
            coef = solve(rp, lam).coef
            if rng.integers(2):
                coef = coef.copy()
                coef[1:] += rng.normal(size=m) * 10.0 ** rng.uniform(-9, -3)
            cert = certificates(rp, lam, coef)
            assert cert.kkt_valid == (
                cert.kkt_max_violation <= 1e-6 * max(lam, 1.0)
            )

    def test_inputs_validated(self):
        with pytest.raises(InvalidInput):
            certificates(rp_1d(), 0.0, np.zeros(2))
        with pytest.raises(InvalidInput):
            certificates(rp_1d(), float("nan"), np.zeros(2))
        with pytest.raises(DimMismatch):
            certificates(rp_1d(), 1.0, np.zeros(1))
        with pytest.raises(DimMismatch):
            certificates(rp_1d(), 1.0, np.zeros(3))

    def test_nonzero_target_coefficient_rejected(self):
        cov = CovMatrix(SymmetricMatrix(spd_matrix(np.random.default_rng(3), 4)), 10)
        rp = reduce_problem(cov, 2)
        coef = solve(rp, 0.1 * lambda_max(rp)).coef.copy()
        assert coef[2] == 0.0
        coef[2] = 1e-300
        with pytest.raises(InvalidInput):
            certificates(rp, 0.1, coef)


class TestDualCertificate:
    def test_univariate_optimum(self):
        rp = rp_1d()
        cert = certificates(rp, 1.0, np.array([0.0, 0.5]))
        assert cert.dual_feasibility_violation <= 1e-12
        assert abs(cert.dual_gap) <= 1e-12

    def test_rescaled_residual_worked_example(self):
        # c = 0, r = 1 > lam/2 so s = 1/2: gap = (1 - s)^2 cov_ii.
        rp = rp_1d(cov_ii=2.0)
        cert = certificates(rp, 1.0, np.zeros(2))
        assert cert.dual_gap == pytest.approx(0.5, rel=1e-15)
        assert cert.dual_feasibility_violation == pytest.approx(
            np.sqrt(2.0) / 2.0, rel=1e-15
        )

    def test_gap_positive_off_optimum(self):
        rp = rp_1d()
        for c in (0.2, 0.8, -0.3):
            cert = certificates(rp, 1.0, np.array([0.0, c]))
            assert cert.dual_gap > 1e-6

    def test_gap_nonnegative_and_small_at_solutions(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 8))
            rp = rp_from(spd_matrix(rng, m, cond=1e3), rng.normal(size=m))
            lam = float(rng.uniform(0.05, 1.3) * lambda_max(rp))
            sol = solve(rp, lam)
            cert = certificates(rp, lam, sol.coef)
            assert cert.dual_gap >= -1e-9
            assert cert.dual_gap <= 1e-6 * (1.0 + abs(sol.objective))
            assert cert.dual_feasibility_violation <= 1e-6

    def test_zero_solution_above_lambda_max(self, rng):
        rp = rp_from(spd_matrix(rng, 3), rng.normal(size=3))
        lam = 1.5 * lambda_max(rp)
        cert = certificates(rp, lam, np.zeros(4))
        assert cert.dual_feasibility_violation <= 1e-12
        assert abs(cert.dual_gap) <= 1e-10


class TestSolutionPath:
    def test_univariate_worked_example(self):
        rp = rp_1d()
        path = solution_path(rp, [2.0, 1.0, 0.5])
        coefs = [s.coef[1] for s in path.solutions]
        assert_allclose(coefs, [0.0, 0.5, 0.75], atol=1e-12)
        assert_allclose(path.errors, [1.0, 0.25, 0.0625], atol=1e-12)
        assert path.monotone

    def test_points_match_solve(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 9))
            rp = rp_from(spd_matrix(rng, m, cond=1e3), rng.normal(size=m))
            lmax = lambda_max(rp)
            grid = np.geomspace(1.5 * lmax, lmax / 100.0, 9)
            path = solution_path(rp, grid)
            for lam, point in zip(grid, path.solutions):
                alone = solve(rp, lam)
                assert_allclose(point.coef, alone.coef, rtol=1e-13, atol=1e-15)
                assert point.iterations == alone.iterations
                assert point.certificates == certificates(rp, lam, point.coef)

    def test_supports_match_coordinate_descent(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 31))
            cov = CovMatrix(SymmetricMatrix(spd_matrix(rng, n, cond=100.0)), 100)
            rp = reduce_problem(cov, int(rng.integers(0, n)))
            lmax = lambda_max(rp)
            grid = np.geomspace(lmax, lmax / 1000.0, 12)
            path = solution_path(rp, grid)
            chat, bhat, keep = minor(rp)
            ref = None
            for lam, point in zip(grid, path.solutions):
                ref = coordinate_descent(chat, bhat, lam, init=ref)
                assert np.array_equal(
                    np.abs(point.coef[keep]) > solver.SUPPORT_TOL, np.abs(ref) > solver.SUPPORT_TOL
                )
                assert point.objective <= objective(chat, bhat, lam, ref) + 1e-12

    def test_one_certificate_pass_per_point(self, monkeypatch):
        calls = []
        original = solver.certificates

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(solver, "certificates", counting)
        solution_path(rp_from(np.eye(2), [0.9, 0.5]), [2.0, 1.0, 0.5, 0.5])
        assert [args[1] for args in calls] == [2.0, 1.0, 0.5, 0.5]

    def test_duplicate_grid_values_give_identical_solutions(self):
        rp = rp_1d()
        path = solution_path(rp, [1.0, 1.0, 0.5])
        assert path.solutions[0].coef[1] == path.solutions[1].coef[1]

    def test_grid_validation(self):
        rp = rp_1d()
        with pytest.raises(InvalidInput):
            solution_path(rp, [])
        with pytest.raises(InvalidInput):
            solution_path(rp, [0.5, 1.0])
        with pytest.raises(InvalidInput):
            solution_path(rp, [1.0, 0.0])

    def test_monotone_and_bracketed_on_random_spd(self, rng):
        for _ in range(8):
            n = int(rng.integers(3, 12))
            cov = CovMatrix(SymmetricMatrix(spd_matrix(rng, n, cond=1e4)), 100)
            rp = reduce_problem(cov, int(rng.integers(0, n)))
            lmax = lambda_max(rp)
            grid = np.geomspace(lmax, lmax / 1000.0, 15)
            path = solution_path(rp, grid)
            assert path.monotone
            assert all(s.converged for s in path.solutions)
            inv = np.linalg.inv(cov.mat.data)
            err0 = 1.0 / inv[rp.target, rp.target]
            for err in path.errors:
                assert err >= err0 - 1e-6 * max(1.0, err0)
                assert err <= rp.cov_ii + 1e-9
            assert path.errors[0] == pytest.approx(rp.cov_ii, rel=1e-12)


class TestEmbed:
    def test_index_mapping_middle_target(self):
        cov = CovMatrix(
            SymmetricMatrix([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 3.0]]), 10
        )
        rp = reduce_problem(cov, 1)
        sol = solve(rp, 0.1)
        dep = embed(sol, rp)
        assert sol.coef[1] == 0.0
        assert dep.theta[1] == -1.0
        assert dep.theta[0] == sol.coef[0]
        assert dep.theta[2] == sol.coef[2]
        assert dep.target == 1
        # embedded prediction error equals the full quadratic form
        assert dep.pred_error == pytest.approx(
            prediction_error(cov, dep.theta), abs=1e-12
        )
        assert 1 not in dep.support

    def test_support_thresholding(self):
        rp = rp_from(np.eye(2), [0.9, 0.0])
        sol = solve(rp, 0.4)
        dep = embed(sol, rp)
        assert dep.support == (1,)

    def test_certificates_present(self):
        rp = rp_1d()
        dep = embed(solve(rp, 1.0), rp)
        assert dep.certificates.kkt_valid
        assert dep.certificates.kkt_max_violation <= 1e-10
        assert dep.certificates.dual_gap <= 1e-10

    def test_certificates_come_from_solve(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 8))
            rp = rp_from(spd_matrix(rng, m), rng.normal(size=m))
            lam = float(rng.uniform(0.05, 1.5) * max(lambda_max(rp), 0.1))
            sol = solve(rp, lam)
            assert sol.certificates == certificates(rp, lam, sol.coef)
            assert sol.converged == sol.certificates.kkt_valid
            dep = embed(sol, rp)
            assert dep.certificates is sol.certificates
            assert dep.converged == sol.converged

    def test_converged_is_read_only(self):
        sol = solve(rp_1d(), 1.0)
        with pytest.raises(AttributeError):
            sol.converged = False

    def test_one_certificate_pass_per_solve_and_embed(self, monkeypatch):
        calls = []
        original = solver.certificates

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(solver, "certificates", counting)
        cov = CovMatrix(SymmetricMatrix(np.array([[2.0, 0.3], [0.3, 1.0]])), 10)
        rp = reduce_problem(cov, 0)
        embed(solve(rp, 0.1), rp)
        assert len(calls) == 1

    def test_empty_support_error_equals_target_moment(self):
        rp = rp_1d(cov_ii=1.0)
        dep = embed(solve(rp, 3.0), rp)
        assert dep.support == ()
        assert dep.pred_error == pytest.approx(1.0)


class TestPredictionError:
    def test_quadratic_form(self):
        cov = CovMatrix(SymmetricMatrix([[1.0, 1.0], [1.0, 1.0]]), 4)
        assert prediction_error(cov, np.array([1.0, -1.0])) == 0.0
        assert prediction_error(cov, np.array([1.0, 1.0])) == pytest.approx(4.0)

    def test_clamped_at_zero(self):
        # roundoff can push the form a hair negative; never report that
        cov = CovMatrix(SymmetricMatrix(np.eye(2) * 1e-30), 4)
        assert prediction_error(cov, np.array([1e-8, -1e-8])) >= 0.0

    def test_shape_checked(self):
        cov = CovMatrix(SymmetricMatrix(np.eye(2)), 4)
        with pytest.raises(DimMismatch):
            prediction_error(cov, np.ones(3))

    def test_reduced_form_matches_full_form(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            cov = CovMatrix(SymmetricMatrix(spd_matrix(rng, n)), 10)
            target = int(rng.integers(0, n))
            rp = reduce_problem(cov, target)
            coef = np.zeros(n)
            coef[np.arange(n) != target] = rng.normal(size=n - 1)
            theta = coef.copy()
            theta[target] = -1.0
            assert reduced_prediction_error(rp, coef) == pytest.approx(
                prediction_error(cov, theta), rel=1e-10, abs=1e-12
            )
