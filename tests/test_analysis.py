import numpy as np
import pytest
from numpy.testing import assert_allclose

from covlasso import (
    CovMatrix,
    Degenerate,
    InvalidInput,
    check_slope_bounds,
    lambda_max,
    redundancy,
    reduce_problem,
    screen,
    solution_path,
    solve,
)

from conftest import raises_exact, rp_from
from oracles import (
    dense_floored_root,
    determinant_error,
    error_reduction_upper,
    minor,
    objective,
    screen_loop,
    spd_matrix,
)


def cov_of(mat, count=100):
    return CovMatrix(mat, count)


BLOCK = [[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]]


class TestRedundancy:
    def test_diagonal_is_irreplaceable(self):
        rep = redundancy(cov_of(np.diag([2.0, 3.0])), 0)
        assert rep.min_error == pytest.approx(2.0, rel=1e-12)
        assert rep.relative_error == pytest.approx(1.0, rel=1e-12)
        assert rep.eigen_error_sum == pytest.approx(0.5, rel=1e-12)
        assert determinant_error(np.diag([2.0, 3.0]), 0) == pytest.approx(2.0, rel=1e-12)
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
        # A floored min_error is route 3's 1/eigen_error_sum, capped at
        # cov_ii, which no least-squares error exceeds.
        mats = [
            np.ones((3, 3)),
            np.ones((2, 2)),
            np.diag([1.0, 0.0, 2.0]),
            [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 5.0]],
        ]
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            g = rng.normal(size=(n, int(rng.integers(1, n))))
            mats.append(g @ g.T)
        for mat in mats:
            cov = cov_of(mat)
            for target in range(cov.n):
                cov_ii = float(cov.data[target, target])
                if cov_ii <= 1e-300:
                    continue
                rep = redundancy(cov, target)
                assert rep.floored
                assert rep.min_error == min(1.0 / rep.eigen_error_sum, cov_ii)
                assert rep.relative_error == rep.min_error / cov_ii
                assert 0.0 <= rep.relative_error <= 1.0

    def test_singular_without_floor_raises(self):
        # The floor is relative, so a spectrum at the bottom of the float
        # range lifts to a floor that is itself numerically zero.
        with pytest.raises(Degenerate, match="^matrix numerically singular: smallest"):
            redundancy(cov_of(1e-295 * np.ones((3, 3))), 0)

    def test_all_zero_minor_raises(self):
        # Every other category has zero second moment: the minor has no
        # spectrum to floor, so its log-determinant is undefined.
        expect = "every category other than 0 has zero second moment"
        with raises_exact(Degenerate, expect) as info:
            redundancy(cov_of(np.diag([1.0, 0.0, 0.0])), 0)
        assert "floor" not in str(info.value)

    def test_degenerate_target(self):
        with raises_exact(Degenerate, "category 0 has numerically zero second moment"):
            redundancy(cov_of(np.diag([0.0, 1.0])), 0)

    def test_needs_two_categories(self):
        with raises_exact(InvalidInput, "need at least two categories to form a reduced problem"):
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
        row1 = next(r for r in rep.per_category if r["index"] == 1)
        assert row1["correlation_ratio"] == pytest.approx(1.0)
        row2 = next(r for r in rep.per_category if r["index"] == 2)
        # 1 - 2 sqrt(Chat_22 cov_ii) (1/1.7 - 1/1.8) = 1 - 2 / 30.6
        assert row2["certificate_threshold"] == pytest.approx(1.0 - 2.0 / 30.6, rel=1e-14)

    def test_rows_cover_every_category_but_the_target(self, rng):
        cov = cov_of(spd_matrix(rng, 6))
        rep = screen(cov, 3, 0.5 * lambda_max(reduce_problem(cov, 3)))
        assert [r["index"] for r in rep.per_category] == [0, 1, 2, 4, 5]
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
        for lam in (1.8, 0.0, -0.5):  # 1.8 == lambda_max
            expect = f"penalty must lie in (0, 1.8) for screening, got {lam}"
            with raises_exact(InvalidInput, expect):
                screen(cov, 0, lam)
        # 1/lam overflows; a zero diagonal turns the drift into 0 * inf.
        expect = "penalty 1e-320 is too small: the screening threshold overflows"
        for mat in (BLOCK, [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]]):
            with raises_exact(InvalidInput, expect):
                screen(cov_of(mat), 0, 1e-320)

    def test_uncorrelated_target_rejected(self):
        expect = "penalty must lie in (0, 0.0) for screening, got 0.1"
        with raises_exact(InvalidInput, expect):
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
                active = set(np.flatnonzero(sol.coef != 0.0))
                assert not (rep.certified_zero & active)

    def test_matches_the_per_category_loop(self, rng):
        # Ill-scaled categories (second moments 1e-8..1e8), one duplicated,
        # so thresholds span many decades and some fall below zero.
        for dup in (False, True):
            n = 30
            x = rng.standard_normal((200, n)) @ rng.standard_normal((n, n))
            x *= np.logspace(-4, 4, n)[rng.permutation(n)]
            if dup:
                x[:, 5] = 2.0 * x[:, 3]
            cov = cov_of(x.T @ x / 200)
            for target in range(n):
                rp = reduce_problem(cov, target)
                fracs = (0.999999, 0.9, 0.5, 0.1, 0.01, 1e-6)
                lams = [f * lambda_max(rp) for f in fracs]
                # A tie: the second-largest |bhat_j| sits exactly at lam/2.
                lams.append(2.0 * np.sort(np.abs(rp.bhat))[-2])
                for lam in lams:
                    rep = screen(cov, target, lam)
                    certified, heuristic, rows = screen_loop(rp, lam)
                    assert rep.certified_zero == certified
                    assert rep.heuristic_zero == heuristic
                    assert [
                        (r["index"], r["correlation_ratio"], r["certificate_threshold"])
                        for r in rep.per_category
                    ] == rows

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
            active = set(np.flatnonzero(sol.coef != 0.0))
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
        l1, l2 = path.solutions[0].lam, path.solutions[1].lam
        r1 = chat @ path.solutions[0].coef[keep] - bhat
        r2 = chat @ path.solutions[1].coef[keep] - bhat
        lhs = np.abs(r1 / l1 - r2 / l2)
        rhs = np.sqrt(np.diag(chat) * rp.cov_ii) * abs(1.0 / l1 - 1.0 / l2) + 1e-8
        assert check.margins[0] == pytest.approx(float(np.min(rhs - lhs)), rel=1e-9)

    def test_requires_converged_path(self):
        from covlasso import DependencySolution, SolutionCertificates, SolutionPath

        rp = rp_from(np.eye(2), [0.9, 0.0])
        fake = DependencySolution(
            target=0,
            coef=np.zeros(3),
            lam=1.0,
            objective=0.0,
            iterations=1,
            pred_error=1.0,
            certificates=SolutionCertificates(0.0, False, 0.0, 0.0),
        )
        path = SolutionPath((fake, fake), True)
        assert check_slope_bounds(rp, path) is None

    def test_rejects_penalties_above_lambda_max(self):
        # The bound holds only on (0, lambda_max], and needs a pair.
        rp = rp_from(np.eye(2), [0.9, 0.0])
        assert check_slope_bounds(rp, solution_path(rp, [1.8, 0.9])) is not None
        for grid in ([2.5, 0.9], [0.9]):  # 2.5 > lambda_max = 1.8
            assert check_slope_bounds(rp, solution_path(rp, grid)) is None


class TestErrorReductionBounds:
    """The reduction cov_ii - pred_error of solved points against its dual-drift ceiling."""

    def test_univariate_worked_example(self):
        rp = rp_from([[1.0]], [1.0])
        # lam = 1: c = 0.5, reduction 0.75; lam = 1.6: c = 0.2, reduction 0.36.
        for lam, reduction, upper in ((1.0, 0.75, 1.0), (1.6, 0.36, 0.64)):
            sol = solve(rp, lam)
            assert rp.cov_ii - sol.pred_error == pytest.approx(reduction, abs=1e-10)
            bound = error_reduction_upper(rp.cov_ii, lam, lambda_max(rp))
            assert bound == pytest.approx(upper, abs=1e-12)

    def test_identity_matches_reduction_everywhere(self, rng):
        for _ in range(15):
            n = int(rng.integers(3, 10))
            cov = cov_of(spd_matrix(rng, n, cond=1e3))
            rp = reduce_problem(cov, int(rng.integers(0, n)))
            chat, bhat, keep = minor(rp)
            lmax = lambda_max(rp)
            for frac in (1.0, 0.6, 0.2, 0.03):
                lam = frac * lmax
                sol = solve(rp, lam)
                reduction = rp.cov_ii - sol.pred_error
                # 2 bhat^T c - c^T Chat c, the reduction at the solved point
                identity = -objective(chat, bhat, 0.0, sol.coef[keep])
                assert identity == pytest.approx(
                    reduction, abs=1e-8 * max(1.0, rp.cov_ii)
                )
                assert 0.0 <= reduction + 1e-12
                assert reduction <= error_reduction_upper(rp.cov_ii, lam, lmax) + 1e-9
