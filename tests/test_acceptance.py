"""Acceptance suite: one gate per shipped guarantee.

Each test prints a single CRITERION line (visible with ``pytest -s`` or
in captured output on failure) and then asserts it, except the final
monitor which reports a rate without gating.  Tolerances and instance
counts are part of the contract; do not relax them here.
"""

import json
import time

import numpy as np
import pytest

from covlasso import (
    CovMatrix,
    PlantedDependency,
    SymmetricMatrix,
    SyntheticSpec,
    accumulate,
    certify,
    check_slope_bounds,
    embed,
    emit_report,
    finalize,
    fit_extension,
    extended_logits,
    generate,
    new_accumulator,
    parse_report,
    read_cov,
    read_logits,
    redundancy,
    reduce_problem,
    screen,
    serialize_report,
    solution_path,
    solve,
    verify_recovery,
    write_cov,
    write_logits,
)
from covlasso.covariance import LogitMatrix
from covlasso.evaluation import extension_loss_grad
from covlasso.linalg import DEFAULT_EIG_FLOOR_REL
from covlasso.solver import SUPPORT_TOL, lambda_max, reduced_objective

from conftest import rp_from
from oracles import enumerate_lasso, minor, solve_diagonal, solve_univariate, spd_matrix
from test_cli import run_cli, stdout_dict


def record(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"CRITERION {num:2d}: {status} - {detail}")
    assert passed, f"criterion {num} failed: {detail}"


def random_problem(rng, m, cond=100.0):
    chat = spd_matrix(rng, m, cond=cond)
    bhat = rng.standard_normal(m)
    cov_ii = float(bhat @ np.linalg.solve(chat, bhat)) + float(
        rng.uniform(0.1, 2.0)
    )  # keeps the full matrix PSD
    return rp_from(chat, bhat, cov_ii)


@pytest.fixture(scope="module")
def path_runs():
    """Criterion 3's instances and paths, shared with criterion 7."""
    rng = np.random.default_rng(303)
    runs = []
    for _ in range(50):
        n = int(rng.integers(5, 31))
        cov = CovMatrix(SymmetricMatrix(spd_matrix(rng, n, cond=1e3)), 1000)
        target = int(rng.integers(0, n))
        rp = reduce_problem(cov, target)
        lmax = lambda_max(rp)
        grid = np.geomspace(lmax, lmax / 1000.0, 20)
        path = solution_path(rp, grid)
        err0 = 1.0 / np.linalg.inv(cov.mat.data)[target, target]
        runs.append((cov, target, rp, path, err0))
    return runs


class TestAcceptance:
    def test_criterion_1_closed_form_oracle(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        start = time.perf_counter()
        for k in range(200):
            if k % 2 == 0:
                c = float(rng.uniform(0.2, 4.0))
                b = float(rng.uniform(-3.0, 3.0))
                lam = float(rng.uniform(0.01, 3.0))
                rp = rp_from([[c]], [b], b * b / c + 0.5)
                expect = np.array([solve_univariate(c, b, lam)])
            else:
                m = int(rng.integers(2, 9))
                diag = rng.uniform(0.2, 4.0, size=m)
                bhat = rng.standard_normal(m)
                lam = float(rng.uniform(0.01, 3.0))
                rp = rp_from(np.diag(diag), bhat, float(bhat @ (bhat / diag)) + 0.5)
                expect = solve_diagonal(diag, bhat, lam)
            sol = solve(rp, lam)
            worst = max(worst, float(np.abs(sol.coef[1:] - expect).max()))
        elapsed = time.perf_counter() - start
        record(
            1,
            worst <= 1e-10 and elapsed < 1.0,
            f"200 closed-form problems, max coef error {worst:.2e}, {elapsed:.2f}s",
        )

    def test_criterion_2_enumeration_oracle(self):
        rng = np.random.default_rng(102)
        worst = 0.0
        start = time.perf_counter()
        for _ in range(50):
            m = int(rng.integers(1, 7))
            rp = random_problem(rng, m)
            lam = float(rng.uniform(0.05, 1.5) * max(lambda_max(rp), 0.1))
            sol = solve(rp, lam)
            chat, bhat, _ = minor(rp)
            _, best_objective = enumerate_lasso(chat, bhat, lam)
            gap = reduced_objective(rp, lam, sol.coef) - best_objective
            worst = max(worst, gap)
        elapsed = time.perf_counter() - start
        record(
            2,
            worst <= 1e-8 and elapsed < 30.0,
            f"50 instances vs sign-pattern enumeration, worst objective gap "
            f"{worst:.2e}, {elapsed:.1f}s",
        )

    def test_criterion_3_error_path_bracket(self, path_runs):
        ok = True
        detail = ""
        for cov, target, rp, path, err0 in path_runs:
            cov_ii = cov.mat.data[target, target]
            if not path.monotone:
                ok, detail = False, f"path not monotone at target {target}"
                break
            if abs(path.errors[0] - cov_ii) > 1e-6 * cov_ii:
                ok, detail = False, f"top error {path.errors[0]} != {cov_ii}"
                break
            if min(path.errors) < err0 * (1.0 - 1e-6):
                ok, detail = False, f"error dips below the zero-penalty floor"
                break
        record(
            3,
            ok,
            detail
            or "50 paths nonincreasing and bracketed by Cov_ii and the "
            "zero-penalty error",
        )

    def test_criterion_4_redundancy_agreement(self):
        rng = np.random.default_rng(104)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 51))
            cond = float(rng.uniform(10.0, 1e6))
            cov = CovMatrix(SymmetricMatrix(spd_matrix(rng, n, cond=cond)), 10)
            rep = redundancy(cov, int(rng.integers(0, n)))
            routes = (
                rep.min_error,
                float(np.exp(rep.log_det_ratio)),
                1.0 / rep.eigen_error_sum,
            )
            lo, hi = min(routes), max(routes)
            worst = max(worst, (hi - lo) / hi)
        record(
            4,
            worst <= 1e-6,
            f"three redundancy routes on 100 matrices, worst relative spread "
            f"{worst:.2e}",
        )

    def test_criterion_5_lambda_max_empty_support(self):
        rng = np.random.default_rng(105)
        empty = 0
        for _ in range(100):
            rp = random_problem(rng, int(rng.integers(1, 13)))
            sol = solve(rp, 1.0001 * lambda_max(rp))
            empty += int(np.all(np.abs(sol.coef) <= SUPPORT_TOL))
        record(5, empty == 100, f"{empty}/100 empty supports at 1.0001 lambda_max")

    def test_criterion_6_screening_soundness(self):
        rng = np.random.default_rng(106)
        evaluations = 0
        unsound = 0
        for _ in range(100):
            n = 21
            cov = CovMatrix(SymmetricMatrix(spd_matrix(rng, n, cond=300.0)), 10)
            target = int(rng.integers(0, n))
            rp = reduce_problem(cov, target)
            lmax = lambda_max(rp)
            for lam in rng.uniform(0.01, 0.999, size=50) * lmax:
                rep = screen(cov, target, float(lam))
                evaluations += rp.m
                if not rep.certified_zero:
                    continue
                sol = solve(rp, float(lam))
                support = set(np.flatnonzero(np.abs(sol.coef) > SUPPORT_TOL))
                unsound += len(rep.certified_zero & support)
        record(
            6,
            unsound == 0,
            f"{evaluations} certificate evaluations, {unsound} unsound",
        )

    def test_criterion_7_slope_bound(self, path_runs):
        pairs = 0
        all_passed = True
        for cov, target, rp, path, err0 in path_runs:
            check = check_slope_bounds(rp, path)
            pairs += check.pairs
            all_passed = all_passed and check.passed
        record(
            7,
            all_passed and pairs > 0,
            f"slope bound held on {pairs} consecutive pairs over 50 paths",
        )

    def test_criterion_8_markov_consistency(self):
        spec = SyntheticSpec(n=8, samples=10000, latent_rank=8,
                             noise_sigma=0.3, seed=108)
        logits, _ = generate(spec)
        cov = finalize(accumulate(new_accumulator(8), logits))
        configs = 0
        ok = True
        for target in range(5):
            rp = reduce_problem(cov, target)
            lmax = lambda_max(rp)
            for frac in (0.5, 0.2, 0.1, 0.05):
                dep = embed(solve(rp, frac * lmax), rp)
                eps = max(1.0, 2.0 * np.sqrt(dep.pred_error))
                bound = min(1.0, dep.pred_error / eps)
                cert = certify(dep, tolerance=eps, tail_prob=bound)
                assert cert.holds
                x = logits.data @ dep.theta
                freq = float(np.mean(np.abs(x) >= eps))
                se = np.sqrt(bound * (1.0 - bound) / logits.samples)
                configs += 1
                if freq > bound + 3.0 * se:
                    ok = False
        record(
            8,
            ok and configs == 20,
            f"{configs} (theta, epsilon) configurations, N=10000, empirical "
            "tail within Markov bound + 3 SE",
        )

    def test_criterion_9_planted_recovery(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            support = rng.choice(np.arange(1, 50), size=3, replace=False)
            coeffs = {
                int(j): float(rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0]))
                for j in support
            }
            spec = SyntheticSpec(
                n=50, samples=2000, latent_rank=50, noise_sigma=0.0,
                planted=PlantedDependency(0, coeffs), seed=seed,
            )
            logits, truth = generate(spec)
            cov = finalize(accumulate(new_accumulator(50), logits))
            rp = reduce_problem(cov, 0)
            lmax = lambda_max(rp)
            path = solution_path(rp, np.geomspace(lmax, lmax / 1000.0, 30))
            for sol in path.solutions:
                rec = verify_recovery(embed(sol, rp), truth)
                if rec.precision == 1.0 and rec.recall == 1.0:
                    wins += 1
                    break
        record(9, wins == 20, f"{wins}/20 seeds hit precision = recall = 1")

    def test_criterion_10_end_to_end_replacement(self, tmp_path):
        logits_path = tmp_path / "logits.bin"
        code, out, err = run_cli(
            "synth", "--n", "50", "--samples", "20000", "--latent-rank", "50",
            "--noise-sigma", "0.1", "--plant", "0:7=0.8,19=-0.5,33=0.6",
            "--seed", "4", "--output", str(logits_path),
        )
        assert code == 0, err
        cov_path = tmp_path / "cov.bin"
        code, out, err = run_cli(
            "cov", "--input", str(logits_path), "--output", str(cov_path)
        )
        assert code == 0, err
        lmax = lambda_max(reduce_problem(read_cov(cov_path.read_bytes()), 0))
        report_path = tmp_path / "report.json"
        code, out, err = run_cli(
            "solve", "--cov", str(cov_path), "--target", "0",
            "--lambda", str(0.05 * lmax), "--logits", str(logits_path),
            "--output", str(report_path),
        )
        assert code == 0, err
        info = stdout_dict(out)
        drop = float(info["ori_acc"]) - float(info["acc"])
        code, out, err = run_cli(
            "eval", "--logits", str(logits_path), "--report", str(report_path)
        )
        assert code == 0, err
        record(
            10,
            drop < 0.01,
            f"accuracy drop {drop:.4f} after replacing the planted target "
            "(n=50, N=20000, sigma=0.1)",
        )

    def test_criterion_11_extension_fitting(self):
        rng = np.random.default_rng(2026)
        base_data = rng.standard_normal((2000, 12))
        z = np.hstack([base_data, 3.0 * base_data[:, [5]]])
        labels = np.argmax(z, axis=1)
        base = LogitMatrix(base_data)
        fit = fit_extension(base, labels, 1)
        pred = np.argmax(extended_logits(base, fit.matrix), axis=1)
        new_mask = labels == 12
        oracle_acc = 1.0  # labels are the scaled-column oracle's own argmax
        fit_acc = float(np.mean(pred[new_mask] == 12))

        theta = rng.standard_normal((12, 1)) * 0.2
        _, grad = extension_loss_grad(base_data, labels, theta)
        fd = np.zeros_like(theta)
        h = 1e-6
        for a in range(12):
            up, dn = theta.copy(), theta.copy()
            up[a, 0] += h
            dn[a, 0] -= h
            fd[a, 0] = (
                extension_loss_grad(base_data, labels, up)[0]
                - extension_loss_grad(base_data, labels, dn)[0]
            ) / (2 * h)
        rel = float(np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12))
        record(
            11,
            fit_acc >= 0.95 * oracle_acc and rel <= 1e-4,
            f"new-category accuracy {fit_acc:.3f} vs oracle {oracle_acc:.3f}, "
            f"gradient check {rel:.2e}",
        )

    def test_criterion_12_format_round_trips(self, tmp_path):
        rng = np.random.default_rng(112)
        ok = True
        for _ in range(20):
            samples = int(rng.integers(1, 40))
            n = int(rng.integers(1, 12))
            data = rng.standard_normal((samples, n))
            lab = rng.integers(0, n, size=samples) if rng.random() < 0.5 else None
            names = (
                tuple(f"name{k}" for k in range(n)) if rng.random() < 0.5 else None
            )
            m = LogitMatrix(data, lab, names)
            buf = write_logits(m)
            ok = ok and write_logits(read_logits(buf)) == buf
            cov = CovMatrix(
                SymmetricMatrix(spd_matrix(rng, max(n, 2))), samples
            )
            cbuf = write_cov(cov)
            ok = ok and write_cov(read_cov(cbuf)) == cbuf
        rp = random_problem(rng, 5)
        dep = embed(solve(rp, 0.2 * lambda_max(rp)), rp)
        text = emit_report(dep)
        ok = ok and serialize_report(parse_report(text)) == text

        good = write_logits(LogitMatrix(rng.standard_normal((4, 3))))
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(good[:30])
        code, _, err = run_cli(
            "cov", "--input", str(clipped), "--output", str(tmp_path / "c.bin")
        )
        ok = ok and code == 2 and "byte" in err
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("1.0,2.0\n3.0,oops\n")
        code, _, err = run_cli(
            "cov", "--input", str(bad_csv), "--output", str(tmp_path / "c.bin")
        )
        ok = ok and code == 2 and "line 2" in err
        record(
            12,
            ok,
            "binary, CSV-rejection and report round trips byte-exact; "
            "corrupted files exit 2 with positions",
        )

    def test_criterion_13_heuristic_screen_monitor(self):
        rng = np.random.default_rng(113)
        violations = 0
        certified = 0
        for _ in range(100):
            n = int(rng.integers(4, 16))
            cov = CovMatrix(SymmetricMatrix(spd_matrix(rng, n, cond=100.0)), 10)
            target = int(rng.integers(0, n))
            rp = reduce_problem(cov, target)
            lam = float(rng.uniform(0.05, 0.95)) * lambda_max(rp)
            if lam <= 0.0:
                continue
            rep = screen(cov, target, lam)
            if not rep.heuristic_zero:
                continue
            sol = solve(rp, lam)
            for j_full in rep.heuristic_zero:
                certified += 1
                j = j_full - 1 if j_full > target else j_full
                if abs(sol.coef[j]) > SUPPORT_TOL:
                    violations += 1
        rate = violations / certified if certified else 0.0
        # Non-gating monitor: the heuristic screen is expected to be
        # mostly right but carries no guarantee, so the rate is only
        # reported here.
        print(
            f"CRITERION 13: INFO - heuristic screen violation rate "
            f"{rate:.4f} ({violations}/{certified} over 100 instances)"
        )
