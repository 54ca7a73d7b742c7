import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covlasso
from covlasso import (
    CovMatrix,
    SymmetricMatrix,
    parse_report,
    read_cov,
    read_logits,
    reduce_problem,
    write_cov,
)
from covlasso import solver
from covlasso.cli import main
from covlasso.solver import lambda_max


def run_cli(*argv, env=None):
    out, err = io.StringIO(), io.StringIO()
    saved = {}
    env = env or {}
    for key, value in env.items():
        saved[key] = os.environ.get(key)
        os.environ[key] = value
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return code, out.getvalue(), err.getvalue()


def stdout_dict(text):
    pairs = [line.split("=", 1) for line in text.splitlines() if "=" in line]
    return {k: v for k, v in pairs}


def synth(tmp_path, name="logits.bin", **overrides):
    args = {
        "n": "8",
        "samples": "400",
        "latent-rank": "8",
        "plant": "0:2=0.5,5=-0.25",
        "seed": "11",
    }
    args.update(overrides)
    path = tmp_path / name
    argv = ["synth", "--output", str(path)]
    for key, value in args.items():
        if value is not None:
            argv += [f"--{key}", value]
    code, out, err = run_cli(*argv)
    assert code == 0, err
    return path


def build_cov(tmp_path, logits_path, name="cov.bin"):
    path = tmp_path / name
    code, out, err = run_cli(
        "cov", "--input", str(logits_path), "--output", str(path)
    )
    assert code == 0, err
    return path


def hilbert_cov(tmp_path, n=10):
    mat = np.array([[1.0 / (a + b + 1) for b in range(n)] for a in range(n)])
    path = tmp_path / "hilbert.cov"
    path.write_bytes(write_cov(CovMatrix(SymmetricMatrix(mat), 5)))
    return path


class TestSynth:
    def test_writes_readable_deterministic_file(self, tmp_path):
        path = synth(tmp_path)
        first = path.read_bytes()
        logits = read_logits(first)
        assert logits.n == 8 and logits.samples == 400
        assert logits.labels is not None
        synth(tmp_path)
        assert path.read_bytes() == first

    def test_truth_output(self, tmp_path):
        truth_path = tmp_path / "truth.json"
        code, out, err = run_cli(
            "synth", "--n", "4", "--samples", "10", "--latent-rank", "4",
            "--plant", "1:0=0.5", "--truth-output", str(truth_path),
            "--output", str(tmp_path / "x.bin"),
        )
        assert code == 0
        truth = json.loads(truth_path.read_text())
        assert truth["schema"] == "planted-truth"
        assert truth["target"] == 1
        assert truth["support"] == [0]
        assert truth["coefficients"] == [0.5]

    def test_truth_output_requires_plant(self, tmp_path):
        code, out, err = run_cli(
            "synth", "--n", "4", "--samples", "10", "--latent-rank", "4",
            "--truth-output", str(tmp_path / "t.json"),
            "--output", str(tmp_path / "x.bin"),
        )
        assert code == 2

    def test_bad_plant_spec(self, tmp_path):
        code, out, err = run_cli(
            "synth", "--n", "4", "--samples", "10", "--latent-rank", "4",
            "--plant", "nonsense", "--output", str(tmp_path / "x.bin"),
        )
        assert code == 2
        assert "plant" in err.lower() or "parse" in err.lower()


class TestCov:
    def test_binary_input(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        cov = read_cov(cov_path.read_bytes())
        assert cov.n == 8 and cov.sample_count == 400
        again = tmp_path / "cov2.bin"
        run_cli("cov", "--input", str(logits), "--output", str(again))
        assert again.read_bytes() == cov_path.read_bytes()

    def test_csv_input_with_labels(self, tmp_path):
        csv = tmp_path / "logits.csv"
        csv.write_text("a,b,y\n1.0,2.0,0\n3.0,4.0,1\n-1.0,0.5,1\n")
        out_path = tmp_path / "cov.bin"
        code, out, err = run_cli(
            "cov", "--input", str(csv), "--labels-col", "-1",
            "--output", str(out_path),
        )
        assert code == 0
        info = stdout_dict(out)
        assert info["n"] == "2" and info["samples"] == "3"

    def test_cross_cov_same_file_matches_cov(self, tmp_path):
        logits = synth(tmp_path)
        plain = build_cov(tmp_path, logits)
        crossed = tmp_path / "cross.bin"
        code, out, err = run_cli(
            "cross-cov", "--f", str(logits), "--g", str(logits),
            "--target", "0", "--output", str(crossed),
        )
        assert code == 0
        assert crossed.read_bytes() == plain.read_bytes()

    def test_rank_deficient_eig_min_clamped(self, tmp_path):
        # N=5 samples of n=20 categories: 15 zero eigenvalues, which come
        # back from LAPACK about -1e-15 and are clamped to zero.
        logits = synth(
            tmp_path, n="20", samples="5", **{"latent-rank": "4", "plant": None}
        )
        code, out, err = run_cli(
            "cov", "--input", str(logits), "--output", str(tmp_path / "c.bin")
        )
        assert code == 0, err
        said = stdout_dict(out)
        assert said["eig_min"] == "0.0"
        assert float(said["eig_max"]) > 0.0

    def test_module_entry_point(self, tmp_path):
        csv = tmp_path / "logits.csv"
        csv.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        env = dict(os.environ)
        src = str(Path(covlasso.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def run_module(*argv):
            return subprocess.run(
                [sys.executable, "-m", "covlasso.cli", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )

        out_path = tmp_path / "cov.bin"
        done = run_module("cov", "--input", str(csv), "--output", str(out_path))
        assert done.returncode == 0, done.stderr
        in_process = tmp_path / "cov2.bin"
        run_cli("cov", "--input", str(csv), "--output", str(in_process))
        assert out_path.read_bytes() == in_process.read_bytes()
        assert run_module("no-such-command").returncode != 0


class TestSolve:
    def test_pipeline_recovers_planted_support(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        report_path = tmp_path / "report.json"
        code, out, err = run_cli(
            "solve", "--cov", str(cov_path), "--target", "0",
            "--lambda", "0.01", "--logits", str(logits),
            "--output", str(report_path),
        )
        assert code == 0, err
        info = stdout_dict(out)
        assert info["converged"] == "true"
        assert info["kkt_valid"] == "true"
        rep = parse_report(report_path.read_text())
        support = {j for j, _, _ in rep.coefficients}
        assert {2, 5} <= support
        assert "acc" in info and "ori_acc" in info

    def test_above_lambda_max_gives_empty_support(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        cov = read_cov(cov_path.read_bytes())
        lmax = lambda_max(reduce_problem(cov, 0))
        code, out, err = run_cli(
            "solve", "--cov", str(cov_path), "--target", "0",
            "--lambda", str(1.1 * lmax), "--output", str(tmp_path / "r.json"),
        )
        assert code == 0
        assert stdout_dict(out)["support_size"] == "0"

    def test_model_tags_recorded(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        report_path = tmp_path / "r.json"
        code, out, err = run_cli(
            "solve", "--cov", str(cov_path), "--target", "0",
            "--lambda", "0.1", "--model-f", "netA", "--model-g", "netB",
            "--output", str(report_path),
        )
        assert code == 0
        rep = parse_report(report_path.read_text())
        assert rep.models == {"mode": "between", "source": "netB", "base": "netA"}

    def test_deterministic_report_bytes(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(
                "solve", "--cov", str(cov_path), "--target", "1",
                "--lambda", "0.05", "--output", str(path),
            )
        assert a.read_bytes() == b.read_bytes()


class TestEvalAndGraph:
    def test_eval_report_against_logits(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        report_path = tmp_path / "r.json"
        run_cli(
            "solve", "--cov", str(cov_path), "--target", "0",
            "--lambda", "0.01", "--output", str(report_path),
        )
        metrics_path = tmp_path / "m.json"
        code, out, err = run_cli(
            "eval", "--logits", str(logits), "--report", str(report_path),
            "--output", str(metrics_path),
        )
        assert code == 0, err
        info = stdout_dict(out)
        assert info["samples"] == "400"
        payload = json.loads(metrics_path.read_text())
        assert payload["schema"] == "eval-metrics"
        assert 0.0 <= payload["acc"] <= 1.0

    def test_graph_merges_reports(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        rep_a = tmp_path / "a.json"
        rep_b = tmp_path / "b.json"
        run_cli("solve", "--cov", str(cov_path), "--target", "0",
                "--lambda", "0.01", "--output", str(rep_a))
        run_cli("solve", "--cov", str(cov_path), "--target", "3",
                "--lambda", "0.01", "--output", str(rep_b))
        dot_path = tmp_path / "deps.dot"
        code, out, err = run_cli(
            "graph", "--report", str(rep_a), "--report", str(rep_b),
            "--output", str(dot_path),
        )
        assert code == 0
        text = dot_path.read_text()
        assert text.startswith("digraph dependencies {")
        edges = int(stdout_dict(out)["edges"])
        assert text.count("->") == edges > 0

    def test_fit_extension_with_labels_file(self, tmp_path):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((200, 4))
        z = np.hstack([base, 3.0 * base[:, [1]]])
        labels = np.argmax(z, axis=1)
        csv = tmp_path / "base.csv"
        csv.write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in base) + "\n"
        )
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("\n".join(str(int(v)) for v in labels) + "\n")
        out_path = tmp_path / "ext.json"
        code, out, err = run_cli(
            "fit-extension", "--logits", str(csv), "--labels", str(labels_path),
            "--new-count", "1", "--output", str(out_path),
        )
        assert code == 0, err
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == "extension-report"
        assert len(payload["theta"]) == 4
        assert payload["final_loss"] < payload["initial_loss"]

    def test_fit_extension_needs_labels(self, tmp_path):
        csv = tmp_path / "base.csv"
        csv.write_text("1.0,2.0\n3.0,4.0\n")
        code, out, err = run_cli(
            "fit-extension", "--logits", str(csv), "--new-count", "1",
            "--output", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "labels" in err


class TestPath:
    def test_auto_grid(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        out_path = tmp_path / "path.json"
        code, out, err = run_cli(
            "path", "--cov", str(cov_path), "--target", "0",
            "--auto-grid", "12", "--output", str(out_path),
        )
        assert code == 0, err
        info = stdout_dict(out)
        assert info["monotone"] == "true"
        assert info["slope_checked"] == "true"
        assert info["slope_passed"] == "true"
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == "dependency-path-report"
        assert payload["version"] == 3 and "floored" not in payload
        assert len(payload["points"]) == 12
        assert payload["slope_check"]["passed"] is True

    def test_explicit_grid_above_lambda_max_skips_slope(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        cov = read_cov(cov_path.read_bytes())
        lmax = lambda_max(reduce_problem(cov, 0))
        grid = f"{2.0 * lmax},{0.5 * lmax}"
        code, out, err = run_cli(
            "path", "--cov", str(cov_path), "--target", "0",
            "--lambda-grid", grid, "--output", str(tmp_path / "p.json"),
        )
        assert code == 0
        assert stdout_dict(out)["slope_checked"] == "false"

    def test_unsorted_grid_rejected(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        code, out, err = run_cli(
            "path", "--cov", str(cov_path), "--target", "0",
            "--lambda-grid", "0.1,0.5", "--output", str(tmp_path / "p.json"),
        )
        assert code == 2

    @pytest.mark.parametrize("size", ["-1", "0"])
    def test_auto_grid_below_one_rejected(self, tmp_path, size):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        code, out, err = run_cli(
            "path", "--cov", str(cov_path), "--target", "0",
            "--auto-grid", size, "--output", str(tmp_path / "p.json"),
        )
        assert code == 2
        assert "--auto-grid must be at least 1" in err
        assert not (tmp_path / "p.json").exists()

    def test_grid_options_mutually_exclusive(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        code, out, err = run_cli(
            "path", "--cov", str(cov_path), "--target", "0",
            "--lambda-grid", "0.5", "--auto-grid", "5",
            "--output", str(tmp_path / "p.json"),
        )
        assert code == 2


class TestScreenRedundancy:
    def test_screen_report(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        cov = read_cov(cov_path.read_bytes())
        lmax = lambda_max(reduce_problem(cov, 0))
        out_path = tmp_path / "screen.json"
        code, out, err = run_cli(
            "screen", "--cov", str(cov_path), "--target", "0",
            "--lambda", str(0.9 * lmax), "--output", str(out_path),
        )
        assert code == 0, err
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == "screening-report"
        assert payload["version"] == 2 and "floored" not in payload
        assert "floored" not in stdout_dict(out)
        assert len(payload["per_category"]) == 7
        assert payload["lambda_max"] == pytest.approx(lmax)

    def test_screen_out_of_range(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        for lam in ("0", "1e9"):
            code, out, err = run_cli(
                "screen", "--cov", str(cov_path), "--target", "0",
                "--lambda", lam, "--output", str(tmp_path / "s.json"),
            )
            assert code == 2

    def test_redundancy_report(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        out_path = tmp_path / "red.json"
        code, out, err = run_cli(
            "redundancy", "--cov", str(cov_path), "--target", "0",
            "--output", str(out_path),
        )
        assert code == 0, err
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == "redundancy-report"
        assert payload["version"] == 1 and "floored" in payload
        assert 0.0 <= payload["relative_error"] <= 1.0 + 1e-9
        assert payload["max_disagreement"] < 1e-6

    def test_target_out_of_range(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        code, out, err = run_cli(
            "redundancy", "--cov", str(cov_path), "--target", "99",
            "--output", str(tmp_path / "r.json"),
        )
        assert code == 2


class TestExitCodes:
    def test_usage_errors(self, tmp_path):
        assert run_cli()[0] == 2
        assert run_cli("frobnicate")[0] == 2
        assert run_cli("solve", "--cov", "x")[0] == 2  # missing required args

    def test_missing_file(self, tmp_path):
        code, out, err = run_cli(
            "cov", "--input", str(tmp_path / "nope.bin"),
            "--output", str(tmp_path / "c.bin"),
        )
        assert code == 2

    def test_corrupted_binary_cites_offset(self, tmp_path):
        logits = synth(tmp_path)
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(logits.read_bytes()[:40])
        code, out, err = run_cli(
            "cov", "--input", str(clipped), "--output", str(tmp_path / "c.bin")
        )
        assert code == 2
        assert "unexpected end" in err and "byte" in err

    def test_corrupted_csv_cites_line(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("1.0,2.0\n3.0,oops\n")
        code, out, err = run_cli(
            "cov", "--input", str(csv), "--output", str(tmp_path / "c.bin")
        )
        assert code == 2
        assert "line 2" in err

    def test_hilbert_converges(self, tmp_path):
        cov_path = hilbert_cov(tmp_path)
        code, out, err = run_cli(
            "solve", "--cov", str(cov_path), "--target", "0",
            "--lambda", "1e-10", "--output", str(tmp_path / "r.json"),
        )
        assert code == 0, err
        assert stdout_dict(out)["kkt_valid"] == "true"

    def test_not_converged_still_writes_report(self, tmp_path, monkeypatch):
        # The walk to 1e-10 on the Hilbert matrix needs 55 kinks; 9 run out.
        monkeypatch.setattr(solver, "KINK_CAP_PER_COORD", 1)
        cov_path = hilbert_cov(tmp_path)
        report_path = tmp_path / "r.json"
        code, out, err = run_cli(
            "solve", "--cov", str(cov_path), "--target", "0",
            "--lambda", "1e-10", "--output", str(report_path),
        )
        assert code == 3
        info = stdout_dict(out)
        assert info["converged"] == "false"
        assert info["kkt_valid"] == "false"
        rep = parse_report(report_path.read_text())
        assert rep.certificates["kkt_valid"] is False

    def test_not_converged_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "KINK_CAP_PER_COORD", 1)
        cov_path = hilbert_cov(tmp_path)
        out_path = tmp_path / "p.json"
        code, out, err = run_cli(
            "path", "--cov", str(cov_path), "--target", "0",
            "--lambda-grid", "1e-10", "--output", str(out_path),
        )
        assert code == 3
        (point,) = json.loads(out_path.read_text())["points"]
        assert point["converged"] is False and point["iterations"] == 9

    def test_strict_flags_degenerate_cov(self, tmp_path):
        # Only redundancy floors a spectrum, so only it takes --strict.
        mat = np.ones((3, 3))
        cov_path = tmp_path / "ones.cov"
        cov_path.write_bytes(write_cov(CovMatrix(SymmetricMatrix(mat), 2)))
        relaxed = run_cli(
            "redundancy", "--cov", str(cov_path), "--target", "0",
            "--output", str(tmp_path / "a.json"),
        )
        strict = run_cli(
            "redundancy", "--cov", str(cov_path), "--target", "0",
            "--strict", "--output", str(tmp_path / "b.json"),
        )
        assert relaxed[0] == 0
        assert stdout_dict(relaxed[1])["floored"] == "true"
        assert strict[0] == 4
        assert stdout_dict(strict[1])["floored"] == "true"
        for command in ("solve", "screen"):
            code, out, err = run_cli(
                command, "--cov", str(cov_path), "--target", "0",
                "--lambda", "0.5", "--strict", "--output", str(tmp_path / "c.json"),
            )
            assert code == 2 and "--strict" in err, command

    def test_singular_root_without_floor(self, tmp_path):
        # Certificates take no root, so a singular Chat needs no floor;
        # redundancy inverts Cov and reports it singular.
        cov_path = tmp_path / "ones.cov"
        cov_path.write_bytes(write_cov(CovMatrix(SymmetricMatrix(np.ones((3, 3))), 2)))
        for command in ("solve", "screen"):
            code, out, err = run_cli(
                command, "--cov", str(cov_path), "--target", "0",
                "--lambda", "0.5", "--output", str(tmp_path / f"{command}.json"),
                env={"ND_EIG_FLOOR": "0"},
            )
            assert code == 0, (command, err)
        code, out, err = run_cli(
            "redundancy", "--cov", str(cov_path), "--target", "0",
            "--output", str(tmp_path / "r.json"), env={"ND_EIG_FLOOR": "0"},
        )
        assert code == 4
        assert "numerically singular" in err

    def test_degenerate_target_auto_grid(self, tmp_path):
        mat = np.eye(3)
        cov_path = tmp_path / "eye.cov"
        cov_path.write_bytes(write_cov(CovMatrix(SymmetricMatrix(mat), 2)))
        code, out, err = run_cli(
            "path", "--cov", str(cov_path), "--target", "0",
            "--auto-grid", "5", "--output", str(tmp_path / "p.json"),
        )
        assert code == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_fit(self, tmp_path):
        csv = tmp_path / "base.csv"
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((20, 2)) * 10.0
        csv.write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n"
        )
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("\n".join("2" for _ in range(20)) + "\n")
        code, out, err = run_cli(
            "fit-extension", "--logits", str(csv), "--labels", str(labels_path),
            "--new-count", "1", "--step-size", "1e308", "--epochs", "5",
            "--output", str(tmp_path / "x.json"),
        )
        assert code == 4

    def test_eig_floor_env(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        for value in ("abc", "-1"):
            code, out, err = run_cli(
                "redundancy", "--cov", str(cov_path), "--target", "0",
                "--output", str(tmp_path / "r.json"), env={"ND_EIG_FLOOR": value},
            )
            assert code == 2, value
            assert "ND_EIG_FLOOR" in err
        huge = run_cli(
            "redundancy", "--cov", str(cov_path), "--target", "0",
            "--strict", "--output", str(tmp_path / "r.json"),
            env={"ND_EIG_FLOOR": "0.5"},
        )
        assert huge[0] == 4
        assert stdout_dict(huge[1])["floored"] == "true"

    def test_large_floor_keeps_relative_error_in_unit_interval(self, tmp_path):
        logits = synth(tmp_path, n="3", samples="2", **{"latent-rank": "1", "plant": None, "seed": "1"})
        cov_path = build_cov(tmp_path, logits)
        for target in ("0", "1"):
            out_path = tmp_path / f"r{target}.json"
            argv = ("redundancy", "--cov", str(cov_path), "--target", target, "--output", str(out_path))
            code, out, err = run_cli(*argv, env={"ND_EIG_FLOOR": "0.5"})
            assert code == 0, err
            payload = json.loads(out_path.read_text())
            assert payload["floored"] is True
            assert 0.0 <= payload["relative_error"] <= 1.0
            assert float(stdout_dict(out)["relative_error"]) == payload["relative_error"]
            strict = run_cli(*argv, "--strict", env={"ND_EIG_FLOOR": "0.5"})
            assert strict[0] == 4

    def test_eig_floor_env_ignored_outside_redundancy(self, tmp_path):
        path = tmp_path / "logits.bin"
        code, out, err = run_cli(
            "synth", "--n", "6", "--samples", "200", "--latent-rank", "6",
            "--output", str(path), env={"ND_EIG_FLOOR": "abc"},
        )
        assert code == 0, err
        cov_path = build_cov(tmp_path, path)
        code, out, err = run_cli(
            "solve", "--cov", str(cov_path), "--target", "0",
            "--lambda", "0.1", "--output", str(tmp_path / "r.json"),
            env={"ND_EIG_FLOOR": "abc"},
        )
        assert code == 0, err
        assert "floored" not in stdout_dict(out)
