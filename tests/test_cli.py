import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import covlasso
from covlasso import (
    CovMatrix,
    LogitMatrix,
    parse_report,
    read_cov,
    read_logits,
    reduce_problem,
    write_cov,
    write_logits,
)
from covlasso import solver
from covlasso.cli import main
from covlasso.reports import format_float
from covlasso.solver import lambda_max


BIG = "99999999999999999999"  # past int64, so past numpy's dimension limit


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


def run_module(*argv, flags=(), preamble=None, env=None):
    """Run ``python [flags] -m covlasso.cli`` in a fresh interpreter.

    Warning filters are the defaults unless ``flags`` sets them.  A
    ``preamble`` runs in that interpreter before the CLI does, and
    ``env`` adds variables to its environment.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"} | (env or {})
    src = str(Path(covlasso.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    entry = ["-m", "covlasso.cli"]
    if preamble is not None:
        entry = ["-c", f"{preamble}\nfrom covlasso.cli import entrypoint\nentrypoint()"]
    return subprocess.run(
        [sys.executable, *flags, *entry, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


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
    path.write_bytes(write_cov(CovMatrix(mat, 5)))
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
        # The README walkthrough's truth file, byte for byte.
        code, out, err = run_cli(
            "synth", "--n", "8", "--samples", "4000", "--latent-rank", "8",
            "--noise-sigma", "0.05", "--plant", "0:2=0.5,5=-0.25", "--seed", "7",
            "--output", str(tmp_path / "logits.bin"),
            "--truth-output", str(truth_path),
        )
        assert code == 0, err
        assert truth_path.read_bytes() == (
            b'{"coefficients":[0.5,-0.25],"n":8,"noise_sigma":0.050000000000000003,'
            b'"schema":"planted-truth","support":[2,5],"target":0,"version":1}\n'
        )

    def test_repeated_plant_index_rejected(self, tmp_path):
        code, out, err = run_cli(
            "synth", "--n", "6", "--samples", "50", "--latent-rank", "3",
            "--plant", "0:1=0.5,1=0.3", "--truth-output", str(tmp_path / "t.json"),
            "--output", str(tmp_path / "x.bin"),
        )
        assert code == 2
        assert "planted index 1 repeated" in err
        assert out == ""
        assert not (tmp_path / "x.bin").exists()
        assert not (tmp_path / "t.json").exists()

    def test_noise_sigma_requires_plant(self, tmp_path):
        code, out, err = run_cli(
            "synth", "--n", "6", "--samples", "50", "--latent-rank", "3",
            "--noise-sigma", "0.5", "--output", str(tmp_path / "x.bin"),
        )
        assert code == 2
        assert (
            "noise sigma 0.5 needs a planted dependency: "
            "noise is added to the planted target only"
        ) in err
        assert out == ""
        assert not (tmp_path / "x.bin").exists()

    def test_truth_output_requires_plant(self, tmp_path):
        code, out, err = run_cli(
            "synth", "--n", "4", "--samples", "10", "--latent-rank", "4",
            "--truth-output", str(tmp_path / "t.json"),
            "--output", str(tmp_path / "x.bin"),
        )
        assert code == 2
        assert "--truth-output needs a planted dependency" in err
        # Rejected before generating: neither file is written.
        assert not (tmp_path / "x.bin").exists()
        assert not (tmp_path / "t.json").exists()

    def test_seed_outside_its_range_rejected(self, tmp_path):
        # 2^64 would otherwise name the same stream as seed 0.
        out_path = tmp_path / "x.bin"
        for seed in ("18446744073709551616", "-9223372036854775809"):
            code, out, err = run_cli(
                "synth", "--n", "3", "--samples", "20", "--latent-rank", "3",
                "--seed", seed, "--output", str(out_path),
            )
            assert code == 2
            assert err == f"covlasso: seed must lie in [-2^63, 2^64), got {seed}\n"
            assert out == "" and not out_path.exists()
        for seed in ("18446744073709551615", "-9223372036854775808"):
            code, out, err = run_cli(
                "synth", "--n", "3", "--samples", "20", "--latent-rank", "3",
                "--seed", seed, "--output", str(out_path),
            )
            assert code == 0, err
            assert stdout_dict(out)["seed"] == seed

    def test_overflowing_plant_is_one_line(self, tmp_path):
        # Overflow in the planted combination or its noise must not leak
        # a numpy warning.
        out_path = tmp_path / "x.bin"
        for plant in (("0:1=1e308,2=1e308",), ("0:1=1", "--noise-sigma", "1e308")):
            done = run_module(
                "synth", "--n", "3", "--samples", "20", "--latent-rank", "3",
                "--plant", *plant, "--output", str(out_path),
            )
            assert done.returncode == 2
            assert done.stderr == "covlasso: logit data has non-finite entries\n"
            assert done.stdout == "" and not out_path.exists()

    def test_bad_plant_spec(self, tmp_path):
        code, out, err = run_cli(
            "synth", "--n", "4", "--samples", "10", "--latent-rank", "4",
            "--plant", "nonsense", "--output", str(tmp_path / "x.bin"),
        )
        assert code == 2
        assert "plant" in err.lower() or "parse" in err.lower()


def blas_threads(count):
    """Environment that sets the BLAS thread count before numpy loads."""
    return {key: str(count) for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class TestBlasThreadCount:
    """What README's Determinism section calls stable across BLAS thread counts."""

    SYNTH = (
        "synth", "--n", "300", "--samples", "3000", "--latent-rank", "40",
        "--noise-sigma", "0.05", "--plant", "0:2=0.5,5=-0.25", "--seed", "3",
    )

    def test_synth_bytes(self, tmp_path):
        files = []
        for threads in (1, 2):
            files.append(tmp_path / f"logits{threads}.bin")
            done = run_module(*self.SYNTH, "--output", str(files[-1]), env=blas_threads(threads))
            assert done.returncode == 0, done.stderr
        assert files[0].read_bytes() == files[1].read_bytes()

    def test_solve_and_path_supports_and_kinks(self, tmp_path):
        code, out, err = run_cli(*self.SYNTH, "--output", str(tmp_path / "logits.bin"))
        assert code == 0, err
        cov = build_cov(tmp_path, tmp_path / "logits.bin")
        seen = []
        for threads in (1, 2):
            sol, path = tmp_path / f"solve{threads}.json", tmp_path / f"path{threads}.json"
            for argv in (
                ("solve", "--cov", str(cov), "--target", "0", "--lambda", "0.01", "--output", str(sol)),
                ("path", "--cov", str(cov), "--target", "0", "--auto-grid", "6", "--output", str(path)),
            ):
                done = run_module(*argv, env=blas_threads(threads))
                assert done.returncode == 0, done.stderr
            rep, points = json.loads(sol.read_text()), json.loads(path.read_text())["points"]
            seen.append((
                [c["index"] for c in rep["coefficients"]],
                rep["certificates"]["kkt_valid"],
                [(p["support_size"], p["iterations"]) for p in points],
            ))
        assert seen[0] == seen[1]
        assert {2, 5} <= set(seen[0][0])


class TestCov:
    def test_binary_input(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        cov = read_cov(cov_path.read_bytes())
        assert cov.n == 8 and cov.sample_count == 400
        # Within 2(N + 8)u (|X|^T |X|) / N of the GEMM mean, which is
        # itself within N u of the exact one.
        x = read_logits(logits.read_bytes()).data
        bound = 2 * (400 + 8) * 2.0**-53 * (np.abs(x).T @ np.abs(x) / 400)
        assert (np.abs(cov.data - x.T @ x / 400) <= bound).all()
        again = tmp_path / "cov2.bin"
        run_cli("cov", "--input", str(logits), "--output", str(again))
        assert again.read_bytes() == cov_path.read_bytes()

    def test_binary_input_is_held_once(self, tmp_path):
        # The file is read into one buffer whose payload is aligned, and
        # the logits are used in place: no second copy of the payload.
        data = np.random.default_rng(0).normal(size=(20000, 50))
        path = tmp_path / "big.bin"
        path.write_bytes(write_logits(LogitMatrix(data)))
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                "cov", "--input", str(path), "--output", str(tmp_path / "cov.bin")
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 1.5 * path.stat().st_size, peak

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_binary_input_from_a_pipe(self, tmp_path):
        # A pipe has no size to read into; all it holds is read all the same.
        logits = synth(tmp_path)
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(
            target=pipe.write_bytes, args=(logits.read_bytes(),), daemon=True
        )
        writer.start()
        out_path = tmp_path / "piped.bin"
        code, out, err = run_cli("cov", "--input", str(pipe), "--output", str(out_path))
        writer.join(timeout=60)
        assert code == 0, err
        assert not writer.is_alive()
        assert out_path.read_bytes() == build_cov(tmp_path, logits).read_bytes()

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

    def test_labels_col_rejected_on_ndlm_input(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        runs = {
            "cov": ("cov", "--input", str(logits), "--output", str(tmp_path / "c.bin")),
            "solve": (
                "solve", "--cov", str(cov_path), "--target", "0", "--lambda", "0.1",
                "--logits", str(logits), "--output", str(tmp_path / "r.json"),
            ),
        }
        for name, argv in runs.items():
            code, out, err = run_cli(*argv, "--labels-col", "2")
            assert code == 2, name
            assert "--labels-col applies to CSV input; NDLM files carry their labels" in err
            assert out == ""
        assert not (tmp_path / "c.bin").exists() and not (tmp_path / "r.json").exists()

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
        # N=5 samples of n=20 categories: 15 eigenvalues are rounding
        # error.  cov prints no spectrum, and solve's PSD check on
        # reading accepts the file.
        logits = synth(
            tmp_path, n="20", samples="5", **{"latent-rank": "4", "plant": None}
        )
        cov_path = tmp_path / "c.bin"
        code, out, err = run_cli(
            "cov", "--input", str(logits), "--output", str(cov_path)
        )
        assert code == 0, err
        assert out == f"n=20\nsamples=5\noutput={cov_path}\n"
        code, out, err = run_cli(
            "solve", "--cov", str(cov_path), "--target", "0", "--lambda", "0.1",
            "--output", str(tmp_path / "r.json"),
        )
        assert code == 0, err

    def test_csv_byte_order_mark_is_skipped(self, tmp_path):
        # A BOM before a headerless first row must not make that row a
        # header named '\ufeff1.0', '2.0', which would drop a sample.
        plain = tmp_path / "plain.csv"
        plain.write_text("1.0,2.0\n3.0,4.0\n")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for csv in (plain, marked):
            code, out, err = run_cli(
                "cov", "--input", str(csv), "--output", str(csv.with_suffix(".bin"))
            )
            assert code == 0, err
            assert stdout_dict(out)["samples"] == "2"
        cov_bytes = [csv.with_suffix(".bin").read_bytes() for csv in (plain, marked)]
        assert cov_bytes[0] == cov_bytes[1]

    def test_module_entry_point(self, tmp_path):
        csv = tmp_path / "logits.csv"
        csv.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        out_path = tmp_path / "cov.bin"
        done = run_module("cov", "--input", str(csv), "--output", str(out_path))
        assert done.returncode == 0, done.stderr
        in_process = tmp_path / "cov2.bin"
        run_cli("cov", "--input", str(csv), "--output", str(in_process))
        assert out_path.read_bytes() == in_process.read_bytes()
        assert run_module("no-such-command").returncode != 0


    def test_overflowing_second_moment_is_one_line(self, tmp_path):
        # Finite logits whose squares overflow float64: one message and
        # exit 2, with no numpy warning even when warnings are errors.
        data = np.zeros((300, 3))
        data[5, 1] = 1e200
        logits = tmp_path / "huge.bin"
        logits.write_bytes(write_logits(LogitMatrix(data)))
        out_path = tmp_path / "c.bin"
        for argv in (
            ("cov", "--input", str(logits)),
            ("cross-cov", "--f", str(logits), "--g", str(logits), "--target", "0"),
        ):
            done = run_module(*argv, "--output", str(out_path), flags=("-W", "error"))
            assert done.returncode == 2, done.stderr
            assert done.stderr == "covlasso: second moment overflows float64\n"
            assert done.stdout == "" and not out_path.exists()


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

    def test_model_f_alone_is_within_one_model(self, tmp_path):
        cov_path = build_cov(tmp_path, synth(tmp_path))
        report_path = tmp_path / "r.json"
        code, out, err = run_cli(
            "solve", "--cov", str(cov_path), "--target", "0",
            "--lambda", "0.1", "--model-f", "netA", "--output", str(report_path),
        )
        assert code == 0, err
        assert '"models":{"mode":"within","model":"netA"}' in report_path.read_text()

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

    def test_eval_of_a_report_matches_its_solve_metrics(self, tmp_path):
        # solve scores the solved theta; eval rebuilds theta from the report.
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        report_path = tmp_path / "r.json"
        code, _, err = run_cli(
            "solve", "--cov", str(cov_path), "--target", "0",
            "--lambda", "0.01", "--logits", str(logits),
            "--output", str(report_path),
        )
        assert code == 0, err
        metrics_path = tmp_path / "m.json"
        code, _, err = run_cli(
            "eval", "--logits", str(logits), "--report", str(report_path),
            "--output", str(metrics_path),
        )
        assert code == 0, err
        solved = json.loads(report_path.read_text())["metrics"]
        evaluated = json.loads(metrics_path.read_text())
        assert solved["positives"] > 0
        assert evaluated["target"] == 0
        assert {key: evaluated[key] for key in solved} == solved

    def test_eval_reproduces_metrics_with_a_tiny_coefficient(self, tmp_path):
        # Just below lambda_max the one active coefficient is about 3e-13:
        # the report must list it, because solve scored it.
        logits = synth(tmp_path, **{"latent-rank": "4", "plant": None, "seed": "2"})
        cov_path = build_cov(tmp_path, logits)
        lmax = lambda_max(reduce_problem(read_cov(cov_path.read_bytes()), 0))
        report_path = tmp_path / "r.json"
        code, out, err = run_cli(
            "solve", "--cov", str(cov_path), "--target", "0",
            "--lambda", repr(lmax * (1.0 - 1e-12)), "--logits", str(logits),
            "--output", str(report_path),
        )
        assert code == 0, err
        assert stdout_dict(out)["support_size"] == "1"
        report = parse_report(report_path.read_text())
        assert [(j, abs(v) < 1e-12) for j, _, v in report.coefficients] == [(2, True)]
        code, out, err = run_cli(
            "eval", "--logits", str(logits), "--report", str(report_path),
            "--output", str(tmp_path / "m.json"),
        )
        assert code == 0, err
        evaluated = stdout_dict(out)
        for key in ("abs_err", "rel_err", "acc", "ori_acc"):
            assert evaluated[key] == format_float(report.metrics[key]), key

    def test_eval_rejects_mistyped_report_fields(self, tmp_path):
        # Each field keeps its JSON type: a coefficient index of 2.5 must
        # not be read as 2 and scored as that category, and an integer
        # value too large for a float must exit 2, not raise.
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        report_path = tmp_path / "r.json"
        code, _, err = run_cli(
            "solve", "--cov", str(cov_path), "--target", "0",
            "--lambda", "0.01", "--output", str(report_path),
        )
        assert code == 0, err
        good = json.loads(report_path.read_text())
        index = good["coefficients"][0]["index"]
        edits = [
            ("coefficients", 0, "index", index + 0.5),
            ("coefficients", 0, "index", str(index)),
            ("coefficients", 0, "index", True),
            ("coefficients", 0, "name", 7),
            ("coefficients", 0, "value", True),
            ("coefficients", 0, "value", 10**400),
            ("target", "index", 0.0),
            ("target", "name", None),
            ("lambda", "0.01"),
            ("lambda", True),
            ("pred_error", False),
        ]
        for *where, key, value in edits:
            payload = json.loads(report_path.read_text())
            block = payload
            for step in where:
                block = block[step]
            block[key] = value
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(payload))
            code, out, err = run_cli(
                "eval", "--logits", str(logits), "--report", str(bad)
            )
            assert code == 2, (where, key, value)
            assert "mistype" in err and out == "", (where, key, value)

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

    def test_graph_rejects_two_reports_for_one_target(self, tmp_path):
        logits = synth(tmp_path)
        cov_path = build_cov(tmp_path, logits)
        rep_a = tmp_path / "a.json"
        run_cli("solve", "--cov", str(cov_path), "--target", "0",
                "--lambda", "0.01", "--output", str(rep_a))
        rep_b = tmp_path / "b.json"
        rep_b.write_bytes(rep_a.read_bytes())
        dot_path = tmp_path / "deps.dot"
        for second in (rep_a, rep_b):
            code, out, err = run_cli(
                "graph", "--report", str(rep_a), "--report", str(second),
                "--output", str(dot_path),
            )
            assert code == 2 and out == ""
            assert f"reports {rep_a} and {second} share target" in err
            assert not dot_path.exists()

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
        assert payload["version"] == 3 and "step_size" not in payload
        assert len(payload["theta"]) == 4
        assert payload["final_loss"] < payload["initial_loss"]
        # --epochs is a cap: the fit stops once it converges.
        assert payload["converged"] is True and payload["epochs"] == 500
        assert 0 < payload["epochs_run"] < 500
        said = dict(line.split("=", 1) for line in out.splitlines())
        assert said["converged"] == "true"
        assert said["epochs_run"] == str(payload["epochs_run"])

    def test_fit_extension_cap_is_not_a_failure(self, tmp_path):
        # A fit that reaches its cap before the stopping rule still exits 0,
        # and says it did not converge.
        logits = synth(tmp_path)
        out_path = tmp_path / "ext.json"
        code, out, err = run_cli(
            "fit-extension", "--logits", str(logits), "--new-count", "2",
            "--epochs", "5", "--output", str(out_path),
        )
        assert code == 0 and err == ""
        payload = json.loads(out_path.read_text())
        assert payload["converged"] is False
        assert payload["epochs"] == payload["epochs_run"] == 5
        said = dict(line.split("=", 1) for line in out.splitlines())
        assert said["converged"] == "false" and said["epochs_run"] == "5"

    def test_fit_extension_reads_labels_embedded_in_the_logit_file(self, tmp_path):
        logits = synth(tmp_path)
        labels_path = tmp_path / "labels.txt"
        labels = read_logits(logits.read_bytes()).labels
        labels_path.write_text(" ".join(str(int(v)) for v in labels))
        runs = {}
        for name, extra in (("embedded", ()), ("file", ("--labels", str(labels_path)))):
            out_path = tmp_path / f"{name}.json"
            code, out, err = run_cli(
                "fit-extension", "--logits", str(logits), *extra, "--new-count", "2",
                "--epochs", "5", "--output", str(out_path),
            )
            assert code == 0 and err == ""
            runs[name] = (out.replace(str(out_path), "OUT"), out_path.read_bytes())
        assert runs["embedded"] == runs["file"]

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

    @pytest.mark.parametrize("grid", ["0.5, 0.1,,0.01", "0.5,0.05,", ",0.5", " , ", ""])
    def test_empty_grid_entry_rejected(self, tmp_path, grid):
        # An empty entry is refused, as an empty CSV cell is, not dropped.
        cov_path = build_cov(tmp_path, synth(tmp_path))
        out_path = tmp_path / "p.json"
        code, out, err = run_cli(
            "path", "--cov", str(cov_path), "--target", "0",
            "--lambda-grid", grid, "--output", str(out_path),
        )
        assert code == 2 and out == ""
        assert err == f"covlasso: could not parse --lambda-grid {grid!r}\n"
        assert not out_path.exists()

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
        assert payload["version"] == 2 and "floored" in payload
        assert "log_det_ratio" not in payload
        assert 0.0 <= payload["relative_error"] <= 1.0 + 1e-9
        assert payload["max_disagreement"] < 1e-6

    def test_redundancy_of_a_finite_file_near_overflow(self, tmp_path):
        # The stored triangle [1e308, 0, 1] is finite and PSD; symmetrizing
        # it as (M + M.T) / 2 made its diagonal inf.
        header = write_cov(CovMatrix(np.eye(2), 3))[:-24]
        cov_path = tmp_path / "big.cov"
        cov_path.write_bytes(header + np.array([1e308, 0.0, 1.0], "<f8").tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                "redundancy", "--cov", str(cov_path), "--target", "1",
                "--output", str(tmp_path / "r.json"),
            )
        assert code == 0, err
        said = stdout_dict(out)
        assert said["min_error"] == "1.0" and said["floored"] == "true"

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
        # The stored triangle [1, 2, 1] has eigenvalues 3 and -1.
        indefinite = tmp_path / "indefinite.cov"
        header = write_cov(CovMatrix(np.eye(2), 1))[:-24]
        indefinite.write_bytes(header + np.array([1.0, 2.0, 1.0], "<f8").tobytes())
        code, out, err = run_cli(
            "solve", "--cov", str(indefinite), "--target", "0", "--lambda", "0.05",
            "--output", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "not positive semidefinite" in err and "(byte 24)" in err

    def test_logits_neither_ndlm_nor_utf8(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\n")
        code, out, err = run_cli("cov", "--input", str(bad), "--output", str(tmp_path / "c.bin"))
        assert code == 2 and out == ""
        assert err == (
            f"covlasso: {bad} is neither a logit file nor UTF-8 CSV: 'utf-8' codec "
            "can't decode byte 0xff in position 0: invalid start byte\n"
        )
        assert not (tmp_path / "c.bin").exists()

    @pytest.mark.parametrize(
        "argv, shape",
        [
            (("synth", "--n", BIG, "--samples", "5", "--latent-rank", "2"), f"({BIG}, 2)"),
            (("synth", "--n", "5", "--samples", BIG, "--latent-rank", "2"), f"({BIG}, 2)"),
            (("synth", "--n", "5", "--samples", "5", "--latent-rank", BIG), f"(5, {BIG})"),
            (("synth", "--n", "4294967296", "--samples", "4294967296", "--latent-rank", "8"),
             "(4294967296, 4294967296)"),
            (("fit-extension", "--logits", "LOGITS", "--new-count", BIG), f"(8, {BIG})"),
            (("path", "--cov", "COV", "--target", "0", "--auto-grid", BIG), f"({BIG},)"),
        ],
    )
    def test_sizes_past_numpys_limit_are_rejected(self, tmp_path, argv, shape):
        # Refused before numpy allocates: the call's traced peak stays small.
        logits = synth(tmp_path)
        paths = {"LOGITS": str(logits), "COV": str(build_cov(tmp_path, logits))}
        out_path = tmp_path / "out"
        argv = [paths.get(a, a) for a in argv] + ["--output", str(out_path)]
        tracemalloc.start()
        try:
            code, out, err = run_cli(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err == f"covlasso: float64 array of shape {shape} exceeds 2^63 - 1 bytes\n"
        assert not out_path.exists()
        assert peak < 1 << 24, peak  # imports included; any of these arrays is far larger

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    def test_out_of_memory_is_one_line(self, tmp_path):
        # A 74.5 GiB matrix passes the 2^63-byte check but not the 3 GiB of
        # address space the child allows itself.  The test process
        # allocates nothing large.
        out_path = tmp_path / "x.bin"
        done = run_module(
            "synth", "--n", "100000", "--samples", "100000", "--latent-rank", "2",
            "--output", str(out_path),
            preamble="import resource; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))",
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("covlasso: ") and done.stderr.count("\n") == 1
        assert "shape (100000, 100000)" in done.stderr
        assert done.stdout == "" and not out_path.exists()

    def test_corrupted_csv_cites_line(self, tmp_path):
        # The first fault in file order is reported: the bad cell, not
        # the empty line after it.
        csv = tmp_path / "bad.csv"
        for text, message in (
            ("1.0,2.0\n3.0,oops\n", "line 2"),
            ("1,2\nx,3\n\n", "line 2"),
            ("a,a\n1,2\n", "repeated name 'a'"),
        ):
            csv.write_text(text)
            code, out, err = run_cli(
                "cov", "--input", str(csv), "--output", str(tmp_path / "c.bin")
            )
            assert code == 2, text
            assert message in err, text

    def test_underscore_numerals_rejected(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("1_0,2\n3,4\n")
        code, out, err = run_cli("cov", "--input", str(csv), "--output", str(tmp_path / "c.bin"))
        assert code == 2
        assert "'1_0' is not a number (line 1, column 1)" in err
        csv.write_text("1,2\n3,4\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("0_0 1\n")
        code, out, err = run_cli(
            "fit-extension", "--logits", str(csv), "--labels", str(labels),
            "--new-count", "1", "--output", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "must contain whitespace-separated integers" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--target", "0", "--lambda", "0_0.05"], "invalid float value: '0_0.05'"),
            (["solve", "--target", "\u0660", "--lambda", "0.05"], "invalid int value: '\u0660'"),
            (["path", "--target", "0", "--lambda-grid", "0_0.5,0.01"], "could not parse --lambda-grid"),
            (["synth", "--seed", "1_0"], "invalid int value: '1_0'"),
            (["synth", "--plant", "0:1_0=0.5"], "could not parse --plant '0:1_0=0.5'"),
        ],
    )
    def test_option_numerals_follow_the_csv_rule(self, tmp_path, argv, message):
        # int and float would run these as lambda 0.05, target 0, a
        # two-point grid, seed 10 and planted index 10.
        if argv[0] == "synth":
            argv = [*argv, "--n", "12", "--samples", "40", "--latent-rank", "3"]
        else:
            argv = [*argv, "--cov", str(build_cov(tmp_path, synth(tmp_path)))]
        out_path = tmp_path / "out"
        code, out, err = run_cli(*argv, "--output", str(out_path))
        assert code == 2
        assert message in err
        assert out == "" and not out_path.exists()

    @pytest.mark.parametrize("token", ["1_0", "\u0661\u0662", " 7 ", "+7", "1e3", "0x10", "nan", ""])
    def test_options_and_csv_cells_accept_the_same_numerals(self, token):
        from covlasso.cli import build_parser
        from covlasso.formats import _ascii_number

        def option(text, kind):
            argv = ["solve", "--cov", "c", "--target", "0", "--lambda", "1", "--output", "o"]
            argv[argv.index("--target" if kind is int else "--lambda") + 1] = text
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    args = build_parser().parse_args(argv)
            except SystemExit:
                raise ValueError(text) from None
            return args.target if kind is int else args.lam

        def outcome(parse, kind):
            try:
                return repr(parse(token, kind))
            except ValueError:
                return "rejected"

        for kind in (int, float):
            assert outcome(option, kind) == outcome(_ascii_number, kind)

    def test_non_utf8_report_names_the_file(self, tmp_path):
        logits = synth(tmp_path)
        report = tmp_path / "report.json"
        report.write_bytes(b"\xff\xfe{}")
        for argv in (
            ["eval", "--logits", str(logits), "--report", str(report)],
            ["graph", "--report", str(report), "--output", str(tmp_path / "g.dot")],
        ):
            code, out, err = run_cli(*argv)
            assert code == 2
            assert str(report) in err and "UTF-8" in err

    def test_penalty_whose_reciprocal_overflows_is_rejected(self, tmp_path):
        # sqrt(2)/lam and 1/lam overflow float64 at lam = 1e-320.
        cov_path = build_cov(tmp_path, synth(tmp_path))
        out_path = tmp_path / "out.json"
        for argv in (
            ["solve", "--lambda", "1e-320"],
            ["screen", "--lambda", "1e-320"],
            ["path", "--lambda-grid", "1e-320"],
        ):
            code, out, err = run_cli(
                *argv, "--cov", str(cov_path), "--target", "0",
                "--output", str(out_path),
            )
            assert code == 2, (argv, out, err)
            assert "covlasso: penalty 1e-320 is too small: the " in err, argv
            assert not out_path.exists(), argv

    def test_hilbert_at_tiny_penalty_fails_kkt(self, tmp_path):
        # The walk to 1e-10 ends within its kinks, but on a matrix this
        # ill-conditioned its point violates KKT by 7% of lam/2, above the
        # tolerance: the point is reported, not certified.
        cov_path = hilbert_cov(tmp_path)
        code, out, err = run_cli(
            "solve", "--cov", str(cov_path), "--target", "0",
            "--lambda", "1e-10", "--output", str(tmp_path / "r.json"),
        )
        assert code == 3, err
        assert stdout_dict(out)["kkt_valid"] == "false"

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

    def test_unconverged_point_skips_the_slope_check(self, tmp_path, monkeypatch):
        # Both penalties lie below lambda_max = 1, so only the kink budget
        # running out keeps the slope bound from applying.
        monkeypatch.setattr(solver, "KINK_CAP_PER_COORD", 1)
        cov_path = hilbert_cov(tmp_path)
        out_path = tmp_path / "p.json"
        code, out, err = run_cli(
            "path", "--cov", str(cov_path), "--target", "0",
            "--lambda-grid", "1e-3,1e-10", "--output", str(out_path),
        )
        assert code == 3, err
        info = stdout_dict(out)
        assert info["slope_checked"] == "false" and "slope_passed" not in info
        payload = json.loads(out_path.read_text())
        assert payload["lambda_max"] == 1.0
        assert [p["converged"] for p in payload["points"]] == [False, False]
        assert payload["slope_check"] is None

    def test_labels_file_that_is_not_utf8_is_rejected(self, tmp_path):
        csv = tmp_path / "base.csv"
        csv.write_text("1,2\n3,4\n")
        labels = tmp_path / "labels.txt"
        labels.write_bytes(b"\xff\n")
        code, out, err = run_cli(
            "fit-extension", "--logits", str(csv), "--labels", str(labels),
            "--new-count", "1", "--output", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert err == (
            f"covlasso: labels file {labels} must contain "
            "whitespace-separated integers\n"
        )
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("label", ["99999999999999999999", "-9223372036854775809"])
    def test_labels_file_beyond_int64_is_rejected(self, tmp_path, label):
        csv = tmp_path / "base.csv"
        csv.write_text("1,2\n3,4\n")
        labels = tmp_path / "labels.txt"
        labels.write_text(f"0 {label}\n")
        code, out, err = run_cli(
            "fit-extension", "--logits", str(csv), "--labels", str(labels),
            "--new-count", "1", "--output", str(tmp_path / "x.json"),
        )
        assert code == 2 and out == ""
        assert err == (
            f"covlasso: labels file {labels} holds a label outside the int64 range\n"
        )
        assert not (tmp_path / "x.json").exists()

    def test_strict_flags_degenerate_cov(self, tmp_path):
        # Only redundancy floors a spectrum, so only it takes --strict.
        mat = np.ones((3, 3))
        cov_path = tmp_path / "ones.cov"
        cov_path.write_bytes(write_cov(CovMatrix(mat, 2)))
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
        # redundancy inverts Cov, and a spectrum whose relative floor is
        # itself numerically zero is reported singular.
        cov_path = tmp_path / "ones.cov"
        cov_path.write_bytes(write_cov(CovMatrix(np.ones((3, 3)), 2)))
        for command in ("solve", "screen"):
            code, out, err = run_cli(
                command, "--cov", str(cov_path), "--target", "0",
                "--lambda", "0.5", "--output", str(tmp_path / f"{command}.json"),
            )
            assert code == 0, (command, err)
        tiny_path = tmp_path / "tiny.cov"
        tiny_path.write_bytes(
            write_cov(CovMatrix(1e-295 * np.ones((3, 3)), 2))
        )
        code, out, err = run_cli(
            "redundancy", "--cov", str(tiny_path), "--target", "0",
            "--output", str(tmp_path / "r.json"),
        )
        assert code == 4
        assert "numerically singular" in err

    def test_all_zero_minor_names_its_cause(self, tmp_path):
        cov_path = tmp_path / "diag.cov"
        cov_path.write_bytes(
            write_cov(CovMatrix(np.diag([1.0, 0.0, 0.0]), 2))
        )
        code, out, err = run_cli(
            "redundancy", "--cov", str(cov_path), "--target", "0",
            "--output", str(tmp_path / "r.json"),
        )
        assert code == 4
        assert "every category other than 0 has zero second moment" in err
        assert "floor" not in err

    def test_degenerate_target_auto_grid(self, tmp_path):
        mat = np.eye(3)
        cov_path = tmp_path / "eye.cov"
        cov_path.write_bytes(write_cov(CovMatrix(mat, 2)))
        code, out, err = run_cli(
            "path", "--cov", str(cov_path), "--target", "0",
            "--auto-grid", "5", "--output", str(tmp_path / "p.json"),
        )
        assert code == 4

    def _diverging_fit_argv(self, tmp_path):
        # ||f||_F^2 overflows float64, so the first try 2N/||f||_F^2 is 0.
        csv = tmp_path / "base.csv"
        csv.write_text("1e155,1e155\n" * 20)
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("\n".join("2" for _ in range(20)) + "\n")
        return (
            "fit-extension", "--logits", str(csv), "--labels", str(labels_path),
            "--new-count", "1", "--epochs", "5", "--output", str(tmp_path / "x.json"),
        )

    def test_diverged_fit(self, tmp_path):
        code, out, err = run_cli(*self._diverging_fit_argv(tmp_path))
        assert code == 4
        assert not (tmp_path / "x.json").exists()

    def test_diverged_fit_stderr_is_one_line(self, tmp_path):
        # The overflow of ||f||_F^2 must not leak a numpy warning.
        done = run_module(*self._diverging_fit_argv(tmp_path))
        assert done.returncode == 4
        assert done.stderr == (
            "covlasso: no positive first step: 2N/||f||_F^2 = 0.0\n"
        )

    def test_step_size_is_not_an_option(self, tmp_path):
        # fit-extension finds its own step.
        argv = self._diverging_fit_argv(tmp_path)
        code, out, err = run_cli(*argv[:-2], "--step-size", "0.5", *argv[-2:])
        assert code == 2
        assert "unrecognized arguments: --step-size 0.5" in err

    def test_eig_floor_env(self, tmp_path, monkeypatch):
        # The floor is a constant: ND_EIG_FLOOR, set or not, valid or
        # not, changes no exit code, stream or report byte.
        cov_path = tmp_path / "ones.cov"
        cov_path.write_bytes(write_cov(CovMatrix(np.ones((3, 3)), 2)))
        out_path = tmp_path / "r.json"
        argv = ("redundancy", "--cov", str(cov_path), "--target", "0", "--output", str(out_path))
        monkeypatch.delenv("ND_EIG_FLOOR", raising=False)
        unset = (*run_cli(*argv), out_path.read_bytes())
        assert unset[0] == 0 and stdout_dict(unset[1])["floored"] == "true"
        for value in ("abc", "-1", "0", "0.5"):
            out_path.unlink()
            got = (*run_cli(*argv, env={"ND_EIG_FLOOR": value}), out_path.read_bytes())
            assert got == unset, value

    def test_large_floor_keeps_relative_error_in_unit_interval(self, tmp_path):
        logits = synth(tmp_path, n="3", samples="2", **{"latent-rank": "1", "plant": None, "seed": "1"})
        cov_path = build_cov(tmp_path, logits)
        for target in ("0", "1"):
            out_path = tmp_path / f"r{target}.json"
            argv = ("redundancy", "--cov", str(cov_path), "--target", target, "--output", str(out_path))
            code, out, err = run_cli(*argv)
            assert code == 0, err
            payload = json.loads(out_path.read_text())
            assert payload["floored"] is True
            assert 0.0 <= payload["relative_error"] <= 1.0
            assert float(stdout_dict(out)["relative_error"]) == payload["relative_error"]
            strict = run_cli(*argv, "--strict")
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
