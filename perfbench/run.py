"""covlasso benchmark: three workloads through the CLI, one process per job.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
Each workload is a fixed round of CLI jobs built from inputs generated
from ``--seed``.  Rounds repeat back to back (closed loop, one client)
while another round fits in ``--seconds``.  Every job runs ``covlasso.cli.main``
in a fresh Python process, so no state carries over between CLI calls,
and every output is checked.  ``--trace 1`` alternates untraced and
traced rounds and reports per-layer metrics instead of end-to-end ones.

The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See README.md for the workloads, the metrics and the machine record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

# A run must end within 180 s; stop starting jobs well before that.
DEADLINE_S = 160.0
SETUP_REPEATS = 5
# Fixes the classifier (weights and planted combinations) of every
# workload; --seed draws the samples.  With the model fixed, CD sweep
# counts repeat across seeds to a few percent.
MODEL_SEED = 20221122
EPS = 2.0**-53
REDUNDANCY_TOL = 1e-6

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]


@dataclass(frozen=True)
class Sizes:
    logit_n: int = 1000
    logit_samples: int = 192
    new_count: int = 2
    new_share: float = 0.1
    epochs: int = 500
    rank: int = 32
    sigma: float = 0.1
    path_n: int = 160
    path_samples: int = 20000
    path_rank: int = 16
    path_sigma: float = 0.3
    path_targets: tuple[int, ...] = (16, 9, 11, 25)
    grid: int = 20
    graph_n: int = 1000
    graph_samples: int = 5000
    graph_targets: tuple[int, ...] = (8, 9, 12)
    solve_frac: float = 0.05
    screen_frac: float = 0.3


FULL = Sizes()


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Result:
    code: int
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes]
    wall_s: float

    def said(self, key: str) -> str:
        """Value of a ``key=value`` line of the job's stdout."""
        for line in self.stdout.decode("utf-8", "replace").splitlines():
            k, _, v = line.partition("=")
            if k == key:
                return v
        raise CheckFailed(f"stdout has no {key}= line")

    def json(self, name: str):
        try:
            return json.loads(self.files[name])
        except ValueError as exc:
            raise CheckFailed(f"{name} is not JSON: {exc}") from None

    def digests(self) -> dict[str, str]:
        out = {"stdout": hashlib.sha256(self.stdout).hexdigest()}
        out.update({name: hashlib.sha256(data).hexdigest() for name, data in self.files.items()})
        return out


@dataclass
class Job:
    name: str
    argv: list[str]
    outputs: list[str]
    check: Callable[[Result], None]


@dataclass
class Plan:
    jobs: list[Job]
    # Workload-specific throughputs from per-job medians and wall_s.
    rates: Callable[[dict[str, float], float], dict[str, tuple[float, str]]]


def _rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(MODEL_SEED), np.random.default_rng(seed)


def _lam(cov: np.ndarray, target: int, frac: float) -> str:
    keep = np.arange(cov.shape[0]) != target
    return repr(frac * 2.0 * float(np.max(np.abs(cov[keep, target]))))


def prepare_logit_pass(seed: int, work: Path, sz: Sizes) -> Plan:
    model, draw = _rngs(seed)
    full = inputs.low_rank_logits(model, draw, sz.logit_n + sz.new_count, sz.logit_samples, sz.rank, sz.sigma)
    base = np.ascontiguousarray(full.data[:, : sz.logit_n])
    labels = inputs.extension_labels(base, full.data[:, sz.logit_n :], sz.new_share)
    (work / "logits.ndlm").write_bytes(inputs.encode_logits(base))
    (work / "labels.txt").write_text("\n".join(str(v) for v in labels) + "\n")

    ref = inputs.second_moment(base)
    # Elementwise error bound of the reference GEMM (gamma_N |X|^T |X| / N),
    # plus a few ulps for the program's compensated sum, the division by N
    # and the symmetrization, times 2 for slack.
    scale = np.abs(base).T @ np.abs(base) / base.shape[0]
    tol = 2.0 * (base.shape[0] + 8) * EPS * scale

    def check_cov(r: Result) -> None:
        mat, count = inputs.decode_cov(r.files["cov.ndcv"])
        require(count == sz.logit_samples, f"sample count {count}")
        require(mat.shape == ref.shape, f"order {mat.shape[0]}")
        excess = float(np.max(np.abs(mat - ref) / tol))
        require(excess <= 1.0, f"covariance off the GEMM reference by {excess:.3g}x the tolerance")

    def check_fit(r: Result) -> None:
        rep = r.json("extension.json")
        require(rep["new_categories"] == sz.new_count, f"new_categories={rep['new_categories']}")
        require(rep["final_loss"] < rep["initial_loss"], f"loss {rep['initial_loss']} -> {rep['final_loss']}")

    jobs = [
        Job("cov", ["cov", "--input", "logits.ndlm", "--output", "cov.ndcv"], ["cov.ndcv"], check_cov),
        Job(
            "fit-extension",
            ["fit-extension", "--logits", "logits.ndlm", "--labels", "labels.txt",
             "--new-count", str(sz.new_count), "--epochs", str(sz.epochs), "--output", "extension.json"],
            ["extension.json"],
            check_fit,
        ),
    ]

    def rates(job_s, wall_s):
        return {
            "cov_samples_per_s": (sz.logit_samples / job_s["cov"], "1/s"),
            "extension_epochs_per_s": (sz.epochs / job_s["fit-extension"], "1/s"),
        }

    return Plan(jobs, rates)


def prepare_path(seed: int, work: Path, sz: Sizes) -> Plan:
    model, draw = _rngs(seed)
    logits = inputs.low_rank_logits(model, draw, sz.path_n, sz.path_samples, sz.path_rank, sz.path_sigma)
    (work / "cov.ndcv").write_bytes(inputs.encode_cov(inputs.second_moment(logits.data), sz.path_samples))

    def check_path(r: Result) -> None:
        require(r.said("points") == str(sz.grid), f"points={r.said('points')}")
        for key in ("monotone", "slope_checked", "slope_passed"):
            require(r.said(key) == "true", f"{key}={r.said(key)}")

    jobs = [
        Job(
            f"path-{t}",
            ["path", "--cov", "cov.ndcv", "--target", str(t), "--auto-grid", str(sz.grid), "--output", f"path-{t}.json"],
            [f"path-{t}.json"],
            check_path,
        )
        for t in sz.path_targets
    ]

    def rates(job_s, wall_s):
        return {"path_points_per_s": (sz.grid * len(sz.path_targets) / wall_s, "1/s")}

    return Plan(jobs, rates)


def prepare_graph(seed: int, work: Path, sz: Sizes) -> Plan:
    model, draw = _rngs(seed)
    logits = inputs.low_rank_logits(model, draw, sz.graph_n, sz.graph_samples, sz.rank, sz.sigma)
    cov = inputs.second_moment(logits.data)
    (work / "logits.ndlm").write_bytes(inputs.encode_logits(logits.data, np.argmax(logits.data, axis=1)))
    (work / "cov.ndcv").write_bytes(inputs.encode_cov(cov, sz.graph_samples))

    def check_solve(target: int):
        def check(r: Result) -> None:
            rep = r.json(f"solve-{target}.json")
            support = {c["index"] for c in rep["coefficients"]}
            missing = set(logits.planted.get(target, ())) - support
            require(not missing, f"planted categories {sorted(missing)} not in the support")
            require(rep["certificates"]["kkt_valid"] is True, "kkt_valid is false")

        return check

    def check_screen(r: Result) -> None:
        rep = r.json("screen.json")
        require(len(rep["per_category"]) == sz.graph_n - 1, f"{len(rep['per_category'])} screened categories")

    def check_redundancy(r: Result) -> None:
        gap = r.json("redundancy.json")["max_disagreement"]
        require(gap <= REDUNDANCY_TOL, f"max_disagreement={gap}")

    def check_graph(r: Result) -> None:
        reports = [json.loads((work / f"solve-{t}.json").read_bytes()) for t in sz.graph_targets]
        nodes = {rep["target"]["name"] for rep in reports}
        nodes.update(c["name"] for rep in reports for c in rep["coefficients"])
        edges = sum(len(rep["coefficients"]) for rep in reports)
        require(r.said("nodes") == str(len(nodes)), f"nodes={r.said('nodes')}, expected {len(nodes)}")
        require(r.said("edges") == str(edges), f"edges={r.said('edges')}, expected {edges}")
        lines = r.files["graph.dot"].decode("utf-8").splitlines()
        require(len(lines) == len(nodes) + edges + 2, f"graph.dot has {len(lines)} lines")

    jobs: list[Job] = []
    for t in sz.graph_targets:
        jobs += [
            Job(
                f"solve-{t}",
                ["solve", "--cov", "cov.ndcv", "--target", str(t), "--lambda", _lam(cov, t, sz.solve_frac),
                 "--logits", "logits.ndlm", "--output", f"solve-{t}.json"],
                [f"solve-{t}.json"],
                check_solve(t),
            ),
            Job(
                f"screen-{t}",
                ["screen", "--cov", "cov.ndcv", "--target", str(t), "--lambda", _lam(cov, t, sz.screen_frac),
                 "--output", "screen.json"],
                ["screen.json"],
                check_screen,
            ),
            Job(
                f"redundancy-{t}",
                ["redundancy", "--cov", "cov.ndcv", "--target", str(t), "--output", "redundancy.json"],
                ["redundancy.json"],
                check_redundancy,
            ),
        ]
    reports = [arg for t in sz.graph_targets for arg in ("--report", f"solve-{t}.json")]
    jobs.append(Job("graph", ["graph", *reports, "--output", "graph.dot"], ["graph.dot"], check_graph))

    def rates(job_s, wall_s):
        return {"graph_targets_per_s": (len(sz.graph_targets) / wall_s, "1/s")}

    return Plan(jobs, rates)


WORKLOADS = {"logit-pass": prepare_logit_pass, "path": prepare_path, "graph": prepare_graph}


class SetupError(Exception):
    pass


def job_env() -> dict[str, str]:
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def setup(workload: str, seed: int, sizes: Sizes, work: Path, env: dict[str, str]) -> tuple[Plan, list[float]]:
    """Generate the inputs and import the program, SETUP_REPEATS times."""
    times = []
    plan = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        plan = WORKLOADS[workload](seed, work, sizes)
        probe = subprocess.run(
            [sys.executable, "-c", "import covlasso, covlasso.cli; print(covlasso.__file__)"],
            cwd=work, env=env, capture_output=True, timeout=60,
        )
        times.append(time.perf_counter() - t0)
        where = Path(probe.stdout.decode().strip() or ".").resolve()
        if probe.returncode != 0 or ROOT / "src" not in where.parents:
            shutil.rmtree(work, ignore_errors=True)
            raise SetupError(
                f"cannot import covlasso from {ROOT / 'src'}: {probe.stderr.decode()[-500:]}"
            )
    return plan, times


@dataclass
class Round:
    traced: bool
    wall_s: float = 0.0
    job_s: dict[str, float] = field(default_factory=dict)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    dumps: list[tuple[dict, float]] = field(default_factory=list)
    timed_out: bool = False


def run_job(job: Job, work: Path, env: dict[str, str], spans: tuple[Path, str] | None, deadline: float) -> Result:
    cmd = [sys.executable, str(HERE / "job.py")]
    if spans is not None:
        cmd += ["--spans", str(spans[0]), spans[1]]
    cmd += ["--", *job.argv]
    for name in job.outputs:
        (work / name).unlink(missing_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    wall = time.perf_counter() - t0
    files = {name: (work / name).read_bytes() for name in job.outputs if (work / name).exists()}
    return Result(proc.returncode, out, err, files, wall)


def run_round(plan: Plan, work: Path, env: dict[str, str], traced: bool, index: int, deadline: float) -> Round:
    rnd = Round(traced)
    t0 = time.perf_counter()
    for k, job in enumerate(plan.jobs):
        spans = (work / f"spans-{index}-{k}.json", f"round{index}.{job.name}") if traced else None
        try:
            res = run_job(job, work, env, spans, deadline)
        except subprocess.TimeoutExpired:
            rnd.failures[job.name] = "timed out"
            rnd.timed_out = True
            break
        rnd.job_s[job.name] = res.wall_s
        rnd.digests[job.name] = res.digests()
        try:
            require(res.code == 0, f"exit code {res.code}: {res.stderr.decode('utf-8', 'replace')[-300:]}")
            missing = [name for name in job.outputs if name not in res.files]
            require(not missing, f"missing outputs {missing}")
            job.check(res)
        except (CheckFailed, KeyError, OSError, TypeError, ValueError) as exc:
            rnd.failures[job.name] = f"{type(exc).__name__}: {exc}"
        if traced:
            if not spans[0].exists():
                rnd.failures.setdefault(job.name, "no spans written")
                continue
            dump = json.loads(spans[0].read_bytes())
            spans[0].unlink()
            rnd.dumps.append((dump, res.wall_s))
            broken = [s[4]["count_error"] for s in dump["spans"] if s[4] and "count_error" in s[4]]
            if broken:
                rnd.failures.setdefault(job.name, f"tracer counter failed: {broken[0]}")
    rnd.wall_s = time.perf_counter() - t0
    return rnd


def measure(plan: Plan, work: Path, env: dict[str, str], seconds: float, trace: bool, deadline: float) -> list[Round]:
    """Rounds back to back for up to ``seconds``.

    Another round starts only while a typical round still fits in the
    time left, so the measured time is at most ``seconds`` and at least
    ``seconds`` minus one round.  At least two rounds run; with tracing
    they alternate untraced, traced.
    """
    rounds: list[Round] = []
    start = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rnd = run_round(plan, work, env, traced, len(rounds), deadline)
        rounds.append(rnd)
        if rnd.timed_out:
            break
        typical = statistics.median(r.wall_s for r in rounds)
        elapsed = time.monotonic() - start
        if len(rounds) >= 2 and elapsed + typical > seconds:
            break
        if time.monotonic() + 1.5 * typical > deadline:
            break
    # Every round must produce the same bytes as the first; this also
    # checks that tracing leaves outputs unchanged.
    first = rounds[0].digests
    for rnd in rounds[1:]:
        for name, digest in rnd.digests.items():
            if name in first and digest != first[name] and name not in rnd.failures:
                rnd.failures[name] = f"outputs differ from round 0: {sorted(k for k in digest if digest[k] != first[name].get(k))}"
    return rounds


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> dict:
    """One benchmark run; returns the result object and extra report lines."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    work = WORK / f"{workload}-{seed}"
    env = job_env()
    plan, setup_times = setup(workload, seed, sizes, work, env)
    rounds = measure(plan, work, env, seconds, trace, deadline)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    attempted = sum(len(r.job_s) + (1 if r.timed_out else 0) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    plain = [r for r in rounds if not r.traced]
    # Each job's median over the rounds, summed: a burst of load from
    # elsewhere on the machine that slows one job is dropped.
    job_s = {name: statistics.median(r.job_s[name] for r in plain if name in r.job_s) for name in plain[0].job_s}
    wall_s = sum(job_s.values())

    report = {"ops_failed_frac": (failed / attempted, "fraction")}
    if len(job_s) == len(plan.jobs):  # every job finished at least once
        report.update(plan.rates(job_s, wall_s))
    if trace:
        traced = [r for r in rounds if r.traced and not r.timed_out]
        per_round = [tracer.layer_metrics(r.dumps) for r in traced] or [tracer.layer_metrics([])]
        metrics = {name: statistics.median(m[name] for m in per_round) for name, _, _ in tracer.PER_LAYER[:-1]}
        metrics["trace.overhead_frac"] = (
            statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in plain) - 1.0
            if traced
            else 0.0
        )
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        spans = [d for r in traced for d, _ in r.dumps]
        (WORK / f"spans-{workload}-{seed}.json").write_text(json.dumps(spans))
    else:
        metrics = {"setup_s": statistics.median(setup_times), "wall_s": wall_s, "peak_rss_mb": rss_kb / 1024.0}
        units = dict(END_TO_END)
    (WORK / f"digests-{workload}-{seed}.json").write_text(json.dumps(rounds[0].digests, indent=1, sort_keys=True))
    shutil.rmtree(work, ignore_errors=True)

    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        },
        "report": report,
        "rounds": rounds,
        "elapsed_s": time.monotonic() - started,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    res = out["result"]
    rounds = out["rounds"]
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
        f"jobs_per_round={len(rounds[0].digests)} blas_threads={job_env()['OPENBLAS_NUM_THREADS']} "
        f"elapsed_s={out['elapsed_s']:.1f}"
    )
    for i, rnd in enumerate(rounds):
        kind = "traced" if rnd.traced else "plain"
        print(f"round {i} {kind} wall_s={rnd.wall_s:.4f} " + " ".join(f"{k}={v:.3f}" for k, v in rnd.job_s.items()))
        for name, reason in rnd.failures.items():
            print(f"FAILED round {i} job {name}: {reason}")
    digest = hashlib.sha256(json.dumps(rounds[0].digests, sort_keys=True).encode()).hexdigest()
    print(f"outputs_sha256={digest}")
    for name, (value, unit) in out["report"].items():
        print(f"metric {name}={value:.6g} {unit}")
    for name, m in res["metrics"].items():
        print(f"metric {name}={m['value']:.6g} {m['unit']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
