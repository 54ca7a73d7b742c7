"""Command line interface.

Subcommands cover the full pipeline: building second-moment matrices
from logit files, solving and screening dependencies, path sweeps,
redundancy reports, evaluation, extension fitting, synthetic data and
graph export.  All outputs are deterministic: identical inputs produce
byte-identical files and stdout.

Exit codes: 0 success; 2 usage, parse or validation problems; 3 solver
did not converge (outputs are still written); 4 numerical degeneracy
(singular or degenerate inputs, diverged fits, or spectral flooring
engaged in ``redundancy --strict``).

Certificates, screening and path checks need no spectral floor.  Only
``redundancy`` inverts a possibly singular matrix; its relative floor
(default 1e-12 of the largest eigenvalue) can be overridden through the
ND_EIG_FLOOR environment variable, which no other command reads.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis, evaluation, reports, solver, synthetic
from .covariance import (
    LogitMatrix,
    accumulate,
    cross_covariance,
    finalize,
    new_accumulator,
    reduce_problem,
)
from .errors import (
    CovLassoError,
    DegenerateTarget,
    Diverged,
    FormatError,
    InvalidInput,
    InvalidSpec,
    SingularMatrix,
)
from .formats import (
    LOGIT_MAGIC,
    read_cov,
    read_logits,
    read_logits_csv,
    write_cov,
    write_logits,
)
from .linalg import DEFAULT_EIG_FLOOR_REL
from .reports import canonical_json, format_float

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3
EXIT_DEGENERATE = 4


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _say(key: str, value) -> None:
    sys.stdout.write(f"{key}={_fmt(value)}\n")


def _write_text(path: str, text: str) -> None:
    Path(path).write_bytes(text.encode("utf-8") + b"\n")


def _load_logits(path: str, labels_col: int | None = None) -> LogitMatrix:
    raw = Path(path).read_bytes()
    if raw[:4] == LOGIT_MAGIC:
        return read_logits(raw)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path} is neither a logit file nor UTF-8 CSV: {exc}"
        ) from exc
    return read_logits_csv(text, labels_col)


def _load_cov(path: str):
    return read_cov(Path(path).read_bytes())


def _floor_rel() -> float:
    raw = os.environ.get("ND_EIG_FLOOR")
    if raw is None:
        return DEFAULT_EIG_FLOOR_REL
    try:
        value = float(raw)
    except ValueError:
        raise InvalidInput(f"ND_EIG_FLOOR is not a number: {raw!r}") from None
    if not np.isfinite(value) or value < 0.0:
        raise InvalidInput(f"ND_EIG_FLOOR must be a nonnegative number, got {raw!r}")
    return value


def _model_dict(args) -> dict | None:
    if getattr(args, "model_f", None) is None and getattr(args, "model_g", None) is None:
        return None
    if getattr(args, "model_g", None) is None:
        return {"mode": "within", "model": args.model_f}
    return {
        "mode": "between",
        "source": args.model_g,
        "base": args.model_f or "",
    }


def cmd_cov(args) -> int:
    logits = _load_logits(args.input, args.labels_col)
    cov = finalize(accumulate(new_accumulator(logits.n), logits))
    Path(args.output).write_bytes(write_cov(cov))
    vals = cov.mat.eigenvalues()
    _say("n", cov.n)
    _say("samples", cov.sample_count)
    _say("eig_max", float(vals[0]))
    _say("eig_min", float(vals[-1]))
    _say("output", args.output)
    return EXIT_OK


def cmd_cross_cov(args) -> int:
    f = _load_logits(args.f)
    g = _load_logits(args.g)
    cov = cross_covariance(f, g, args.target)
    Path(args.output).write_bytes(write_cov(cov))
    _say("n", cov.n)
    _say("samples", cov.sample_count)
    _say("target", args.target)
    _say("output", args.output)
    return EXIT_OK


def cmd_solve(args) -> int:
    cov = _load_cov(args.cov)
    rp = reduce_problem(cov, args.target)
    lmax = solver.lambda_max(rp)
    sol = solver.solve(rp, args.lam)
    dep = solver.embed(sol, rp)

    metrics = None
    names = None
    if args.logits is not None:
        logits = _load_logits(args.logits, args.labels_col)
        names = logits.names
        metrics = evaluation.evaluate(logits, dep)

    text = reports.emit_report(dep, metrics, names, _model_dict(args))
    _write_text(args.output, text)

    _say("target", args.target)
    _say("lambda", float(args.lam))
    _say("lambda_max", lmax)
    _say("converged", dep.converged)
    _say("support_size", len(dep.support))
    _say("pred_error", dep.pred_error)
    _say("kkt_valid", dep.certificates.kkt_valid)
    _say("dual_gap", dep.certificates.dual_gap)
    if metrics is not None:
        _say("acc", metrics.acc)
        _say("ori_acc", metrics.ori_acc)
    _say("output", args.output)
    if not dep.converged:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _parse_grid(args, lmax: float) -> np.ndarray:
    if args.lambda_grid is not None:
        try:
            values = [float(tok) for tok in args.lambda_grid.split(",") if tok.strip()]
        except ValueError:
            raise InvalidInput(
                f"could not parse --lambda-grid {args.lambda_grid!r}"
            ) from None
        if not values:
            raise InvalidInput("--lambda-grid is empty")
        return np.asarray(values)
    if args.auto_grid < 1:
        raise InvalidInput("--auto-grid must be at least 1")
    if lmax <= 0.0:
        raise DegenerateTarget(
            "target is uncorrelated with every other category; no automatic grid"
        )
    return np.geomspace(lmax, lmax / 1000.0, args.auto_grid)


def cmd_path(args) -> int:
    cov = _load_cov(args.cov)
    rp = reduce_problem(cov, args.target)
    lmax = solver.lambda_max(rp)
    grid = _parse_grid(args, lmax)
    path = solver.solution_path(rp, grid)

    all_converged = all(s.converged for s in path.solutions)
    in_range = all(l <= lmax * (1.0 + 1e-12) for l in path.lambdas)
    slope = None
    if all_converged and in_range and len(path.lambdas) >= 2:
        slope = analysis.check_slope_bounds(rp, path)

    points = []
    for lam, sol, err in zip(path.lambdas, path.solutions, path.errors):
        points.append(
            {
                "lambda": float(lam),
                "support_size": int(
                    np.count_nonzero(np.abs(sol.coef) > solver.SUPPORT_TOL)
                ),
                "pred_error": float(err),
                "objective": float(sol.objective),
                "converged": bool(sol.converged),
                "iterations": int(sol.iterations),
            }
        )
    payload = {
        "schema": "dependency-path-report",
        "version": 3,
        "target": args.target,
        "lambda_max": lmax,
        "points": points,
        "monotone": path.monotone,
        "slope_check": None
        if slope is None
        else {
            "pairs": slope.pairs,
            "passed": slope.passed,
            "min_margin": min(slope.margins) if slope.margins else 0.0,
        },
    }
    _write_text(args.output, canonical_json(payload))

    _say("target", args.target)
    _say("points", len(points))
    _say("lambda_max", lmax)
    _say("monotone", path.monotone)
    _say("slope_checked", slope is not None)
    if slope is not None:
        _say("slope_passed", slope.passed)
    _say("output", args.output)
    if not all_converged:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_screen(args) -> int:
    cov = _load_cov(args.cov)
    rep = analysis.screen(cov, args.target, args.lam)
    payload = {
        "schema": "screening-report",
        "version": 2,
        "target": rep.target,
        "lambda": rep.lam,
        "lambda_max": rep.lam_max,
        "certified_zero": sorted(rep.certified_zero),
        "heuristic_zero": sorted(rep.heuristic_zero),
        "per_category": [asdict(row) for row in rep.per_category],
    }
    _write_text(args.output, canonical_json(payload))
    _say("target", rep.target)
    _say("lambda", rep.lam)
    _say("lambda_max", rep.lam_max)
    _say("certified_zero", len(rep.certified_zero))
    _say("heuristic_zero", len(rep.heuristic_zero))
    _say("output", args.output)
    return EXIT_OK


def cmd_redundancy(args) -> int:
    floor_rel = _floor_rel()
    cov = _load_cov(args.cov)
    rep = analysis.redundancy(cov, args.target, floor_rel)
    fields = asdict(rep)
    payload = {
        "schema": "redundancy-report",
        "version": 1,
        **fields,
        "max_disagreement": rep.max_disagreement(),
    }
    _write_text(args.output, canonical_json(payload))
    for key, value in fields.items():
        _say(key, value)
    _say("output", args.output)
    if args.strict and rep.floored:
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_eval(args) -> int:
    logits = _load_logits(args.logits, args.labels_col)
    report = reports.parse_report(Path(args.report).read_text("utf-8"))
    dep = reports.report_solution(report, logits.n)
    metrics = evaluation.evaluate(logits, dep)
    fields = asdict(metrics)
    if args.output is not None:
        payload = {"schema": "eval-metrics", "version": 1, **fields}
        _write_text(args.output, canonical_json(payload))
        _say("output", args.output)
    for key, value in fields.items():
        if value is not None:  # pos_acc and ori_pos_acc without positives
            _say(key, value)
    return EXIT_OK


def cmd_fit_extension(args) -> int:
    base = _load_logits(args.logits, args.labels_col)
    if args.labels is not None:
        try:
            labels = np.asarray(
                [int(tok) for tok in Path(args.labels).read_text().split()],
                dtype=np.int64,
            )
        except ValueError:
            raise FormatError(
                f"labels file {args.labels} must contain whitespace-separated integers"
            ) from None
    elif base.labels is not None:
        labels = base.labels
    else:
        raise InvalidInput(
            "extension fitting needs labels: embed them in the logit file or "
            "pass --labels"
        )
    cfg = evaluation.ExtensionConfig(step_size=args.step_size, epochs=args.epochs)
    fit = evaluation.fit_extension(base, labels, args.new_count, cfg)
    payload = {
        "schema": "extension-report",
        "version": 1,
        "base_categories": fit.matrix.base_n1,
        "new_categories": fit.matrix.new_n2,
        "step_size": cfg.step_size,
        "epochs": cfg.epochs,
        "initial_loss": fit.losses[0],
        "final_loss": fit.final_loss,
        "theta": [[float(v) for v in row] for row in fit.matrix.theta],
    }
    _write_text(args.output, canonical_json(payload))
    _say("base_categories", fit.matrix.base_n1)
    _say("new_categories", fit.matrix.new_n2)
    _say("initial_loss", fit.losses[0])
    _say("final_loss", fit.final_loss)
    _say("output", args.output)
    return EXIT_OK


def _parse_plant(text: str) -> synthetic.PlantedDependency:
    try:
        head, tail = text.split(":", 1)
        target = int(head)
        coeffs = {}
        for part in tail.split(","):
            j, w = part.split("=", 1)
            coeffs[int(j)] = float(w)
        return synthetic.PlantedDependency(target, coeffs)
    except (ValueError, IndexError):
        raise InvalidSpec(
            f"could not parse --plant {text!r}; expected TARGET:J=W[,J=W...]"
        ) from None


def cmd_synth(args) -> int:
    planted = _parse_plant(args.plant) if args.plant is not None else None
    spec = synthetic.SyntheticSpec(
        n=args.n,
        samples=args.samples,
        latent_rank=args.latent_rank,
        noise_sigma=args.noise_sigma,
        planted=planted,
        seed=args.seed,
    )
    logits, truth = synthetic.generate(spec)
    Path(args.output).write_bytes(write_logits(logits))
    if args.truth_output is not None:
        if truth is None:
            raise InvalidSpec("--truth-output needs a planted dependency")
        payload = {"schema": "planted-truth", "version": 1, **asdict(truth)}
        _write_text(args.truth_output, canonical_json(payload))
        _say("truth_output", args.truth_output)
    _say("n", logits.n)
    _say("samples", logits.samples)
    _say("seed", args.seed)
    _say("planted", truth is not None)
    _say("output", args.output)
    return EXIT_OK


def cmd_graph(args) -> int:
    parsed = [
        reports.parse_report(Path(p).read_text("utf-8")) for p in args.reports
    ]
    dot = reports.emit_graph(parsed)
    Path(args.output).write_bytes(dot.encode("utf-8"))
    names = {r.target_name for r in parsed}
    for r in parsed:
        names.update(name for _, name, _ in r.coefficients)
    _say("nodes", len(names))
    _say("edges", sum(len(r.coefficients) for r in parsed))
    _say("output", args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covlasso",
        description="Sparse linear dependency analysis for classifier logits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cov", help="accumulate a second-moment matrix from logits")
    p.add_argument("--input", required=True, help="logit file (binary or CSV)")
    p.add_argument("--labels-col", type=int, default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_cov)

    p = sub.add_parser("cross-cov", help="between-network second-moment matrix")
    p.add_argument("--f", required=True, help="base logit file")
    p.add_argument("--g", required=True, help="logit file supplying the target column")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_cross_cov)

    p = sub.add_parser("solve", help="solve one dependency at a fixed penalty")
    p.add_argument("--cov", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--logits", default=None, help="labeled logits for metrics")
    p.add_argument("--labels-col", type=int, default=None)
    p.add_argument("--model-f", default=None)
    p.add_argument("--model-g", default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("path", help="solve along a descending penalty grid")
    p.add_argument("--cov", required=True)
    p.add_argument("--target", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda-grid", default=None, help="comma-separated penalties")
    group.add_argument(
        "--auto-grid",
        type=int,
        default=None,
        help="log-spaced grid size from lambda_max down three decades",
    )
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("screen", help="certify zero coefficients before solving")
    p.add_argument("--cov", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("redundancy", help="zero-penalty redundancy report")
    p.add_argument("--cov", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_redundancy)

    p = sub.add_parser("eval", help="evaluate a dependency report on logits")
    p.add_argument("--logits", required=True)
    p.add_argument("--labels-col", type=int, default=None)
    p.add_argument("--report", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fit-extension", help="fit new-category read-out weights")
    p.add_argument("--logits", required=True, help="base logits")
    p.add_argument("--labels-col", type=int, default=None)
    p.add_argument("--labels", default=None, help="labels file (one integer per line)")
    p.add_argument("--new-count", type=int, required=True)
    p.add_argument("--step-size", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_fit_extension)

    p = sub.add_parser("synth", help="generate synthetic logits")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--latent-rank", type=int, required=True)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--plant", default=None, help="TARGET:J=W[,J=W...]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--truth-output", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("graph", help="export dependency reports as DOT")
    p.add_argument("--report", dest="reports", action="append", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (SingularMatrix, DegenerateTarget, Diverged) as exc:
        sys.stderr.write(f"covlasso: {exc}\n")
        return EXIT_DEGENERATE
    except CovLassoError as exc:
        sys.stderr.write(f"covlasso: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"covlasso: {exc}\n")
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
