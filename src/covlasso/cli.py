"""Command line interface.

Subcommands cover the full pipeline: building second-moment matrices
from logit files, solving and screening dependencies, path sweeps,
redundancy reports, evaluation, extension fitting, synthetic data and
graph export.  All outputs are deterministic: identical inputs produce
byte-identical files and stdout.

Exit codes: 0 success; 2 usage, parse or validation problems
(``InvalidInput``, any other ``CovLassoError`` and ``OSError``) and
``MemoryError``; 3 solver did not converge (outputs are still
written); 4 numerical degeneracy (``Degenerate``: singular or
degenerate inputs, a fit without a finite step; or spectral flooring
engaged in ``redundancy --strict``).

Certificates, screening and path checks need no spectral floor.  Only
``redundancy`` inverts a possibly singular matrix; its relative floor is
the constant ``analysis.EIG_FLOOR_REL``.  No command reads the process
environment, so argv and the input files alone determine every output.

Each subcommand imports numpy and the modules it calls only when it
runs, so ``import covlasso.cli``, ``--help`` and usage errors load none
of them.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import CovLassoError, Degenerate, InvalidInput

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3
EXIT_DEGENERATE = 4


def _number(kind: type):
    """``kind(text)`` for ASCII numerals without ``_``: every number the CLI parses.

    This is ``formats._ascii_number``'s rule, restated since ``formats`` loads numpy.
    """

    def parse(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        return kind(text)

    parse.__name__ = kind.__name__  # argparse says "invalid float value"
    return parse


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        from .reports import format_float

        return format_float(value)
    return str(value)


def _say(key: str, value) -> None:
    sys.stdout.write(f"{key}={_fmt(value)}\n")


def _write_text(path: str, text: str) -> None:
    Path(path).write_bytes(text.encode("utf-8") + b"\n")


def _load_logits(path: str, labels_col: int | None = None):
    import numpy as np

    from .formats import LOGIT_MAGIC, read_logits, read_logits_csv

    with open(path, "rb") as f:
        # The file starts 4 bytes into an aligned buffer, so an NDLM
        # payload (byte 28) is 8-byte aligned and is held once, not copied.
        size = os.fstat(f.fileno()).st_size
        buf = memoryview(np.empty(size + 4, dtype=np.uint8))[4:]
        raw = buf[: f.readinto(buf)]
        if rest := f.read():  # a pipe, or a file that grew: read_logits copies
            raw = bytes(raw) + rest
    if raw[:4] == LOGIT_MAGIC:
        if labels_col is not None:
            raise InvalidInput(
                "--labels-col applies to CSV input; NDLM files carry their labels"
            )
        return read_logits(raw)
    try:
        # utf-8-sig drops a leading byte order mark, which would
        # otherwise turn the first data row into a header.
        text = str(raw, "utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InvalidInput(
            f"{path} is neither a logit file nor UTF-8 CSV: {exc}"
        ) from exc
    return read_logits_csv(text, labels_col)


def _load_cov(path: str):
    from .formats import read_cov

    return read_cov(Path(path).read_bytes())


def _load_report(path: str):
    from . import reports

    try:
        text = Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"report {path} is not UTF-8: {exc}") from exc
    return reports.parse_report(text)


def _model_dict(args) -> dict | None:
    if args.model_f is None and args.model_g is None:
        return None
    if args.model_g is None:
        return {"mode": "within", "model": args.model_f}
    return {
        "mode": "between",
        "source": args.model_g,
        "base": args.model_f or "",
    }


def cmd_cov(args) -> int:
    from .covariance import CovAccumulator, accumulate, finalize
    from .formats import write_cov

    logits = _load_logits(args.input, args.labels_col)
    cov = finalize(accumulate(CovAccumulator(logits.n), logits))
    Path(args.output).write_bytes(write_cov(cov))
    _say("n", cov.n)
    _say("samples", cov.sample_count)
    _say("output", args.output)
    return EXIT_OK


def cmd_cross_cov(args) -> int:
    from .covariance import cross_covariance
    from .formats import write_cov

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
    from . import reports, solver
    from .covariance import reduce_problem

    cov = _load_cov(args.cov)
    rp = reduce_problem(cov, args.target)
    lmax = solver.lambda_max(rp)
    dep = solver.solve(rp, args.lam)

    metrics = None
    names = None
    if args.logits is not None:
        from . import evaluation

        logits = _load_logits(args.logits, args.labels_col)
        names = logits.names
        metrics = evaluation.evaluate(logits, dep.target, dep.theta)

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


def _parse_grid(args, lmax: float):
    import numpy as np

    from .covariance import check_size

    if args.lambda_grid is not None:
        try:
            values = [_number(float)(tok) for tok in args.lambda_grid.split(",")]
        except ValueError:
            raise InvalidInput(
                f"could not parse --lambda-grid {args.lambda_grid!r}"
            ) from None
        return np.asarray(values)
    if args.auto_grid < 1:
        raise InvalidInput("--auto-grid must be at least 1")
    check_size((args.auto_grid,))
    if lmax <= 0.0:
        raise Degenerate(
            "target is uncorrelated with every other category; no automatic grid"
        )
    return np.geomspace(lmax, lmax / 1000.0, args.auto_grid)


def cmd_path(args) -> int:
    from . import analysis, solver
    from .covariance import reduce_problem
    from .reports import canonical_json

    cov = _load_cov(args.cov)
    rp = reduce_problem(cov, args.target)
    lmax = solver.lambda_max(rp)
    grid = _parse_grid(args, lmax)
    path = solver.solution_path(rp, grid)
    slope = analysis.check_slope_bounds(rp, path)

    points = [
        {
            "lambda": sol.lam,
            "support_size": len(sol.support),
            "pred_error": float(sol.pred_error),
            "objective": float(sol.objective),
            "converged": bool(sol.converged),
            "iterations": int(sol.iterations),
        }
        for sol in path.solutions
    ]
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
            "min_margin": min(slope.margins),
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
    if not all(s.converged for s in path.solutions):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_screen(args) -> int:
    from . import analysis
    from .reports import canonical_json

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
        "per_category": rep.per_category,
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
    from dataclasses import asdict

    from . import analysis
    from .reports import canonical_json

    cov = _load_cov(args.cov)
    rep = analysis.redundancy(cov, args.target)
    fields = asdict(rep)
    payload = {
        "schema": "redundancy-report",
        "version": 2,
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
    from dataclasses import asdict

    from . import evaluation, reports
    from .reports import canonical_json

    logits = _load_logits(args.logits, args.labels_col)
    report = _load_report(args.report)
    theta = reports.report_theta(report, logits.n)
    metrics = evaluation.evaluate(logits, report.target_index, theta)
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
    import numpy as np

    from . import evaluation
    from .reports import canonical_json

    base = _load_logits(args.logits, args.labels_col)
    if args.labels is not None:
        try:
            tokens = Path(args.labels).read_text("ascii").split()
            labels = np.asarray([_number(int)(tok) for tok in tokens], dtype=np.int64)
        except ValueError:
            raise InvalidInput(
                f"labels file {args.labels} must contain whitespace-separated integers"
            ) from None
        except OverflowError:
            raise InvalidInput(
                f"labels file {args.labels} holds a label outside the int64 range"
            ) from None
    elif base.labels is not None:
        labels = base.labels
    else:
        raise InvalidInput(
            "extension fitting needs labels: embed them in the logit file or "
            "pass --labels"
        )
    fit = evaluation.fit_extension(base, labels, args.new_count, epochs=args.epochs)
    epochs_run = len(fit.losses) - 1
    payload = {
        "schema": "extension-report",
        "version": 3,
        "base_categories": base.n,
        "new_categories": args.new_count,
        "epochs": args.epochs,
        "epochs_run": epochs_run,
        "converged": fit.converged,
        "initial_loss": fit.losses[0],
        "final_loss": fit.losses[-1],
        "theta": [[float(v) for v in row] for row in fit.theta],
    }
    _write_text(args.output, canonical_json(payload))
    _say("base_categories", base.n)
    _say("new_categories", args.new_count)
    _say("epochs_run", epochs_run)
    _say("converged", fit.converged)
    _say("initial_loss", fit.losses[0])
    _say("final_loss", fit.losses[-1])
    _say("output", args.output)
    return EXIT_OK


def _parse_plant(text: str):
    from . import synthetic

    try:
        head, tail = text.split(":", 1)
        target = _number(int)(head)
        pairs = []
        for part in tail.split(","):
            j, w = part.split("=", 1)
            pairs.append((_number(int)(j), _number(float)(w)))
        return synthetic.PlantedDependency(target, pairs)
    except (ValueError, IndexError):
        raise InvalidInput(
            f"could not parse --plant {text!r}; expected TARGET:J=W[,J=W...]"
        ) from None


def cmd_synth(args) -> int:
    from dataclasses import asdict

    from . import synthetic
    from .formats import write_logits
    from .reports import canonical_json

    if args.truth_output is not None and args.plant is None:
        raise InvalidInput("--truth-output needs a planted dependency")
    planted = _parse_plant(args.plant) if args.plant is not None else None
    logits = synthetic.generate(
        args.n,
        args.samples,
        args.latent_rank,
        noise_sigma=args.noise_sigma,
        planted=planted,
        seed=args.seed,
    )
    Path(args.output).write_bytes(write_logits(logits))
    if args.truth_output is not None:
        payload = {
            "schema": "planted-truth",
            "version": 1,
            "n": logits.n,
            "noise_sigma": args.noise_sigma,
            **asdict(planted),
        }
        _write_text(args.truth_output, canonical_json(payload))
        _say("truth_output", args.truth_output)
    _say("n", logits.n)
    _say("samples", logits.samples)
    _say("seed", args.seed)
    _say("planted", planted is not None)
    _say("output", args.output)
    return EXIT_OK


def cmd_graph(args) -> int:
    from . import reports

    parsed = []
    seen: dict[str, str] = {}  # target name -> the report that gave it
    for path in args.reports:
        report = _load_report(path)
        if report.target_name in seen:
            raise InvalidInput(
                f"reports {seen[report.target_name]} and {path} share target "
                f"{report.target_name!r}; each target may appear once"
            )
        seen[report.target_name] = path
        parsed.append(report)
    dot = reports.emit_graph(parsed)
    Path(args.output).write_bytes(dot.encode("utf-8"))
    coef_names = [name for r in parsed for _, name, _ in r.coefficients]
    _say("nodes", len({*seen, *coef_names}))
    _say("edges", len(coef_names))
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
    p.add_argument("--labels-col", type=_number(int), default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_cov)

    p = sub.add_parser("cross-cov", help="between-network second-moment matrix")
    p.add_argument("--f", required=True, help="base logit file")
    p.add_argument("--g", required=True, help="logit file supplying the target column")
    p.add_argument("--target", type=_number(int), required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_cross_cov)

    p = sub.add_parser("solve", help="solve one dependency at a fixed penalty")
    p.add_argument("--cov", required=True)
    p.add_argument("--target", type=_number(int), required=True)
    p.add_argument("--lambda", dest="lam", type=_number(float), required=True)
    p.add_argument("--logits", default=None, help="labeled logits for metrics")
    p.add_argument("--labels-col", type=_number(int), default=None)
    p.add_argument("--model-f", default=None)
    p.add_argument("--model-g", default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("path", help="solve along a descending penalty grid")
    p.add_argument("--cov", required=True)
    p.add_argument("--target", type=_number(int), required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda-grid", default=None, help="comma-separated penalties")
    group.add_argument(
        "--auto-grid",
        type=_number(int),
        default=None,
        help="log-spaced grid size from lambda_max down three decades",
    )
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("screen", help="certify zero coefficients before solving")
    p.add_argument("--cov", required=True)
    p.add_argument("--target", type=_number(int), required=True)
    p.add_argument("--lambda", dest="lam", type=_number(float), required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("redundancy", help="zero-penalty redundancy report")
    p.add_argument("--cov", required=True)
    p.add_argument("--target", type=_number(int), required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_redundancy)

    p = sub.add_parser("eval", help="evaluate a dependency report on logits")
    p.add_argument("--logits", required=True)
    p.add_argument("--labels-col", type=_number(int), default=None)
    p.add_argument("--report", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fit-extension", help="fit new-category read-out weights")
    p.add_argument("--logits", required=True, help="base logits")
    p.add_argument("--labels-col", type=_number(int), default=None)
    p.add_argument("--labels", default=None, help="labels file (one integer per line)")
    p.add_argument("--new-count", type=_number(int), required=True)
    p.add_argument("--epochs", type=_number(int), default=500)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_fit_extension)

    p = sub.add_parser("synth", help="generate synthetic logits")
    p.add_argument("--n", type=_number(int), required=True)
    p.add_argument("--samples", type=_number(int), required=True)
    p.add_argument("--latent-rank", type=_number(int), required=True)
    p.add_argument("--noise-sigma", type=_number(float), default=0.0)
    p.add_argument("--plant", default=None, help="TARGET:J=W[,J=W...]")
    p.add_argument("--seed", type=_number(int), default=0)
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
    except Degenerate as exc:
        sys.stderr.write(f"covlasso: {exc}\n")
        return EXIT_DEGENERATE
    except (CovLassoError, OSError) as exc:
        sys.stderr.write(f"covlasso: {exc}\n")
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's message names the shape it could not allocate
        sys.stderr.write(f"covlasso: {str(exc) or 'out of memory'}\n")
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
