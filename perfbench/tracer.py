"""Per-layer spans for one CLI job, installed from outside the program.

``Recorder.install`` rebinds the public functions of each covlasso module
(and ``numpy.linalg.eigh``/``eigvalsh``/``solve``, the ``lapack`` layer) to
wrappers that record a span per call: name, start, end, parent span and
job id, plus counts taken from the call's arguments and result.  Every
name that binds an original function is rebound, including the names
``cli`` and ``analysis`` imported with ``from ... import``.  Spans stay in
memory until ``dump``.

``layer_metrics`` turns the spans of one round of jobs into the per-layer
metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("formats", "covariance", "solver", "linalg", "analysis", "evaluation", "reports")
LAPACK = ("eigh", "eigvalsh", "solve")
SUBCOMMANDS = ("cov", "fit-extension", "path", "solve", "screen", "redundancy", "graph")

# Scalar helpers called once per coordinate or per printed number: a span
# each would cost more than the work it times.
UNTRACED = {"solver.soft_threshold", "reports.format_float"}

# Flops per n^3 of the LAPACK routines (Golub & Van Loan operation counts):
# symmetric eigensolver with vectors, without vectors, and LU solve.
FLOPS_PER_CUBE = {"lapack.eigh": 9.0, "lapack.eigvalsh": 4.0 / 3.0, "lapack.solve": 2.0 / 3.0}


def _count_read_logits(args, result):
    return {"bytes": len(args["buf"])}


def _count_accumulate(args, result):
    return {"rows": args["batch"].samples}


def _count_reduce_problem(args, result):
    return {"bytes_copied": (args["cov"].n - 1) ** 2 * 8}


def _count_solve(args, result):
    return {
        "sweeps": result.iterations,
        "coord_visits": result.iterations * args["rp"].m,
        "converged": int(result.converged),
    }


def _count_screen(args, result):
    return {
        "certified": len(result.certified_zero),
        "heuristic": len(result.heuristic_zero),
        "coords": len(result.per_category),
    }


def _count_lapack(name):
    def count(args, result):
        return {"flops": FLOPS_PER_CUBE[name] * args["a"].shape[-1] ** 3}

    return count


COUNTERS = {
    "formats.read_logits": _count_read_logits,
    "covariance.accumulate": _count_accumulate,
    "covariance.reduce_problem": _count_reduce_problem,
    "solver.solve": _count_solve,
    "analysis.screen": _count_screen,
    **{f"lapack.{fn}": _count_lapack(f"lapack.{fn}") for fn in LAPACK},
}


class Recorder:
    """Spans of one job: [name, start_ns, end_ns, parent, counts]."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, counter=None, signature=None, **kwargs):
        """Run ``fn`` inside a span; a recursive call joins the outer span."""
        stack = self._stack
        if stack and self.spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, None])
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()
        if counter is not None:
            try:
                bound = signature.bind(*args, **kwargs).arguments
                self.spans[idx][4] = counter(bound, result)
            except Exception as exc:  # a broken counter must not change the job's outputs
                self.spans[idx][4] = {"count_error": repr(exc)}
        return result

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counter=counter, signature=signature, **kwargs)

        return traced

    def install(self) -> None:
        import numpy as np

        originals: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"covlasso.{layer}")
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    originals[id(obj)] = (obj, self.wrap(name, obj))
        importlib.import_module("covlasso.cli")
        modules = [m for key, m in sys.modules.items() if key == "covlasso" or key.startswith("covlasso.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
        for attr in LAPACK:
            setattr(np.linalg, attr, self.wrap(f"lapack.{attr}", getattr(np.linalg, attr)))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job_id, "spans": self.spans}, fh)


# name, unit, better.  "s" entries are per-round sums of self time (for
# cli.* the wall time of the job's main()); counts are per round.
PER_LAYER = [
    *[(f"cli.{sub}.{stat}", unit, "lower") for sub in SUBCOMMANDS for stat, unit in (("wall_s", "s"), ("calls", "count"))],
    ("process.startup_s", "s", "lower"),
    ("formats.read_logits.self_s", "s", "lower"),
    ("formats.read_logits.bytes", "bytes", "lower"),
    ("formats.read_cov.self_s", "s", "lower"),
    ("formats.read_cov.calls", "count", "lower"),
    ("formats.write_cov.self_s", "s", "lower"),
    ("covariance.accumulate.self_s", "s", "lower"),
    ("covariance.accumulate.rows", "count", "higher"),
    ("covariance.finalize.self_s", "s", "lower"),
    ("covariance.reduce_problem.self_s", "s", "lower"),
    ("covariance.reduce_problem.bytes_copied", "bytes", "lower"),
    ("solver.solve.self_s", "s", "lower"),
    ("solver.solve.calls", "count", "lower"),
    ("solver.solve.sweeps", "count", "lower"),
    ("solver.solve.coord_visits", "count", "lower"),
    ("solver.solve.converged_frac", "fraction", "higher"),
    ("solver.embed.self_s", "s", "lower"),
    ("solver.solution_path.self_s", "s", "lower"),
    ("linalg.eigendecompose.calls", "count", "lower"),
    ("linalg.eigendecompose.self_s", "s", "lower"),
    ("linalg.sym_sqrt.self_s", "s", "lower"),
    ("linalg.solve_spd.calls", "count", "lower"),
    ("lapack.eigh.calls", "count", "lower"),
    ("lapack.eigh.self_s", "s", "lower"),
    ("lapack.eigvalsh.calls", "count", "lower"),
    ("lapack.eigvalsh.self_s", "s", "lower"),
    ("lapack.flops_computed", "flop", "lower"),
    ("analysis.screen.self_s", "s", "lower"),
    ("analysis.screen.certified_frac", "fraction", "higher"),
    ("analysis.screen.heuristic_frac", "fraction", "higher"),
    ("analysis.redundancy.self_s", "s", "lower"),
    ("analysis.check_slope_bounds.self_s", "s", "lower"),
    ("evaluation.evaluate.self_s", "s", "lower"),
    ("evaluation.fit_extension.self_s", "s", "lower"),
    ("evaluation.extension_loss_grad.calls", "count", "lower"),
    ("reports.emit_report.self_s", "s", "lower"),
    ("reports.parse_report.self_s", "s", "lower"),
    ("reports.emit_graph.self_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),  # kept last: run.py fills it in
]


def layer_metrics(jobs: list[tuple[dict, float]]) -> dict[str, float]:
    """Per-layer metrics of one round from (span dump, job wall seconds) pairs.

    Self time is a span's duration minus the durations of its direct
    children.  Metrics of layers the round never entered read 0.
    """
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    counts: dict[str, float] = {}
    root_ns = 0
    wall_s = 0.0
    for dump, job_wall_s in jobs:
        spans = dump["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for k, (name, start, end, parent, cnt) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[k]
            total_ns[name] = total_ns.get(name, 0) + (end - start)
            if parent < 0:
                root_ns += end - start
            for key, value in (cnt or {}).items():
                if key != "count_error":
                    counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        wall_s += job_wall_s

    def ratio(num: str, den: str) -> float:
        d = counts.get(den, 0)
        return counts.get(num, 0) / d if d else 0.0

    out: dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        base, stat = name.rsplit(".", 1)
        if name.startswith("cli."):
            out[name] = total_ns.get(base, 0) / 1e9 if stat == "wall_s" else calls.get(base, 0)
        elif stat == "self_s":
            out[name] = self_ns.get(base, 0) / 1e9
        elif stat == "calls":
            out[name] = calls.get(base, 0)
        elif unit in ("bytes", "count"):
            out[name] = counts.get(name, 0)
    out["process.startup_s"] = wall_s - root_ns / 1e9
    out["lapack.flops_computed"] = sum(counts.get(f"lapack.{fn}.flops", 0.0) for fn in LAPACK)
    out["solver.solve.converged_frac"] = (
        counts.get("solver.solve.converged", 0) / calls["solver.solve"] if calls.get("solver.solve") else 0.0
    )
    out["analysis.screen.certified_frac"] = ratio("analysis.screen.certified", "analysis.screen.coords")
    out["analysis.screen.heuristic_frac"] = ratio("analysis.screen.heuristic", "analysis.screen.coords")
    return out
