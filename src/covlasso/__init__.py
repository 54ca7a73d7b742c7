"""Sparse linear dependency analysis for classifier logits.

Given per-sample logit vectors of a classifier, this package finds
sparse linear combinations of other categories' logits that reproduce a
target category's logit, by solving an L1-penalized least-squares
problem posed directly on the uncentered second-moment matrix of the
logits.  On top of the solver it provides optimality certificates,
pre-solve screening, redundancy measurements, behavioral evaluation,
classifier extension fitting, deterministic synthetic data and
reproducible file formats.

Every exported name is looked up in its submodule on first access
(PEP 562), so ``import covlasso`` loads neither numpy nor any
computational module until a name from one is used.
"""

from importlib import import_module

_EXPORTS = {
    "analysis": (
        "RedundancyReport",
        "ScreeningReport",
        "SlopeBoundCheck",
        "check_slope_bounds",
        "redundancy",
        "screen",
    ),
    "covariance": (
        "CovAccumulator",
        "CovMatrix",
        "LogitMatrix",
        "ReducedProblem",
        "accumulate",
        "cross_covariance",
        "finalize",
        "reduce_problem",
    ),
    "errors": (
        "CovLassoError",
        "Degenerate",
        "InvalidInput",
    ),
    "evaluation": (
        "EvalMetrics",
        "ExtensionFit",
        "evaluate",
        "fit_extension",
    ),
    "formats": (
        "read_cov",
        "read_logits",
        "read_logits_csv",
        "write_cov",
        "write_logits",
    ),
    "reports": (
        "DependencyReport",
        "build_report",
        "canonical_json",
        "default_name",
        "emit_graph",
        "emit_report",
        "format_float",
        "parse_report",
        "report_theta",
        "serialize_report",
    ),
    "solver": (
        "DependencySolution",
        "SolutionCertificates",
        "SolutionPath",
        "certificates",
        "lambda_max",
        "solution_path",
        "solve",
    ),
    "synthetic": (
        "PlantedDependency",
        "generate",
    ),
}

# Exported name -> the submodule that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
