"""Sparse linear dependency analysis for classifier logits.

Given per-sample logit vectors of a classifier, this package finds
sparse linear combinations of other categories' logits that reproduce a
target category's logit, by solving an L1-penalized least-squares
problem posed directly on the uncentered second-moment matrix of the
logits.  On top of the solver it provides optimality certificates,
pre-solve screening, redundancy measurements, behavioral evaluation,
classifier extension fitting, deterministic synthetic data and
reproducible file formats.
"""

from .analysis import (
    ErrorReductionBounds,
    MarkovCertificate,
    RedundancyReport,
    ScreeningReport,
    ScreeningRow,
    SlopeBoundCheck,
    certify,
    check_slope_bounds,
    error_reduction_bounds,
    pair_covariance,
    redundancy,
    screen,
)
from .covariance import (
    CovAccumulator,
    CovMatrix,
    LogitMatrix,
    ReducedProblem,
    accumulate,
    cross_covariance,
    finalize,
    merge,
    reduce_problem,
)
from .errors import (
    CovLassoError,
    DegenerateTarget,
    DimMismatch,
    DimTooSmall,
    Diverged,
    EmptyAccumulator,
    FormatError,
    InvalidInput,
    InvalidLabels,
    InvalidMatrix,
    InvalidSpec,
    MissingLabels,
    OutOfRange,
    SingularMatrix,
)
from .evaluation import (
    EvalMetrics,
    ExtensionFit,
    evaluate,
    extended_logits,
    extension_loss_grad,
    fit_extension,
    replace_logit,
)
from .formats import (
    read_cov,
    read_logits,
    read_logits_csv,
    write_cov,
    write_logits,
)
from .linalg import eigenvalues, log_det
from .reports import (
    DependencyReport,
    build_report,
    canonical_json,
    default_name,
    emit_graph,
    emit_report,
    format_float,
    parse_report,
    report_solution,
    serialize_report,
)
from .solver import (
    DependencySolution,
    ReducedSolution,
    SolutionCertificates,
    SolutionPath,
    certificates,
    embed,
    lambda_max,
    prediction_error,
    solution_path,
    solve,
)
from .synthetic import (
    PlantedDependency,
    PlantedTruth,
    RecoveryReport,
    SyntheticSpec,
    generate,
    verify_recovery,
)

__version__ = "0.1.0"
