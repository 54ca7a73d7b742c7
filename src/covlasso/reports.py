"""Dependency reports: canonical JSON serialization and DOT graph export.

Serialization must be byte-reproducible: the same report always yields
the same bytes, and serialize -> parse -> serialize is the identity on
bytes.  That rules out repr-based float formatting, so every float is
written as '%.17g': 17 significant digits, which round-trip every
double (0.1 is written 0.10000000000000001).  The text is normalized to
always contain a decimal point or exponent, and object keys are emitted
in sorted order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .errors import InvalidInput

if TYPE_CHECKING:
    import numpy as np

    from .evaluation import EvalMetrics
    from .solver import DependencySolution

SCHEMA = "dependency-report"
SCHEMA_VERSION = 3


# A report's certificate block: each SolutionCertificates field, typed.
# Spelled out so that parsing a report loads neither the solver nor numpy.
_CERTIFICATE_TYPES = {
    "kkt_max_violation": float,
    "kkt_valid": bool,
    "dual_gap": float,
    "dual_feasibility_violation": float,
}


def format_float(value: float) -> str:
    """Canonical float text: '%.17g' with a guaranteed '.', 'e' or sign marker."""
    v = float(value)
    if v != v or v in (float("inf"), float("-inf")):
        raise InvalidInput(f"reports cannot contain non-finite numbers: {value}")
    text = format(v, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, canonical floats, no spaces."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise InvalidInput(f"object keys must be strings, got {key!r}")
        parts = (
            f"{json.dumps(k, ensure_ascii=False)}:{canonical_json(obj[k])}"
            for k in sorted(obj)
        )
        return "{" + ",".join(parts) + "}"
    raise InvalidInput(f"cannot serialize value of type {type(obj).__name__}")


@dataclass(frozen=True)
class DependencyReport:
    """Parsed/parseable form of one solved dependency.

    ``coefficients`` holds (index, name, value) triples for the support,
    sorted by index; the target itself is implicit with its fixed -1.
    ``certificates`` and optional ``metrics``/``models`` are plain
    string-keyed dictionaries so the report round-trips structurally.
    """

    target_index: int
    target_name: str
    lam: float
    pred_error: float
    coefficients: tuple[tuple[int, str, float], ...]
    certificates: dict
    metrics: dict | None = None
    models: dict | None = None


def default_name(index: int) -> str:
    return f"c{index}"


def build_report(
    solution: DependencySolution,
    metrics: EvalMetrics | None = None,
    names: tuple[str, ...] | None = None,
    models: dict | None = None,
) -> DependencyReport:
    """Assemble a report from a solved dependency and optional metrics."""
    if names is not None and len(names) != solution.n:
        raise InvalidInput(
            f"expected {solution.n} names, got {len(names)}"
        )

    def name_of(i: int) -> str:
        return names[i] if names is not None else default_name(i)

    coeffs = tuple(
        (j, name_of(j), float(solution.coef[j])) for j in solution.support
    )
    cert_dict = {
        key: kind(getattr(solution.certificates, key))
        for key, kind in _CERTIFICATE_TYPES.items()
    }
    metrics_dict = None
    if metrics is not None:
        metrics_dict = asdict(metrics)
        del metrics_dict["target"]  # the report names its target once
    return DependencyReport(
        target_index=solution.target,
        target_name=name_of(solution.target),
        lam=float(solution.lam),
        pred_error=float(solution.pred_error),
        coefficients=coeffs,
        certificates=cert_dict,
        metrics=metrics_dict,
        models=dict(models) if models is not None else None,
    )


def serialize_report(report: DependencyReport) -> str:
    payload = {
        "schema": SCHEMA,
        "version": SCHEMA_VERSION,
        "target": {"index": report.target_index, "name": report.target_name},
        "lambda": float(report.lam),
        "pred_error": float(report.pred_error),
        "coefficients": [
            {"index": j, "name": name, "value": float(v)}
            for j, name, v in report.coefficients
        ],
        "certificates": report.certificates,
        "metrics": report.metrics,
        "models": report.models,
    }
    return canonical_json(payload)


def emit_report(
    solution: DependencySolution,
    metrics: EvalMetrics | None = None,
    names: tuple[str, ...] | None = None,
    models: dict | None = None,
) -> str:
    """Serialize a solved dependency to canonical JSON text."""
    return serialize_report(build_report(solution, metrics, names, models))


def parse_report(text: str) -> DependencyReport:
    """Parse canonical report JSON back into a DependencyReport."""
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"report is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidInput("report must be a JSON object")
    if payload.get("schema") != SCHEMA:
        raise InvalidInput(f"unknown report schema {payload.get('schema')!r}")
    if payload.get("version") != SCHEMA_VERSION:
        raise InvalidInput(f"unsupported report version {payload.get('version')!r}")
    try:
        target = payload["target"]
        coeffs = tuple(
            (
                _typed(c["index"], (int,), "coefficient index"),
                _typed(c["name"], (str,), "coefficient name"),
                float(_typed(c["value"], _NUMBER, "coefficient value")),
            )
            for c in payload["coefficients"]
        )
        return DependencyReport(
            target_index=_typed(target["index"], (int,), "target index"),
            target_name=_typed(target["name"], (str,), "target name"),
            lam=float(_typed(payload["lambda"], _NUMBER, "lambda")),
            pred_error=float(_typed(payload["pred_error"], _NUMBER, "pred_error")),
            coefficients=coeffs,
            certificates=_check_certificates(payload["certificates"]),
            metrics=payload["metrics"],
            models=payload["models"],
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"report is missing or mistypes a field: {exc}") from exc


def _reject_constant(literal: str):
    raise InvalidInput(f"reports cannot contain non-finite numbers: {literal}")


# JSON numbers parse as int or float; bool, although an int, is not one.
_NUMBER = (int, float)


def _typed(value, kinds: tuple, field: str):
    """``value`` if its exact type is one of ``kinds``; no coercion."""
    if type(value) not in kinds:
        raise InvalidInput(f"report {field} is mistyped: {value!r}")
    return value


def _check_certificates(block) -> dict:
    """Require exactly the SolutionCertificates fields, each of its JSON type."""
    if not isinstance(block, dict) or block.keys() != _CERTIFICATE_TYPES.keys():
        raise InvalidInput(
            f"report certificates must have exactly the fields {sorted(_CERTIFICATE_TYPES)}"
        )
    for key, kind in _CERTIFICATE_TYPES.items():
        _typed(block[key], (bool,) if kind is bool else _NUMBER, f"certificate {key!r}")
    return dict(block)


def report_theta(report: DependencyReport, n: int) -> np.ndarray:
    """The dependency vector theta of a parsed report, over n categories.

    Needed to evaluate a stored report against fresh logit samples.
    Coefficient indices must fit the given category count, avoid the
    target and appear once; theta is -1 at the target and 0 off the
    listed coefficients.
    """
    import numpy as np

    if not 0 <= report.target_index < n:
        raise InvalidInput(
            f"report target {report.target_index} outside [0, {n})"
        )
    theta = np.zeros(n)
    theta[report.target_index] = -1.0
    seen = set()
    for j, _, value in report.coefficients:
        if not 0 <= j < n:
            raise InvalidInput(f"coefficient index {j} outside [0, {n})")
        if j == report.target_index:
            raise InvalidInput("coefficient list must not contain the target")
        if j in seen:
            raise InvalidInput(f"coefficient index {j} repeated")
        seen.add(j)
        theta[j] = value
    return theta


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_graph(reports) -> str:
    """Render reports as a DOT digraph of category dependencies.

    One node per category name, one edge target -> support category per
    coefficient, annotated with the signed coefficient value.  Nodes and
    edges are emitted in sorted order so output is deterministic.
    """
    nodes: set[str] = set()
    edges: list[tuple[str, str, float]] = []
    for rep in reports:
        nodes.add(rep.target_name)
        for _, name, value in rep.coefficients:
            nodes.add(name)
            edges.append((rep.target_name, name, value))
    lines = ["digraph dependencies {"]
    for name in sorted(nodes):
        lines.append(f"  {_dot_quote(name)};")
    for tail, head, value in sorted(edges):
        lines.append(
            f"  {_dot_quote(tail)} -> {_dot_quote(head)} "
            f"[weight={format_float(value)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
