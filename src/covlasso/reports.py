"""Dependency reports: canonical JSON serialization and DOT graph export.

Serialization must be byte-reproducible: the same report always yields
the same bytes, and serialize -> parse -> serialize is the identity on
bytes.  That rules out repr-based float formatting, so every float is
written with the shortest-roundtrip '%.17g' form, normalized to always
contain a decimal point or exponent, and object keys are emitted in
sorted order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import get_type_hints

import numpy as np

from .errors import InvalidInput
from .evaluation import EvalMetrics
from .solver import SUPPORT_TOL, DependencySolution, SolutionCertificates

SCHEMA = "dependency-report"
SCHEMA_VERSION = 3

# A report's certificate block: each SolutionCertificates field, typed.
_CERTIFICATE_TYPES = get_type_hints(SolutionCertificates)


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
        (j, name_of(j), float(solution.theta[j])) for j in solution.support
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
            (int(c["index"]), str(c["name"]), float(c["value"]))
            for c in payload["coefficients"]
        )
        return DependencyReport(
            target_index=int(target["index"]),
            target_name=str(target["name"]),
            lam=float(payload["lambda"]),
            pred_error=float(payload["pred_error"]),
            coefficients=coeffs,
            certificates=_check_certificates(payload["certificates"]),
            metrics=payload["metrics"],
            models=payload["models"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"report is missing or mistypes a field: {exc}") from exc


def _reject_constant(literal: str):
    raise InvalidInput(f"reports cannot contain non-finite numbers: {literal}")


def _check_certificates(block) -> dict:
    """Require exactly the SolutionCertificates fields, each of its JSON type."""
    if not isinstance(block, dict) or block.keys() != _CERTIFICATE_TYPES.keys():
        raise InvalidInput(
            "report certificates must have exactly the fields "
            f"{sorted(_CERTIFICATE_TYPES)}"
        )
    for key, kind in _CERTIFICATE_TYPES.items():
        value = block[key]
        if type(value) not in ((bool,) if kind is bool else (int, float)):
            raise InvalidInput(f"report certificate {key!r} is mistyped: {value!r}")
    return dict(block)


def report_solution(report: DependencyReport, n: int) -> DependencySolution:
    """Rebuild an embedded solution from a parsed report.

    Needed to evaluate a stored report against fresh logit samples.
    Coefficient indices must fit the given category count and avoid the
    target; everything else carries over verbatim.
    """
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
    support = tuple(
        j for j, _, value in report.coefficients if abs(value) > SUPPORT_TOL
    )
    return DependencySolution(
        target=report.target_index,
        theta=theta,
        lam=report.lam,
        support=support,
        pred_error=report.pred_error,
        certificates=SolutionCertificates(**report.certificates),
    )


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
