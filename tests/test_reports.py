import json
import math
from dataclasses import asdict
from typing import get_type_hints

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covlasso import (
    InvalidInput,
    build_report,
    canonical_json,
    default_name,
    emit_graph,
    emit_report,
    evaluate,
    format_float,
    parse_report,
    report_theta,
    serialize_report,
)
from covlasso.covariance import LogitMatrix
from covlasso.reports import _CERTIFICATE_TYPES
from covlasso.solver import DependencySolution, SolutionCertificates


def _solution(theta, target=0, lam=0.5, pred_error=0.25, converged=True):
    coef = np.array(theta, dtype=float)
    coef[target] = 0.0
    return DependencySolution(
        target=target,
        coef=coef,
        lam=lam,
        objective=0.0,
        iterations=0,
        pred_error=pred_error,
        certificates=SolutionCertificates(1e-9, converged, 2e-8, 0.0),
    )


class TestCanonicalJson:
    def test_sorted_keys_no_spaces(self):
        text = canonical_json({"b": 1, "a": [True, None, "x"]})
        assert text == '{"a":[true,null,"x"],"b":1}'

    def test_float_forms(self):
        assert format_float(0.25) == "0.25"
        assert format_float(1.0) == "1.0"
        assert format_float(-0.0) == "-0.0"
        assert "e" in format_float(1e22).lower()
        assert format_float(0.1) == "0.10000000000000001"

    def test_floats_round_trip_exactly(self, rng):
        values = list(rng.standard_normal(200))
        values += [1e-300, 1e300, 2.0**-1074, -5.5, 3.141592653589793]
        for v in values:
            assert float(format_float(float(v))) == float(v)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInput):
                format_float(bad)
            with pytest.raises(InvalidInput):
                canonical_json({"x": bad})

    def test_non_string_keys_rejected(self):
        with pytest.raises(InvalidInput):
            canonical_json({1: "x"})

    def test_unicode_passes_through(self):
        assert canonical_json({"k": "café"}) == '{"k":"café"}'

    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidInput):
            canonical_json({"x": object()})

    def test_same_input_same_bytes(self):
        obj = {"z": 0.1, "a": [1.5, {"q": False}]}
        assert canonical_json(obj) == canonical_json(dict(reversed(obj.items())))


class TestReportRoundTrip:
    def test_serialize_parse_serialize_is_identity(self):
        sol = _solution([-1.0, 0.5, 0.0, -0.125], lam=0.3)
        text = emit_report(sol, names=("tiger", "lion", "wolf", "lynx"))
        again = serialize_report(parse_report(text))
        assert again == text
        assert text.encode() == again.encode()

    def test_certificate_types_are_the_solver_fields(self):
        # Reports spell the fields out so that graph never loads the solver.
        hints = get_type_hints(SolutionCertificates)
        assert list(_CERTIFICATE_TYPES.items()) == list(hints.items())

    def test_report_fields(self):
        sol = _solution([-1.0, 0.5, 0.0, -0.125])
        rep = build_report(sol)
        assert rep.target_index == 0
        assert rep.target_name == default_name(0) == "c0"
        assert rep.coefficients == ((1, "c1", 0.5), (3, "c3", -0.125))
        assert rep.certificates["kkt_valid"] is True
        assert rep.metrics is None and rep.models is None

    def test_report_with_metrics_round_trips(self):
        data = np.array([[2.0, 4.0], [6.0, 1.0]])
        logits = LogitMatrix(data, labels=np.array([1, 0]))
        sol = _solution([-1.0, 0.5], target=0)
        metrics = evaluate(logits, sol.target, sol.theta)
        text = emit_report(sol, metrics=metrics, models={"within": "resnet"})
        parsed = parse_report(text)
        assert parsed.metrics["acc"] == 0.5
        assert parsed.metrics["positives"] == 1
        assert parsed.models == {"within": "resnet"}
        assert serialize_report(parsed) == text

    def test_none_metrics_serialize_as_null(self):
        sol = _solution([-1.0, 0.0])
        text = emit_report(sol)
        payload = json.loads(text)
        assert payload["metrics"] is None
        assert payload["coefficients"] == []

    def test_names_length_checked(self):
        with pytest.raises(InvalidInput):
            build_report(_solution([-1.0, 0.5]), names=("only-one",))

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidInput):
            parse_report("not json")
        with pytest.raises(InvalidInput):
            parse_report("[1,2]")
        with pytest.raises(InvalidInput):
            parse_report('{"schema":"other","version":1}')
        with pytest.raises(InvalidInput):
            parse_report('{"schema":"dependency-report","version":99}')
        with pytest.raises(InvalidInput, match="unsupported report version 1"):
            parse_report('{"schema":"dependency-report","version":1}')
        with pytest.raises(InvalidInput, match="missing"):
            parse_report('{"schema":"dependency-report","version":3}')

    def test_version_2_report_rejected(self):
        # Version 2 carried a top-level "converged" beside kkt_valid.
        payload = json.loads(emit_report(_solution([-1.0, 0.5])))
        payload.update(version=2, converged=True)
        with pytest.raises(InvalidInput, match="unsupported report version 2"):
            parse_report(json.dumps(payload))

    def test_no_top_level_converged(self):
        payload = json.loads(emit_report(_solution([-1.0, 0.5], converged=False)))
        assert payload["version"] == 3
        assert "converged" not in payload
        assert payload["certificates"]["kkt_valid"] is False

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "place",
        ['"lambda":0.5', '"value":0.5', '"dual_gap":2e-08'],
        ids=["lambda", "coefficient", "certificate"],
    )
    def test_parse_rejects_non_finite_literals(self, place, literal):
        text = emit_report(_solution([-1.0, 0.5]))
        assert text.count(place) == 1
        bad = text.replace(place, place.split(":")[0] + ":" + literal)
        with pytest.raises(InvalidInput, match="non-finite"):
            parse_report(bad)

    @pytest.mark.parametrize(
        "fields",
        [
            {"kkt_valid": "no"},
            {"kkt_valid": 1},
            {"dual_gap": True},
            {"dual_gap": "0"},
            {"spare": 0.0},
            {},
            [],
        ],
        ids=[
            "kkt_valid_string",
            "kkt_valid_int",
            "gap_bool",
            "gap_string",
            "extra_field",
            "empty_object",
            "list",
        ],
    )
    def test_parse_rejects_bad_certificate_block(self, fields):
        # Non-empty dicts are merged into a valid block; {} and [] replace it.
        payload = json.loads(emit_report(_solution([-1.0, 0.5])))
        if fields:
            payload["certificates"].update(fields)
        else:
            payload["certificates"] = fields
        with pytest.raises(InvalidInput, match="certificate"):
            parse_report(json.dumps(payload))


class TestReportTheta:
    def test_rebuild_matches_original(self):
        sol = _solution([0.5, -1.0, -0.25], target=1, lam=0.7, pred_error=0.01)
        rep = parse_report(emit_report(sol))
        theta = report_theta(rep, 3)
        assert_allclose(theta, sol.theta, rtol=0, atol=0)
        assert rep.target_index == 1
        assert tuple(j for j, _, _ in rep.coefficients) == sol.support
        assert rep.lam == 0.7 and rep.pred_error == 0.01
        assert rep.certificates == asdict(sol.certificates)

    def test_converged_follows_kkt_valid(self):
        sol = _solution([-1.0, 0.5], converged=False)
        rep = parse_report(emit_report(sol))
        assert rep.certificates["kkt_valid"] is False

    def test_validation(self):
        rep = parse_report(emit_report(_solution([-1.0, 0.5])))
        with pytest.raises(InvalidInput):
            report_theta(rep, 1)  # coefficient index 1 out of range
        bad_target = parse_report(
            emit_report(_solution([0.5, -1.0], target=1))
        )
        with pytest.raises(InvalidInput):
            report_theta(DependencyReportStub(bad_target, target_index=9), 3)
        with pytest.raises(InvalidInput, match="must not contain the target"):
            report_theta(DependencyReportStub(bad_target, target_index=0), 3)
        twice = ((0, "c0", 0.5), (0, "c0", 0.25))
        with pytest.raises(InvalidInput, match="repeated"):
            report_theta(DependencyReportStub(bad_target, coefficients=twice), 3)


class DependencyReportStub:
    """Shallow copy of a report with selected fields overridden."""

    def __init__(self, base, **overrides):
        for field in (
            "target_index",
            "target_name",
            "lam",
            "pred_error",
            "coefficients",
            "certificates",
            "metrics",
            "models",
        ):
            setattr(self, field, overrides.get(field, getattr(base, field)))


class TestGraph:
    def test_single_report(self):
        sol = _solution([-1.0, 0.5, 0.0], target=0)
        rep = build_report(sol, names=("macaw", "ostrich", "kiwi"))
        text = emit_graph([rep])
        assert text == (
            "digraph dependencies {\n"
            '  "macaw";\n'
            '  "ostrich";\n'
            '  "macaw" -> "ostrich" [weight=0.5];\n'
            "}\n"
        )

    def test_merged_sorted_deterministic(self):
        a = build_report(_solution([-1.0, 0.25, 0.0], target=0))
        b = build_report(_solution([0.0, -0.5, -1.0], target=2))
        text = emit_graph([a, b])
        assert text == emit_graph([b, a])
        lines = text.splitlines()
        assert lines[0] == "digraph dependencies {"
        assert lines[1:4] == ['  "c0";', '  "c1";', '  "c2";']
        assert '  "c0" -> "c1" [weight=0.25];' in lines
        assert '  "c2" -> "c1" [weight=-0.5];' in lines

    def test_quote_escaping(self):
        sol = _solution([-1.0, 1.5], target=0)
        rep = build_report(sol, names=('sa"y', "back\\slash"))
        text = emit_graph([rep])
        assert '"sa\\"y"' in text
        assert '"back\\\\slash"' in text

    def test_empty_input(self):
        assert emit_graph([]) == "digraph dependencies {\n}\n"
