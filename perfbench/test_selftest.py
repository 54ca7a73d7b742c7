"""Self-test of the benchmark: a reduced-size pass of every workload.

    python3 -m pytest perfbench/test_selftest.py

Checks that each run names every metric of BENCHMARK.json with its unit,
that no job fails, and that traced and untraced rounds write the same
bytes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL = replace(
    run.FULL,
    logit_n=64,
    logit_samples=48,
    epochs=50,
    path_n=40,
    path_samples=2000,
    path_rank=8,
    graph_n=96,
    graph_samples=2000,
    rank=16,
)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(run.WORKLOADS)
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        tuple(m) for m in run.tracer.PER_LAYER
    ]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_reduced_pass(workload):
    plain = run.run(workload, 7, 0.1, False, SMALL)
    traced = run.run(workload, 7, 0.1, True, SMALL)

    for out, specs in ((plain, BENCH["end_to_end"]), (traced, BENCH["per_layer"])):
        res = out["result"]
        failures = [r.failures for r in out["rounds"] if r.failures]
        assert res["correct"] and res["failed"] == 0, failures
        assert res["attempted"] >= 2 * len(out["rounds"][0].digests) - 1
        assert {k: m["unit"] for k, m in res["metrics"].items()} == {m["name"]: m["unit"] for m in specs}
        assert all(isinstance(m["value"], float | int) for m in res["metrics"].values())
        assert out["report"]["ops_failed_frac"] == (0.0, "fraction")

    assert [r.traced for r in traced["rounds"]][:2] == [False, True]
    digests = plain["rounds"][0].digests
    assert all(r.digests == digests for r in plain["rounds"] + traced["rounds"])
    layers = traced["result"]["metrics"]
    assert any(v["value"] > 0 for k, v in layers.items() if k.endswith(".self_s"))
