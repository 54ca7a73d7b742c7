"""The import contract: each job loads only the modules it runs.

``import covlasso`` and ``import covlasso.cli`` load neither numpy nor
any computational module; a subcommand imports what it calls when it
runs.  Each case runs in a fresh interpreter and reads its
``sys.modules`` after the job.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covlasso
from covlasso.cli import main

SRC = str(Path(covlasso.__file__).resolve().parents[1])

# Every name covlasso exports; each resolves lazily to its submodule.
EXPORTS = [
    "CovAccumulator", "CovLassoError", "CovMatrix", "Degenerate",
    "DependencyReport", "DependencySolution", "EvalMetrics",
    "ExtensionFit", "InvalidInput", "LogitMatrix",
    "PlantedDependency", "ReducedProblem", "RedundancyReport",
    "ScreeningReport", "SlopeBoundCheck", "SolutionCertificates",
    "SolutionPath",
    "accumulate", "build_report", "canonical_json", "certificates",
    "check_slope_bounds", "cross_covariance", "default_name",
    "emit_graph", "emit_report", "evaluate", "finalize",
    "fit_extension", "format_float", "generate", "lambda_max",
    "parse_report", "read_cov", "read_logits", "read_logits_csv",
    "reduce_problem", "redundancy", "report_theta", "screen",
    "serialize_report", "solution_path", "solve", "write_cov",
    "write_logits",
]

# Runs argv (possibly none) through the CLI, then prints the exit code and
# the loaded modules as the last line of stdout.
PROBE = """
import json, sys
code = None
if len(sys.argv) > 1:
    from covlasso.cli import main
    code = main(sys.argv[1:])
else:
    import covlasso, covlasso.cli
print()
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def loaded(*argv, cwd=None):
    """Exit code, covlasso submodules loaded, and whether numpy was."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    mods = result["modules"]
    ours = {m.split(".", 1)[1] for m in mods if m.startswith("covlasso.")}
    return result["code"], ours, "numpy" in mods


def test_importing_the_package_and_cli_loads_no_numpy_or_compute_module():
    code, ours, numpy = loaded()
    assert code is None
    assert ours == {"cli", "errors"}
    assert not numpy


@pytest.mark.parametrize("argv", [["--help"], ["cov", "--bogus"], ["solve"]])
def test_help_and_usage_errors_load_no_numpy(argv):
    code, ours, numpy = loaded(*argv)
    assert code == (0 if argv == ["--help"] else 2)
    assert ours == {"cli", "errors"}
    assert not numpy


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("imports")
    logits, cov, report = (str(work / name) for name in ("l.bin", "c.bin", "s.json"))
    labels = work / "labels.txt"
    labels.write_text(" ".join(str(k % 6) for k in range(40)))
    for argv in (
        ["synth", "--n", "6", "--samples", "40", "--latent-rank", "3", "--seed", "1", "--output", logits],
        ["cov", "--input", logits, "--output", cov],
        ["solve", "--cov", cov, "--target", "0", "--lambda", "0.01", "--output", report],
    ):
        assert main(argv) == 0
    return work, logits, cov, report, str(labels)


# Subcommand -> modules it must not load.
FORBIDDEN = {
    "cov": {"solver", "analysis", "evaluation", "synthetic"},
    "fit-extension": {"analysis", "solver", "synthetic"},
    "path": {"evaluation", "synthetic"},
    "graph": {"analysis", "covariance", "evaluation", "formats", "linalg", "solver", "synthetic"},
}


@pytest.mark.parametrize("command", sorted(FORBIDDEN))
def test_subcommand_loads_only_what_it_runs(inputs, command):
    work, logits, cov, report, labels = inputs
    out = str(work / f"out-{command}")
    argv = {
        "cov": ["cov", "--input", logits, "--output", out],
        "fit-extension": [
            "fit-extension", "--logits", logits, "--labels", labels,
            "--new-count", "2", "--epochs", "3", "--output", out,
        ],
        "path": ["path", "--cov", cov, "--target", "0", "--auto-grid", "4", "--output", out],
        "graph": ["graph", "--report", report, "--output", out],
    }[command]
    code, ours, numpy = loaded(*argv, cwd=work)
    assert code == 0
    assert ours & FORBIDDEN[command] == set()
    assert {"cli", "errors"} <= ours
    # Parsing reports and writing DOT text needs no array.
    assert not (numpy and command == "graph")


def test_exports_resolve_to_their_submodules():
    assert sorted(covlasso.__all__) == EXPORTS
    for name in EXPORTS:
        obj = getattr(covlasso, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("covlasso.")
        assert getattr(home, name) is obj
    assert set(EXPORTS) <= set(dir(covlasso))
    with pytest.raises(AttributeError, match="no_such_name"):
        covlasso.no_such_name
    namespace = {}
    exec("from covlasso import *", namespace)
    assert set(EXPORTS) <= set(namespace)
