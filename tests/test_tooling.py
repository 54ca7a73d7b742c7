"""Checks on the project itself rather than on its numerics.

A failing property must be reported, not crash pytest, no module of the
package may read the process environment, no module keeps an import it
does not use (nor does any test file), every export is used inside the
package, errors come in one class per exit code, only ``analysis``
computes spectra, and README names every CLI option.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "covlasso"
TESTS = ROOT / "tests"

README = ROOT / "README.md"
PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_is_reported_under_the_project_config(tmp_path):
    # On failure hypothesis may import libcst to suggest a patch, which
    # warns through mypy_extensions; with warnings as errors that warning
    # used to abort the whole session.
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(probe)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_package_never_reads_the_environment():
    # Outputs are a function of argv and the input files only: no module
    # may consult os.environ, os.environb or os.getenv.
    readers = {"environ", "environb", "getenv", "getenvb"}
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in readers:
                found.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name in readers]
    assert found == []


def test_package_has_no_unused_imports():
    # Every name a module or test file imports is used in that file;
    # __init__.py imports only to re-export.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    tests = sorted(TESTS.glob("*.py"))
    assert modules and tests
    modules += tests
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text("utf-8"), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_export_is_used_inside_the_package():
    # A name is used if another module names, reads or imports it, or its
    # own module names it outside its def or class statement; an export
    # reached only by its own tests is library-only surface.
    from covlasso import _EXPORTS

    used = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Name):
                used.setdefault(node.id, set()).add(path.stem)
            elif isinstance(node, ast.Attribute):
                used.setdefault(node.attr, set()).add(path.stem + ".attr")
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    used.setdefault(alias.name, set()).add(path.stem + ".import")
    unused = sorted(
        name
        for module, names in _EXPORTS.items()
        for name in names
        if used.get(name, set()) <= {module + ".attr", module + ".import"}
    )
    assert unused == []


def test_errors_are_one_class_per_exit_code():
    # errors.py holds the base class and one class per outcome: InvalidInput
    # exits 2, Degenerate exits 4.  Every raise names one of them, so a
    # narrow type cannot grow back.  The only builtins raised are
    # AttributeError (the module __getattr__ protocol) and ValueError (which
    # the parsers' int()/float() helpers raise and their callers catch).
    outcomes = {"InvalidInput", "Degenerate"}
    builtins = {"AttributeError", "ValueError"}
    tree = ast.parse((PACKAGE / "errors.py").read_text("utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == outcomes | {"CovLassoError"}
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
                if name not in outcomes | builtins:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_spectra_are_computed_only_in_analysis():
    # read_cov decides PSD with one Cholesky factorization and the
    # solvers need no spectrum, so only analysis.redundancy may call
    # eigh.  An eigh or eigvalsh elsewhere is a slow path creeping back in.
    spectral = {"eigh", "eigvalsh"}
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "analysis.py")
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in spectral:
                found.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.Name) and node.id in spectral:
                found.append(f"{path.name}:{node.lineno} {node.id}")
            elif isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name in spectral]
    assert found == []


def test_readme_names_every_cli_option():
    # Each option string given to add_argument in cli.py appears in
    # README.md as a whole token, so no option goes undocumented.
    tree = ast.parse((PACKAGE / "cli.py").read_text("utf-8"))
    options = sorted(
        {
            arg.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            for arg in node.args
            if isinstance(arg, ast.Constant) and str(arg.value).startswith("-")
        }
    )
    assert options
    readme = README.read_text("utf-8")
    missing = [opt for opt in options if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", readme)]
    assert missing == []
