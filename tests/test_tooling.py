"""The test configuration itself: a failing property must be reported, not crash pytest."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

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
