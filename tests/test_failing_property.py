import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers(0, 100))
def test_below_ten(n):
    assert n < 10
"""


def run_failing_property(tmp_path, **env):
    """Output and exit code of pytest on FAILING_PROPERTY, run with this
    conftest and pyproject.toml's warning filters, and ``env`` over ours."""
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in {**os.environ, "PYTHONPATH": path, **env}.items() if v is not None}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    return proc.stdout + proc.stderr, proc.returncode


def test_failing_property_reports_its_example(tmp_path):
    # without libcst the patch import cannot fail, so there is nothing to check
    pytest.importorskip("libcst")
    out, code = run_failing_property(tmp_path)
    assert "INTERNALERROR" not in out
    assert code == 1, out
    assert "Falsifying example: test_below_ten(" in out


@pytest.mark.parametrize("ci", [None, "true"])
def test_ci_profile_prints_a_reproduction_blob(tmp_path, ci):
    # hypothesis itself loads its own "ci" profile when GITHUB_ACTIONS is true
    out, code = run_failing_property(tmp_path, CI=ci, GITHUB_ACTIONS=None)
    assert code == 1, out
    assert ("@reproduce_failure(" in out) == (ci is not None)
