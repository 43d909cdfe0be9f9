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


def test_failing_property_reports_its_example(tmp_path):
    # without libcst the patch import cannot fail, so there is nothing to check
    pytest.importorskip("libcst")
    # this conftest and pyproject.toml's warning filters, on a property that fails
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1, out
    assert "Falsifying example: test_below_ten(" in out

