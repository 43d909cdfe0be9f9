"""``tools/ab_pairs.py`` runs the benchmark in two checkouts and compares them."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_pairs.py"
ONE_TINY_PAIR = ["--tiny", "--pairs", "1", "--seconds", "0", "--workload", "pipeline-240"]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy of what a benchmark run reads, so that its results and work
    files land in the copy and not in this checkout's ``perfbench/out``."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", root / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def test_this_checkout_against_itself_prints_one_row_per_end_to_end_metric(checkout):
    run = subprocess.run([sys.executable, str(TOOL), str(checkout), str(checkout)] + ONE_TINY_PAIR,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    names = [m["name"] for m in json.loads((checkout / "BENCHMARK.json").read_text())["end_to_end"]]
    assert [line.split()[0] for line in lines[2:2 + len(names)]] == names
    assert all(line.split()[-1] in ("0/1", "1/1") for line in lines[2:2 + len(names)])
    assert lines[2 + len(names):] == ["pair 1: parent failed=0 correct=True, change failed=0 correct=True"]


def test_a_run_that_does_not_finish_exits_1(checkout, tmp_path):
    run = subprocess.run([sys.executable, str(TOOL), str(checkout), str(tmp_path)] + ONE_TINY_PAIR,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 1
    assert run.stdout.splitlines()[-1] == "pair 1: parent failed=0 correct=True, change did not finish"
    assert str(tmp_path) in run.stderr
