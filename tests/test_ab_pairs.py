"""``tools/ab_pairs.py`` runs the benchmark in two checkouts and compares them."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_pairs.py"
ONE_TINY_PAIR = ["--tiny", "--pairs", "1", "--seconds", "0", "--workload", "pipeline-240"]


def test_this_checkout_against_itself_prints_one_row_per_end_to_end_metric():
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT)] + ONE_TINY_PAIR,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert [line.split()[0] for line in lines[2:2 + len(names)]] == names
    assert all(line.split()[-1] in ("0/1", "1/1") for line in lines[2:2 + len(names)])
    assert lines[2 + len(names):] == ["pair 1: parent failed=0 correct=True, change failed=0 correct=True"]


def test_a_run_that_does_not_finish_exits_1(tmp_path):
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(tmp_path)] + ONE_TINY_PAIR,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 1
    assert run.stdout.splitlines()[-1] == "pair 1: parent failed=0 correct=True, change did not finish"
    assert str(tmp_path) in run.stderr
