"""``tools/pipeline_digests.py`` prints the same digests on two runs of a seed."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pipeline_digests.py"


def test_two_tiny_runs_print_the_same_digests():
    runs = [subprocess.run([sys.executable, str(TOOL), "3", "--tiny"], capture_output=True, text=True, timeout=300)
            for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    lines = runs[0].stdout.splitlines()
    names = [line.split("  ", 1)[1] for line in lines]
    assert len(lines) == 12 and names[-1] == "stdout" and "report.txt" in names
    assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)
    assert runs[0].stdout == runs[1].stdout


def test_a_failing_step_passes_on_its_exit_code():
    run = subprocess.run([sys.executable, str(TOOL), "-1", "--tiny"], capture_output=True, text=True, timeout=300)
    assert run.returncode != 0 and run.stdout == ""
