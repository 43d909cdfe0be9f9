"""Fast self-check of the benchmark, on toy-sized scenes.

    python3 perfbench/selfcheck.py

Runs in well under a minute and exits 0 when all of these hold:
- every workload, run from the command line in both trace modes, ends its
  output with a JSON line holding exactly the metrics BENCHMARK.json
  declares, each with its declared unit, and reports no failed check;
- the human-readable report names every end-to-end metric the workload
  has, quality metrics and ``error_rate`` included;
- the checks catch bad output: a stream missing one event, or a stream out
  of canonical order, gives a non-zero ``error_rate``;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import numpy as np

import inputs
import run
import scenes
import tracer

REPORTED = {
    "pipeline-240": ["psnr_db", "ssim", "event_l1"],
    "pairgen-640": [],
    "deblur-640": ["psnr_db", "ssim"],
    "denoise-346": ["signal_recall", "noise_removed"],
}
COMMON = ["setup_s", "wall_s", "events_per_s", "peak_rss_mb", "error_rate"]


def drop_one(fn):
    """The stream a function returns, missing its middle event."""
    def faulty(*args, **kwargs):
        s = fn(*args, **kwargs)
        keep = np.ones(len(s), dtype=bool)
        keep[len(s) // 2] = False
        return s.with_arrays(s.t[keep], s.x[keep], s.y[keep], s.p[keep])
    return faulty


def swap_two(fn):
    """The stream a function returns, with two events of different times swapped."""
    def faulty(*args, **kwargs):
        s = fn(*args, **kwargs)
        later = np.flatnonzero(np.diff(s.t) > 0)
        if not len(later):
            return s
        i = later[len(later) // 2]
        order = np.arange(len(s))
        order[[i, i + 1]] = order[[i + 1, i]]
        return s.with_arrays(s.t[order], s.x[order], s.y[order], s.p[order])
    return faulty


def check_command_line(name: str, trace: int, problems: list) -> None:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", "0",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, timeout=170)
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: last line keys {sorted(last)}")
    if not (last["correct"] and last["failed"] == 0 and last["attempted"] >= 1):
        problems.append(f"{where}: not correct: {proc.stdout[-1500:]}")
    declared = run.declared_metrics(trace)
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    if got != declared:
        problems.append(f"{where}: metrics/units differ from BENCHMARK.json: {set(got.items()) ^ set(declared.items())}")
    if not all(isinstance(v["value"], float) and math.isfinite(v["value"]) for v in last["metrics"].values()):
        problems.append(f"{where}: a metric value is not a finite number")
    if not trace:
        printed = {ln.split()[0] for ln in lines[:-1] if ln and not ln.startswith("#")}
        missing = set(COMMON + REPORTED[name]) - printed
        if missing:
            problems.append(f"{where}: report lacks {sorted(missing)}")


def check_faults(problems: list) -> None:
    ev = inputs.import_evtkit()
    faults = {
        "stream missing one event": ({ev.fileio.read_events: drop_one(ev.fileio.read_events)},
                                     list(scenes.SPECS)),
        "stream out of canonical order": ({ev.core.canonical_sort: swap_two(ev.core.canonical_sort)},
                                          ["pipeline-240", "pairgen-640", "denoise-346"]),
    }
    for what, (replace, names) in faults.items():
        for name in names:
            undo = tracer.rebind(ev, replace)
            try:
                result = run.measure(name, 0, 0.01, 0, tiny=True)
            finally:
                tracer.restore(undo)
            rate = result["metrics"]["error_rate"]["value"]
            print(f"fault '{what}' on {name}: error_rate {rate:.3f}: {result['failures'][:1]}")
            if not rate > 0:
                problems.append(f"fault '{what}' on {name} went unnoticed")


def check_bare_directory(problems: list) -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / run.BENCH.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline-240",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        if proc.returncode == 0 or "{" in proc.stdout:
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list[str] = []
    for name in scenes.SPECS:
        for trace in (0, 1):
            check_command_line(name, trace, problems)
    check_faults(problems)
    check_bare_directory(problems)
    for p in problems:
        print("PROBLEM:", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
