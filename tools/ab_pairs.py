"""Alternated pairs of benchmark runs of one workload in two checkouts.

    python tools/ab_pairs.py PARENT CHANGE --workload W [--pairs 10] [--seed 0] [--seconds 30] [--tiny]

Each pair runs ``perfbench/run.py --trace 0`` once from the root of each
checkout, in a new process. Odd pairs (1, 3, ...) run PARENT first and even
pairs CHANGE first, so that a machine that drifts slower or faster over the
session weighs on both sides alike. For each end-to-end metric that PARENT's
``BENCHMARK.json`` declares, it prints both medians, both sides' quartiles,
in how many pairs the change was better and in how many the two were equal,
and whether the difference is resolved: ``yes`` when the change wins at
least 9 of every 10 pairs (a tie is a win for neither side) and the medians
differ by more than the parent's q3 - q1. Then it prints each run's
``failed`` and ``correct``. Exits 1 if any run fails or reads
``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np


def bench(checkout: Path, args) -> dict | None:
    """The last-line JSON of one ``perfbench/run.py`` run in ``checkout``, or
    None when the run exits non-zero or prints no JSON (its stderr is passed on)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"] + ["--tiny"] * args.tiny
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        pass
    sys.stderr.write(f"{checkout}: exit {proc.returncode}\n{proc.stderr}")
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    sides = (args.parent, args.change)
    runs = []  # per pair, (parent's result, change's result)
    for pair in range(1, args.pairs + 1):
        got = {side: bench(sides[side], args) for side in ((0, 1) if pair % 2 else (1, 0))}
        runs.append((got[0], got[1]))

    better = {m["name"]: m["better"] for m in json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    print(f"{args.workload}  seed {args.seed}  {args.pairs} pairs, the parent first in odd pairs")
    columns = ("parent", "change", "parent q1", "parent q3", "change q1", "change q3", "change wins", "ties")
    print(f"{'metric':<14} " + " ".join(f"{c:>12}" for c in columns) + f" {'resolved':>9}")
    complete = [(a, b) for a, b in runs if a and b]
    for name, direction in better.items():
        values = [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in complete]
        if not values:
            print(f"{name:<14} {'no complete pair':>12}")
            continue
        parent, change = zip(*values)
        medians = statistics.median(parent), statistics.median(change)
        quartiles = [*np.percentile(parent, [25, 75]), *np.percentile(change, [25, 75])]
        wins = sum((b < a) if direction == "lower" else (b > a) for a, b in values)
        ties = sum(a == b for a, b in values)
        resolved = 10 * wins >= 9 * len(values) and abs(medians[1] - medians[0]) > quartiles[1] - quartiles[0]
        print(f"{name:<14} " + " ".join(f"{v:>12.6g}" for v in (*medians, *quartiles))
              + f" {f'{wins}/{len(values)}':>12} {ties:>12} {'yes' if resolved else 'no':>9}")
    ok = True
    for pair, results in enumerate(runs, 1):
        cells = []
        for side, result in zip(("parent", "change"), results):
            ok &= bool(result) and result["failed"] == 0 and result["correct"] is True
            cells.append(f"{side} " + (f"failed={result['failed']} correct={result['correct']}"
                                       if result else "did not finish"))
        print(f"pair {pair}: " + ", ".join(cells))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
