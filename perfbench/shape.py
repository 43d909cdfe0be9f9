"""Check that a held-out seed gives the same workload shape as the default.

    python3 perfbench/shape.py [--seeds 0 1] [--workload NAME ...]

Runs each workload traced under both seeds (one at a time) and compares
its input event counts, which must agree within 5%, and each function's
share of the traced wall time, which must agree within 0.05 for every
function holding at least 5% under either seed. Exit code 0 when all agree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import scenes

COUNT_TOLERANCE = 0.05
SHARE_TOLERANCE = 0.05
SHARE_FLOOR = 0.05


def traced(name: str, seed: int) -> dict:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    subprocess.run(cmd, check=True, capture_output=True, cwd=run.ROOT, timeout=600)
    return json.loads((run.OUT / "results" / f"{name}-s{seed}-t1.json").read_text())


def shares(result: dict) -> dict:
    m = result["metrics"]
    wall = m["trace.wall_s"]["value"]
    return {k[:-len(".self_s")]: v["value"] / wall for k, v in m.items()
            if k.endswith(".self_s") and k.count(".") == 2}


def compare(name: str, a: dict, b: dict) -> list[str]:
    problems = []
    for key, va in a["input_size"].items():
        vb = b["input_size"][key]
        if abs(va - vb) > COUNT_TOLERANCE * max(va, 1):
            problems.append(f"{name}: {key} {va} vs {vb}")
    sa, sb = shares(a), shares(b)
    for fn in sorted(sa):
        if max(sa[fn], sb[fn]) >= SHARE_FLOOR:
            flag = "" if abs(sa[fn] - sb[fn]) <= SHARE_TOLERANCE else "  <-- differs"
            print(f"  {fn:32s} {sa[fn]:6.1%} {sb[fn]:6.1%}{flag}")
            if flag:
                problems.append(f"{name}: share of {fn} {sa[fn]:.3f} vs {sb[fn]:.3f}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs=2, default=(0, 1))
    ap.add_argument("--workload", nargs="*", default=list(scenes.SPECS), choices=list(scenes.SPECS))
    args = ap.parse_args()
    problems = []
    for name in args.workload:
        a, b = (traced(name, s) for s in args.seeds)
        print(f"{name}: seeds {args.seeds[0]} / {args.seeds[1]}: {a['input_size']} / {b['input_size']}")
        problems += compare(name, a, b)
    for p in problems:
        print("DIFFERS:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
