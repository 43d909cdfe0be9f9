"""evtkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up makes the workload's inputs from
the seed in a fresh process, several times; the timed passes then run in
this process for about ``--seconds`` seconds. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs one untraced pass, one traced pass
and one tracemalloc pass and reports the per-layer metrics. The last line
of output is one JSON object; a full results file with provenance goes to
``perfbench/out/results/``. ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import os

# One thread per process: pin the BLAS/OpenMP pools before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks as ck  # noqa: E402
import inputs  # noqa: E402
import scenes  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 3  # set-up runs per measured run; setup_s is their median
MIN_PASSES = 3  # so that one slow pass cannot set the median


def run_setup(name: str, seed: int, d: Path, tiny: bool) -> float:
    """Make the inputs in a fresh process; return its wall time."""
    shutil.rmtree(d, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "inputs.py"), name, str(seed), str(d)] + (["--tiny"] if tiny else [])
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stdout}{proc.stderr}")
    return elapsed


def timed_passes(wl, c: ck.Checks, seconds: float):
    """Passes until ``seconds`` of timed work, and at least MIN_PASSES;
    full checks on the first."""
    times, digests, first = [], [], None
    while len(times) < MIN_PASSES or sum(times) < seconds:
        start = time.perf_counter()
        res = wl.run()
        times.append(time.perf_counter() - start)
        digests.append(wl.digest(res))
        if first is None:
            wl.check(res, c)
            first = summary(wl, res)
        del res
    c.expect(len(set(digests)) == 1, f"outputs differ across {len(times)} passes")
    return times, first


def traced_passes(wl, c: ck.Checks, ev):
    """Untraced, traced, untraced and allocation passes; checks and
    per-layer metrics. The traced pass's base is the mean of the untraced
    passes either side of it, so that warm-up does not count as overhead."""
    start = time.perf_counter()
    res = wl.run()
    untraced = [time.perf_counter() - start]
    digests = [wl.digest(res)]
    wl.check(res, c)
    first = summary(wl, res)
    del res
    with tracer.Tracer(ev, "timed") as timed:
        start = timed.now()
        res = wl.run()
        wall = timed.now() - start
    digests.append(wl.digest(res))
    del res
    start = time.perf_counter()
    res = wl.run()
    untraced.append(time.perf_counter() - start)
    digests.append(wl.digest(res))
    del res
    with tracer.Tracer(ev, "alloc", alloc=True) as alloc:
        res = wl.run()
    digests.append(wl.digest(res))
    del res
    c.expect(len(set(digests)) == 1, "outputs differ between untraced, traced and allocation passes")
    c.run("trace closes", tracer.self_time_closes, timed, wall)
    layers = tracer.layer_metrics(timed, alloc, wall, statistics.mean(untraced))
    return untraced, first, layers, timed.to_json() + alloc.to_json()


def summary(wl, res) -> dict:
    return {"events": wl.events(res), "input_size": wl.size(res), "quality": wl.quality(res)}


def provenance(name: str, seed: int) -> dict:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "evtkit").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "workload": name, "seed": seed, "evtkit_commit": commit,
        "evtkit_source_sha256": src.hexdigest(), "numpy": np.__version__,
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def declared_metrics(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json asks for in this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(name: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """One run of one workload; returns the full result."""
    spec = scenes.SPECS[name].tiny() if tiny else scenes.SPECS[name]
    work = OUT / "work" / f"{name}-s{seed}-t{trace}{'-tiny' if tiny else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    c = ck.Checks()
    result = {"provenance": provenance(name, seed), "seconds": seconds, "trace": trace, "tiny": tiny}
    metrics: dict[str, tuple[float, str]] = {}
    try:
        setup = [run_setup(name, seed, work / "in", tiny) for _ in range(1 if trace else SETUP_REPS)]
        ev = inputs.import_evtkit()
        wl = WORKLOADS[name](ev, spec, work, seed)
        try:
            if trace:
                times, first, layers, spans = traced_passes(wl, c, ev)
                metrics.update(layers)
                (OUT / "results").mkdir(parents=True, exist_ok=True)
                (OUT / "results" / f"{work.name}.spans.json").write_text(json.dumps(spans))
            else:
                times, first = timed_passes(wl, c, seconds)
        except Exception:
            c.expect(False, "a pass raised " + traceback.format_exc())
            first, times = {"events": 0, "input_size": {}, "quality": {}}, []
        wall = statistics.median(times) if times else 0.0
        metrics.update({
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "events_per_s": (first["events"] / wall if wall else 0.0, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        })
        metrics.update(first["quality"])
        result.update(setup_times_s=setup, pass_times_s=times,
                      input_size=first["input_size"], events=first["events"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics["error_rate"] = (c.error_rate, "ratio")
    result.update(attempted=c.attempted, failed=c.failed, failures=c.failures,
                  metrics={k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()})
    return result


def line(result: dict, trace: int) -> dict:
    """The last-line summary: the metrics BENCHMARK.json declares, only."""
    wanted = declared_metrics(trace)
    got = result["metrics"]
    missing = [k for k, u in wanted.items() if k not in got or got[k]["unit"] != u]
    if missing:
        raise SystemExit(f"error: metrics not measured with the declared unit: {missing}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": {k: got[k] for k in wanted}}


def report(result: dict) -> None:
    p = result["provenance"]
    print(f"# {p['workload']} seed={p['seed']} trace={result['trace']} "
          f"input={result.get('input_size')} passes={result.get('pass_times_s')}")
    for name, m in sorted(result["metrics"].items()):
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")


def run_all(args) -> int:
    """Each workload in its own process, one at a time."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in scenes.SPECS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *scenes.SPECS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="toy-sized scenes, for the self-check")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "evtkit" / "__init__.py").is_file():
        print(f"error: no evtkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    report(result)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}{'-tiny' if args.tiny else ''}.json"
    (OUT / "results" / name).write_text(json.dumps(result, indent=1))
    print(json.dumps(line(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
