"""Print the sha256 of each ``pipeline`` output, and of its stdout, for one seed.

    python tools/pipeline_digests.py SEED [--tiny]

Builds the ``pipeline-240`` benchmark inputs for SEED with
``perfbench/inputs.py`` in a temporary directory, runs ``evtkit pipeline`` on
them from this checkout's ``src``, and prints one ``sha256  name`` line per
output file, sorted by name, then one for stdout. Two checkouts that print the
same lines for a seed wrote the same bytes. ``--tiny`` uses the benchmark's
toy-sized scene. A failing step's stderr is passed on, with its exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("seed", type=int)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "in"  # inputs.py puts the outputs beside it, in "out"
        make = [sys.executable, str(ROOT / "perfbench" / "inputs.py"), "pipeline-240", str(args.seed), str(inputs)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        pipeline = [sys.executable, "-c", "from evtkit.cli import main; main()",
                    "pipeline", "--config", str(inputs / "pipeline.cfg")]
        for cmd in (make + ["--tiny"] * args.tiny, pipeline):
            proc = subprocess.run(cmd, capture_output=True, env=env)
            if proc.returncode:
                sys.stderr.buffer.write(proc.stderr)
                return proc.returncode
        for path in sorted((Path(tmp) / "out").iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
        print(f"{hashlib.sha256(proc.stdout).hexdigest()}  stdout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
