"""Make one workload's input files: ``python3 inputs.py WORKLOAD SEED DIR [--tiny]``.

This is the benchmark's set-up step. It runs in a fresh process, so its
wall time covers starting Python, importing evtkit and generating the
inputs, and the timed process's peak memory excludes it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

import checks
import scenes

ROOT = Path(__file__).resolve().parents[1]

# Sensor and filter settings, shared by set-up and the timed work.
PIPELINE_CONFIG = {
    "c_nominal": 0.2, "sigma": 0.03, "t_s_us": 1000, "shot_rate": 5, "leak_rate": 1,
    "hot_fraction": 0.001, "hot_rate": 500, "scf_radius": 1, "scf_window_us": 10000,
    "scf_min_support": 2, "hot_threshold": 200, "ne": 10,
}
PAIRGEN_NOISE = {"shot_rate": 5.0, "leak_rate": 1.0, "hot_pixel_fraction": 0.001, "hot_pixel_rate": 500.0}
PAIRGEN_SIGMA, PAIRGEN_T_S = 0.03, 1e-3
DENOISE_NOISE = {"shot_rate": 2.0, "leak_rate": 1.0, "hot_pixel_fraction": 0.002, "hot_pixel_rate": 300.0}
DENOISE_ARGS = {"radius": 2, "window_us": 5000.0, "min_support": 1, "hot_threshold": 100.0}
DEBLUR_CHANNELS = 10


def import_evtkit():
    """Import evtkit from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "evtkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no evtkit sources under {src}")
    sys.path.insert(0, str(src))
    import evtkit
    import evtkit.cli
    if Path(evtkit.__file__).resolve().parent != (src / "evtkit").resolve():
        raise SystemExit(f"error: evtkit imported from {evtkit.__file__}, not {src}")
    return evtkit


def frame_sequence(ev, spec, frames_u8):
    return ev.core.FrameSequence(frames_u8 / 255.0, scenes.timestamps(spec))


def make(ev, spec, seed: int, d: Path) -> None:
    """Write the inputs of ``spec``, and a manifest of them, into directory ``d``."""
    frames = scenes.render(spec, seed)
    manifest = {"workload": spec.name, "seed": seed, "height": spec.height,
                "width": spec.width, "frames": spec.frames, "fps": spec.fps}
    if spec.name == "pipeline-240":
        fdir = d / "frames"
        fdir.mkdir()
        for k, f in enumerate(frames):
            ev.fileio.write_image(f / 255.0, fdir / f"frame_{k:04d}.pgm")
        cfg = dict(PIPELINE_CONFIG, frames_dir=fdir, out_dir=d.parent / "out", fps=spec.fps, seed=seed)
        (d / "pipeline.cfg").write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    elif spec.name == "pairgen-640":
        np.save(d / "frames.npy", frames)
    elif spec.name == "deblur-640":
        seq = frame_sequence(ev, spec, frames)
        stream = ev.simulate.simulate_events(seq, ev.core.SensorModel.uniform(spec.c, spec.width, spec.height))
        ev.fileio.write_events(stream, d / "events.evs")
        ev.fileio.write_image(ev.simulate.synthesize_blur(seq, 0, len(seq)), d / "blurry.pgm")
        np.save(d / "frames.npy", frames)
        manifest.update(events=len(stream), p_sum=int(stream.p.sum()))
    elif spec.name == "denoise-346":
        seq = frame_sequence(ev, spec, frames)
        signal = ev.simulate.simulate_events(seq, ev.core.SensorModel.uniform(spec.c, spec.width, spec.height))
        noisy = ev.degrade.inject_noise(signal, ev.degrade.NoiseParams(**DENOISE_NOISE, seed=seed),
                                        seq.frames.mean(axis=0))
        ev.fileio.write_events(noisy, d / "events.evs")
        t_us = np.round(signal.t * 1e6)
        np.save(d / "signal_keys.npy", checks.event_keys(t_us, signal.x, signal.y, signal.p, spec.width, spec.height))
        manifest.update(events=len(noisy), signal_events=len(signal))
    else:
        raise ValueError(f"unknown workload {spec.name}")
    (d / "manifest.json").write_text(json.dumps(manifest))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workload", choices=sorted(scenes.SPECS))
    ap.add_argument("seed", type=int)
    ap.add_argument("dir", type=Path)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    ev = import_evtkit()
    spec = scenes.SPECS[args.workload]
    args.dir.mkdir(parents=True)
    make(ev, spec.tiny() if args.tiny else spec, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
