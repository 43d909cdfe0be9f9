"""Command-line front end: simulate -> degrade -> voxelize -> deblur/denoise -> eval.

Exit codes: 0 success, 2 bad input (files, config, geometry), 1 internal
failure. Config files are line-oriented ``key = value`` text with ``#``
comments. Every command checks its input and computes its results before it
writes anything, and ends in ``_finish``: it writes all of its outputs or
none, makes their directory when it is missing, and prints its ``key=value``
report lines only after the last write. A failed command leaves every path
as it found it, and no command overwrites a file it was not asked to write.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
from pathlib import Path

from .core import EventStream, SensorModel
from .degrade import DegradationConfig, NoiseParams, degrade_stream, make_pair
from .denoise import check_scf_settings, hot_pixel_filter, scf_filter
from .edi import EdiConfig, edi_reconstruct, edi_sequence
from .fileio import (FormatError, load_frames, read_event_geometry, read_events, read_image, read_voxel, write_events,
                     write_image, write_voxel)
from .metrics import check_alpha, deblur_l1, event_l1_response, psnr, ssim, stream_stats
from .simulate import simulate_events, synthesize_blur
from .voxel import voxelize

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2


class InputError(ValueError):
    """Bad user input: missing files, malformed config, geometry mismatch."""


# Keys each config-driven command reads; any other key is rejected, so a
# misspelt key cannot silently fall back to its default.
_DEGRADATION_KEYS = ("sigma", "t_s_us", "shot_rate", "leak_rate", "hot_fraction", "hot_rate", "seed")
_DEGRADE_KEYS = _DEGRADATION_KEYS + ("c_nominal", "fps")
_PIPELINE_KEYS = _DEGRADATION_KEYS + (
    "frames_dir", "out_dir", "fps", "timestamps", "c_nominal", "ne", "edi_c", "ref",
    "blur_first", "blur_count", "scf_radius", "scf_window_us", "scf_min_support",
    "hot_threshold", "alpha")


def _read_config(path, known: tuple[str, ...]) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored. A key
    outside ``known``, set twice or given no value is refused."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"config file not found: {path}")
    seen: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key:
            raise InputError(f"{path}:{lineno}: empty key")
        if not value:  # '' would name the working directory
            raise InputError(f"{path}:{lineno}: config key {key} has no value")
        if key in seen:
            raise InputError(f"{path}:{lineno}: repeated config key {key} "
                             f"(first set on line {seen[key][0]})")
        seen[key] = (lineno, value)
    unknown = [key for key in seen if key not in known]
    if unknown:
        raise InputError(f"{path}: unknown config key: {', '.join(unknown)}")
    return {key: value for key, (_, value) in seen.items()}


def _cfg(cfg: dict, key: str, default=None, kind=float):
    """Value of ``key`` converted by ``kind``; required when ``default`` is None."""
    if key not in cfg:
        if default is None:
            raise InputError(f"config missing required key: {key}")
        return default
    try:
        return kind(cfg[key])
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise InputError(f"config key {key}: not {noun}: {cfg[key]!r}") from None


def _degradation_config(cfg: dict) -> DegradationConfig:
    """The degradation recipe that ``degrade`` and ``pipeline`` share."""
    noise = NoiseParams(
        shot_rate=_cfg(cfg, "shot_rate", 0.0),
        leak_rate=_cfg(cfg, "leak_rate", 0.0),
        hot_pixel_fraction=_cfg(cfg, "hot_fraction", 0.0),
        hot_pixel_rate=_cfg(cfg, "hot_rate", 0.0),
        seed=_cfg(cfg, "seed", 0, int),
    )
    return DegradationConfig(sigma=_cfg(cfg, "sigma", 0.0),
                             sampling_period=_cfg(cfg, "t_s_us", 0.0) / 1e6,
                             noise=noise)


def _load_frames(directory, cfg: dict, fps: float | None = None, timestamps=None):
    """Frames timed by ``fps`` or a timestamps file. Values from the command
    line win; without them the config's keys are read."""
    if fps is None and timestamps is None:
        fps = _cfg(cfg, "fps") if "fps" in cfg else None
        timestamps = cfg.get("timestamps")
    return load_frames(directory, timestamps_path=timestamps, fps=fps)


def _stats(stream: EventStream) -> dict:
    st = stream_stats(stream)
    return {"count": st.count, "on_count": st.on_count, "off_count": st.off_count,
            "duration": f"{st.duration:.6f}"}


def _finish(outputs: list, report: dict, report_path=None) -> int:
    """Write every ``(path, writer, object)`` output or none, then print the
    ``key=value`` report, which ``report_path`` also gets. The outputs share one
    directory. Before its writer runs, a regular file at an output path moves
    under its own name into one hidden directory beside it, made from
    ``tempfile.mkdtemp`` as ``.{name}.<random>.old`` for the first such file,
    so no other file is overwritten. (A rename onto an ``mkstemp`` placeholder
    would overwrite the placeholder, and ext4 flushes the moved file's data
    before such a rename.) A failure unlinks what was written, moves the
    earlier files back and removes the dirs made; success unlinks the earlier
    files and their dir."""
    text = "".join(f"{k}={v}\n" for k, v in report.items())
    if report_path:
        outputs = [*outputs, (report_path, lambda text, path: path.write_text(text), text)]
    out_dir = Path(outputs[0][0]).parent if outputs else Path()
    new_dirs = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    aside = None  # the hidden dir that holds the earlier files
    written: list[tuple[Path, bool]] = []  # (path, whether its earlier file is in aside)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for path, writer, obj in outputs:
            path = Path(path)
            moved = path.is_file() and not path.is_symlink()
            if moved:
                aside = aside or Path(tempfile.mkdtemp(dir=out_dir, prefix=f".{path.name}.", suffix=".old"))
                path.replace(aside / path.name)
            if moved or not (path.exists() or path.is_symlink()):  # a regular file or nothing
                written.append((path, moved))
            writer(obj, path)
    except BaseException:
        for path, moved in reversed(written):
            path.unlink(missing_ok=True)
            if moved:
                (aside / path.name).replace(path)
        for d in filter(None, (aside, *new_dirs)):
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    for path, moved in written:
        if moved:
            (aside / path.name).unlink()
    if aside:
        aside.rmdir()
    print(text, end="")
    return EXIT_OK


def cmd_simulate(args) -> int:
    frames = _load_frames(args.frames, {}, args.fps, args.timestamps)
    sensor = SensorModel.uniform(args.threshold, frames.width, frames.height)
    stream = simulate_events(frames, sensor)
    return _finish([(args.out, write_events, stream)], _stats(stream))


def _read_events_for(path, width: int, height: int, what: str, events_needed: bool = True) -> EventStream:
    """The events of ``path`` for a ``width`` x ``height`` input named ``what``:
    a binary file's header must give that geometry, checked before any event
    is read, and CSV takes it. Without ``events_needed`` a binary file yields
    its header's empty stream."""
    geometry = read_event_geometry(path)
    if geometry not in (None, (width, height)):
        raise InputError(f"events {geometry[0]}x{geometry[1]} do not match {what} {width}x{height}")
    if geometry and not events_needed:
        return EventStream.empty(width, height)
    return read_events(path, width, height)


def cmd_degrade(args) -> int:
    cfg = _read_config(args.config, _DEGRADE_KEYS)
    deg = _degradation_config(cfg)
    frames = sensor = None
    if args.frames is not None:
        frames = _load_frames(args.frames, cfg, args.fps, args.timestamps)
        sensor = SensorModel.uniform(_cfg(cfg, "c_nominal", 0.2), frames.width, frames.height)
    # at sigma > 0 degrade_stream re-simulates the frames, so the events go unused
    stream = (read_events(args.events) if frames is None else
              _read_events_for(args.events, frames.width, frames.height, "frames", deg.sigma == 0))
    degraded = degrade_stream(stream, deg, frames, sensor)
    return _finish([(args.out, write_events, degraded)], _stats(degraded))


def cmd_deblur(args) -> int:
    blurry = read_image(args.blurry)
    stream = _read_events_for(args.events, blurry.shape[1], blurry.shape[0], "blurry image")
    duration = stream.t_end - stream.t_start  # 0 for 0 or 1 events: any window works
    grid = voxelize(stream, stream.t_start, duration if duration > 0 else 1.0, args.ne)
    del stream  # EDI needs only the grid
    if args.sequence:
        out = Path(args.out)
        return _finish([(out.with_name(f"{out.stem}_{r:03d}{out.suffix}"), write_image, latent)
                        for r, latent in enumerate(edi_sequence(blurry, grid, args.c))], {})
    latent = edi_reconstruct(blurry, grid, EdiConfig(c=args.c, ref=args.ref))
    return _finish([(args.out, write_image, latent)], {})


def cmd_denoise(args) -> int:
    stream = scf_filter(read_events(args.events), radius=args.radius,
                        window=args.window_us / 1e6, min_support=args.min_support)
    if args.hot_threshold is not None:
        stream = hot_pixel_filter(stream, args.hot_threshold)
    return _finish([(args.out, write_events, stream)], _stats(stream))


def cmd_eval(args) -> int:
    if args.pred is not None:
        if args.gt is None:
            raise InputError("--pred needs --gt")
        pred = read_image(args.pred)
        gt = read_image(args.gt)
        report = {"psnr": f"{psnr(pred, gt):.6f}", "ssim": f"{ssim(pred, gt):.6f}",
                  "deblur_l1": f"{deblur_l1(pred, gt):.6f}"}
    elif args.pred_events is not None:
        if args.ref_events is None or args.deg_events is None:
            raise InputError("--pred-events needs --ref-events and --deg-events")
        pred = read_voxel(args.pred_events)
        ref = read_voxel(args.ref_events)
        deg = read_voxel(args.deg_events)
        report = {"event_l1": f"{event_l1_response(pred, ref, deg, alpha=args.alpha):.6f}"}
    else:
        raise InputError("give --pred/--gt images or --pred-events/--ref-events/--deg-events")
    return _finish([], report, args.report)


def cmd_pipeline(args) -> int:
    # check: each setting is built or checked by its owner before any stage
    cfg = _read_config(args.config, _PIPELINE_KEYS)
    frames_dir = _cfg(cfg, "frames_dir", kind=str)
    out_dir = Path(_cfg(cfg, "out_dir", kind=str))
    if out_dir.exists() and not out_dir.is_dir():
        raise InputError(f"out_dir is not a directory: {out_dir}")
    frames = _load_frames(frames_dir, cfg)

    c_nominal = _cfg(cfg, "c_nominal", 0.2)
    sensor = SensorModel.uniform(c_nominal, frames.width, frames.height)
    deg = _degradation_config(cfg)
    n_channels = _cfg(cfg, "ne", 10, int)
    ref = _cfg(cfg, "ref", n_channels // 2, int)
    if n_channels < 1 or not 0 <= ref <= n_channels:
        raise InputError(f"need ne >= 1 and ref in [0, ne], got ne={n_channels}, ref={ref}")
    cfg_edi = EdiConfig(c=_cfg(cfg, "edi_c", c_nominal), ref=ref)
    hot_threshold = _cfg(cfg, "hot_threshold", 0.0)
    if not hot_threshold >= 0:  # NaN fails too
        raise InputError("hot_threshold must be >= 0 (0 turns the filter off)")
    alpha = _cfg(cfg, "alpha", 0.5)
    check_alpha(alpha)
    blur_first = _cfg(cfg, "blur_first", 0, int)
    blur_count = _cfg(cfg, "blur_count", len(frames), int)
    if blur_count < 2:  # the voxel window needs a duration
        raise InputError("blur_count must be >= 2")
    blurry = synthesize_blur(frames, blur_first, blur_count)
    scf = {"radius": _cfg(cfg, "scf_radius", 1, int),
           "window": _cfg(cfg, "scf_window_us", 10000.0) / 1e6,
           "min_support": _cfg(cfg, "scf_min_support", 2, int)}
    check_scf_settings(**scf)

    e_u, e_d = make_pair(frames, sensor, deg)
    denoised = scf_filter(e_d, **scf)
    if hot_threshold > 0:
        denoised = hot_pixel_filter(denoised, hot_threshold)

    t0 = float(frames.timestamps[blur_first])
    duration = float(frames.timestamps[blur_first + blur_count - 1] - frames.timestamps[blur_first])
    grids = {name: voxelize(s, t0, duration, n_channels)
             for name, s in (("undegraded", e_u), ("degraded", e_d), ("denoised", denoised))}
    latents = {name: edi_reconstruct(blurry, grid, cfg_edi) for name, grid in grids.items()}

    # ground truth: the sharp frame nearest the reference boundary
    gt = frames.frames[blur_first + round(ref * (blur_count - 1) / n_channels)]
    report = {"count_undegraded": len(e_u), "count_degraded": len(e_d),
              "count_denoised": len(denoised)}
    for name in ("degraded", "denoised"):
        l1 = event_l1_response(grids[name], grids["undegraded"], grids["degraded"], alpha=alpha)
        report[f"event_l1_{name}"] = f"{l1:.6f}"
    for name, latent in latents.items():
        report[f"psnr_{name}"] = f"{psnr(latent, gt):.6f}"
        report[f"ssim_{name}"] = f"{ssim(latent, gt):.6f}"
        report[f"deblur_l1_{name}"] = f"{deblur_l1(latent, gt):.6f}"
    outputs = [(out_dir / "events_undegraded.evs", write_events, e_u),
               (out_dir / "events_degraded.evs", write_events, e_d),
               (out_dir / "blurry.pgm", write_image, blurry),
               (out_dir / "events_denoised.evs", write_events, denoised),
               *((out_dir / f"voxels_{name}.vox", write_voxel, grid) for name, grid in grids.items()),
               *((out_dir / f"latent_{name}.pgm", write_image, lat) for name, lat in latents.items())]
    return _finish(outputs, report, out_dir / "report.txt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evtkit",
                                     description="Event-camera simulation, degradation, and deblurring toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate ideal events from frames")
    p.add_argument("--frames", required=True)
    p.add_argument("--fps", type=float)
    p.add_argument("--timestamps")
    p.add_argument("--threshold", type=float, default=0.2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("degrade", help="apply sensor degradations to an event file")
    p.add_argument("--events", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--frames")
    p.add_argument("--fps", type=float)
    p.add_argument("--timestamps")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("deblur", help="reconstruct latent image(s) from blur + events")
    p.add_argument("--blurry", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--ne", type=int, default=10)
    p.add_argument("--c", type=float, default=0.2)
    p.add_argument("--ref", type=int, default=0)
    p.add_argument("--sequence", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_deblur)

    p = sub.add_parser("denoise", help="classical event denoising filters")
    p.add_argument("--events", required=True)
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--window-us", type=float, default=10000.0)
    p.add_argument("--min-support", type=int, default=2)
    p.add_argument("--hot-threshold", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("eval", help="image or event-voxel quality metrics")
    p.add_argument("--pred")
    p.add_argument("--gt")
    p.add_argument("--pred-events")
    p.add_argument("--ref-events")
    p.add_argument("--deg-events")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="one-shot paired-data + deblur + report run")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FormatError, FileNotFoundError, NotADirectoryError, IsADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
