"""Command-line front end: simulate -> degrade -> voxelize -> deblur/denoise -> eval.

Exit codes: 0 success, 2 bad input (files, config, geometry), 1 internal
failure. Config files are line-oriented ``key = value`` text with ``#``
comments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .core import EventStream, SensorModel
from .degrade import DegradationConfig, NoiseParams, bias_thresholds, inject_noise, limit_bandwidth, make_pair
from .denoise import hot_pixel_filter, scf_filter
from .edi import EdiConfig, edi_reconstruct, edi_sequence
from .fileio import FormatError, load_frames, read_events, read_image, read_voxel, write_events, write_image, write_voxel
from .metrics import deblur_l1, event_l1_response, psnr, ssim, stream_stats
from .simulate import simulate_events, synthesize_blur
from .voxel import voxelize

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2


class InputError(ValueError):
    """Bad user input: missing files, malformed config, geometry mismatch."""


def parse_config(path) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
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
        if key in seen:
            raise InputError(f"{path}:{lineno}: repeated config key {key} "
                             f"(first set on line {seen[key][0]})")
        seen[key] = (lineno, value)
    return {key: value for key, (_, value) in seen.items()}


# Keys each config-driven command reads; any other key is rejected, so a
# misspelt key cannot silently fall back to its default.
_DEGRADATION_KEYS = ("sigma", "t_s_us", "shot_rate", "leak_rate", "hot_fraction", "hot_rate", "seed")
_DEGRADE_KEYS = _DEGRADATION_KEYS + ("c_nominal", "fps")
_PIPELINE_KEYS = _DEGRADATION_KEYS + (
    "frames_dir", "out_dir", "fps", "timestamps", "c_nominal", "ne", "edi_c", "ref",
    "blur_first", "blur_count", "scf_radius", "scf_window_us", "scf_min_support",
    "hot_threshold", "alpha")


def _read_config(path, known: tuple[str, ...]) -> dict[str, str]:
    cfg = parse_config(path)
    unknown = [key for key in cfg if key not in known]
    if unknown:
        raise InputError(f"{path}: unknown config key: {', '.join(unknown)}")
    return cfg


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


def _fmt(v: float) -> str:
    if np.isinf(v):
        return "inf"
    return f"{v:.6f}"


def _load_frames_args(args, cfg: dict | None = None):
    fps = getattr(args, "fps", None)
    ts = getattr(args, "timestamps", None)
    if fps is None and ts is None and cfg is not None:
        fps = _cfg(cfg, "fps", 0.0) or None
    if fps is None and ts is None:
        raise InputError("give --fps or --timestamps")
    return load_frames(args.frames, timestamps_path=ts, fps=fps)


def _print_stats(stream: EventStream) -> None:
    st = stream_stats(stream)
    print(f"count={st.count}")
    print(f"on_count={st.on_count}")
    print(f"off_count={st.off_count}")
    print(f"duration={_fmt(st.duration)}")


def cmd_simulate(args) -> int:
    frames = _load_frames_args(args)
    sensor = SensorModel.uniform(args.threshold, frames.width, frames.height)
    stream = simulate_events(frames, sensor)
    write_events(stream, args.out)
    _print_stats(stream)
    return EXIT_OK


def cmd_degrade(args) -> int:
    cfg = _read_config(args.config, _DEGRADE_KEYS)
    deg = _degradation_config(cfg)
    stream = read_events(args.events)
    if deg.sigma > 0 and args.frames is None:
        raise InputError("sigma > 0 requires --frames for re-simulation")
    hint = None
    if args.frames is not None:
        frames = _load_frames_args(args, cfg)
        hint = frames.frames.mean(axis=0)
        if deg.sigma > 0:
            sensor = SensorModel.uniform(_cfg(cfg, "c_nominal", 0.2), frames.width, frames.height)
            stream = simulate_events(frames, bias_thresholds(sensor, deg.sigma, deg.noise.seed))
    degraded = inject_noise(limit_bandwidth(stream, deg.sampling_period), deg.noise, hint)
    write_events(degraded, args.out)
    _print_stats(degraded)
    return EXIT_OK


def _voxelize_file(events_path, width: int, height: int, n_channels: int):
    stream = read_events(events_path, width=width, height=height)
    if stream.width != width or stream.height != height:
        raise InputError(
            f"event geometry {stream.width}x{stream.height} does not match "
            f"image {width}x{height}")
    duration = stream.t_end - stream.t_start
    if duration <= 0:
        duration = 1.0  # zero/single-event stream: any window works, grid is ~empty
    return voxelize(stream, stream.t_start, duration, n_channels)


def cmd_deblur(args) -> int:
    blurry = read_image(args.blurry)
    grid = _voxelize_file(args.events, blurry.shape[1], blurry.shape[0], args.ne)
    if args.sequence:
        out = Path(args.out)
        for r, latent in enumerate(edi_sequence(blurry, grid, args.c)):
            write_image(latent, out.with_name(f"{out.stem}_{r:03d}{out.suffix}"))
    else:
        latent = edi_reconstruct(blurry, grid, EdiConfig(c=args.c, ref=args.ref))
        write_image(latent, args.out)
    return EXIT_OK


def cmd_denoise(args) -> int:
    stream = scf_filter(read_events(args.events), radius=args.radius,
                        window=args.window_us / 1e6, min_support=args.min_support)
    if args.hot_threshold is not None:
        stream = hot_pixel_filter(stream, args.hot_threshold)
    write_events(stream, args.out)
    _print_stats(stream)
    return EXIT_OK


def cmd_eval(args) -> int:
    lines = []
    if args.pred is not None:
        if args.gt is None:
            raise InputError("--pred needs --gt")
        pred = read_image(args.pred)
        gt = read_image(args.gt)
        if pred.shape != gt.shape:
            raise InputError(f"geometry mismatch: {pred.shape} vs {gt.shape}")
        lines.append(f"psnr={_fmt(psnr(pred, gt))}")
        lines.append(f"ssim={_fmt(ssim(pred, gt))}")
        lines.append(f"deblur_l1={_fmt(deblur_l1(pred, gt))}")
    elif args.pred_events is not None:
        if args.ref_events is None or args.deg_events is None:
            raise InputError("--pred-events needs --ref-events and --deg-events")
        pred = read_voxel(args.pred_events)
        ref = read_voxel(args.ref_events)
        deg = read_voxel(args.deg_events)
        if not pred.data.shape == ref.data.shape == deg.data.shape:
            raise InputError("voxel grid shapes differ")
        value = event_l1_response(pred, ref, deg, alpha=args.alpha)
        lines.append(f"event_l1={_fmt(value)}")
    else:
        raise InputError("give --pred/--gt images or --pred-events/--ref-events/--deg-events")
    for line in lines:
        print(line)
    if args.report:
        Path(args.report).write_text("".join(line + "\n" for line in lines))
    return EXIT_OK


def cmd_pipeline(args) -> int:
    cfg = _read_config(args.config, _PIPELINE_KEYS)
    frames_dir = _cfg(cfg, "frames_dir", kind=str)
    out_dir = Path(_cfg(cfg, "out_dir", kind=str))
    fps = _cfg(cfg, "fps", 0.0)
    timestamps = cfg.get("timestamps")
    frames = load_frames(frames_dir, timestamps_path=timestamps,
                         fps=fps if timestamps is None else None)

    c_nominal = _cfg(cfg, "c_nominal", 0.2)
    deg = _degradation_config(cfg)
    n_channels = _cfg(cfg, "ne", 10, int)
    edi_c = _cfg(cfg, "edi_c", c_nominal)
    blur_first = _cfg(cfg, "blur_first", 0, int)
    blur_count = _cfg(cfg, "blur_count", len(frames), int)
    ref = _cfg(cfg, "ref", n_channels // 2, int)
    if not 0 <= ref <= n_channels:
        raise InputError(f"ref must be in [0, {n_channels}]")
    hot_threshold = _cfg(cfg, "hot_threshold", 0.0)
    if not hot_threshold >= 0:  # NaN fails too
        raise InputError("hot_threshold must be >= 0 (0 turns the filter off)")
    alpha = _cfg(cfg, "alpha", 0.5)
    if not (np.isfinite(alpha) and alpha >= 0):
        raise InputError("alpha must be finite and >= 0")
    if blur_first < 0 or blur_first + blur_count > len(frames) or blur_count < 2:
        raise InputError("blur window out of range (need at least 2 frames)")

    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def save(name: str, writer, obj) -> Path:
        path = out_dir / name
        writer(obj, path)
        written.append(path)
        return path

    try:
        sensor = SensorModel.uniform(c_nominal, frames.width, frames.height)
        e_u, e_d = make_pair(frames, sensor, deg)
        save("events_undegraded.evs", write_events, e_u)
        save("events_degraded.evs", write_events, e_d)

        blurry = synthesize_blur(frames, blur_first, blur_count)
        save("blurry.pgm", write_image, blurry)

        denoised = scf_filter(e_d,
                              radius=_cfg(cfg, "scf_radius", 1, int),
                              window=_cfg(cfg, "scf_window_us", 10000.0) / 1e6,
                              min_support=_cfg(cfg, "scf_min_support", 2, int))
        if hot_threshold > 0:
            denoised = hot_pixel_filter(denoised, hot_threshold)
        save("events_denoised.evs", write_events, denoised)

        t0 = float(frames.timestamps[blur_first])
        duration = float(frames.timestamps[blur_first + blur_count - 1] - frames.timestamps[blur_first])
        grids = {name: voxelize(s, t0, duration, n_channels)
                 for name, s in (("undegraded", e_u), ("degraded", e_d), ("denoised", denoised))}
        for name, grid in grids.items():
            save(f"voxels_{name}.vox", write_voxel, grid)

        cfg_edi = EdiConfig(c=edi_c, ref=ref)
        latents = {name: edi_reconstruct(blurry, grid, cfg_edi)
                   for name, grid in grids.items()}
        for name, latent in latents.items():
            save(f"latent_{name}.pgm", write_image, latent)

        # ground truth: the sharp frame nearest the reference boundary
        gt_index = blur_first + round(ref * (blur_count - 1) / n_channels)
        gt = frames.frames[gt_index]

        report = {"count_undegraded": len(e_u), "count_degraded": len(e_d),
                  "count_denoised": len(denoised)}
        for name in ("degraded", "denoised"):
            report[f"event_l1_{name}"] = _fmt(event_l1_response(
                grids[name], grids["undegraded"], grids["degraded"], alpha=alpha))
        for name, latent in latents.items():
            report[f"psnr_{name}"] = _fmt(psnr(latent, gt))
            report[f"ssim_{name}"] = _fmt(ssim(latent, gt))
            report[f"deblur_l1_{name}"] = _fmt(deblur_l1(latent, gt))
        text = "".join(f"{k}={v}\n" for k, v in report.items())
        (out_dir / "report.txt").write_text(text)
        written.append(out_dir / "report.txt")
        print(text, end="")
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return EXIT_OK


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
    except (InputError, FormatError, FileNotFoundError, NotADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
