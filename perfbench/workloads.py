"""The timed work of each workload, and the checks on its outputs.

A workload loads its inputs once (untimed); ``run`` is one timed pass and
returns what the checks need. Each pass calls evtkit through module
attributes (``ev.fileio.read_events``), so a tracer that rebinds them sees
the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import checks as ck
import inputs
import scenes


class Capture:
    """Records the calls of some functions as bound in one evtkit module."""

    def __init__(self, module, names):
        self.module = module
        self.names = names
        self.calls: dict[str, list] = {n: [] for n in names}
        self._saved = {}

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls[name].append((args, result))
            return result
        return wrapper

    def __enter__(self):
        for name in self.names:
            self._saved[name] = getattr(self.module, name)
            setattr(self.module, name, self._wrap(name, self._saved[name]))
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(self.module, name, fn)
        return False


def _file_digest(paths) -> str:
    return ck.sha256(*[(p.name, p.read_bytes()) for p in sorted(paths)])


def _run_cli(ev, argv, capture_names):
    with Capture(ev.cli, capture_names) as cap, contextlib.redirect_stdout(io.StringIO()) as out:
        rc = ev.cli.run(argv)
    return {"rc": rc, "calls": cap.calls, "stdout": out.getvalue()}


class Workload:
    """One workload's inputs in ``work/in``; passes write into ``work/out``."""

    def __init__(self, ev, spec: scenes.Spec, work: Path, seed: int):
        self.ev = ev
        self.spec = spec
        self.seed = seed
        self.input = work / "in"
        self.output = work / "out"
        self.output.mkdir(exist_ok=True)
        self.manifest = json.loads((self.input / "manifest.json").read_text())

    def rng(self):
        return np.random.default_rng([self.seed, 7])

    def size(self, res) -> dict:
        s = self.spec
        return {"height": s.height, "width": s.width, "frames": s.frames, **self.counts(res)}


class Pipeline(Workload):
    def run(self):
        res = _run_cli(self.ev, ["pipeline", "--config", str(self.input / "pipeline.cfg")],
                       ["write_events", "scf_filter", "hot_pixel_filter"])
        res["report"] = dict(line.split("=", 1) for line in
                             (self.output / "report.txt").read_text().splitlines())
        return res

    def digest(self, res):
        return _file_digest(self.output.iterdir())

    def counts(self, res):
        r = res["report"]
        return {k: int(r[f"count_{k}"]) for k in ("undegraded", "degraded", "denoised")}

    def events(self, res):
        return int(res["report"]["count_degraded"])

    def check(self, res, c: ck.Checks):
        if not c.expect(res["rc"] == 0, f"pipeline exit code {res['rc']}"):
            return
        cfg = inputs.PIPELINE_CONFIG
        written = {Path(path).stem: stream for (stream, path), _ in res["calls"]["write_events"]}
        for name in ("events_undegraded", "events_degraded", "events_denoised"):
            c.run(f"validate {name}", self.ev.core.validate, written[name])
            c.run(f"file {name}", ck.same_events_as_file, self.ev, written[name], self.output / f"{name}.evs")
            c.expect(int(res["report"][f"count_{name[7:]}"]) == len(written[name]), f"report count of {name}")
        (scf_in, *_), scf_out = res["calls"]["scf_filter"][0]
        c.expect(scf_in is written["events_degraded"], "SCF input is the degraded stream")
        c.run("SCF oracle", ck.check_scf, scf_in, scf_out, self.rng(), cfg["scf_radius"],
              cfg["scf_window_us"] / 1e6, cfg["scf_min_support"])
        (hot_in, *_), hot_out = res["calls"]["hot_pixel_filter"][0]
        c.expect(hot_in is scf_out, "hot-pixel input is the SCF output")
        c.run("hot-pixel oracle", ck.check_hot_pixel, hot_in, hot_out, cfg["hot_threshold"])
        c.expect(hot_out is written["events_denoised"], "denoised file holds the hot-pixel output")

    def quality(self, res):
        r = res["report"]
        names = ("undegraded", "degraded", "denoised")
        return {"psnr_db": (np.mean([float(r[f"psnr_{n}"]) for n in names]), "dB"),
                "ssim": (np.mean([float(r[f"ssim_{n}"]) for n in names]), "1"),
                "event_l1": (float(r["event_l1_denoised"]), "1")}


class Pairgen(Workload):
    def __init__(self, *a):
        super().__init__(*a)
        ev, s = self.ev, self.spec
        self.frames = inputs.frame_sequence(ev, s, np.load(self.input / "frames.npy"))
        self.sensor = ev.core.SensorModel.uniform(s.c, s.width, s.height)
        noise = ev.degrade.NoiseParams(**inputs.PAIRGEN_NOISE, seed=self.seed)
        self.cfg = ev.degrade.DegradationConfig(inputs.PAIRGEN_SIGMA, inputs.PAIRGEN_T_S, noise)

    def run(self):
        ev = self.ev
        e_u, e_d = ev.degrade.make_pair(self.frames, self.sensor, self.cfg)
        paths = [self.output / "undegraded.evs", self.output / "degraded.evs"]
        for stream, path in zip((e_u, e_d), paths):
            ev.fileio.write_events(stream, path)
        back = [ev.fileio.read_events(p) for p in paths]
        stats = [ev.metrics.stream_stats(s) for s in back]
        return {"streams": (e_u, e_d), "back": back, "stats": stats, "paths": paths}

    def digest(self, res):
        return _file_digest(res["paths"])

    def counts(self, res):
        return {"undegraded": len(res["streams"][0]), "degraded": len(res["streams"][1])}

    def events(self, res):
        return sum(len(s) for s in res["streams"])

    def check(self, res, c: ck.Checks):
        for name, stream, path, back, st in zip(("undegraded", "degraded"), res["streams"], res["paths"],
                                                res["back"], res["stats"]):
            c.run(f"validate {name}", self.ev.core.validate, stream)
            c.run(f"file {name}", ck.same_events_as_file, self.ev, stream, path)
            c.expect(st.count == len(back) and st.on_count == int((back.p == 1).sum())
                     and st.on_count + st.off_count == st.count, f"stream_stats counts of {name}")
            c.expect(np.isclose(st.per_pixel_rate.sum() * st.duration, st.count, rtol=1e-9),
                     f"stream_stats rates of {name}")

    def quality(self, res):
        return {}


class Deblur(Workload):
    def __init__(self, *a):
        super().__init__(*a)
        self.sharp = np.load(self.input / "frames.npy") / 255.0

    def run(self):
        ev = self.ev
        blurry = ev.fileio.read_image(self.input / "blurry.pgm")
        stream = ev.fileio.read_events(self.input / "events.evs")
        duration = stream.t_end - stream.t_start
        grid = ev.voxel.voxelize(stream, stream.t_start, duration if duration > 0 else 1.0,
                                 inputs.DEBLUR_CHANNELS)
        latents = ev.edi.edi_sequence(blurry, grid, self.spec.c)
        gts = [self.sharp[self._nearest(r)] for r in range(len(latents))]
        psnr = [ev.metrics.psnr(lat, gt) for lat, gt in zip(latents, gts)]
        ssim = [ev.metrics.ssim(lat, gt) for lat, gt in zip(latents, gts)]
        return {"blurry": blurry, "stream": stream, "grid": grid, "latents": latents,
                "psnr": psnr, "ssim": ssim}

    def _nearest(self, r):
        """Sharp frame nearest to channel boundary r of the exposure."""
        return round(r * (self.spec.frames - 1) / inputs.DEBLUR_CHANNELS)

    def digest(self, res):
        return ck.sha256(*res["latents"], res["psnr"], res["ssim"])

    def counts(self, res):
        return {"events": len(res["stream"])}

    def events(self, res):
        return len(res["stream"])

    def check(self, res, c: ck.Checks):
        ev, stream, grid = self.ev, res["stream"], res["grid"]
        c.expect(len(stream) == self.manifest["events"]
                 and int(stream.p.sum()) == self.manifest["p_sum"], "events read equal events written")
        c.expect(grid.data.sum() == stream.p.sum() and np.abs(grid.data).sum() <= len(stream),
                 "voxel grid conserves polarity")
        c.run("EDI identity", ck.check_edi, ev, res["blurry"], grid, res["latents"], self.spec.c, self.rng())
        for r in (0, len(res["latents"]) // 2, len(res["latents"]) - 1):
            lat, gt = res["latents"][r], self.sharp[self._nearest(r)]
            c.run(f"SSIM windows, latent {r}", ck.check_ssim, ev, lat, gt, self.rng())
            c.expect(np.isclose(res["psnr"][r], 10 * np.log10(1 / np.mean((lat - gt) ** 2)), rtol=1e-12),
                     f"PSNR of latent {r}")

    def quality(self, res):
        return {"psnr_db": (float(np.mean(res["psnr"])), "dB"), "ssim": (float(np.mean(res["ssim"])), "1")}


class Denoise(Workload):
    def run(self):
        a = inputs.DENOISE_ARGS
        argv = ["denoise", "--events", str(self.input / "events.evs"), "--radius", str(a["radius"]),
                "--window-us", str(a["window_us"]), "--min-support", str(a["min_support"]),
                "--hot-threshold", str(a["hot_threshold"]), "--out", str(self.output / "denoised.evs")]
        return _run_cli(self.ev, argv, ["scf_filter", "hot_pixel_filter", "write_events"])

    def digest(self, res):
        return _file_digest([self.output / "denoised.evs"])

    @staticmethod
    def _written(res):
        return res["calls"]["write_events"][0][0][0]

    def counts(self, res):
        return {"events": self.manifest["events"], "signal": self.manifest["signal_events"],
                "kept": len(self._written(res))}

    def events(self, res):
        return self.manifest["events"]

    def check(self, res, c: ck.Checks):
        if not c.expect(res["rc"] == 0, f"denoise exit code {res['rc']}"):
            return
        a = inputs.DENOISE_ARGS
        (scf_in, *_), scf_out = res["calls"]["scf_filter"][0]
        (hot_in, *_), hot_out = res["calls"]["hot_pixel_filter"][0]
        (written, path), _ = res["calls"]["write_events"][0]
        c.expect(len(scf_in) == self.manifest["events"], "events read equal events written")
        c.run("SCF oracle", ck.check_scf, scf_in, scf_out, self.rng(), a["radius"],
              a["window_us"] / 1e6, a["min_support"])
        c.expect(hot_in is scf_out, "hot-pixel input is the SCF output")
        c.run("hot-pixel oracle", ck.check_hot_pixel, hot_in, hot_out, a["hot_threshold"])
        c.run("validate denoised", self.ev.core.validate, written)
        c.run("file denoised", ck.same_events_as_file, self.ev, written, path)
        c.expect(f"count={len(written)}\n" in res["stdout"], "printed count")

    def quality(self, res):
        s, out = self.spec, self._written(res)
        kept = ck.event_keys(np.round(out.t * 1e6), out.x, out.y, out.p, s.width, s.height)
        signal = np.load(self.input / "signal_keys.npy")
        kept_signal = int(np.isin(kept, signal).sum())
        n_noise = self.manifest["events"] - len(signal)
        return {"signal_recall": (kept_signal / len(signal), "ratio"),
                "noise_removed": (1 - (len(kept) - kept_signal) / n_noise, "ratio")}


WORKLOADS = {"pipeline-240": Pipeline, "pairgen-640": Pairgen,
             "deblur-640": Deblur, "denoise-346": Denoise}
