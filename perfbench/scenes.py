"""Seeded synthetic scenes and the four workload specifications.

A scene is Gaussian blobs moving over a drifting sum of sinusoid gratings,
rendered to 8-bit frames like a real video. The generator uses numpy only;
evtkit receives nothing but the frames and the files made from them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Spec:
    """Scene geometry, timing and amount of motion for one workload."""

    name: str
    why: str
    width: int
    height: int
    frames: int
    fps: float
    events: float  # target number of ideal events at threshold c
    c: float = 0.2
    blobs: int = 8

    def tiny(self) -> "Spec":
        """Same workload at a toy size, for the self-check."""
        frames = min(self.frames, 9)
        scale = 48 * 36 * (frames - 1) / (self.width * self.height * (self.frames - 1))
        return replace(self, width=48, height=36, frames=frames, events=self.events * scale)


# The "why" lines are the reasons each workload exists: which layer it
# stresses, and which optimisations must leave it unchanged.
SPECS = {
    s.name: s for s in (
        Spec("pipeline-240",
             "full CLI pipeline from frames on disk; SCF dominates, so an SCF rewrite shows here first",
             240, 180, 25, 250.0, 134e3),
        Spec("pairgen-640",
             "make_pair plus .evs I/O on 1.1M events; simulation, bandwidth, noise and sorts, never SCF or EDI",
             640, 480, 49, 240.0, 830e3),
        Spec("deblur-640",
             "read, voxelize, EDI sequence and PSNR/SSIM of 11 latents; SSIM dominates, SCF and sort do no work",
             640, 480, 13, 240.0, 934e3),
        Spec("denoise-346",
             "CLI denoise of a noise-dominated DAVIS346 stream: sparse r=2 SCF and a hot-pixel filter that bites",
             346, 260, 51, 50.0, 120e3, c=0.3),
    )
}

# Sub-sampling of the grid on which the amount of motion is calibrated.
_CAL_STRIDE = 4


class _Scene:
    """The random draw of one scene; rendering is a function of speed."""

    def __init__(self, spec: Spec, seed: int):
        rng = np.random.default_rng([seed, spec.width, spec.height, spec.frames])
        w, h = spec.width, spec.height
        self.spec = spec
        self.t = np.arange(spec.frames) / spec.fps
        # Gratings sin(kx*x + ky*y + phase + omega*t). Magnitudes are fixed
        # and only directions and phases are drawn, so scenes of one spec
        # differ in layout but not in kind.
        wavelength = np.array([0.25, 0.4, 0.6]) * max(w, h)
        angle = rng.uniform(0, np.pi, 3)
        self.kx = 2 * np.pi / wavelength * np.cos(angle)
        self.ky = 2 * np.pi / wavelength * np.sin(angle)
        self.phase = rng.uniform(0, 2 * np.pi, 3)
        self.omega = rng.choice([-1.0, 1.0], 3) * np.array([40.0, 30.0, 20.0])
        self.amp = np.array([0.06, 0.09, 0.12])
        n = spec.blobs
        heading = rng.uniform(0, 2 * np.pi, n)
        self.velocity = np.column_stack([np.cos(heading), np.sin(heading)]) * 0.9 * max(w, h)
        # Blobs pass their drawn mid-point half-way through and never wrap.
        self.mid = rng.uniform([0.2 * w, 0.2 * h], [0.8 * w, 0.8 * h], (n, 2))
        self.sigma = np.linspace(0.03, 0.08, n) * max(w, h)
        self.blob_amp = np.resize([1.0, -1.0], n) * np.linspace(0.2, 0.35, n)

    def frame(self, k: int, speed: float, stride: int = 1) -> np.ndarray:
        xs = np.arange(0, self.spec.width, stride, dtype=np.float64)
        ys = np.arange(0, self.spec.height, stride, dtype=np.float64)
        tk = self.t[k]
        img = np.full((len(ys), len(xs)), 0.5)
        for g in range(3):
            ax = self.kx[g] * xs + self.phase[g] + self.omega[g] * speed * tk
            ay = self.ky[g] * ys
            img += self.amp[g] * (np.outer(np.cos(ay), np.sin(ax)) + np.outer(np.sin(ay), np.cos(ax)))
        for b in range(len(self.sigma)):
            cx, cy = self.mid[b] + self.velocity[b] * speed * (tk - self.t[-1] / 2)
            r = 4 * self.sigma[b]
            xi = slice(*np.searchsorted(xs, [cx - r, cx + r]))
            yi = slice(*np.searchsorted(ys, [cy - r, cy + r]))
            gx = np.exp(-((xs[xi] - cx) ** 2) / (2 * self.sigma[b] ** 2))
            gy = np.exp(-((ys[yi] - cy) ** 2) / (2 * self.sigma[b] ** 2))
            img[yi, xi] += self.blob_amp[b] * np.outer(gy, gx)
        return np.clip(img, 0.03, 1.0)

    def events(self, speed: float) -> float:
        """Ideal event count at threshold c, estimated on a sub-sampled grid."""
        c = self.spec.c
        ref = None
        total = 0
        for k in range(self.spec.frames):
            level = np.log(np.round(self.frame(k, speed, _CAL_STRIDE) * 255.0) / 255.0)
            if ref is None:
                ref = level
                continue
            n = np.floor(np.abs(level - ref) / c)
            total += n.sum()
            ref = ref + np.sign(level - ref) * n * c
        return total * _CAL_STRIDE ** 2


def render(spec: Spec, seed: int) -> np.ndarray:
    """Frames as an (N, H, W) uint8 array, a pure function of (spec, seed).

    The speed of all motion is calibrated so that every seed gives about
    ``spec.events`` events; work per run then depends little on the seed.
    """
    scene = _Scene(spec, seed)
    speed = 1.0
    for _ in range(3):
        speed *= spec.events / max(scene.events(speed), 1.0)
    out = np.empty((spec.frames, spec.height, spec.width), dtype=np.uint8)
    for k in range(spec.frames):
        out[k] = np.round(scene.frame(k, speed) * 255.0)
    return out


def timestamps(spec: Spec) -> np.ndarray:
    return np.arange(spec.frames) / spec.fps
