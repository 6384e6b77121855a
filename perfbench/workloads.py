"""The benchmark's workloads: scenario text generated from a seed, and the
``csisense process`` arguments each one runs with.

All three use the paper's 160 MHz / 6.3 GHz numerology (512 subcarriers at
312.5 kHz, 25 ms frames). The seed picks the simulator's noise and
impairment stream; the geometry, and therefore the work per call, is fixed
per workload, so runs on different seeds time the same amount of work.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

_NUMEROLOGY = """\
subcarriers = 512
spacing_hz = 312.5e3
frame_interval_s = 0.025
carrier_freq_hz = 6.3e9
"""

# Impairments of the package's presets (test1, gesture).
_IMPAIRMENTS = """\
snr_db = 20
target_gain = 1.0
coupling_gain_db = 30
delay_offset_samples = 2.25
phase_jump_step_rad = 1.5707963267948966
phase_jump_prob = 0.08
phase_drift_std_rad = 0.005
"""


def _triangle_path(duration_s: float) -> str:
    """0 <-> 0.4 m gesture sweeps, 1 s per leg (2 s period), covering the
    capture."""
    legs = int(duration_s) + 1
    return "; ".join(f"{t}, {0.4 if t % 2 else 0}" for t in range(legs + 1))


@dataclass(frozen=True)
class Workload:
    name: str
    scene: str             # "sweeps" (gesture sweeps) or "test1" (the preset)
    frames: int            # capture length at full size
    tiny_frames: int       # capture length in the self-test's tiny mode
    window: int
    stride: int
    emits: Tuple[str, ...]  # subset of ("maps", "spectrogram", "sync-report")

    def scenario_text(self, seed: int, tiny: bool = False) -> str:
        frames = self.n_frames(tiny)
        if self.scene == "test1":
            # The test1 preset: a metal plate on a rail, 0.6 m -> 0.3 m over
            # 3.9 s; this path covers any shorter capture too.
            path = "0, 0.6; 3.9, 0.3"
        else:
            path = _triangle_path(frames * 0.025)
        rng_seed = random.Random(f"{self.name}:{seed}").randrange(1, 2 ** 31)
        return (f"# {self.name} ({self.scene}), benchmark seed {seed}\n"
                + _NUMEROLOGY + f"frame_count = {frames}\n" + _IMPAIRMENTS
                + f"path = {path}\n" + f"seed = {rng_seed}\n")

    def process_args(self, capture: str, out_dir: str) -> list:
        args = ["process", capture, "--window", str(self.window),
                "--stride", str(self.stride),
                "--out", f"{out_dir}/detections.jsonl"]
        if "maps" in self.emits:
            args += ["--emit-maps", f"{out_dir}/maps"]
        if "spectrogram" in self.emits:
            args += ["--emit-spectrogram", f"{out_dir}/profile.csv"]
        if "sync-report" in self.emits:
            args += ["--emit-sync-report", f"{out_dir}/sync.json"]
        return args

    def n_frames(self, tiny: bool = False) -> int:
        return self.tiny_frames if tiny else self.frames

    def n_windows(self, tiny: bool = False) -> int:
        return (self.n_frames(tiny) - self.window) // self.stride + 1


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("track-stride1", "sweeps", frames=1000, tiny_frames=64,
             window=32, stride=1, emits=()),
    Workload("monitor-10k", "sweeps", frames=10000, tiny_frames=256,
             window=32, stride=32, emits=()),
    Workload("export-all", "test1", frames=156, tiny_frames=64,
             window=32, stride=2,
             emits=("maps", "spectrogram", "sync-report")),
)}
