"""Built-in scenario presets and the key-value scenario file parser."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .capture_io import MAX_COUNT, Trajectory
from .channel import Impairments, Target, simulate_trajectory, trajectory_samples
from .waveform import WaveformConfig, db_to_linear, make_config


class ScenarioError(Exception):
    """Bad scenario name or file contents."""


# 160 MHz / 6.3 GHz / 25 ms frame spacing: the Wi-Fi 6E sensing setup.
PRESET_CONFIGS = {
    "wifi-ax211": dict(n_subcarriers=512, n_frames=32,
                       subcarrier_spacing_hz=312.5e3, frame_interval_s=0.025,
                       carrier_freq_hz=6.3e9),
}

SCENARIO_TEST1 = """\
# Metal plate on a rail: 0.6 m -> 0.3 m over 3.9 s.
subcarriers = 512
spacing_hz = 312.5e3
frame_interval_s = 0.025
carrier_freq_hz = 6.3e9
frame_count = 156
snr_db = 20
target_gain = 1.0
coupling_gain_db = 30
path = 0, 0.6; 3.9, 0.3
delay_offset_samples = 2.25
phase_jump_step_rad = 1.5707963267948966
phase_jump_prob = 0.08
phase_drift_std_rad = 0.005
"""

SCENARIO_GESTURE = """\
# Hand waved toward/away from the antennas: 0 -> 0.4 m triangle, 2 s period.
subcarriers = 512
spacing_hz = 312.5e3
frame_interval_s = 0.025
carrier_freq_hz = 6.3e9
frame_count = 320
snr_db = 20
target_gain = 1.0
coupling_gain_db = 30
path = 0, 0; 1, 0.4; 2, 0; 3, 0.4; 4, 0; 5, 0.4; 6, 0; 7, 0.4; 8, 0
delay_offset_samples = 2.25
phase_jump_step_rad = 1.5707963267948966
phase_jump_prob = 0.08
phase_drift_std_rad = 0.005
"""

PRESET_SCENARIOS = {"test1": SCENARIO_TEST1, "gesture": SCENARIO_GESTURE}


@dataclass
class Scenario:
    """Parsed simulation description."""

    n_subcarriers: int
    frame_interval_s: float
    carrier_freq_hz: float
    frame_count: int
    path: List[Tuple[float, ...]]
    # One or both; make_config derives the other and checks they agree.
    subcarrier_spacing_hz: Optional[float] = None
    bandwidth_hz: Optional[float] = None
    snr_db: Optional[float] = None
    target_gain: float = 1.0
    coupling_gain_db: Optional[float] = None
    clutter: List[Tuple[float, float]] = field(default_factory=list)
    delay_offset_samples: float = 0.0
    phase_jump_step_rad: float = 0.0
    phase_jump_prob: float = 0.0
    phase_drift_std_rad: float = 0.0
    seed: int = 0

    def config(self) -> WaveformConfig:
        return make_config(
            n_subcarriers=self.n_subcarriers, n_frames=self.frame_count,
            subcarrier_spacing_hz=self.subcarrier_spacing_hz,
            bandwidth_hz=self.bandwidth_hz,
            frame_interval_s=self.frame_interval_s,
            carrier_freq_hz=self.carrier_freq_hz)


def finite_float(text: str) -> float:
    """``float(text)``, raising ``ValueError`` on NaN or infinity too."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _integer(text: str) -> int:
    """An integral ``finite_float`` (so ``1e3`` is 1000) as an ``int``."""
    value = finite_float(text)
    if not value.is_integer():
        raise ValueError(f"{text!r} is not an integer")
    return int(value)


def _count(key: str, text: str) -> int:
    """An ``_integer`` that the capture header's count fields can hold."""
    value = _integer(text)
    if value > MAX_COUNT:
        raise ValueError(f"{key} {value} does not fit the capture header's "
                         f"limit of {MAX_COUNT}")
    return value


def _seed(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise ValueError(f"seed {text!r} is negative")
    return value


def _snr_db(text: str) -> Optional[float]:
    return None if text.lower() == "none" else finite_float(text)


def _entries(text: str, label: str, form: str, sizes: Tuple[int, ...]
             ) -> List[Tuple[float, ...]]:
    """``;``-separated entries, each of ``sizes`` ``,``-separated finite
    numbers; ``label`` and ``form`` name a malformed one."""
    entries = []
    for chunk in text.split(";"):
        parts = [p.strip() for p in chunk.split(",") if p.strip()]
        if len(parts) not in sizes:
            raise ValueError(f"{label} {chunk!r} needs {form}")
        entries.append(tuple(finite_float(p) for p in parts))
    return entries


# Scenario file key -> (Scenario field, parser of the value text).
_KEYS = {
    "subcarriers": ("n_subcarriers",
                    lambda text: _count("subcarriers", text)),
    "spacing_hz": ("subcarrier_spacing_hz", finite_float),
    "frame_count": ("frame_count", lambda text: _count("frame_count", text)),
    "seed": ("seed", _seed),
    "snr_db": ("snr_db", _snr_db),
    "path": ("path", lambda text: _entries(
        text, "path waypoint", "t,range[,velocity]", (2, 3))),
    "clutter": ("clutter", lambda text: _entries(
        text, "clutter entry", "range,gain", (2,))),
    **{key: (key, finite_float) for key in (
        "bandwidth_hz", "frame_interval_s", "carrier_freq_hz", "target_gain",
        "coupling_gain_db", "delay_offset_samples", "phase_jump_step_rad",
        "phase_jump_prob", "phase_drift_std_rad")},
}


def parse_scenario(text: str) -> Scenario:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        name, parse = _KEYS[key]
        try:
            values[name] = parse(value)
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from exc

    missing = [k for k in ("n_subcarriers", "frame_interval_s",
                           "carrier_freq_hz", "frame_count", "path")
               if k not in values]
    if "subcarrier_spacing_hz" not in values and "bandwidth_hz" not in values:
        missing.append("spacing_hz or bandwidth_hz")
    if missing:
        raise ScenarioError(f"scenario is missing keys: {', '.join(missing)}")
    return Scenario(**values)


def load_scenario(name_or_path: str) -> Scenario:
    """Resolve a preset name or read a scenario file."""
    if name_or_path in PRESET_SCENARIOS:
        return parse_scenario(PRESET_SCENARIOS[name_or_path])
    try:
        with open(name_or_path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(
            f"neither a preset ({', '.join(sorted(PRESET_SCENARIOS))}) nor "
            f"a readable file: {exc}") from exc
    return parse_scenario(text)


def simulate_scenario(scenario: Scenario, seed: Optional[int] = None
                      ) -> Tuple[WaveformConfig, np.ndarray, Trajectory]:
    """Produce (config, CSI capture, per-frame ground truth) for a scenario.

    A scenario that forms no config, impairments or trajectory raises
    ``ScenarioError``.
    """
    rng_seed = seed if seed is not None else scenario.seed
    coupling = None
    clutter = [Target(r, 0.0, g) for r, g in scenario.clutter]
    try:
        if scenario.coupling_gain_db is not None:
            coupling = Target(0.0, 0.0, scenario.target_gain * db_to_linear(
                "coupling_gain_db", scenario.coupling_gain_db, 20.0))
        cfg = scenario.config()
        impairments = Impairments(
            delay_offset_samples=scenario.delay_offset_samples,
            phase_jump_step_rad=scenario.phase_jump_step_rad,
            phase_jump_prob=scenario.phase_jump_prob,
            phase_drift_std_rad=scenario.phase_drift_std_rad,
            rng_seed=rng_seed)
        capture = simulate_trajectory(
            cfg, scenario.path, gain=scenario.target_gain, coupling=coupling,
            clutter=clutter, snr_db=scenario.snr_db, impairments=impairments)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    times, ranges, velocities = trajectory_samples(
        scenario.path, scenario.frame_count, scenario.frame_interval_s)
    truth = Trajectory(times_s=times, ranges_m=ranges,
                       velocities_mps=velocities)
    return cfg, capture, truth
