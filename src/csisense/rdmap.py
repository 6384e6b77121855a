"""Range-Doppler map formation, sub-bin peak estimation, detection, and
sliding-window tracking over long captures."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from . import sic
from .sync import synchronize
from .waveform import WaveformConfig

WINDOW_FUNCTIONS = ("rect", "hann")


@dataclass
class RangeDopplerMap:
    """2D spectrum magnitude over (Doppler bin, range bin) with physical
    axis scales.

    Rows are Doppler bins p in [-P/2, P/2) with bin 0 at the center row;
    columns are range bins l in [0, L). ``values`` is the real magnitude
    of the spectrum. Scales are meters / m-per-second per bin of this map.
    """

    values: np.ndarray
    range_scale_m: float
    velocity_scale_mps: float
    timestamp_s: float = 0.0

    @classmethod
    def from_config(cls, values: np.ndarray, cfg: WaveformConfig,
                    timestamp_s: float) -> "RangeDopplerMap":
        """Map of ``values`` with the bin scales of ``cfg``; the Doppler
        bin width follows from the row count (frames per map)."""
        return cls(
            values=values,
            range_scale_m=cfg.wave_speed_mps / (2.0 * cfg.bandwidth_hz),
            velocity_scale_mps=cfg.wave_speed_mps / (
                2.0 * cfg.carrier_freq_hz * values.shape[0]
                * cfg.frame_interval_s),
            timestamp_s=timestamp_s)

    @property
    def n_doppler(self) -> int:
        return self.values.shape[0]

    @property
    def n_range(self) -> int:
        return self.values.shape[1]

    def magnitude(self) -> np.ndarray:
        return self.values

    def doppler_bins(self) -> np.ndarray:
        """Signed Doppler bin index per row."""
        return np.arange(self.n_doppler) - self.n_doppler // 2

    def argmax_cell(self) -> Tuple[int, int]:
        """(row, col) of the magnitude maximum."""
        idx = int(np.argmax(self.values))
        return idx // self.n_range, idx % self.n_range

    def argmax_bin(self) -> Tuple[int, int]:
        """(doppler bin, range bin) of the magnitude maximum."""
        row, col = self.argmax_cell()
        return row - self.n_doppler // 2, col


@dataclass(frozen=True)
class Detection:
    """One estimated return: when, where, how fast, how strong."""

    time_s: float
    range_m: float
    velocity_mps: float
    power_db: float
    bin_l: int
    bin_p: int

    def to_json_dict(self) -> dict:
        return {
            "t": float(self.time_s),
            "range_m": float(self.range_m),
            "velocity_mps": float(self.velocity_mps),
            "power_db": float(self.power_db),
            "bin_l": int(self.bin_l),
            "bin_p": int(self.bin_p),
        }


@dataclass
class DopplerTimeProfile:
    """Doppler energy vs. time: one column per sliding window."""

    values: np.ndarray              # (doppler bins, windows)
    velocity_scale_mps: float
    window_times_s: np.ndarray

    def doppler_bins(self) -> np.ndarray:
        return np.arange(self.values.shape[0]) - self.values.shape[0] // 2


def _axis_window(kind: str, length: int) -> np.ndarray:
    if kind == "rect":
        return np.ones(length)
    if kind == "hann":
        return np.hanning(length)
    raise ValueError(f"unknown window function {kind!r}")


def range_doppler(grid: np.ndarray, cfg: WaveformConfig,
                  window_fn: str = "rect",
                  timestamp_s: float = 0.0) -> RangeDopplerMap:
    """2D transform of a synchronized, DC-removed CSI window.

    The range axis is an (unnormalized) inverse DFT over subcarriers, so a
    return at delay tau peaks at bin tau*B; the Doppler axis is a forward
    DFT over frames, peaking at bin fD*M*T, then center-shifted. Optional
    per-axis windows are applied before the transforms.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2 or grid.shape[0] < 2 or grid.shape[1] < 2:
        raise ValueError("need a 2-D grid of at least 2x2")
    m_frames, n_sub = grid.shape
    tapered = grid * np.outer(_axis_window(window_fn, m_frames),
                              _axis_window(window_fn, n_sub))
    # The range transform is the unnormalized sum, so an on-bin unit
    # exponential peaks at magnitude M*N under a rectangular window.
    range_profiles = np.fft.ifft(tapered, axis=1) * n_sub
    spectrum = np.fft.fftshift(np.fft.fft(range_profiles, axis=0), axes=0)
    return RangeDopplerMap.from_config(np.abs(spectrum), cfg, timestamp_s)


def _parabolic_offset(left: float, center: float, right: float) -> float:
    denom = left - 2.0 * center + right
    if denom >= 0.0:
        # Flat or non-concave: no reliable vertex.
        return 0.0
    offset = 0.5 * (left - right) / denom
    return float(np.clip(offset, -0.5, 0.5))


def estimate_peak(rdm: RangeDopplerMap,
                  cell: Tuple[int, int]) -> Tuple[float, float, float]:
    """Sub-bin (range_m, velocity_mps, power_db) at a local-maximum cell.

    Fits a parabola to log-magnitudes along each axis independently; both
    DFT axes are periodic, so neighbors wrap around at the edges. Offsets
    are clamped to half a bin and the range estimate to >= 0.
    """
    row, col = cell
    mag = rdm.values
    up, down = (row - 1) % rdm.n_doppler, (row + 1) % rdm.n_doppler
    left, right = (col - 1) % rdm.n_range, (col + 1) % rdm.n_range
    cells = mag[[row, row, row, up, down], [col, left, right, col, col]]
    if np.any(cells[0] < cells[1:]):
        raise ValueError(f"cell {cell} is not a local maximum")
    peak = np.max(mag)
    here, west, east, north, south = np.log(
        np.maximum(cells, peak * 1e-15 if peak > 0 else 1e-300))
    off_l = _parabolic_offset(west, here, east)
    off_p = _parabolic_offset(north, here, south)
    bin_p = row - rdm.n_doppler // 2
    range_m = max(0.0, (col + off_l) * rdm.range_scale_m)
    # keep the estimate inside the physical axes even at edge bins
    velocity_limit = rdm.velocity_scale_mps * rdm.n_doppler / 2.0
    velocity = float(np.clip((bin_p + off_p) * rdm.velocity_scale_mps,
                             -velocity_limit, velocity_limit))
    power_db = 20.0 * here / np.log(10.0)
    return range_m, velocity, power_db


def _local_maxima(mag: np.ndarray) -> np.ndarray:
    """Boolean mask of cells >= all 8 neighbors (circular on both axes)."""
    rows, cols = mag.shape
    padded = np.pad(mag, 1, mode="wrap")
    mask = np.ones_like(mag, dtype=bool)
    for dr in range(3):
        for dc in range(3):
            if dr != 1 or dc != 1:
                mask &= mag >= padded[dr:dr + rows, dc:dc + cols]
    return mask


def detect(rdm: RangeDopplerMap, threshold_db: float = 12.0,
           max_targets: int = 5) -> List[Detection]:
    """Greedy local-maxima picking above the noise floor.

    The floor is the median map magnitude; candidates must exceed it by
    ``threshold_db``. Picks descend by power, each suppressing its 3x3
    neighborhood, and are refined by sub-bin interpolation. Reported power
    is dB above the floor.
    """
    mag = rdm.values
    floor = float(np.median(mag))
    if floor <= 0.0:
        floor = float(np.max(mag)) * 1e-9
    if floor <= 0.0:
        return []
    threshold = floor * 10.0 ** (threshold_db / 20.0)
    candidates = _local_maxima(mag) & (mag >= threshold) & (mag > 0)
    available = candidates.copy()
    floor_db = 20.0 * math.log10(floor)
    picks: List[Detection] = []
    while len(picks) < max_targets and np.any(available):
        flat = int(np.argmax(np.where(available, mag, -np.inf)))
        row, col = flat // rdm.n_range, flat % rdm.n_range
        range_m, velocity, power_db = estimate_peak(rdm, (row, col))
        picks.append(Detection(
            time_s=rdm.timestamp_s, range_m=range_m, velocity_mps=velocity,
            power_db=power_db - floor_db, bin_l=col,
            bin_p=row - rdm.n_doppler // 2))
        rows = [(row + dr) % rdm.n_doppler for dr in (-1, 0, 1)]
        cols = [(col + dc) % rdm.n_range for dc in (-1, 0, 1)]
        available[np.ix_(rows, cols)] = False
    return picks


def window_starts(n_frames: int, window: int, stride: int) -> range:
    """First frame of each sliding window; raises on a bad window, stride,
    or a capture shorter than one window."""
    if window < 2:
        raise ValueError("window must be >= 2 frames")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if n_frames < window:
        raise ValueError(
            f"capture of {n_frames} frames is shorter than window {window}")
    return range(0, n_frames - window + 1, stride)


def window_maps(capture: np.ndarray, cfg: WaveformConfig,
                window: Optional[int] = None, stride: int = 1, *,
                apply_sync: bool = True, apply_sic: bool = True,
                window_fn: str = "hann") -> Iterator[RangeDopplerMap]:
    """Yield one range-Doppler map per sliding window, center-timestamped.

    Synchronization runs once over the whole capture (the sample-clock
    offset is constant and phase alignment is sequential); each window is
    then DC-removed and transformed independently.
    """
    window = window if window is not None else cfg.n_frames
    capture = np.asarray(capture, dtype=complex)
    if capture.ndim != 2:
        raise ValueError("capture must be a 2-D frame-by-subcarrier array")
    starts = window_starts(capture.shape[0], window, stride)
    cfg_win = (cfg if cfg.n_frames == window
               else dc_replace(cfg, n_frames=window))
    if apply_sync:
        capture, _ = synchronize(capture)
    half = (window - 1) / 2.0
    for start in starts:
        block = capture[start:start + window]
        if apply_sic:
            block = sic.remove_dc(block)
        t = (start + half) * cfg_win.frame_interval_s
        yield range_doppler(block, cfg_win, window_fn=window_fn, timestamp_s=t)


def track(maps: Iterable[RangeDopplerMap],
          threshold_db: float = 12.0) -> List[Detection]:
    """Strongest detection per map (e.g. from ``window_maps``); maps with
    nothing above threshold simply contribute no detection."""
    detections: List[Detection] = []
    for rdm in maps:
        picks = detect(rdm, threshold_db=threshold_db, max_targets=1)
        if picks:
            detections.append(picks[0])
    return detections


def doppler_time_profile(maps: Iterable[RangeDopplerMap]
                         ) -> DopplerTimeProfile:
    """Doppler spectrogram: per map, energy summed over range bins."""
    columns = []
    times = []
    rdm = None
    for rdm in maps:
        columns.append(np.sum(rdm.values ** 2, axis=1))
        times.append(rdm.timestamp_s)
    if rdm is None:
        raise ValueError("no maps to profile")
    return DopplerTimeProfile(
        values=np.array(columns).T,
        velocity_scale_mps=rdm.velocity_scale_mps,
        window_times_s=np.array(times))
