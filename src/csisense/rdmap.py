"""Range-Doppler map formation, sub-bin peak estimation, detection, and
sliding-window tracking over long captures."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

import numpy as np

from . import sic
from .sync import synchronize
from .waveform import (SPEED_OF_LIGHT, WaveformConfig, db_to_linear,
                       range_resolution)

# Peak-over-median-floor detection threshold, dB.
DEFAULT_THRESHOLD_DB = 12.0


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
            range_scale_m=range_resolution(cfg),
            velocity_scale_mps=SPEED_OF_LIGHT / (
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


@functools.lru_cache(maxsize=16)
def _axis_window(kind: str, length: int) -> np.ndarray:
    """Read-only taper along one axis; cached because every map of a
    sliding-window run has the same shape."""
    if kind == "rect":
        taper = np.ones(length)
    elif kind == "hann":
        taper = np.hanning(length)
    else:
        raise ValueError(f"unknown window function {kind!r}")
    taper.flags.writeable = False
    return taper


def range_profiles(grid: np.ndarray, window_fn: str = "rect") -> np.ndarray:
    """Range profile of each frame: the subcarrier taper, then an
    (unnormalized) inverse DFT over subcarriers, so a return at delay tau
    peaks at bin tau*B.

    The transform acts on the last axis only, so it can run once per frame
    and its rows be shared by every window that holds the frame.
    """
    grid = np.asarray(grid)
    n_sub = grid.shape[-1]
    # The unnormalized sum: an on-bin unit exponential peaks at N.
    profiles = np.fft.ifft(grid * _axis_window(window_fn, n_sub), axis=-1)
    profiles *= n_sub
    return profiles


def range_doppler(profiles: np.ndarray, cfg: WaveformConfig,
                  window_fn: str = "rect",
                  timestamp_s: float = 0.0) -> RangeDopplerMap:
    """Map of one window of range profiles (``range_profiles`` of a
    synchronized CSI window, DC-removed before or after that transform).

    The Doppler axis is a forward DFT over frames, peaking at bin fD*M*T,
    after an optional frame taper; the magnitude is center-shifted so
    Doppler bin 0 is the middle row. Under rectangular windows an on-bin
    unit exponential peaks at magnitude M*N.
    """
    profiles = np.asarray(profiles)
    if profiles.ndim != 2 or profiles.shape[0] < 2 or profiles.shape[1] < 2:
        raise ValueError("need a 2-D grid of at least 2x2")
    taper = _axis_window(window_fn, profiles.shape[0])[:, None]
    spectrum = np.fft.fft(profiles * taper, axis=0)
    return RangeDopplerMap.from_config(
        np.fft.fftshift(np.abs(spectrum), axes=0), cfg, timestamp_s)


def _parabolic_offset(left: float, center: float, right: float) -> float:
    denom = left - 2.0 * center + right
    if denom >= 0.0:
        # Flat or non-concave: no reliable vertex.
        return 0.0
    offset = 0.5 * (left - right) / denom
    return float(np.clip(offset, -0.5, 0.5))


def _median(values: np.ndarray) -> float:
    """``np.median`` of a NaN-free array from one partition: numpy's own
    median partitions at two more positions to average and check for NaN."""
    flat = values.ravel()
    k = flat.size // 2
    part = np.partition(flat, k)
    if flat.size % 2:
        return float(part[k])
    return float((np.max(part[:k]) + part[k]) / 2.0)


def detect(rdm: RangeDopplerMap,
           threshold_db: float = DEFAULT_THRESHOLD_DB) -> Optional[Detection]:
    """The map's strongest return, or None when it is not far enough above
    the noise floor.

    The pick is the map's global maximum (the first one in row-major order
    on a tie), refined to sub-bin range and velocity by a parabola through
    the log-magnitudes along each axis; both DFT axes are periodic, so
    neighbors wrap around at the edges. Offsets are clamped to half a bin
    and the range to >= 0. The floor is the median map magnitude; the peak
    must exceed it by ``threshold_db``. Reported power is dB above the
    floor. A map holding NaN yields no pick; a threshold with no finite
    linear value raises ``ValueError``.
    """
    mag = rdm.values
    flat = int(np.argmax(mag))
    peak = mag.flat[flat]
    # A NaN peak fails this too: argmax returns the first NaN.
    if not peak > 0.0:
        return None
    floor = _median(mag)
    if floor <= 0.0:
        floor = float(peak) * 1e-9
    if floor <= 0.0 or not peak >= floor * db_to_linear(
            "threshold_db", threshold_db, 20.0):
        return None
    row, col = flat // rdm.n_range, flat % rdm.n_range
    up, down = (row - 1) % rdm.n_doppler, (row + 1) % rdm.n_doppler
    left, right = (col - 1) % rdm.n_range, (col + 1) % rdm.n_range
    cells = mag[[row, row, row, up, down], [col, left, right, col, col]]
    here, west, east, north, south = np.log(np.maximum(cells, peak * 1e-15))
    off_l = _parabolic_offset(west, here, east)
    off_p = _parabolic_offset(north, here, south)
    bin_p = row - rdm.n_doppler // 2
    # keep the estimate inside the physical axes even at edge bins
    velocity_limit = rdm.velocity_scale_mps * rdm.n_doppler / 2.0
    velocity = float(np.clip((bin_p + off_p) * rdm.velocity_scale_mps,
                             -velocity_limit, velocity_limit))
    return Detection(
        time_s=rdm.timestamp_s,
        range_m=max(0.0, (col + off_l) * rdm.range_scale_m),
        velocity_mps=velocity,
        power_db=20.0 * here / np.log(10.0) - 20.0 * math.log10(floor),
        bin_l=col, bin_p=bin_p)


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
                window: int, stride: int = 1, *,
                apply_sync: bool = True, apply_sic: bool = True,
                window_fn: str = "hann") -> Iterator[RangeDopplerMap]:
    """Yield one range-Doppler map per sliding window, center-timestamped.

    Synchronization runs once over the whole capture (the sample-clock
    offset is constant and phase alignment is sequential). The range
    transform runs once per frame of a chunk of ``window // stride + 1``
    windows, a span of at most two windows of frames, so memory stays flat
    in the capture length; each window then slices its profiles, is
    DC-removed (mean removal commutes with the range transform) and gets
    its Doppler transform.
    """
    capture = np.asarray(capture, dtype=complex)
    if capture.ndim != 2:
        raise ValueError("capture must be a 2-D frame-by-subcarrier array")
    starts = window_starts(capture.shape[0], window, stride)
    if apply_sync:
        capture, _ = synchronize(capture)
    half = (window - 1) / 2.0
    per_chunk = window // stride + 1
    for first in range(0, len(starts), per_chunk):
        chunk = starts[first:first + per_chunk]
        lo = chunk[0]
        profiles = range_profiles(capture[lo:chunk[-1] + window], window_fn)
        for start in chunk:
            block = profiles[start - lo:start - lo + window]
            if apply_sic:
                block = sic.remove_dc(block)
            t = (start + half) * cfg.frame_interval_s
            yield range_doppler(block, cfg, window_fn=window_fn,
                                timestamp_s=t)


def track(maps: Iterable[RangeDopplerMap],
          threshold_db: float = DEFAULT_THRESHOLD_DB) -> List[Detection]:
    """Detection per map (e.g. from ``window_maps``); maps with nothing
    above threshold simply contribute no detection."""
    picks = (detect(rdm, threshold_db=threshold_db) for rdm in maps)
    return [pick for pick in picks if pick is not None]


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
