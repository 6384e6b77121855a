"""Range-Doppler map formation, sub-bin peak estimation, detection, and
sliding-window tracking over long captures."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

import numpy as np

from . import sic
from .sync import SyncParams, SyncReport, synchronize
from .waveform import (SPEED_OF_LIGHT, WaveformConfig, db_to_linear,
                       range_resolution)

# Peak-over-median-floor detection threshold, dB.
DEFAULT_THRESHOLD_DB = 12.0

# Frames that window_maps synchronizes and range-transforms at a time, in
# its buffer behind the carried rows: 0.26 MB of complex128 at 512
# subcarriers, read as 0.13 MB of complex64. Against blocks of 64 frames
# (2 cores, numpy 2.4, medians of 30 in-process calls) process took 4%
# longer on a 10000-frame capture (205 against 197 ms, with twice the
# per-block calls) and 2% longer on a 1000-frame one at stride 1, for
# 0.39 MB less held. simulate, which builds its capture in blocks of the
# same size, took 385 against 374 ms on 10000 frames. Blocks of 128
# frames hold more than a 156-frame capture's whole complex128 copy.
_BLOCK_FRAMES = 32


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


@dataclass(frozen=True, slots=True)
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
    sliding-window run has the same shape. It is complex128, the type that
    numpy casts a real taper to before it multiplies complex rows, so the
    products keep their bits and no multiply casts it again."""
    if kind == "rect":
        taper = np.ones(length, complex)
    elif kind == "hann":
        taper = np.hanning(length).astype(complex)
    else:
        raise ValueError(f"unknown window function {kind!r}")
    taper.flags.writeable = False
    return taper


def range_profiles(grid: np.ndarray, window_fn: str = "rect",
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Range profile of each frame: the subcarrier taper, then an
    (unnormalized) inverse DFT over subcarriers, so a return at delay tau
    peaks at bin tau*B.

    The transform acts on the last axis only, so it can run once per frame
    and its rows be shared by every window that holds the frame. The
    profiles go to ``out`` when given: complex128, the grid's shape, and
    possibly the grid itself.
    """
    grid = np.asarray(grid)
    n_sub = grid.shape[-1]
    out = np.empty(grid.shape, complex) if out is None else out
    np.multiply(grid, _axis_window(window_fn, n_sub), out=out)
    np.fft.ifft(out, axis=-1, out=out)
    # The unnormalized sum: an on-bin unit exponential peaks at N.
    out *= n_sub
    return out


def range_doppler(profiles: np.ndarray, cfg: WaveformConfig,
                  window_fn: str = "rect", timestamp_s: float = 0.0,
                  out: Optional[np.ndarray] = None) -> RangeDopplerMap:
    """Map of one window of range profiles (``range_profiles`` of a
    synchronized CSI window, DC-removed before or after that transform).

    The Doppler axis is a forward DFT over frames, peaking at bin fD*M*T,
    after an optional frame taper; the magnitude is written straight into
    center-shifted rows (``fftshift`` without its copy), so Doppler bin 0 is
    the middle row. Under rectangular windows an on-bin unit exponential
    peaks at magnitude M*N.

    The tapered spectrum is worked out in ``out`` when given: complex128,
    the profiles' shape, and possibly the profiles themselves, which are
    then overwritten. The map's ``values`` are always a new array.
    """
    profiles = np.asarray(profiles)
    if profiles.ndim != 2 or profiles.shape[0] < 2 or profiles.shape[1] < 2:
        raise ValueError("need a 2-D grid of at least 2x2")
    taper = _axis_window(window_fn, profiles.shape[0])[:, None]
    spectrum = np.multiply(profiles, taper, out=out)
    np.fft.fft(spectrum, axis=0, out=spectrum)
    # fftshift's rotation: the first (M + 1) // 2 rows move to the end.
    split = (len(spectrum) + 1) // 2
    mag = np.empty(spectrum.shape, dtype=spectrum.real.dtype)
    np.abs(spectrum[:split], out=mag[-split:])
    np.abs(spectrum[split:], out=mag[:-split])
    return RangeDopplerMap.from_config(mag, cfg, timestamp_s)


def _parabolic_offset(left: float, center: float, right: float) -> float:
    denom = left - 2.0 * center + right
    if denom >= 0.0:
        # Flat or non-concave: no reliable vertex.
        return 0.0
    # As with np.clip, NaN stays NaN: max and min return their first
    # argument when no other one compares beyond it.
    return min(max(0.5 * (left - right) / denom, -0.5), 0.5)


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
    here, west, east, north, south = np.log(
        np.maximum(cells, peak * 1e-15)).tolist()
    off_l = _parabolic_offset(west, here, east)
    off_p = _parabolic_offset(north, here, south)
    bin_p = row - rdm.n_doppler // 2
    # keep the estimate inside the physical axes even at edge bins
    velocity_limit = rdm.velocity_scale_mps * rdm.n_doppler / 2.0
    velocity = min(max((bin_p + off_p) * rdm.velocity_scale_mps,
                       -velocity_limit), velocity_limit)
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


def window_maps(capture, cfg: WaveformConfig,
                window: int, stride: int = 1, *,
                apply_sync: bool = True, apply_sic: bool = True,
                window_fn: str = "hann",
                sync_params: Optional[SyncParams] = None,
                sync_reports: Optional[List[SyncReport]] = None
                ) -> Iterator[RangeDopplerMap]:
    """Yield one range-Doppler map per sliding window, center-timestamped.

    ``capture`` is any 2-D frame-by-subcarrier source whose slices are
    arrays: an ndarray, or a ``capture_io.CaptureFile`` that reads each
    slice from disk. It is walked once, in blocks of ``_BLOCK_FRAMES``
    frames, every frame read even past the last window.
    With ``apply_sync`` each block is synchronized (``sync_params``, by
    default ``SyncParams()``) as the continuation of the block before, which
    gives the same bits as one pass over the whole capture; each block's
    report is appended to ``sync_reports`` when it is given, and
    ``SyncReport.concatenate`` of them is the capture's report. Each frame's
    range profile is then taken once, and the profiles later windows need
    (at most ``window - 1`` frames) are carried into the next block, all in
    place in one complex128 buffer of ``window - 1`` plus a block's rows.
    Each window's profiles are DC-removed (mean removal commutes with the
    range transform), tapered and Doppler-transformed in one scratch array
    of ``window`` rows beside that buffer; only each map's ``values`` is
    new. So memory beyond the capture itself (nothing, for a
    ``CaptureFile``) is the buffer, the scratch and one block's read, flat
    in the capture length.
    """
    if capture.ndim != 2:
        raise ValueError("capture must be a 2-D frame-by-subcarrier array")
    starts = window_starts(capture.shape[0], window, stride)
    end = starts[-1] + window  # later frames feed no window
    pending = iter(starts)
    start = next(pending)
    half = (window - 1) / 2.0
    report = None
    # The carried profiles at the head, then each block's frames.
    buffer = np.empty((window - 1 + _BLOCK_FRAMES, capture.shape[1]), complex)
    scratch = np.empty((window, capture.shape[1]), complex)
    carried = 0
    for lo in range(0, capture.shape[0], _BLOCK_FRAMES):
        hi = min(lo + _BLOCK_FRAMES, capture.shape[0])
        first = lo - carried  # the frame of buffer[0]
        # The block's read is not kept: it goes straight into its rows.
        block = buffer[carried:carried + hi - lo]
        if apply_sync:
            _, report = synchronize(capture[lo:hi], sync_params,
                                    prior=report, out=block)
            if sync_reports is not None:
                sync_reports.append(report)
        else:
            block[...] = capture[lo:hi]
        if start is None:
            continue  # past the last window: read for the check and report
        hi = min(hi, end)
        fresh = block[:hi - lo]
        range_profiles(fresh, window_fn, out=fresh)
        while start is not None and start + window <= hi:
            rows = buffer[start - first:start - first + window]
            if apply_sic:
                rows = sic.remove_dc(rows, out=scratch)
            t = (start + half) * cfg.frame_interval_s
            yield range_doppler(rows, cfg, window_fn=window_fn,
                                timestamp_s=t, out=scratch)
            start = next(pending, None)
        if start is not None:  # a stride beyond the window may skip frames
            carried = max(hi - start, 0)
            buffer[:carried] = buffer[hi - first - carried:hi - first]


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
