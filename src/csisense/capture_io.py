"""Capture file format, trajectory CSV ingestion, and export writers.

Capture layout: a 38-byte little-endian header (magic ``CSIF``, version u16,
n_subcarriers u32, total frames u32, carrier Hz f64, spacing Hz f64, frame
interval s f64) followed by frame-major complex entries, each two 32-bit
floats (real then imaginary).
"""
from __future__ import annotations

import csv
import json
import os
import struct
from dataclasses import dataclass
from typing import IO, List, Optional, Sequence, Tuple

import numpy as np

from . import gridcsv
from .rdmap import Detection, DopplerTimeProfile, RangeDopplerMap
from .sync import SyncReport
from .waveform import WaveformConfig

MAGIC = b"CSIF"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIIddd")
# The header's subcarrier and frame counts are u32.
MAX_COUNT = 2 ** 32 - 1
_ENTRY_BYTES = 8  # two float32 per complex entry
# Samples per block of frames when checking for non-finite values, so the
# check holds a 64 KB flag array rather than one flag per sample.
_FINITE_BLOCK_SAMPLES = 2 ** 16


class CaptureFormatError(Exception):
    """Malformed capture or trajectory file."""


@dataclass(frozen=True)
class CaptureHeader:
    """Waveform metadata carried by a capture file."""

    n_subcarriers: int
    n_frames: int
    carrier_freq_hz: float
    subcarrier_spacing_hz: float
    frame_interval_s: float


def write_capture(path, cfg: WaveformConfig, frames: np.ndarray) -> int:
    """Write a (frames, subcarriers) array as one capture file; returns the
    frame count written. A sample that is not finite as complex64 raises
    ``CaptureFormatError`` before the file is opened."""
    with np.errstate(over="ignore"):  # an overflow is reported below
        frames = np.asarray(frames, dtype="<c8")
    if frames.ndim != 2 or frames.shape[1] != cfg.n_subcarriers:
        raise CaptureFormatError(
            f"capture of shape {frames.shape} does not have "
            f"{cfg.n_subcarriers} entries per frame")
    _check_finite(frames, " as complex64")
    with open(path, "wb") as fh:
        fh.write(_pack_header(cfg, frames.shape[0]))
        frames.tofile(fh)  # from the array's memory, with no bytes copy
    return frames.shape[0]


def _check_finite(frames: np.ndarray, detail: str = "",
                  first: int = 0) -> None:
    """Raise on the first non-finite sample in file order, checking a block
    of frames at a time; ``frames[0]`` is frame ``first`` of the file."""
    step = max(1, _FINITE_BLOCK_SAMPLES // frames.shape[1])
    for lo in range(0, len(frames), step):
        finite = np.isfinite(frames[lo:lo + step])
        if not finite.all():
            index, bad = np.argwhere(~finite)[0]
            raise CaptureFormatError(
                f"non-finite sample at frame {first + lo + index}, "
                f"subcarrier {bad}{detail}")


def _pack_header(cfg: WaveformConfig, n_frames: int) -> bytes:
    return _HEADER.pack(MAGIC, FORMAT_VERSION, cfg.n_subcarriers, n_frames,
                        cfg.carrier_freq_hz, cfg.subcarrier_spacing_hz,
                        cfg.frame_interval_s)


def read_header(fh: IO[bytes]) -> CaptureHeader:
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise CaptureFormatError("file too short for capture header")
    magic, version, n_sub, n_frames, f_c, spacing, interval = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise CaptureFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise CaptureFormatError(f"unsupported format version {version}")
    if n_sub == 0 or not all(0 < x < np.inf
                             for x in (f_c, spacing, interval)):
        raise CaptureFormatError("non-positive or non-finite header field")
    return CaptureHeader(n_subcarriers=n_sub, n_frames=n_frames,
                         carrier_freq_hz=f_c, subcarrier_spacing_hz=spacing,
                         frame_interval_s=interval)


def read_capture_array(path, start: int = 0, stop: Optional[int] = None
                       ) -> Tuple[CaptureHeader, np.ndarray]:
    """Frames ``[start, stop)`` of a capture as an (frames, n_subcarriers)
    complex64 array; by default the whole capture.

    Each call opens the file and checks, in this order: the header; the
    file's length against the header, from its size before any sample is
    allocated or read, so a truncated or padded file is refused whatever the
    range and a header that overstates the frame or subcarrier count costs
    no memory; the range; then the first non-finite sample in the range,
    named by frame and subcarrier."""
    with open(path, "rb") as fh:
        header = read_header(fh)
        frame_bytes = header.n_subcarriers * _ENTRY_BYTES
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        whole, rest = divmod(payload, frame_bytes)
        if whole < header.n_frames:
            raise CaptureFormatError(
                f"truncated at frame {whole}: expected {frame_bytes} bytes, "
                f"got {rest}")
        if payload > header.n_frames * frame_bytes:
            raise CaptureFormatError(
                f"payload continues past the {header.n_frames} frames the "
                f"header declares")
        stop = header.n_frames if stop is None else stop
        if not 0 <= start <= stop <= header.n_frames:
            raise ValueError(f"frames [{start}, {stop}) are not within the "
                             f"capture's {header.n_frames}")
        frames = np.empty((stop - start, header.n_subcarriers), dtype="<c8")
        fh.seek(_HEADER.size + start * frame_bytes)
        if fh.readinto(frames) != frames.nbytes:
            raise CaptureFormatError("capture shrank while it was read")
    _check_finite(frames, first=start)
    return header, frames


class CaptureFile:
    """A capture as a source of frames read from disk on demand:
    ``cap[lo:hi]`` is ``read_capture_array(path, lo, hi)``'s array.

    Opening is a read of no frames, so it checks the header and then the
    file's length against it, and a truncated or padded file is refused
    before any sample is read; a non-finite sample is refused by the read
    of the frames that hold it. No file stays open between reads."""

    ndim = 2

    def __init__(self, path):
        self.path = path
        self.header = read_capture_array(path, 0, 0)[0]
        self.shape = (self.header.n_frames, self.header.n_subcarriers)

    def __getitem__(self, frames: slice) -> np.ndarray:
        if not isinstance(frames, slice):
            raise TypeError(f"frames are read as a slice, cap[lo:hi], "
                            f"not {frames!r}")
        start, stop, step = frames.indices(self.shape[0])
        if step != 1:
            raise ValueError("frames are read as a contiguous range")
        return read_capture_array(self.path, start, stop)[1]


@dataclass(frozen=True)
class Trajectory:
    """Ground-truth track with linear interpolation between samples."""

    times_s: np.ndarray
    ranges_m: np.ndarray
    velocities_mps: np.ndarray

    def range_at(self, t) -> np.ndarray:
        return np.interp(t, self.times_s, self.ranges_m)

    def velocity_at(self, t) -> np.ndarray:
        return np.interp(t, self.times_s, self.velocities_mps)


_TRUTH_FIELDS = ["t", "range_m", "velocity_mps"]


def read_ground_truth(path) -> Trajectory:
    """Parse a truth CSV with header ``t,range_m,velocity_mps``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _TRUTH_FIELDS:
            raise CaptureFormatError(
                f"truth file must start with header {','.join(_TRUTH_FIELDS)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise CaptureFormatError(f"line {lineno}: expected 3 columns")
            try:
                values = tuple(float(x) for x in row)
            except ValueError as exc:
                raise CaptureFormatError(f"line {lineno}: {exc}") from exc
            if not np.isfinite(values).all():
                raise CaptureFormatError(f"line {lineno}: non-finite value")
            rows.append(values)
    if not rows:
        raise CaptureFormatError("truth file has no data rows")
    times = np.array([r[0] for r in rows])
    if np.any(times[1:] <= times[:-1]):  # np.diff can overflow
        raise CaptureFormatError("truth timestamps must be strictly increasing")
    return Trajectory(times_s=times,
                      ranges_m=np.array([r[1] for r in rows]),
                      velocities_mps=np.array([r[2] for r in rows]))


def write_ground_truth(path, trajectory: Trajectory) -> None:
    gridcsv.write_grid_csv(path, _TRUTH_FIELDS[0], _TRUTH_FIELDS[1:],
                           trajectory.times_s.tolist(),
                           np.column_stack((trajectory.ranges_m,
                                            trajectory.velocities_mps)
                                           ).tolist())


def map_csv_grid(rdm: RangeDopplerMap) -> tuple:
    """A map CSV's corner label, range labels, velocity labels and rows of
    magnitudes, as ``gridcsv`` writes or sends them."""
    return ("velocity_mps",
            (np.arange(rdm.n_range) * rdm.range_scale_m).tolist(),
            (rdm.doppler_bins() * rdm.velocity_scale_mps).tolist(),
            rdm.values.tolist())


def write_map_csv(path, rdm: RangeDopplerMap) -> None:
    """Magnitude map as CSV: range header row, velocity header column."""
    gridcsv.write_grid_csv(path, *map_csv_grid(rdm))


def _to_pgm(values_db: np.ndarray) -> bytes:
    lo, hi = float(np.min(values_db)), float(np.max(values_db))
    span = hi - lo if hi > lo else 1.0
    pixels = np.round((values_db - lo) / span * 255.0).astype(np.uint8)
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode()
    return header + pixels.tobytes()


def write_map_pgm(path, rdm: RangeDopplerMap) -> None:
    """Log-magnitude map as 8-bit binary PGM, normalized per map."""
    mag = rdm.values
    floor = np.max(mag) * 1e-9 if np.max(mag) > 0 else 1.0
    db = 20.0 * np.log10(np.maximum(mag, floor))
    with open(path, "wb") as fh:
        fh.write(_to_pgm(db))


def write_profile_pgm(path, profile: DopplerTimeProfile) -> None:
    """Doppler-time energy as 8-bit binary PGM in dB, one column per window,
    normalized over the whole profile."""
    energy = profile.values
    floor = np.max(energy) * 1e-12 if np.max(energy) > 0 else 1.0
    db = 10.0 * np.log10(np.maximum(energy, floor))
    with open(path, "wb") as fh:
        fh.write(_to_pgm(db))


def write_profile_csv(path, profile: DopplerTimeProfile) -> None:
    """Doppler-time profile as CSV: window-time header row, velocity column."""
    gridcsv.write_grid_csv(
        path, "velocity_mps", profile.window_times_s.tolist(),
        (profile.doppler_bins() * profile.velocity_scale_mps).tolist(),
        profile.values.tolist())


def write_detections_jsonl(path, detections: Sequence[Detection]) -> None:
    with open(path, "w") as fh:
        for det in detections:
            fh.write(json.dumps(det.to_json_dict()) + "\n")


def read_detections_jsonl(path) -> List[dict]:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except ValueError as exc:  # or an int past the digit limit
                raise CaptureFormatError(f"line {lineno}: {exc}") from exc
    return out


def write_sync_report_json(path, report: SyncReport) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
