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
from typing import IO, List, Sequence, Tuple

import numpy as np

from .rdmap import Detection, DopplerTimeProfile, RangeDopplerMap
from .sync import SyncReport
from .waveform import WaveformConfig

MAGIC = b"CSIF"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIIddd")
# The header's subcarrier and frame counts are u32.
MAX_COUNT = 2 ** 32 - 1
_ENTRY_BYTES = 8  # two float32 per complex entry


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
        fh.write(frames.tobytes())
    return frames.shape[0]


def _check_finite(frames: np.ndarray, detail: str = "") -> None:
    finite = np.isfinite(frames)
    if not finite.all():
        index, bad = np.argwhere(~finite)[0]
        raise CaptureFormatError(
            f"non-finite sample at frame {index}, subcarrier {bad}{detail}")


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


def read_capture_array(path) -> Tuple[CaptureHeader, np.ndarray]:
    """Whole capture as an (n_frames, n_subcarriers) complex64 array.

    The payload is sized from the file's length before it is read, so a
    header that overstates the frame or subcarrier count allocates no more
    than the file holds. Faults raise in file order: a non-finite sample (named by frame
    and subcarrier), then a truncated frame, then bytes past the header's
    last frame."""
    with open(path, "rb") as fh:
        header = read_header(fh)
        frame_bytes = header.n_subcarriers * _ENTRY_BYTES
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        whole = min(header.n_frames, payload // frame_bytes)
        frames = np.fromfile(fh, dtype="<c8",
                             count=whole * header.n_subcarriers)
    frames = frames.reshape(whole, header.n_subcarriers)
    _check_finite(frames)
    if whole < header.n_frames:
        raise CaptureFormatError(
            f"truncated at frame {whole}: expected {frame_bytes} bytes, "
            f"got {payload - whole * frame_bytes}")
    if payload > whole * frame_bytes:
        raise CaptureFormatError(
            f"payload continues past the {header.n_frames} frames the "
            f"header declares")
    return header, frames


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
    if np.any(np.diff(times) <= 0):
        raise CaptureFormatError("truth timestamps must be strictly increasing")
    return Trajectory(times_s=times,
                      ranges_m=np.array([r[1] for r in rows]),
                      velocities_mps=np.array([r[2] for r in rows]))


def write_ground_truth(path, trajectory: Trajectory) -> None:
    _write_grid_csv(path, _TRUTH_FIELDS[0], _TRUTH_FIELDS[1:],
                    trajectory.times_s.tolist(),
                    np.column_stack((trajectory.ranges_m,
                                     trajectory.velocities_mps)))


def _write_grid_csv(path, corner: str, column_labels: Sequence[float],
                    row_labels: Sequence[float], values: np.ndarray) -> None:
    """Labelled grid as CSV, one CRLF-ended row per row label. ``str`` of a
    Python float is its ``repr``, so every number parses back exactly."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(str, (corner, *column_labels))) + "\r\n")
        for label, row in zip(row_labels, values.tolist()):
            fh.write(",".join(map(str, (label, *row))) + "\r\n")


def write_map_csv(path, rdm: RangeDopplerMap) -> None:
    """Magnitude map as CSV: range header row, velocity header column."""
    _write_grid_csv(path, "velocity_mps",
                    (np.arange(rdm.n_range) * rdm.range_scale_m).tolist(),
                    (rdm.doppler_bins() * rdm.velocity_scale_mps).tolist(),
                    rdm.values)


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
    _write_grid_csv(
        path, "velocity_mps", profile.window_times_s.tolist(),
        (profile.doppler_bins() * profile.velocity_scale_mps).tolist(),
        profile.values)


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
            except json.JSONDecodeError as exc:
                raise CaptureFormatError(f"line {lineno}: {exc}") from exc
    return out


def write_sync_report_json(path, report: SyncReport) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
