"""Time-phase synchronization: coarse/fine delay recovery by correlation
against a zero-delay reference, delay compensation, and frame phase
alignment that removes quantized phase jumps while keeping small drifts."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class SyncParams:
    """Knobs for delay search and phase alignment.

    upsample_factor: sub-sample delay granularity is 1/upsample_factor.
    phase_step_rad: jump quantum; corrections are integer multiples of it.
    history_len: frames averaged into the phase reference.
    max_lag: coarse search half-width in samples (default n_subcarriers/4).
    """

    upsample_factor: int = 16
    phase_step_rad: float = np.pi / 2
    history_len: int = 5
    max_lag: Optional[int] = None

    def __post_init__(self):
        if self.upsample_factor < 1:
            raise ValueError("upsample_factor must be >= 1")
        if not 0.0 < self.phase_step_rad <= np.pi:
            raise ValueError("phase_step_rad must be in (0, pi]")
        if self.history_len < 1:
            raise ValueError("history_len must be >= 1")
        if self.max_lag is not None and self.max_lag < 1:
            raise ValueError("max_lag must be >= 1")


@dataclass
class SyncReport:
    """Per-capture synchronization outcome."""

    coarse_lag_samples: int = 0
    fine_lag_samples: float = 0.0
    frame_phases_rad: np.ndarray = field(default_factory=lambda: np.zeros(0))
    corrections_rad: np.ndarray = field(default_factory=lambda: np.zeros(0))
    references_rad: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def effective_lag_samples(self) -> float:
        return self.coarse_lag_samples + self.fine_lag_samples

    def to_json_dict(self) -> dict:
        return {
            "coarse_lag_samples": int(self.coarse_lag_samples),
            "fine_lag_samples": float(self.fine_lag_samples),
            "effective_lag_samples": float(self.effective_lag_samples),
            "frame_phases_rad": [float(x) for x in self.frame_phases_rad],
            "corrections_rad": [float(x) for x in self.corrections_rad],
            "references_rad": [float(x) for x in self.references_rad],
        }


def time_domain(grid: np.ndarray) -> np.ndarray:
    """Per-frame sample sequences: inverse DFT along the subcarrier axis."""
    return np.fft.ifft(grid, axis=-1)


def reference_time_sequence(n_subcarriers: int) -> np.ndarray:
    """Sample-domain reference for CSI grids (ideal channel: flat spectrum)."""
    return np.fft.ifft(np.ones(n_subcarriers))


def _ordered_lags(half_width: int) -> list:
    # Ties resolve toward smaller |lag|, negative before positive.
    return sorted(range(-half_width, half_width + 1),
                  key=lambda l: (abs(l), l > 0))


def _lag_magnitudes(reference: np.ndarray, received: np.ndarray,
                    lags: list) -> np.ndarray:
    """|C(l)| per candidate lag, summed over received rows.

    C(l) = sum_s conj(reference[s]) * received[s + l], circular in s.
    """
    rows = np.atleast_2d(received)
    mags = np.empty(len(lags))
    for i, lag in enumerate(lags):
        shifted = np.roll(rows, -lag, axis=-1)
        mags[i] = np.sum(np.abs(shifted @ np.conj(reference)))
    return mags


def coarse_delay(reference_time: np.ndarray, received_time: np.ndarray,
                 max_lag: int) -> int:
    """Integer delay of the strongest return, searched over [-max_lag, max_lag].

    Both inputs are sample-domain sequences; ``received_time`` may be a
    frame stack, in which case correlation magnitudes are summed over
    frames before the peak search.
    """
    n = np.atleast_2d(received_time).shape[-1]
    if not 1 <= max_lag < n:
        raise ValueError(f"max_lag must be in [1, {n})")
    lags = _ordered_lags(int(max_lag))
    mags = _lag_magnitudes(reference_time, received_time, lags)
    if np.max(mags) == 0.0:
        raise ValueError("no correlation peak: received sequence is all zero")
    return lags[int(np.argmax(mags))]


def _upsample(x: np.ndarray, factor: int) -> np.ndarray:
    """Spectral zero-padding interpolation for sequences whose spectrum
    occupies DFT bins 0..N-1 (the inverse-DFT-of-a-symbol-grid convention)."""
    spectrum = np.fft.fft(x, axis=-1)
    pad = [(0, 0)] * (spectrum.ndim - 1) + [(0, (factor - 1) * x.shape[-1])]
    return np.fft.ifft(np.pad(spectrum, pad), axis=-1) * factor


def fine_delay(reference_time: np.ndarray, received_time: np.ndarray,
               coarse_lag: int, upsample_factor: int) -> float:
    """Sub-sample refinement around ``coarse_lag``; |result| <= 1 sample."""
    if upsample_factor < 1:
        raise ValueError("upsample_factor must be >= 1")
    if upsample_factor == 1:
        return 0.0
    u = int(upsample_factor)
    ref_up = _upsample(reference_time, u)
    recv_up = _upsample(received_time, u)
    offsets = _ordered_lags(u)
    lags = [coarse_lag * u + off for off in offsets]
    mags = _lag_magnitudes(ref_up, recv_up, lags)
    if np.max(mags) == 0.0:
        raise ValueError("no correlation peak: received sequence is all zero")
    return offsets[int(np.argmax(mags))] / u


def compensate_delay(grid: np.ndarray, lag_samples: float) -> np.ndarray:
    """Undo a sample-delay offset: counter-rotate each subcarrier's phase so
    the zero-delay return lands on range bin 0."""
    if lag_samples == 0.0:
        return grid.copy()
    n = np.arange(grid.shape[-1])
    return grid * np.exp(2j * np.pi * n * lag_samples / grid.shape[-1])


def _wrap(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = np.mod(angle, 2.0 * np.pi)
    return wrapped - 2.0 * np.pi if wrapped > np.pi else wrapped


def frame_phase(grid: np.ndarray, frame: int) -> float:
    """Average phase of one frame: angle of the complex row mean, (-pi, pi]."""
    row = np.atleast_2d(grid)[frame]
    mean = np.mean(row)
    scale = np.max(np.abs(row))
    if scale == 0.0 or np.abs(mean) < 1e-12 * scale:
        raise ValueError(f"frame {frame} has zero mean; phase undefined")
    return float(np.angle(mean))


def _circular_mean(angles: np.ndarray) -> float:
    vec = np.mean(np.exp(1j * np.asarray(angles)))
    if np.abs(vec) < 1e-12:
        return float(angles[-1])
    return float(np.angle(vec))


def align_phases(grid: np.ndarray,
                 params: Optional[SyncParams] = None
                 ) -> Tuple[np.ndarray, SyncReport]:
    """Remove abrupt per-frame phase jumps, frame 0 as the reference.

    For each later frame the deviation from the running reference (mean of
    the previous ``history_len`` corrected frame phases) is quantized to
    the nearest multiple of ``phase_step_rad`` and the whole frame is
    counter-rotated by that multiple. Deviations below half a step are left
    untouched, so genuine Doppler progression and small drifts survive.
    Magnitudes are never altered.
    """
    p = params if params is not None else SyncParams()
    out = np.array(grid, dtype=complex, copy=True)
    n_frames = out.shape[0]
    delta = p.phase_step_rad

    def observed(index: int, fallback: float) -> float:
        try:
            return frame_phase(out, index)
        except ValueError:
            return fallback

    theta0 = observed(0, 0.0)
    raw = [theta0]
    corrected = [theta0]
    fixes = [0.0]
    refs = [theta0]
    for m in range(1, n_frames):
        theta = observed(m, corrected[-1])
        reference = _circular_mean(np.array(corrected[-p.history_len:]))
        fix = np.round(_wrap(reference - theta) / delta) * delta
        if fix != 0.0:
            out[m] *= np.exp(1j * fix)
        raw.append(theta)
        corrected.append(_wrap(theta + fix))
        fixes.append(float(fix))
        refs.append(reference)
    report = SyncReport(frame_phases_rad=np.array(raw),
                        corrections_rad=np.array(fixes),
                        references_rad=np.array(refs))
    return out, report


def synchronize(grid: np.ndarray, params: Optional[SyncParams] = None
                ) -> Tuple[np.ndarray, SyncReport]:
    """Full sync pass over a capture: delay estimate from the dominant
    (zero-delay coupling) return, compensation, then phase alignment.

    The delay is found by correlating frame 0's sample sequence against the
    ideal-channel reference, which is correct for CSI grids.
    """
    p = params if params is not None else SyncParams()
    grid = np.asarray(grid, dtype=complex)
    if grid.ndim != 2 or grid.shape[0] < 1:
        raise ValueError("need a non-empty 2-D frame-by-subcarrier grid")
    n = grid.shape[-1]
    max_lag = p.max_lag if p.max_lag is not None else max(1, n // 4)
    reference = reference_time_sequence(n)
    received = time_domain(grid[0])
    coarse = coarse_delay(reference, received, max_lag)
    fine = fine_delay(reference, received, coarse, p.upsample_factor)
    # Rebinding frees each stage's input, so at most two full copies are live.
    grid = compensate_delay(grid, coarse + fine)
    grid, report = align_phases(grid, p)
    report.coarse_lag_samples = int(coarse)
    report.fine_lag_samples = float(fine)
    return grid, report
