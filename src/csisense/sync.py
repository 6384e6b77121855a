"""Time-phase synchronization: coarse/fine delay recovery from the peak of
frame 0's impulse response, delay compensation, and frame phase alignment
that removes quantized phase jumps while keeping small drifts."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

# A 1/1024-sample delay step is under 1 mm of range at 160 MHz.
MAX_UPSAMPLE_FACTOR = 1024


@dataclass(frozen=True)
class SyncParams:
    """Knobs for delay search and phase alignment.

    upsample_factor: sub-sample delay granularity is 1/upsample_factor,
        at most 1/MAX_UPSAMPLE_FACTOR.
    phase_step_rad: jump quantum; corrections are integer multiples of it.
    history_len: frames averaged into the phase reference.
    max_lag: coarse search half-width in samples (default n_subcarriers/4).
    """

    upsample_factor: int = 16
    phase_step_rad: float = np.pi / 2
    history_len: int = 5
    max_lag: Optional[int] = None

    def __post_init__(self):
        if not 1 <= self.upsample_factor <= MAX_UPSAMPLE_FACTOR:
            raise ValueError(f"upsample_factor must be in "
                             f"[1, {MAX_UPSAMPLE_FACTOR}]")
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


def _strongest_tap(sequence: np.ndarray, center: int,
                   half_width: int) -> Tuple[int, float]:
    """The lag within ``half_width`` of ``center`` where |sequence| peaks,
    indices wrapping around, and that peak magnitude. Ties resolve toward
    the lag nearest ``center``, the smaller one first."""
    steps = np.arange(2 * half_width + 1)
    offsets = np.where(steps % 2, -1, 1) * ((steps + 1) // 2)  # 0, -1, 1, ...
    mags = np.abs(sequence[(center + offsets) % len(sequence)])
    best = int(np.argmax(mags))
    return center + int(offsets[best]), float(mags[best])


def coarse_delay(received_time: np.ndarray, max_lag: int) -> int:
    """Integer delay of the strongest tap of one frame's sample sequence,
    searched over [-max_lag, max_lag]."""
    n = len(received_time)
    if not 1 <= max_lag < n:
        raise ValueError(f"max_lag must be in [1, {n})")
    lag, peak = _strongest_tap(received_time, 0, int(max_lag))
    if peak == 0.0:
        detail = ("received sequence is all zero" if not np.any(received_time)
                  else f"no tap within +-{max_lag} is nonzero; the strongest "
                  "tap lies beyond max_lag")
        raise ValueError(f"no correlation peak: {detail}")
    return lag


def _upsample(x: np.ndarray, factor: int) -> np.ndarray:
    """Spectral zero-padding interpolation for sequences whose spectrum
    occupies DFT bins 0..N-1 (the inverse-DFT-of-a-CSI-row convention)."""
    spectrum = np.pad(np.fft.fft(x), (0, (factor - 1) * len(x)))
    return np.fft.ifft(spectrum) * factor


def fine_delay(received_time: np.ndarray, coarse_lag: int,
               upsample_factor: int) -> float:
    """Sub-sample refinement around ``coarse_lag``: the strongest tap of the
    upsampled sequence within one sample of it; |result| <= 1 sample."""
    if upsample_factor < 1:
        raise ValueError("upsample_factor must be >= 1")
    if upsample_factor == 1:
        return 0.0
    u = int(upsample_factor)
    # Upsampling can flush a subnormal sequence to zero; with no fine peak
    # the coarse lag stands (offset 0 comes first in the tie order).
    lag, _ = _strongest_tap(_upsample(received_time, u), coarse_lag * u, u)
    return (lag - coarse_lag * u) / u


def compensate_delay(grid: np.ndarray, lag_samples: float) -> np.ndarray:
    """Undo a sample-delay offset: counter-rotate each subcarrier's phase so
    the zero-delay return lands on range bin 0."""
    n = np.arange(grid.shape[-1])
    return grid * np.exp(2j * np.pi * n * lag_samples / grid.shape[-1])


def _wrap(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = np.mod(angle, 2.0 * np.pi)
    return wrapped - 2.0 * np.pi if wrapped > np.pi else wrapped


def frame_phases(grid: np.ndarray) -> np.ndarray:
    """Average phase of every frame: angle of its complex row mean, (-pi, pi].

    NaN where the phase is undefined: the row's mean vanishes against its
    largest magnitude (below 1e-12 of it), or the row is all zero.
    """
    means = np.mean(grid, axis=-1)
    scale = np.max(np.abs(grid), axis=-1)
    undefined = (scale == 0.0) | (np.abs(means) < 1e-12 * scale)
    return np.where(undefined, np.nan, np.angle(means))


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
    A frame whose phase is undefined (see ``frame_phases``) takes the
    previous corrected phase, or 0 for frame 0. Magnitudes are never altered.
    """
    p = params if params is not None else SyncParams()
    grid = np.asarray(grid, dtype=complex)
    delta = p.phase_step_rad
    # A fix never changes its own frame's observed phase, so every phase
    # can be measured before any fix is applied.
    observed = frame_phases(grid).tolist()
    theta0 = 0.0 if math.isnan(observed[0]) else observed[0]
    raw, corrected, fixes, refs = [theta0], [theta0], [0.0], [theta0]
    for theta in observed[1:]:
        if math.isnan(theta):
            theta = corrected[-1]
        reference = _circular_mean(np.array(corrected[-p.history_len:]))
        fix = float(np.round(_wrap(reference - theta) / delta) * delta)
        raw.append(theta)
        corrected.append(_wrap(theta + fix))
        fixes.append(fix)
        refs.append(reference)
    report = SyncReport(frame_phases_rad=np.array(raw),
                        corrections_rad=np.array(fixes),
                        references_rad=np.array(refs))
    return grid * np.exp(1j * report.corrections_rad)[:, None], report


def synchronize(grid: np.ndarray, params: Optional[SyncParams] = None
                ) -> Tuple[np.ndarray, SyncReport]:
    """Full sync pass over a capture: delay estimate from the dominant
    (zero-delay coupling) return, compensation, then phase alignment.

    The delay is the strongest tap of frame 0's impulse response (its
    sample sequence), first to the sample, then to 1/upsample_factor.
    """
    p = params if params is not None else SyncParams()
    grid = np.asarray(grid)
    if grid.ndim != 2 or grid.shape[0] < 1:
        raise ValueError("need a non-empty 2-D frame-by-subcarrier grid")
    n = grid.shape[-1]
    max_lag = p.max_lag if p.max_lag is not None else max(1, n // 4)
    received = time_domain(grid[0].astype(complex))
    coarse = coarse_delay(received, max_lag)
    fine = fine_delay(received, coarse, p.upsample_factor)
    # compensate_delay's product upcasts a complex64 grid exactly, and
    # rebinding frees each stage's input: at most two full copies are live.
    grid = compensate_delay(grid, coarse + fine)
    grid, report = align_phases(grid, p)
    report.coarse_lag_samples = int(coarse)
    report.fine_lag_samples = float(fine)
    return grid, report
