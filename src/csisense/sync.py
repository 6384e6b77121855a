"""Time-phase synchronization: coarse/fine delay recovery from the peak of
frame 0's impulse response, delay compensation, and frame phase alignment
that removes quantized phase jumps while keeping small drifts. The phase
recursion is plain Python in one fixed order, so its bits do not depend on
numpy's version or build."""
from __future__ import annotations

import cmath
import functools
import math
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

# A 1/1024-sample delay step is under 1 mm of range at 160 MHz.
MAX_UPSAMPLE_FACTOR = 1024

# Frames per block when frame_phases measures magnitudes: 32 KB of float64
# at 512 subcarriers, against 41 MB for a 10000-frame capture at once.
_SCALE_BLOCK_FRAMES = 8


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
        # A deviation of up to pi is counted in steps as a finite float.
        if not math.isfinite(math.pi / float(self.phase_step_rad)):
            raise ValueError(f"phase_step_rad {self.phase_step_rad} is too "
                             "small: pi / phase_step_rad is not finite")
        # The history is a deque, whose length is a C ssize_t.
        if not 1 <= self.history_len <= sys.maxsize:
            raise ValueError(f"history_len must be in [1, {sys.maxsize}]")
        if self.max_lag is not None and self.max_lag < 1:
            raise ValueError("max_lag must be >= 1")


class SyncError(ValueError):
    """A capture that defeats sync: frame 0 has no correlation peak to take
    the delay from."""


@dataclass
class SyncReport:
    """Synchronization outcome of a capture, or of a block of its frames.

    ``history_rad`` holds the last ``history_len`` corrected frame phases,
    oldest first: where the phase recursion of the frames that follow
    starts (see ``synchronize``'s ``prior``). It is not part of the JSON.
    """

    coarse_lag_samples: int = 0
    fine_lag_samples: float = 0.0
    frame_phases_rad: np.ndarray = field(default_factory=lambda: np.zeros(0))
    corrections_rad: np.ndarray = field(default_factory=lambda: np.zeros(0))
    references_rad: np.ndarray = field(default_factory=lambda: np.zeros(0))
    history_rad: Tuple[float, ...] = ()

    @classmethod
    def concatenate(cls, reports: Sequence["SyncReport"]) -> "SyncReport":
        """One report of consecutive blocks, each synchronized with the
        report of the block before as its ``prior``: the report that one
        call over all their frames gives."""
        return cls(
            coarse_lag_samples=reports[0].coarse_lag_samples,
            fine_lag_samples=reports[0].fine_lag_samples,
            frame_phases_rad=np.concatenate(
                [r.frame_phases_rad for r in reports]),
            corrections_rad=np.concatenate(
                [r.corrections_rad for r in reports]),
            references_rad=np.concatenate(
                [r.references_rad for r in reports]),
            history_rad=reports[-1].history_rad)

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
        raise SyncError(f"no correlation peak: {detail}")
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


@functools.lru_cache(maxsize=8)
def _delay_ramp(n_sub: int, lag_samples: float) -> np.ndarray:
    """Read-only per-subcarrier counter-rotation of ``compensate_delay``;
    cached because a block-by-block pass applies one lag to every block."""
    n = np.arange(n_sub)
    ramp = np.exp(2j * np.pi * n * lag_samples / n_sub)
    ramp.flags.writeable = False
    return ramp


def compensate_delay(grid: np.ndarray, lag_samples: float,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Undo a sample-delay offset: counter-rotate each subcarrier's phase so
    the zero-delay return lands on range bin 0; into ``out``, when given,
    as in numpy's ufuncs.

    A given ``out`` is complex128: the grid is copied into it (a complex64
    grid upcast exactly) and rotated there, so no cast of the grid is
    buffered beside it."""
    ramp = _delay_ramp(grid.shape[-1], lag_samples)
    if out is None:
        return np.multiply(grid, ramp)
    np.copyto(out, grid)
    return np.multiply(out, ramp, out=out)


def _wrap(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = angle % (2.0 * math.pi)
    return wrapped - 2.0 * math.pi if wrapped > math.pi else wrapped


def frame_phases(grid: np.ndarray) -> np.ndarray:
    """Average phase of every frame: angle of its complex row mean, (-pi, pi].

    NaN where the phase is undefined: the row's mean vanishes against its
    largest magnitude (below 1e-12 of it), or the row is all zero. The
    largest magnitudes are taken over blocks of frames, so no magnitude
    array of the whole grid is held.
    """
    means = np.mean(grid, axis=-1)
    scale = np.empty(means.shape, np.abs(grid[:0]).dtype)
    for lo in range(0, len(scale), _SCALE_BLOCK_FRAMES):
        block = slice(lo, lo + _SCALE_BLOCK_FRAMES)
        scale[block] = np.max(np.abs(grid[block]), axis=-1)
    undefined = (scale == 0.0) | (np.abs(means) < 1e-12 * scale)
    return np.where(undefined, np.nan, np.angle(means))


def align_phases(grid: np.ndarray,
                 params: Optional[SyncParams] = None, *,
                 prior: Optional[SyncReport] = None,
                 out: Optional[np.ndarray] = None
                 ) -> Tuple[np.ndarray, SyncReport]:
    """Remove abrupt per-frame phase jumps, frame 0 as the reference.

    For each later frame the deviation from the running reference (mean of
    the previous ``history_len`` corrected frame phases) is quantized to
    the nearest multiple of ``phase_step_rad`` and the whole frame is
    counter-rotated by that multiple. Deviations below half a step are left
    untouched, so genuine Doppler progression and small drifts survive.
    A frame whose phase is undefined (see ``frame_phases``) takes the
    previous corrected phase, or 0 for frame 0. Magnitudes are never altered.

    With ``prior``, the report of the frames just before ``grid`` (aligned
    with the same ``params``), ``grid`` continues that capture: its first
    frame is a later frame, and the recursion starts from
    ``prior.history_rad``. So aligning a capture block by block gives the
    same bits as one call, and each report covers its own block.

    As in numpy's ufuncs, ``out`` receives the aligned grid and is returned;
    pass the (complex128) input itself to align it in place. By default a
    new array is returned and the input is left as it was.

    Frame phases are measured in one vectorized pass and the fixes applied
    in one product; only the recursion between them runs per frame, in
    plain Python in one fixed order.
    """
    p = params if params is not None else SyncParams()
    grid = np.asarray(grid, dtype=complex)
    delta = p.phase_step_rad
    # A fix never changes its own frame's observed phase, so every phase
    # can be measured before any fix is applied.
    observed = frame_phases(grid).tolist()
    if prior is None:
        last = 0.0 if math.isnan(observed[0]) else observed[0]
        raw, fixes, refs = [last], [0.0], [last]
        history, observed = [last], observed[1:]
    else:
        if not prior.history_rad:
            raise ValueError("prior report holds no phase history")
        history = prior.history_rad
        last = history[-1]
        raw, fixes, refs = [], [], []
    # The last history_len corrected phases, and their unit vectors.
    tail = deque(history, maxlen=p.history_len)
    recent = deque((cmath.rect(1.0, phase) for phase in tail),
                   maxlen=p.history_len)
    for theta in observed:
        if math.isnan(theta):
            theta = last
        # A fold, not sum(), whose rounding changed in CPython 3.12.
        total = 0j
        for vec in recent:
            total += vec
        mean = total / len(recent)
        reference = (last if abs(mean) < 1e-12
                     else math.atan2(mean.imag, mean.real))
        steps = _wrap(reference - theta) / delta
        fix = math.copysign(float(round(steps)), steps) * delta
        last = _wrap(theta + fix)
        tail.append(last)
        recent.append(cmath.rect(1.0, last))
        raw.append(theta)
        fixes.append(fix)
        refs.append(reference)
    report = SyncReport(frame_phases_rad=np.array(raw),
                        corrections_rad=np.array(fixes),
                        references_rad=np.array(refs),
                        history_rad=tuple(tail))
    rotation = np.exp(1j * report.corrections_rad)[:, None]
    return np.multiply(grid, rotation, out=out), report


def synchronize(grid: np.ndarray, params: Optional[SyncParams] = None, *,
                prior: Optional[SyncReport] = None,
                out: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, SyncReport]:
    """Full sync pass over a capture, or over a block of its frames: delay
    estimate from the dominant (zero-delay coupling) return, compensation,
    then phase alignment.

    The delay is the strongest tap of frame 0's impulse response (its
    sample sequence), first to the sample, then to 1/upsample_factor;
    ``SyncError`` when that frame has no peak to take it from.

    With ``prior``, the report of the frames just before ``grid`` (from a
    call with the same ``params``), ``grid`` continues that capture: the
    prior's lags stand, and the phase recursion carries on from its last
    corrected phases (see ``align_phases``). So synchronizing a capture
    block by block gives the same bits as one call; each report covers its
    own block, and ``SyncReport.concatenate`` of them equals the one call's
    report. The result goes to ``out``, a complex128 array of the grid's
    shape that may be ``grid`` itself, or by default to a new array; no
    other complex array of the grid's size is made.
    """
    p = params if params is not None else SyncParams()
    grid = np.asarray(grid)
    if grid.ndim != 2 or grid.shape[0] < 1:
        raise ValueError("need a non-empty 2-D frame-by-subcarrier grid")
    if prior is None:
        n = grid.shape[-1]
        max_lag = p.max_lag if p.max_lag is not None else max(1, n // 4)
        received = time_domain(grid[0].astype(complex))
        coarse = coarse_delay(received, max_lag)
        fine = fine_delay(received, coarse, p.upsample_factor)
    else:
        coarse, fine = prior.coarse_lag_samples, prior.fine_lag_samples
    # compensate_delay upcasts a complex64 grid exactly, into out when it is
    # given, and phase alignment rotates the result in place.
    grid = compensate_delay(grid, coarse + fine, out=out)
    grid, report = align_phases(grid, p, prior=prior, out=grid)
    report.coarse_lag_samples = int(coarse)
    report.fine_lag_samples = float(fine)
    return grid, report
