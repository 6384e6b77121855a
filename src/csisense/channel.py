"""Point-target scene simulator: CSI rows per frame and subcarrier, and a
brute-force spectrum oracle used to validate the FFT pipeline."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .rdmap import RangeDopplerMap
from .waveform import (SPEED_OF_LIGHT, WaveformConfig, db_to_linear,
                       unambiguous_limits)


@dataclass(frozen=True)
class Target:
    """Point reflector with constant range, radial velocity, and complex gain.

    Velocity is the range rate: positive when the target recedes.
    """

    range_m: float
    velocity_mps: float
    gain: complex = 1.0 + 0.0j


@dataclass(frozen=True)
class Impairments:
    """Receiver non-idealities applied to a capture.

    The sample-clock offset is constant over a capture; the per-frame phase
    error is a random walk of occasional quantized jumps (integer multiples
    of ``phase_jump_step_rad``) plus Gaussian drift. The generator is a
    synthetic model of the abrupt frame-to-frame discontinuities seen on
    real NICs; the hardware's true statistics are not characterized.
    """

    delay_offset_samples: float = 0.0
    phase_jump_step_rad: float = 0.0
    phase_jump_prob: float = 0.0
    phase_drift_std_rad: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.phase_jump_prob <= 1.0:
            raise ValueError("phase_jump_prob must be in [0, 1]")
        if self.phase_jump_prob > 0 and self.phase_jump_step_rad <= 0:
            raise ValueError("phase_jump_step_rad must be > 0 when jumps enabled")
        if self.phase_drift_std_rad < 0:
            raise ValueError("phase_drift_std_rad must be >= 0")

    @property
    def active(self) -> bool:
        return (self.delay_offset_samples != 0.0 or self.phase_jump_prob > 0.0
                or self.phase_drift_std_rad > 0.0)


@dataclass(frozen=True)
class Scene:
    """Ground truth for one capture: movers, optional Tx/Rx coupling leakage,
    static clutter, noise level, and receiver impairments.

    ``snr_db`` is per grid entry, referenced to the strongest non-coupling
    target, so a noisy scene needs one; None means noiseless. Every gain's
    power |gain|**2 and the noise factor 10**(-snr_db/10) must be finite
    floats. Clutter must be static. The coupling entry, when present, must
    sit at zero range and velocity and carry the largest gain magnitude in
    the scene.
    """

    targets: Sequence[Target] = ()
    coupling: Optional[Target] = None
    clutter: Sequence[Target] = ()
    snr_db: Optional[float] = None
    impairments: Impairments = field(default_factory=Impairments)

    def __post_init__(self):
        # Targets first: a coupling is scaled from the mover's gain, so an
        # overflowing mover gain is the one the message names.
        coupling = (self.coupling,) if self.coupling is not None else ()
        for t in (*self.targets, *coupling, *self.clutter):
            if not math.isfinite(abs(t.gain) * abs(t.gain)):
                raise ValueError(f"reflector gain {t.gain} has no finite power")
        if self.snr_db is not None:
            db_to_linear("snr_db", self.snr_db, -10.0)
            if not (self.targets or self.clutter):
                raise ValueError("snr_db needs a non-coupling reflector as "
                                 "its reference")
        for t in self.clutter:
            if t.velocity_mps != 0.0:
                raise ValueError("clutter targets must have zero velocity")
        if self.coupling is not None:
            c = self.coupling
            if c.range_m != 0.0 or c.velocity_mps != 0.0:
                raise ValueError("coupling must sit at zero range and velocity")
            others = [abs(t.gain) for t in (*self.targets, *self.clutter)]
            if others and abs(c.gain) <= max(others):
                raise ValueError("coupling gain must dominate the scene")

    def reflectors(self) -> Tuple[Target, ...]:
        """All reflectors, coupling first when present."""
        head = (self.coupling,) if self.coupling is not None else ()
        return (*head, *self.targets, *self.clutter)

    def noise_reference_power(self) -> float:
        """|gain|^2 of the strongest non-coupling reflector (SNR reference)."""
        return max(abs(t.gain) for t in (*self.targets, *self.clutter)) ** 2


def _check_bounds(cfg: WaveformConfig, targets: Sequence[Target]) -> None:
    r_max, v_max = unambiguous_limits(cfg)
    for t in targets:
        if not 0.0 <= t.range_m < r_max:
            raise ValueError(f"target range {t.range_m} m outside [0, {r_max})")
        if abs(t.velocity_mps) >= v_max / 2.0:
            raise ValueError(
                f"target velocity {t.velocity_mps} m/s outside +-{v_max / 2.0}")


def _channel_rows(cfg: WaveformConfig, targets: Sequence[Target]) -> np.ndarray:
    """Channel factor sum_k a_k e^{j2pi T fD m} e^{-j2pi n df tau} per frame/bin."""
    m = np.arange(cfg.n_frames)
    n = np.arange(cfg.n_subcarriers)
    out = np.zeros((cfg.n_frames, cfg.n_subcarriers), dtype=complex)
    for t in targets:
        tau = 2.0 * t.range_m / SPEED_OF_LIGHT
        f_d = 2.0 * t.velocity_mps * cfg.carrier_freq_hz / SPEED_OF_LIGHT
        doppler = np.exp(2j * np.pi * cfg.frame_interval_s * f_d * m)
        delay = np.exp(-2j * np.pi * n * cfg.subcarrier_spacing_hz * tau)
        out += t.gain * np.outer(doppler, delay)
    return out


def _delay_ramp(n_subcarriers: int, offset_samples: float) -> np.ndarray:
    n = np.arange(n_subcarriers)
    return np.exp(-2j * np.pi * n * offset_samples / n_subcarriers)


def phase_error_trace(imp: Impairments, n_frames: int) -> np.ndarray:
    """Cumulative per-frame phase error; frame 0 is error-free."""
    rng = np.random.default_rng([int(imp.rng_seed), 1])
    occurs = rng.random(n_frames - 1) < imp.phase_jump_prob
    signs = rng.integers(0, 2, n_frames - 1) * 2 - 1
    multiples = rng.integers(1, 3, n_frames - 1)
    jumps = np.where(occurs, signs * multiples * imp.phase_jump_step_rad, 0.0)
    drift = (rng.normal(0.0, imp.phase_drift_std_rad, n_frames - 1)
             if imp.phase_drift_std_rad > 0 else np.zeros(n_frames - 1))
    return np.concatenate([[0.0], np.cumsum(jumps + drift)])


def _apply_noise_and_impairments(cfg: WaveformConfig, grid: np.ndarray,
                                 scene: Scene) -> np.ndarray:
    imp = scene.impairments
    if scene.snr_db is not None:
        sigma2 = scene.noise_reference_power() * db_to_linear(
            "snr_db", scene.snr_db, -10.0)
        rng = np.random.default_rng([int(imp.rng_seed), 2])
        grid = grid + np.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    # A finite but huge impairment overflows its phase to inf or NaN; it is
    # refused by name instead of reaching the capture.
    if imp.delay_offset_samples != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            ramp = _delay_ramp(cfg.n_subcarriers, imp.delay_offset_samples)
        if not np.isfinite(ramp).all():
            raise ValueError(f"delay_offset_samples {imp.delay_offset_samples}"
                             " overflows the delay ramp")
        grid = grid * ramp
    if imp.phase_jump_prob > 0.0 or imp.phase_drift_std_rad > 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            rotation = np.exp(1j * phase_error_trace(imp, grid.shape[0]))
        if not np.isfinite(rotation).all():
            raise ValueError(
                f"phase_jump_step_rad {imp.phase_jump_step_rad} with "
                f"phase_drift_std_rad {imp.phase_drift_std_rad} overflows "
                "the phase error")
        grid = grid * rotation[:, None]
    return grid


def simulate_capture(cfg: WaveformConfig, scene: Scene) -> np.ndarray:
    """CSI grid for a static scene, shape (n_frames, n_subcarriers).

    Each reflector contributes its gain times a per-frame Doppler phasor and
    a per-subcarrier delay ramp; noise is added before the receiver
    impairments multiply in (they are unit-modulus, so noise statistics are
    unchanged).
    """
    _check_bounds(cfg, scene.reflectors())
    csi = _channel_rows(cfg, scene.reflectors())
    return _apply_noise_and_impairments(cfg, csi, scene)


def oracle_spectrum(cfg: WaveformConfig, scene: Scene) -> RangeDopplerMap:
    """Brute-force magnitude spectrum of a noiseless, impairment-free scene.

    Evaluates the channel matrix directly from the target parameters and
    takes its 2D transform by explicit nested summation over every output
    bin. No FFT and none of the pipeline stages are involved, so this is an
    independent cross-check for the FFT path. A target at delay tau and
    Doppler fD peaks at range bin tau*B and Doppler bin fD*M*T.
    """
    if scene.snr_db is not None:
        raise ValueError("oracle requires a noiseless scene")
    if scene.impairments.active:
        raise ValueError("oracle requires an impairment-free scene")
    _check_bounds(cfg, scene.reflectors())
    m_total, n_total = cfg.n_frames, cfg.n_subcarriers
    d = _channel_rows(cfg, scene.reflectors())
    m = np.arange(m_total)
    n = np.arange(n_total)
    values = np.zeros((m_total, n_total))
    for pi, p in enumerate(np.arange(m_total) - m_total // 2):
        doppler_kernel = np.exp(-2j * np.pi * p * m / m_total)
        for li in range(n_total):
            range_kernel = np.exp(2j * np.pi * li * n / n_total)
            values[pi, li] = np.abs(
                np.sum(d * np.outer(doppler_kernel, range_kernel)))
    return RangeDopplerMap.from_config(values, cfg, 0.0)


def trajectory_samples(path: Sequence[Tuple], frame_count: int,
                       frame_interval_s: float
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame (times, ranges, velocities) from piecewise-linear waypoints.

    Waypoints are (t, range) or (t, range, velocity) tuples with strictly
    increasing t, covering [0, frame_count * frame_interval]. Range is
    interpolated linearly; each segment's velocity is that of its starting
    waypoint when given, otherwise the segment slope.
    """
    if len(path) == 0:
        raise ValueError("empty trajectory path")
    ts = np.array([float(p[0]) for p in path])
    rs = np.array([float(p[1]) for p in path])
    vs = [float(p[2]) if len(p) > 2 and p[2] is not None else None for p in path]
    if len(ts) > 1 and np.any(np.diff(ts) <= 0):
        raise ValueError("path times must be strictly increasing")
    duration = frame_count * frame_interval_s
    tol = 1e-9 * max(1.0, duration)
    # A lone waypoint means a constant trajectory, which covers any span.
    if len(ts) > 1 and (ts[0] > tol or ts[-1] + tol < duration):
        raise ValueError(
            f"path covers [{ts[0]}, {ts[-1]}] s but capture needs "
            f"[0, {duration}] s")

    times = np.arange(frame_count) * frame_interval_s
    ranges = np.interp(times, ts, rs)
    if len(ts) == 1:
        velocities = np.full(frame_count, vs[0] if vs[0] is not None else 0.0)
    else:
        slopes = np.diff(rs) / np.diff(ts)
        segment_v = np.array([s if v is None else v
                              for v, s in zip(vs[:-1], slopes)])
        seg = np.clip(np.searchsorted(ts, times, side="right") - 1,
                      0, len(segment_v) - 1)
        velocities = segment_v[seg]
    return times, ranges, velocities


def simulate_trajectory(cfg: WaveformConfig, path: Sequence[Tuple], *,
                        gain: complex = 1.0 + 0.0j,
                        coupling: Optional[Target] = None,
                        clutter: Sequence[Target] = (),
                        snr_db: Optional[float] = None,
                        impairments: Optional[Impairments] = None
                        ) -> np.ndarray:
    """CSI stream for one mover following ``path``, shape (n_frames, N).

    The mover's delay ramp follows the interpolated per-frame range; its
    Doppler phase accumulates frame by frame from the instantaneous
    velocity, which reduces to the constant-velocity phasor on linear
    segments. The mover's per-frame samples, the coupling, the clutter,
    ``snr_db`` and the impairments form one ``Scene``, so they follow its
    rules; static coupling/clutter, noise, and impairments are applied
    exactly as in ``simulate_capture``.
    """
    _, ranges, velocities = trajectory_samples(
        path, cfg.n_frames, cfg.frame_interval_s)
    movers = [Target(float(r), float(v), gain) for r, v in zip(ranges, velocities)]
    scene = Scene(targets=movers, coupling=coupling, clutter=clutter,
                  snr_db=snr_db, impairments=impairments or Impairments())
    _check_bounds(cfg, scene.reflectors())
    statics = ((coupling,) if coupling is not None else ()) + tuple(clutter)

    n = np.arange(cfg.n_subcarriers)
    taus = 2.0 * ranges / SPEED_OF_LIGHT
    delay_ramps = np.exp(-2j * np.pi * np.outer(
        taus, n * cfg.subcarrier_spacing_hz))
    f_d = 2.0 * velocities * cfg.carrier_freq_hz / SPEED_OF_LIGHT
    steps = 2.0 * np.pi * cfg.frame_interval_s * f_d
    psi = np.concatenate([[0.0], np.cumsum(steps[1:])])
    grid = gain * np.exp(1j * psi)[:, None] * delay_ramps
    if statics:
        grid = grid + _channel_rows(cfg, statics)
    return _apply_noise_and_impairments(cfg, grid, scene)
