"""OFDM sensing waveform configuration and resolution math for CSI rows."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

SPEED_OF_LIGHT = 2.998e8  # m/s, configurable per config

# Consistency required between an explicit bandwidth and n_subcarriers * spacing.
_BANDWIDTH_RTOL = 1e-9


@dataclass(frozen=True)
class WaveformConfig:
    """OFDM capture parameters for one sensing configuration.

    Frames are abstract CSI captures spaced ``frame_interval_s`` apart; the
    frame interval is independent of the OFDM symbol duration.
    """

    n_subcarriers: int
    n_frames: int
    subcarrier_spacing_hz: float
    frame_interval_s: float
    carrier_freq_hz: float
    bandwidth_hz: float
    wave_speed_mps: float = SPEED_OF_LIGHT

    def __post_init__(self):
        if self.n_subcarriers < 2:
            raise ValueError("n_subcarriers must be >= 2")
        if self.n_frames < 2:
            raise ValueError("n_frames must be >= 2")
        for name in ("subcarrier_spacing_hz", "frame_interval_s",
                     "carrier_freq_hz", "bandwidth_hz", "wave_speed_mps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        expected = self.n_subcarriers * self.subcarrier_spacing_hz
        if abs(self.bandwidth_hz - expected) > _BANDWIDTH_RTOL * expected:
            raise ValueError(
                f"inconsistent bandwidth: {self.bandwidth_hz} Hz vs "
                f"n_subcarriers * spacing = {expected} Hz")
        # Finite inputs can still overflow or underflow the capability
        # numbers (e.g. a 1e-320 s frame interval gives an infinite span).
        max_range, velocity_span = unambiguous_limits(self)
        for name, value in (("range resolution", range_resolution(self)),
                            ("velocity resolution", doppler_resolution(self)),
                            ("max range", max_range),
                            ("velocity span", velocity_span)):
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} is {value!r}: not positive and finite")


def make_config(*, n_subcarriers: int, n_frames: int,
                subcarrier_spacing_hz: Optional[float] = None,
                bandwidth_hz: Optional[float] = None,
                frame_interval_s: float, carrier_freq_hz: float,
                wave_speed_mps: float = SPEED_OF_LIGHT) -> WaveformConfig:
    """Build a validated config from spacing, bandwidth, or both.

    Supplying both requires bandwidth == n_subcarriers * spacing to 1 part
    in 1e9; supplying one derives the other.
    """
    if subcarrier_spacing_hz is None and bandwidth_hz is None:
        raise ValueError("need subcarrier_spacing_hz or bandwidth_hz")
    if subcarrier_spacing_hz is None:
        subcarrier_spacing_hz = bandwidth_hz / n_subcarriers
    if bandwidth_hz is None:
        bandwidth_hz = n_subcarriers * subcarrier_spacing_hz
    return WaveformConfig(
        n_subcarriers=int(n_subcarriers), n_frames=int(n_frames),
        subcarrier_spacing_hz=float(subcarrier_spacing_hz),
        frame_interval_s=float(frame_interval_s),
        carrier_freq_hz=float(carrier_freq_hz),
        bandwidth_hz=float(bandwidth_hz),
        wave_speed_mps=float(wave_speed_mps))


def range_resolution(cfg: WaveformConfig) -> float:
    """Smallest separable range step, c / (2 B), in meters."""
    return cfg.wave_speed_mps / (2.0 * cfg.bandwidth_hz)


def doppler_resolution(cfg: WaveformConfig) -> float:
    """Smallest separable velocity step, c / (2 M f_c T), in m/s."""
    return cfg.wave_speed_mps / (
        2.0 * cfg.n_frames * cfg.carrier_freq_hz * cfg.frame_interval_s)


def unambiguous_limits(cfg: WaveformConfig) -> Tuple[float, float]:
    """(R_max, V_max): largest alias-free range and total velocity span.

    Velocity estimates live on the symmetric span [-V_max/2, +V_max/2).
    """
    r_max = cfg.wave_speed_mps * cfg.n_subcarriers / (2.0 * cfg.bandwidth_hz)
    v_max = cfg.wave_speed_mps / (2.0 * cfg.carrier_freq_hz * cfg.frame_interval_s)
    return r_max, v_max


def range_accuracy(cfg: WaveformConfig, snr_linear: float) -> float:
    """Expected range measurement error, resolution / sqrt(2 SNR), in meters.

    Valid in the high-SNR regime (snr_linear >> 1).
    """
    if not 0 < 2.0 * snr_linear < math.inf:
        raise ValueError("snr_linear must be positive, with 2 * snr_linear "
                         "finite")
    return range_resolution(cfg) / math.sqrt(2.0 * snr_linear)


@dataclass(frozen=True)
class ResolutionReport:
    """Closed-form capability numbers for one config."""

    range_resolution_m: float
    velocity_resolution_mps: float
    max_range_m: float
    max_velocity_mps: float          # full span; usable estimates are +-span/2
    range_accuracy_m: Optional[float] = None


def resolution_report(cfg: WaveformConfig,
                      snr_linear: Optional[float] = None) -> ResolutionReport:
    r_max, v_max = unambiguous_limits(cfg)
    acc = range_accuracy(cfg, snr_linear) if snr_linear is not None else None
    return ResolutionReport(
        range_resolution_m=range_resolution(cfg),
        velocity_resolution_mps=doppler_resolution(cfg),
        max_range_m=r_max, max_velocity_mps=v_max,
        range_accuracy_m=acc)
