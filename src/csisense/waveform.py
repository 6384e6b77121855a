"""OFDM sensing waveform configuration and resolution math for CSI rows."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

SPEED_OF_LIGHT = 2.998e8  # m/s

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

    def __post_init__(self):
        if self.n_subcarriers < 2:
            raise ValueError("n_subcarriers must be >= 2")
        if self.n_frames < 2:
            raise ValueError("n_frames must be >= 2")
        for name in ("subcarrier_spacing_hz", "frame_interval_s",
                     "carrier_freq_hz", "bandwidth_hz"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        expected = self.n_subcarriers * self.subcarrier_spacing_hz
        if abs(self.bandwidth_hz - expected) > _BANDWIDTH_RTOL * expected:
            raise ValueError(
                f"inconsistent bandwidth: {self.bandwidth_hz} Hz vs "
                f"n_subcarriers * spacing = {expected} Hz")
        # Finite inputs can still overflow or underflow the capability
        # numbers (e.g. a 1e-320 s frame interval gives an infinite span,
        # and a 5e-324 Hz carrier a zero divisor).
        if 2.0 * self.carrier_freq_hz * self.frame_interval_s == 0.0:
            raise ValueError(
                f"carrier_freq_hz {self.carrier_freq_hz!r} * frame_interval_s "
                f"{self.frame_interval_s!r} underflows to zero")
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
                frame_interval_s: float,
                carrier_freq_hz: float) -> WaveformConfig:
    """Build a validated config from spacing, bandwidth, or both.

    Supplying both requires bandwidth == n_subcarriers * spacing to 1 part
    in 1e9; supplying one derives the other.
    """
    if subcarrier_spacing_hz is None and bandwidth_hz is None:
        raise ValueError("need subcarrier_spacing_hz or bandwidth_hz")
    # A count past the float range would overflow every product below.
    for name, count in (("n_subcarriers", n_subcarriers),
                        ("n_frames", n_frames)):
        if not abs(count) <= sys.float_info.max:
            raise ValueError(f"{name} is too large for a float")
    if subcarrier_spacing_hz is None:
        # A zero count is WaveformConfig's to reject, not a division fault.
        subcarrier_spacing_hz = (bandwidth_hz / n_subcarriers
                                 if n_subcarriers else math.nan)
    if bandwidth_hz is None:
        bandwidth_hz = n_subcarriers * subcarrier_spacing_hz
    return WaveformConfig(
        n_subcarriers=int(n_subcarriers), n_frames=int(n_frames),
        subcarrier_spacing_hz=float(subcarrier_spacing_hz),
        frame_interval_s=float(frame_interval_s),
        carrier_freq_hz=float(carrier_freq_hz),
        bandwidth_hz=float(bandwidth_hz))


def db_to_linear(name: str, value_db: float, db_per_decade: float) -> float:
    """``10 ** (value_db / db_per_decade)``, raising ``ValueError`` that
    names ``name`` and the value when the result is not a finite float."""
    try:
        value = 10.0 ** (value_db / db_per_decade)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} {value_db} has no finite linear value")
    return value


def range_resolution(cfg: WaveformConfig) -> float:
    """Smallest separable range step, c / (2 B), in meters."""
    return SPEED_OF_LIGHT / (2.0 * cfg.bandwidth_hz)


def doppler_resolution(cfg: WaveformConfig) -> float:
    """Smallest separable velocity step, c / (2 M f_c T), in m/s."""
    return SPEED_OF_LIGHT / (
        2.0 * cfg.n_frames * cfg.carrier_freq_hz * cfg.frame_interval_s)


def unambiguous_limits(cfg: WaveformConfig) -> Tuple[float, float]:
    """(R_max, V_max): largest alias-free range and total velocity span.

    Velocity estimates live on the symmetric span [-V_max/2, +V_max/2).
    """
    r_max = SPEED_OF_LIGHT * cfg.n_subcarriers / (2.0 * cfg.bandwidth_hz)
    v_max = SPEED_OF_LIGHT / (2.0 * cfg.carrier_freq_hz * cfg.frame_interval_s)
    return r_max, v_max


def range_accuracy(cfg: WaveformConfig, snr_linear: float) -> float:
    """Expected range measurement error, resolution / sqrt(2 SNR), in meters.

    Valid in the high-SNR regime (snr_linear >> 1); refused below 0.5,
    where the error it states would exceed one resolution cell.
    """
    if not 1.0 <= 2.0 * snr_linear < math.inf:
        raise ValueError("snr_linear must be at least 0.5, with "
                         "2 * snr_linear finite")
    return range_resolution(cfg) / math.sqrt(2.0 * snr_linear)
