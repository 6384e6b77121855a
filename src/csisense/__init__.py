"""Monostatic Wi-Fi CSI sensing: waveform math, scene simulation,
time-phase synchronization, self-interference cancellation, and 2D
range-Doppler estimation."""

from .capture_io import (CaptureFormatError, CaptureHeader, Trajectory,
                         read_capture_array, read_ground_truth, write_capture,
                         write_ground_truth)
from .channel import (Impairments, Scene, Target, oracle_spectrum,
                      simulate_capture, simulate_trajectory,
                      trajectory_samples)
from .rdmap import (Detection, DopplerTimeProfile, RangeDopplerMap, detect,
                    doppler_time_profile, range_doppler, range_profiles,
                    track, window_maps)
from .scenarios import Scenario, ScenarioError, load_scenario, simulate_scenario
from .sic import remove_dc
from .sync import (SyncParams, SyncReport, align_phases, coarse_delay,
                   compensate_delay, fine_delay, frame_phases, synchronize,
                   time_domain)
from .waveform import (SPEED_OF_LIGHT, WaveformConfig, doppler_resolution,
                       make_config, range_accuracy, range_resolution,
                       unambiguous_limits)

__version__ = "0.1.0"

__all__ = [
    "CaptureFormatError", "CaptureHeader", "Trajectory", "read_capture_array",
    "read_ground_truth", "write_capture", "write_ground_truth", "Impairments",
    "Scene", "Target", "oracle_spectrum", "simulate_capture",
    "simulate_trajectory", "trajectory_samples", "Detection",
    "DopplerTimeProfile", "RangeDopplerMap", "detect", "doppler_time_profile",
    "range_doppler", "range_profiles", "track", "window_maps", "Scenario",
    "ScenarioError", "load_scenario", "simulate_scenario", "remove_dc",
    "SyncParams", "SyncReport", "align_phases", "coarse_delay",
    "compensate_delay", "fine_delay", "frame_phases", "synchronize",
    "time_domain", "SPEED_OF_LIGHT", "WaveformConfig", "doppler_resolution",
    "make_config", "range_accuracy", "range_resolution", "unambiguous_limits",
]
