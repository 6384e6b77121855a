import numpy as np
import pytest

from csisense.waveform import (SPEED_OF_LIGHT, doppler_resolution,
                               make_config, range_accuracy, range_resolution,
                               unambiguous_limits)


def wifi_config(**overrides):
    params = dict(n_subcarriers=512, n_frames=32,
                  subcarrier_spacing_hz=312.5e3, frame_interval_s=0.025,
                  carrier_freq_hz=6.3e9)
    params.update(overrides)
    return make_config(**params)


def test_make_config_wifi_bandwidth():
    cfg = wifi_config()
    assert cfg.bandwidth_hz == 160e6


def test_make_config_minimal():
    cfg = make_config(n_subcarriers=2, n_frames=2, subcarrier_spacing_hz=1.0,
                      frame_interval_s=1.0, carrier_freq_hz=1.0)
    assert cfg.bandwidth_hz == 2.0


def test_make_config_inconsistent_bandwidth():
    with pytest.raises(ValueError, match="inconsistent bandwidth"):
        wifi_config(bandwidth_hz=100e6)


def test_make_config_bandwidth_only():
    cfg = make_config(n_subcarriers=512, n_frames=32, bandwidth_hz=160e6,
                      frame_interval_s=0.025, carrier_freq_hz=6.3e9)
    assert cfg.subcarrier_spacing_hz == pytest.approx(312.5e3, rel=1e-12)


@pytest.mark.parametrize("overrides", [
    dict(n_subcarriers=1), dict(n_frames=1),
    dict(subcarrier_spacing_hz=-1.0), dict(frame_interval_s=0.0),
    dict(carrier_freq_hz=-6.3e9),
    dict(subcarrier_spacing_hz=float("nan")), dict(frame_interval_s=np.inf),
    dict(carrier_freq_hz=float("nan")), dict(carrier_freq_hz=np.inf),
    dict(bandwidth_hz=float("nan")), dict(bandwidth_hz=np.inf),
    # bandwidth-only inputs: a negative bandwidth, and a zero count that
    # must be refused rather than divided by
    dict(subcarrier_spacing_hz=None, bandwidth_hz=-160e6),
    dict(subcarrier_spacing_hz=None, bandwidth_hz=160e6, n_subcarriers=0),
    # finite inputs whose capability numbers overflow or underflow
    dict(frame_interval_s=1e-320),
    dict(frame_interval_s=1e300, carrier_freq_hz=1e300),
])
def test_make_config_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        wifi_config(**overrides)


def test_range_resolution_wifi():
    # 2.998e8 / (2 * 160e6)
    assert range_resolution(wifi_config()) == pytest.approx(0.936875, abs=1e-9)


def test_range_resolution_unity():
    cfg = make_config(n_subcarriers=2, n_frames=2, bandwidth_hz=1.499e8,
                      frame_interval_s=1.0, carrier_freq_hz=1.0)
    assert range_resolution(cfg) == pytest.approx(1.0, abs=1e-12)


def test_range_resolution_radar_column():
    cfg = make_config(n_subcarriers=64, n_frames=64, bandwidth_hz=4e9,
                      frame_interval_s=0.0006, carrier_freq_hz=66e9)
    # exact formula value; prints as 0.03 m after rounding
    assert range_resolution(cfg) == pytest.approx(0.037475, abs=1e-9)


def test_doppler_resolution_wifi():
    assert doppler_resolution(wifi_config()) == pytest.approx(
        0.029742063492063493, rel=1e-12)


def test_doppler_resolution_unity_scaled():
    # The formula's unity case requires a single frame, which the config
    # forbids; check the equivalent scaled identity at M=2 instead.
    c = SPEED_OF_LIGHT
    cfg = make_config(n_subcarriers=2, n_frames=2, subcarrier_spacing_hz=1.0,
                      frame_interval_s=0.5, carrier_freq_hz=c / 2.0)
    assert doppler_resolution(cfg) == pytest.approx(1.0, rel=1e-12)


def test_doppler_resolution_halves_when_frames_double():
    base = doppler_resolution(wifi_config())
    doubled = doppler_resolution(wifi_config(n_frames=64))
    assert doubled == pytest.approx(base / 2.0, rel=1e-12)


def test_unambiguous_limits_wifi():
    r_max, v_max = unambiguous_limits(wifi_config())
    assert r_max == pytest.approx(479.68, abs=1e-9)
    assert v_max == pytest.approx(0.9517460317460318, rel=1e-12)
    assert v_max / 2.0 == pytest.approx(0.47587301587301587, rel=1e-12)


def test_max_range_is_bins_times_resolution():
    for n in (2, 37, 512):
        cfg = wifi_config(n_subcarriers=n, subcarrier_spacing_hz=None,
                          bandwidth_hz=160e6)
        r_max, _ = unambiguous_limits(cfg)
        assert r_max == pytest.approx(n * range_resolution(cfg), rel=1e-12)


def test_range_accuracy_values():
    cfg = wifi_config()
    assert range_accuracy(cfg, 100.0) == pytest.approx(0.06624706656241466,
                                                       rel=1e-12)
    assert range_accuracy(cfg, 0.5) == pytest.approx(range_resolution(cfg),
                                                     rel=1e-12)
    assert range_accuracy(cfg, 400.0) == pytest.approx(
        range_accuracy(cfg, 100.0) / 2.0, rel=1e-12)
    for snr_linear in (0.0, 0.49, 1e308, np.inf, float("nan")):
        with pytest.raises(ValueError):
            range_accuracy(cfg, snr_linear)


def test_doppler_resolution_equivalent_forms():
    # c/(2 M fc T) == (c df)/(2 M fc) when T = 1/df
    df = 312.5e3
    cfg = wifi_config(subcarrier_spacing_hz=df, frame_interval_s=1.0 / df)
    alt = (SPEED_OF_LIGHT * df) / (2.0 * cfg.n_frames * cfg.carrier_freq_hz)
    assert doppler_resolution(cfg) == pytest.approx(alt, rel=1e-12)


def test_calculators_representation_invariant():
    by_spacing = wifi_config()
    by_bandwidth = make_config(n_subcarriers=512, n_frames=32,
                               bandwidth_hz=160e6, frame_interval_s=0.025,
                               carrier_freq_hz=6.3e9)
    assert range_resolution(by_spacing) == range_resolution(by_bandwidth)
    assert doppler_resolution(by_spacing) == doppler_resolution(by_bandwidth)
    assert unambiguous_limits(by_spacing) == unambiguous_limits(by_bandwidth)


def test_config_immutable():
    cfg = wifi_config()
    with pytest.raises(Exception):
        cfg.bandwidth_hz = 1.0
