import numpy as np
import pytest

from csisense.channel import (Impairments, Scene, Target, csi_divide,
                              oracle_spectrum, simulate_capture,
                              simulate_trajectory)
from csisense.rdmap import (detect, doppler_time_profile, estimate_peak,
                            range_doppler, track, window_maps)
from csisense.sic import remove_dc
from csisense.waveform import (doppler_resolution, generate_ltf_symbols,
                               make_config, range_resolution)

WIFI = dict(subcarrier_spacing_hz=312.5e3, frame_interval_s=0.025,
            carrier_freq_hz=6.3e9)


def cfg_of(n=32, m=16):
    return make_config(n_subcarriers=n, n_frames=m, **WIFI)


def csi_for(cfg, scene, seed=1):
    s = generate_ltf_symbols(cfg, seed)
    return csi_divide(simulate_capture(cfg, scene, s), s)


def on_bin_target(cfg, range_bin, doppler_bin, gain=1.0):
    return Target(range_bin * range_resolution(cfg),
                  doppler_bin * doppler_resolution(cfg), gain)


def test_single_exponential_hits_one_cell():
    cfg = cfg_of()
    m, n = cfg.n_frames, cfg.n_subcarriers
    mm, nn = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    grid = np.exp(2j * np.pi * 3 * mm / m) * np.exp(-2j * np.pi * 5 * nn / n)
    rdm = range_doppler(grid, cfg, window_fn="rect")
    assert rdm.argmax_bin() == (3, 5)
    mag = rdm.magnitude()
    row, col = rdm.argmax_cell()
    assert mag[row, col] == pytest.approx(m * n, rel=1e-12)
    mag[row, col] = 0.0
    assert np.max(mag) < 1e-9 * m * n


def test_zero_grid_zero_map():
    cfg = cfg_of()
    rdm = range_doppler(np.zeros((16, 32), dtype=complex), cfg)
    assert np.all(rdm.values == 0)


def test_small_grid_rejected():
    cfg = cfg_of()
    with pytest.raises(ValueError):
        range_doppler(np.ones((1, 8), dtype=complex), cfg)


def test_axis_scales():
    cfg = cfg_of()
    rdm = range_doppler(np.ones((cfg.n_frames, cfg.n_subcarriers)), cfg)
    assert rdm.range_scale_m == pytest.approx(
        cfg.wave_speed_mps / (2 * cfg.bandwidth_hz), rel=1e-12)
    assert rdm.velocity_scale_mps == pytest.approx(
        cfg.wave_speed_mps / (2 * cfg.carrier_freq_hz * cfg.n_frames
                              * cfg.frame_interval_s), rel=1e-12)


def test_sign_convention_receding_is_positive():
    cfg = cfg_of()
    d = csi_for(cfg, Scene(targets=(on_bin_target(cfg, 5, 3),)))
    assert range_doppler(d, cfg, window_fn="rect").argmax_bin() == (3, 5)
    d = csi_for(cfg, Scene(targets=(on_bin_target(cfg, 5, -3),)))
    assert range_doppler(d, cfg, window_fn="rect").argmax_bin() == (-3, 5)


def test_pipeline_argmax_matches_oracle_two_targets():
    cfg = cfg_of()
    scene = Scene(targets=(on_bin_target(cfg, 4, 2),
                           on_bin_target(cfg, 20, -5, gain=0.5)))
    rdm = range_doppler(csi_for(cfg, scene), cfg, window_fn="rect")
    assert rdm.argmax_bin() == oracle_spectrum(cfg, scene).argmax_bin()


def test_oracle_equivalence_grid():
    # Exhaustive 5x5 grid of exact-bin scenes: FFT path vs brute force.
    cfg = cfg_of(n=32, m=16)
    for range_bin in (2, 7, 12, 17, 22):
        for doppler_bin in (-6, -3, 1, 4, 7):
            scene = Scene(targets=(on_bin_target(cfg, range_bin, doppler_bin),))
            rdm = range_doppler(csi_for(cfg, scene), cfg, window_fn="rect")
            assert rdm.argmax_bin() == oracle_spectrum(cfg, scene).argmax_bin()
            assert rdm.argmax_bin() == (doppler_bin, range_bin)


def test_parseval_rect_window():
    rng = np.random.default_rng(2)
    cfg = cfg_of()
    grid = rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32))
    rdm = range_doppler(grid, cfg, window_fn="rect")
    map_energy = np.sum(rdm.magnitude() ** 2)
    grid_energy = np.sum(np.abs(grid) ** 2)
    assert map_energy == pytest.approx(16 * 32 * grid_energy, rel=1e-9)


def test_estimate_peak_symmetric_offset_zero():
    cfg = cfg_of()
    m, n = cfg.n_frames, cfg.n_subcarriers
    mm, nn = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    grid = np.exp(2j * np.pi * 3 * mm / m) * np.exp(-2j * np.pi * 5 * nn / n)
    rdm = range_doppler(grid, cfg, window_fn="hann")
    r_hat, v_hat, _ = estimate_peak(rdm, rdm.argmax_cell())
    assert r_hat == pytest.approx(5 * rdm.range_scale_m, abs=1e-9)
    assert v_hat == pytest.approx(3 * rdm.velocity_scale_mps, abs=1e-9)


def test_estimate_peak_off_grid_sweep():
    cfg = cfg_of(n=64, m=32)
    dr = range_resolution(cfg)
    for tau_bins in np.linspace(5.0, 6.0, 11):
        scene = Scene(targets=(Target(tau_bins * dr,
                                      3 * doppler_resolution(cfg), 1.0),))
        rdm = range_doppler(csi_for(cfg, scene), cfg, window_fn="hann")
        r_hat, _, _ = estimate_peak(rdm, rdm.argmax_cell())
        assert abs(r_hat / dr - tau_bins) < 0.1


def test_estimate_peak_rejects_non_maximum():
    cfg = cfg_of()
    d = csi_for(cfg, Scene(targets=(on_bin_target(cfg, 5, 3),)))
    rdm = range_doppler(d, cfg, window_fn="hann")
    row, col = rdm.argmax_cell()
    with pytest.raises(ValueError, match="not a local maximum"):
        estimate_peak(rdm, ((row + 4) % rdm.n_doppler, col))


def test_detect_noise_maps_mostly_empty():
    cfg = cfg_of(n=64, m=32)
    empty = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noise = (rng.standard_normal((32, 64))
                 + 1j * rng.standard_normal((32, 64))) / np.sqrt(2.0)
        rdm = range_doppler(noise, cfg, window_fn="hann")
        if not detect(rdm, threshold_db=12.0, max_targets=3):
            empty += 1
    assert empty >= 95


def test_detect_single_peak():
    cfg = cfg_of()
    d = csi_for(cfg, Scene(targets=(on_bin_target(cfg, 5, 3),), snr_db=20.0))
    rdm = range_doppler(d, cfg, window_fn="hann")
    picks = detect(rdm, threshold_db=12.0, max_targets=4)
    assert len(picks) == 1
    assert (picks[0].bin_p, picks[0].bin_l) == (3, 5)
    assert picks[0].power_db > 12.0


def test_detect_empty_map():
    cfg = cfg_of()
    rdm = range_doppler(np.zeros((16, 32), dtype=complex), cfg)
    assert detect(rdm) == []


def test_detect_orders_by_power_and_suppresses_neighbors():
    cfg = cfg_of()
    scene = Scene(targets=(on_bin_target(cfg, 4, 2, gain=1.0),
                           on_bin_target(cfg, 20, -5, gain=0.4)))
    rdm = range_doppler(csi_for(cfg, scene), cfg, window_fn="hann")
    picks = detect(rdm, threshold_db=6.0, max_targets=4)
    assert [(p.bin_p, p.bin_l) for p in picks[:2]] == [(2, 4), (-5, 20)]
    assert picks[0].power_db >= picks[1].power_db


def test_detect_test1_window_velocity_negative():
    cfg = cfg_of(n=512, m=32)
    scene = Scene(targets=(Target(0.6, -0.075, 1.0),),
                  coupling=Target(0.0, 0.0, 10.0 ** 1.5), snr_db=20.0,
                  impairments=Impairments(rng_seed=4))
    d = remove_dc(csi_for(cfg, scene))
    picks = detect(range_doppler(d, cfg, window_fn="hann"), max_targets=1)
    assert len(picks) == 1
    assert picks[0].velocity_mps < 0


def path_capture(cfg, frames, path, **kwargs):
    return simulate_trajectory(cfg, path, frames, **kwargs)


def test_track_test1_counts_and_velocity():
    cfg = cfg_of(n=512, m=156)
    cap = path_capture(cfg, 156, [(0.0, 0.6), (3.9, 0.3)],
                       coupling=Target(0.0, 0.0, 10.0 ** 1.5), snr_db=20.0,
                       impairments=Impairments(rng_seed=1))
    detections = track(window_maps(cap, cfg, window=32, stride=1))
    assert len(detections) == 125
    mean_v = np.mean([d.velocity_mps for d in detections])
    assert mean_v == pytest.approx(-0.075, abs=0.01)
    times = [d.time_s for d in detections]
    assert times == sorted(times)


def test_track_static_scene_detects_nothing():
    cfg = cfg_of(n=64, m=48)
    cap = path_capture(cfg, 48, [(0.0, 5.0, 0.0)],
                       coupling=Target(0.0, 0.0, 100.0),
                       clutter=(Target(20.0, 0.0, 2.0),))
    assert track(window_maps(cap, cfg, window=16, stride=1)) == []


def test_track_stride_timestamps_are_subsequence():
    cfg = cfg_of(n=64, m=64)
    cap = path_capture(cfg, 64, [(0.0, 10.0), (1.6, 10.48)],
                       coupling=Target(0.0, 0.0, 50.0), snr_db=25.0,
                       impairments=Impairments(rng_seed=6))
    t1 = [d.time_s for d in track(window_maps(cap, cfg, window=16, stride=1))]
    t2 = [d.time_s for d in track(window_maps(cap, cfg, window=16, stride=2))]
    assert set(t2) <= set(t1)


def test_track_capture_shorter_than_window():
    cfg = cfg_of(n=32, m=8)
    cap = np.ones((8, 32), dtype=complex)
    with pytest.raises(ValueError, match="shorter than"):
        track(window_maps(cap, cfg, window=16))


def test_track_and_profile_of_no_maps():
    assert track([]) == []
    with pytest.raises(ValueError, match="no maps"):
        doppler_time_profile([])


def test_profile_static_scene_concentrates_then_empties():
    cfg = cfg_of(n=64, m=48)
    cap = path_capture(cfg, 48, [(0.0, 10.0, 0.0)],
                       coupling=Target(0.0, 0.0, 100.0))
    raw = doppler_time_profile(window_maps(cap, cfg, window=16, stride=4,
                                           apply_sync=False, apply_sic=False,
                                           window_fn="rect"))
    zero_row = raw.values.shape[0] // 2
    assert np.sum(raw.values[zero_row]) / np.sum(raw.values) > 0.99
    clean = doppler_time_profile(window_maps(cap, cfg, window=16, stride=4,
                                             apply_sync=False, apply_sic=True,
                                             window_fn="rect"))
    # everything in this scene is static, so removal empties the profile
    assert np.all(clean.values[zero_row] <= 1e-18 * np.sum(raw.values))


def test_profile_constant_velocity_single_ridge():
    cfg = cfg_of(n=64, m=64)
    v = 4 * doppler_resolution(make_config(n_subcarriers=64, n_frames=16,
                                           **WIFI))
    cap = path_capture(cfg, 64, [(0.0, 10.0), (1.6, 10.0 + 1.6 * v)],
                       coupling=Target(0.0, 0.0, 50.0))
    profile = doppler_time_profile(window_maps(cap, cfg, window=16, stride=4,
                                               apply_sync=False,
                                               window_fn="rect"))
    dominant = profile.doppler_bins()[np.argmax(profile.values, axis=0)]
    assert np.all(dominant == 4)


def test_profile_gesture_alternates_sign():
    cfg = cfg_of(n=64, m=160)
    path = [(0.0, 0.1), (1.0, 0.5), (2.0, 0.1), (3.0, 0.5), (4.0, 0.1)]
    cap = path_capture(cfg, 160, path, coupling=Target(0.0, 0.0, 50.0),
                       snr_db=25.0, impairments=Impairments(rng_seed=2))
    profile = doppler_time_profile(window_maps(cap, cfg, window=32, stride=4))
    dominant = profile.doppler_bins()[np.argmax(profile.values, axis=0)]
    velocity = np.where((profile.window_times_s % 2.0) < 1.0, 0.4, -0.4)
    near_reversal = np.minimum(profile.window_times_s % 1.0,
                               1.0 - profile.window_times_s % 1.0) <= 0.1
    agree = np.sign(dominant) == np.sign(velocity)
    assert np.all(agree | near_reversal)


def test_window_maps_timestamps_centered():
    cfg = cfg_of(n=32, m=24)
    cap = np.ones((24, 32), dtype=complex)
    maps = list(window_maps(cap, cfg, window=8, stride=8, apply_sync=False,
                            apply_sic=False))
    assert len(maps) == 3
    assert maps[0].timestamp_s == pytest.approx(3.5 * cfg.frame_interval_s)
    assert maps[1].timestamp_s == pytest.approx(11.5 * cfg.frame_interval_s)
