import functools
import math
import tracemalloc
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csisense.channel import (Impairments, Scene, Target, oracle_spectrum,
                              simulate_capture, simulate_trajectory)
from csisense.rdmap import (Detection, RangeDopplerMap, _median,
                            _parabolic_offset, detect, doppler_time_profile,
                            range_doppler, range_profiles, track, window_maps,
                            window_starts)
from csisense.sic import remove_dc
from csisense.waveform import (SPEED_OF_LIGHT, doppler_resolution,
                               make_config, range_resolution,
                               unambiguous_limits)

WIFI = dict(subcarrier_spacing_hz=312.5e3, frame_interval_s=0.025,
            carrier_freq_hz=6.3e9)


def cfg_of(n=32, m=16):
    return make_config(n_subcarriers=n, n_frames=m, **WIFI)


def on_bin_target(cfg, range_bin, doppler_bin, gain=1.0):
    return Target(range_bin * range_resolution(cfg),
                  doppler_bin * doppler_resolution(cfg), gain)


def peak_cell(rdm):
    """(row, col) of the map's maximum."""
    return np.unravel_index(np.argmax(rdm.values), rdm.values.shape)


def peak_bin(rdm):
    """(Doppler bin, range bin) of the map's maximum."""
    row, col = peak_cell(rdm)
    return row - rdm.n_doppler // 2, col


def test_single_exponential_hits_one_cell():
    cfg = cfg_of()
    m, n = cfg.n_frames, cfg.n_subcarriers
    mm, nn = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    grid = np.exp(2j * np.pi * 3 * mm / m) * np.exp(-2j * np.pi * 5 * nn / n)
    rdm = range_doppler(range_profiles(grid, "rect"), cfg, window_fn="rect")
    assert peak_bin(rdm) == (3, 5)
    mag = rdm.magnitude()
    row, col = peak_cell(rdm)
    assert mag[row, col] == pytest.approx(m * n, rel=1e-12)
    mag[row, col] = 0.0
    assert np.max(mag) < 1e-9 * m * n


def test_zero_grid_zero_map():
    cfg = cfg_of()
    rdm = range_doppler(range_profiles(np.zeros((16, 32), dtype=complex)), cfg)
    assert np.all(rdm.values == 0)


def test_values_are_the_real_fft_magnitude():
    cfg = cfg_of()
    rng = np.random.default_rng(4)
    grid = rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32))
    rdm = range_doppler(range_profiles(grid, "rect"), cfg, window_fn="rect")
    spectrum = np.fft.fftshift(
        np.fft.fft(np.fft.ifft(grid, axis=1) * 32, axis=0), axes=0)
    assert rdm.values.dtype == np.float64
    assert np.array_equal(rdm.values, np.abs(spectrum))
    assert rdm.magnitude() is rdm.values


def reference_local_maxima(mag):
    """Cells >= all 8 neighbors (circular on both axes), by 16 ``np.roll``s."""
    mask = np.ones_like(mag, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            mask &= mag >= np.roll(np.roll(mag, dr, axis=0), dc, axis=1)
    return mask


def reference_estimate_peak(rdm, cell):
    """Sub-bin (range_m, velocity_mps, power_db) at a local-maximum cell,
    taking the log of the whole map."""
    row, col = cell
    mag = rdm.values
    floor = np.max(mag) * 1e-15 if np.max(mag) > 0 else 1e-300
    logmag = np.log(np.maximum(mag, floor))
    up, down = (row - 1) % rdm.n_doppler, (row + 1) % rdm.n_doppler
    left, right = (col - 1) % rdm.n_range, (col + 1) % rdm.n_range
    off_l = _parabolic_offset(logmag[row, left], logmag[row, col],
                              logmag[row, right])
    off_p = _parabolic_offset(logmag[up, col], logmag[row, col],
                              logmag[down, col])
    bin_p = row - rdm.n_doppler // 2
    range_m = max(0.0, (col + off_l) * rdm.range_scale_m)
    velocity_limit = rdm.velocity_scale_mps * rdm.n_doppler / 2.0
    velocity = float(np.clip((bin_p + off_p) * rdm.velocity_scale_mps,
                             -velocity_limit, velocity_limit))
    power_db = 20.0 * logmag[row, col] / np.log(10.0)
    return range_m, velocity, power_db


MAP_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=7)


@settings(max_examples=150, deadline=None)
@given(hnp.arrays(np.float64, MAP_SHAPES,
                  elements=st.one_of(
                      st.just(0.0),
                      st.floats(min_value=1e-300, max_value=1e300))))
def test_estimate_peak_matches_whole_map_log(values):
    # At -300 dB every positive peak clears its floor, so detect's sub-bin
    # estimate is compared on maps spanning the whole float range.
    rdm = RangeDopplerMap(values=values, range_scale_m=0.3,
                          velocity_scale_mps=0.03)
    picks = reference_detect(rdm, threshold_db=-300.0, max_targets=1)
    assert (picks[0] if picks else None) == detect(rdm, threshold_db=-300.0)
    assert bool(picks) == (np.max(values) > 0)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_fft_argmax_matches_oracle_on_bin(data):
    cfg = cfg_of(n=16, m=8)
    r_max, v_max = unambiguous_limits(cfg)
    range_bin = data.draw(st.integers(0, cfg.n_subcarriers - 1))
    doppler_bin = data.draw(st.integers(-(cfg.n_frames // 2) + 1,
                                        cfg.n_frames // 2 - 1))
    gain = data.draw(st.floats(0.1, 10.0)) * np.exp(
        1j * data.draw(st.floats(-np.pi, np.pi)))
    target = on_bin_target(cfg, range_bin, doppler_bin, gain)
    assert 0.0 <= target.range_m < r_max
    assert abs(target.velocity_mps) < v_max / 2.0
    scene = Scene(targets=(target,))
    rdm = range_doppler(range_profiles(simulate_capture(cfg, scene), "rect"),
                        cfg, window_fn="rect")
    assert peak_bin(rdm) == peak_bin(oracle_spectrum(cfg, scene)) \
        == (doppler_bin, range_bin)


def test_small_grid_rejected():
    cfg = cfg_of()
    with pytest.raises(ValueError):
        range_doppler(range_profiles(np.ones((1, 8), dtype=complex)), cfg)


def test_axis_scales():
    cfg = cfg_of()
    rdm = range_doppler(
        range_profiles(np.ones((cfg.n_frames, cfg.n_subcarriers))), cfg)
    assert rdm.range_scale_m == pytest.approx(
        SPEED_OF_LIGHT / (2 * cfg.bandwidth_hz), rel=1e-12)
    assert rdm.velocity_scale_mps == pytest.approx(
        SPEED_OF_LIGHT / (2 * cfg.carrier_freq_hz * cfg.n_frames
                          * cfg.frame_interval_s), rel=1e-12)


def test_sign_convention_receding_is_positive():
    cfg = cfg_of()
    d = simulate_capture(cfg, Scene(targets=(on_bin_target(cfg, 5, 3),)))
    assert peak_bin(range_doppler(range_profiles(d, "rect"), cfg,
                                  window_fn="rect")) == (3, 5)
    d = simulate_capture(cfg, Scene(targets=(on_bin_target(cfg, 5, -3),)))
    assert peak_bin(range_doppler(range_profiles(d, "rect"), cfg,
                                  window_fn="rect")) == (-3, 5)


def test_pipeline_argmax_matches_oracle_two_targets():
    cfg = cfg_of()
    scene = Scene(targets=(on_bin_target(cfg, 4, 2),
                           on_bin_target(cfg, 20, -5, gain=0.5)))
    rdm = range_doppler(range_profiles(simulate_capture(cfg, scene), "rect"),
                        cfg, window_fn="rect")
    assert peak_bin(rdm) == peak_bin(oracle_spectrum(cfg, scene))


def test_oracle_equivalence_grid():
    # Exhaustive 5x5 grid of exact-bin scenes: FFT path vs brute force.
    cfg = cfg_of(n=32, m=16)
    for range_bin in (2, 7, 12, 17, 22):
        for doppler_bin in (-6, -3, 1, 4, 7):
            scene = Scene(targets=(on_bin_target(cfg, range_bin, doppler_bin),))
            rdm = range_doppler(
                range_profiles(simulate_capture(cfg, scene), "rect"), cfg,
                window_fn="rect")
            assert peak_bin(rdm) == peak_bin(oracle_spectrum(cfg, scene))
            assert peak_bin(rdm) == (doppler_bin, range_bin)


def test_parseval_rect_window():
    rng = np.random.default_rng(2)
    cfg = cfg_of()
    grid = rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32))
    rdm = range_doppler(range_profiles(grid, "rect"), cfg, window_fn="rect")
    map_energy = np.sum(rdm.magnitude() ** 2)
    grid_energy = np.sum(np.abs(grid) ** 2)
    assert map_energy == pytest.approx(16 * 32 * grid_energy, rel=1e-9)


def test_estimate_peak_symmetric_offset_zero():
    cfg = cfg_of()
    m, n = cfg.n_frames, cfg.n_subcarriers
    mm, nn = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    grid = np.exp(2j * np.pi * 3 * mm / m) * np.exp(-2j * np.pi * 5 * nn / n)
    rdm = range_doppler(range_profiles(grid, "hann"), cfg, window_fn="hann")
    pick = detect(rdm)
    assert pick.range_m == pytest.approx(5 * rdm.range_scale_m, abs=1e-9)
    assert pick.velocity_mps == pytest.approx(3 * rdm.velocity_scale_mps,
                                              abs=1e-9)


def test_estimate_peak_off_grid_sweep():
    cfg = cfg_of(n=64, m=32)
    dr = range_resolution(cfg)
    for tau_bins in np.linspace(5.0, 6.0, 11):
        scene = Scene(targets=(Target(tau_bins * dr,
                                      3 * doppler_resolution(cfg), 1.0),))
        rdm = range_doppler(
            range_profiles(simulate_capture(cfg, scene), "hann"), cfg,
            window_fn="hann")
        assert abs(detect(rdm).range_m / dr - tau_bins) < 0.1


def test_detect_noise_maps_mostly_empty():
    cfg = cfg_of(n=64, m=32)
    empty = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noise = (rng.standard_normal((32, 64))
                 + 1j * rng.standard_normal((32, 64))) / np.sqrt(2.0)
        rdm = range_doppler(range_profiles(noise, "hann"), cfg,
                            window_fn="hann")
        if detect(rdm, threshold_db=12.0) is None:
            empty += 1
    assert empty >= 95


def test_detect_single_peak():
    cfg = cfg_of()
    d = simulate_capture(
        cfg, Scene(targets=(on_bin_target(cfg, 5, 3),), snr_db=20.0))
    rdm = range_doppler(range_profiles(d, "hann"), cfg, window_fn="hann")
    pick = detect(rdm, threshold_db=12.0)
    assert reference_detect(rdm, threshold_db=12.0, max_targets=4) == [pick]
    assert (pick.bin_p, pick.bin_l) == (3, 5)
    assert pick.power_db > 12.0


def test_detect_empty_map():
    cfg = cfg_of()
    rdm = range_doppler(range_profiles(np.zeros((16, 32), dtype=complex)), cfg)
    assert detect(rdm) is None


def test_detect_orders_by_power_and_suppresses_neighbors():
    cfg = cfg_of()
    scene = Scene(targets=(on_bin_target(cfg, 4, 2, gain=1.0),
                           on_bin_target(cfg, 20, -5, gain=0.4)))
    rdm = range_doppler(range_profiles(simulate_capture(cfg, scene), "hann"),
                        cfg, window_fn="hann")
    # detect keeps the strongest; the greedy reference finds the other.
    picks = reference_detect(rdm, threshold_db=6.0, max_targets=4)
    assert detect(rdm, threshold_db=6.0) == picks[0]
    assert [(p.bin_p, p.bin_l) for p in picks[:2]] == [(2, 4), (-5, 20)]
    assert picks[0].power_db >= picks[1].power_db


def test_detect_test1_window_velocity_negative():
    cfg = cfg_of(n=512, m=32)
    scene = Scene(targets=(Target(0.6, -0.075, 1.0),),
                  coupling=Target(0.0, 0.0, 10.0 ** 1.5), snr_db=20.0,
                  impairments=Impairments(rng_seed=4))
    d = remove_dc(simulate_capture(cfg, scene))
    pick = detect(range_doppler(range_profiles(d, "hann"), cfg,
                                window_fn="hann"))
    assert pick is not None
    assert pick.velocity_mps < 0


def reference_detect(rdm: RangeDopplerMap,
                     threshold_db: float = 12.0,
                     max_targets: int = 5) -> List[Detection]:
    """Greedy multi-pick detection: the ``np.median`` floor, then up to
    ``max_targets`` picks in descending power from the local maxima above
    threshold, each suppressing its 3x3 neighborhood. ``detect``'s one pick
    is its first."""
    mag = rdm.values
    floor = float(np.median(mag))
    if floor <= 0.0:
        floor = float(np.max(mag)) * 1e-9
    if floor <= 0.0:
        return []
    threshold = floor * 10.0 ** (threshold_db / 20.0)
    candidates = reference_local_maxima(mag) & (mag >= threshold) & (mag > 0)
    available = candidates.copy()
    floor_db = 20.0 * math.log10(floor)
    picks: List[Detection] = []
    while len(picks) < max_targets and np.any(available):
        flat = int(np.argmax(np.where(available, mag, -np.inf)))
        row, col = flat // rdm.n_range, flat % rdm.n_range
        range_m, velocity, power_db = reference_estimate_peak(rdm, (row, col))
        picks.append(Detection(
            time_s=rdm.timestamp_s, range_m=range_m, velocity_mps=velocity,
            power_db=power_db - floor_db, bin_l=col,
            bin_p=row - rdm.n_doppler // 2))
        rows = [(row + dr) % rdm.n_doppler for dr in (-1, 0, 1)]
        cols = [(col + dc) % rdm.n_range for dc in (-1, 0, 1)]
        available[np.ix_(rows, cols)] = False
    return picks


@st.composite
def detection_maps(draw):
    """Small-integer maps: few levels (ties, plateaus, zero medians), many
    levels, or one constant (all zero included); sometimes with a NaN."""
    shape = draw(MAP_SHAPES)
    top = draw(st.sampled_from([0, 3, 1000]))
    if top == 0:
        mag = np.full(shape, float(draw(st.integers(0, 3))))
    else:
        mag = draw(hnp.arrays(np.int64, shape,
                              elements=st.integers(0, top))).astype(float)
    if draw(st.booleans()) and draw(st.booleans()):
        mag.flat[draw(st.integers(0, mag.size - 1))] = np.nan
    return mag


@settings(max_examples=300, deadline=None)
@given(detection_maps(), st.floats(0.0, 100.0))
def test_detect_matches_greedy_reference(mag, threshold_db):
    rdm = RangeDopplerMap(values=mag, range_scale_m=0.3,
                          velocity_scale_mps=0.03, timestamp_s=1.5)
    picks = reference_detect(rdm, threshold_db, max_targets=1)
    assert detect(rdm, threshold_db) == (picks[0] if picks else None)


@settings(max_examples=150, deadline=None)
@given(hnp.arrays(np.float64, MAP_SHAPES, elements=st.one_of(
    st.integers(0, 3).map(float), st.floats(0.0, 1e300))))
def test_median_is_numpy_median_bit_for_bit(values):
    # Shapes up to 7x7 give odd and even sizes.
    assert np.float64(_median(values)).tobytes() == \
        np.median(values).tobytes()


def test_track_test1_counts_and_velocity():
    cfg = cfg_of(n=512, m=156)
    cap = simulate_trajectory(cfg, [(0.0, 0.6), (3.9, 0.3)],
                              coupling=Target(0.0, 0.0, 10.0 ** 1.5),
                              snr_db=20.0,
                              impairments=Impairments(rng_seed=1))
    detections = track(window_maps(cap, cfg, window=32, stride=1))
    assert len(detections) == 125
    mean_v = np.mean([d.velocity_mps for d in detections])
    assert mean_v == pytest.approx(-0.075, abs=0.01)
    times = [d.time_s for d in detections]
    assert times == sorted(times)


def test_track_static_scene_detects_nothing():
    cfg = cfg_of(n=64, m=48)
    cap = simulate_trajectory(cfg, [(0.0, 5.0, 0.0)],
                              coupling=Target(0.0, 0.0, 100.0),
                              clutter=(Target(20.0, 0.0, 2.0),))
    assert track(window_maps(cap, cfg, window=16, stride=1)) == []


def test_track_stride_timestamps_are_subsequence():
    cfg = cfg_of(n=64, m=64)
    cap = simulate_trajectory(cfg, [(0.0, 10.0), (1.6, 10.48)],
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
    cap = simulate_trajectory(cfg, [(0.0, 10.0, 0.0)],
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
    cap = simulate_trajectory(cfg, [(0.0, 10.0), (1.6, 10.0 + 1.6 * v)],
                              coupling=Target(0.0, 0.0, 50.0))
    profile = doppler_time_profile(window_maps(cap, cfg, window=16, stride=4,
                                               apply_sync=False,
                                               window_fn="rect"))
    dominant = profile.doppler_bins()[np.argmax(profile.values, axis=0)]
    assert np.all(dominant == 4)


def test_profile_gesture_alternates_sign():
    cfg = cfg_of(n=64, m=160)
    path = [(0.0, 0.1), (1.0, 0.5), (2.0, 0.1), (3.0, 0.5), (4.0, 0.1)]
    cap = simulate_trajectory(cfg, path, coupling=Target(0.0, 0.0, 50.0),
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


# The map path before range profiles were shared between windows, kept as
# the reference: mean removal on each window's subcarrier grid (flushing
# residue below 32 eps of the grid's largest magnitude), then a
# frame-by-subcarrier taper and both transforms per window.
def _reference_axis_window(kind: str, length: int) -> np.ndarray:
    if kind == "rect":
        return np.ones(length)
    if kind == "hann":
        return np.hanning(length)
    raise ValueError(f"unknown window function {kind!r}")


@functools.lru_cache(maxsize=16)
def _reference_taper(window_fn: str, m_frames: int, n_sub: int) -> np.ndarray:
    taper = np.outer(_reference_axis_window(window_fn, m_frames),
                     _reference_axis_window(window_fn, n_sub))
    taper.flags.writeable = False
    return taper


def _reference_remove_dc(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid)
    if grid.ndim != 2 or grid.shape[0] < 2:
        raise ValueError("need a 2-D grid with at least 2 frames")
    out = grid - np.mean(grid, axis=0, keepdims=True)
    tolerance = 32.0 * np.finfo(float).eps * np.max(np.abs(grid))
    out[np.abs(out) <= tolerance] = 0.0
    return out


def _reference_range_doppler(grid: np.ndarray, cfg, window_fn: str = "rect",
                             timestamp_s: float = 0.0) -> RangeDopplerMap:
    grid = np.asarray(grid)
    if grid.ndim != 2 or grid.shape[0] < 2 or grid.shape[1] < 2:
        raise ValueError("need a 2-D grid of at least 2x2")
    m_frames, n_sub = grid.shape
    tapered = grid * _reference_taper(window_fn, m_frames, n_sub)
    range_profiles = np.fft.ifft(tapered, axis=1) * n_sub
    spectrum = np.fft.fftshift(np.fft.fft(range_profiles, axis=0), axes=0)
    return RangeDopplerMap.from_config(np.abs(spectrum), cfg, timestamp_s)


def _reference_window_maps(capture, cfg, window, stride, apply_sic,
                           window_fn):
    half = (window - 1) / 2.0
    for start in window_starts(capture.shape[0], window, stride):
        block = capture[start:start + window]
        if apply_sic:
            block = _reference_remove_dc(block)
        t = (start + half) * cfg.frame_interval_s
        yield _reference_range_doppler(block, cfg, window_fn=window_fn,
                                       timestamp_s=t)


@st.composite
def _window_runs(draw):
    """(capture, window, stride, static): stride at, below and above the
    window, and window counts on and off a multiple of the chunk of
    ``window // stride + 1`` windows."""
    window = draw(st.integers(2, 12))
    stride = draw(st.one_of(st.just(window), st.integers(1, window + 3)))
    n_windows = draw(st.integers(1, 3 * (window // stride + 1) + 1))
    frames = (window + (n_windows - 1) * stride
              + draw(st.integers(0, stride - 1)))
    n_sub = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    static = draw(st.booleans())
    scale = 10.0 ** rng.uniform(-3, 3)
    shape = (1 if static else frames, n_sub)
    rows = scale * (rng.standard_normal(shape)
                    + 1j * rng.standard_normal(shape))
    capture = np.broadcast_to(rows, (frames, n_sub)).copy()
    return capture, window, stride, static


@settings(max_examples=300, deadline=None)
@given(run=_window_runs(), window_fn=st.sampled_from(["rect", "hann"]),
       apply_sic=st.booleans())
def test_window_maps_match_per_window_reference(run, window_fn, apply_sic):
    capture, window, stride, static = run
    cfg = cfg_of(n=capture.shape[1], m=window)
    got = list(window_maps(capture, cfg, window, stride, apply_sync=False,
                           apply_sic=apply_sic, window_fn=window_fn))
    want = list(_reference_window_maps(capture, cfg, window, stride,
                                       apply_sic, window_fn))
    assert len(got) == len(want)
    for new, old in zip(got, want):
        assert new.timestamp_s == old.timestamp_s
        top = np.max(old.values)
        assert np.max(np.abs(new.values - old.values)) <= 1e-12 * top
        # The argmax cell is defined only where no other cell ties the
        # maximum to within that tolerance: a Hann window of 3 keeps one
        # frame (or subcarrier), so every Doppler row (or range column)
        # then has the same magnitude.
        if np.count_nonzero(old.values >= top * (1.0 - 2e-12)) == 1:
            assert peak_cell(new) == peak_cell(old)
        if static and apply_sic:
            assert not np.any(new.values) and not np.any(old.values)


def test_window_maps_memory_stays_flat():
    # Range profiles are taken per chunk of windows, never for the whole
    # capture at once.
    cfg = cfg_of(n=64, m=16)
    rng = np.random.default_rng(8)
    cap = rng.standard_normal((2048, 64)) + 1j * rng.standard_normal((2048, 64))
    tracemalloc.start()
    try:
        for _ in window_maps(cap, cfg, 16, 1, apply_sync=False):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cap.nbytes / 4
