import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csisense.channel import (Impairments, Scene, Target, _check_bounds,
                              _delay_ramp, oracle_spectrum, phase_error_trace,
                              simulate_capture, simulate_trajectory,
                              trajectory_samples)
from csisense.rdmap import _BLOCK_FRAMES
from csisense.waveform import (SPEED_OF_LIGHT, db_to_linear,
                               doppler_resolution, make_config,
                               range_resolution)

WIFI = dict(subcarrier_spacing_hz=312.5e3, frame_interval_s=0.025,
            carrier_freq_hz=6.3e9)


def small_cfg(n=32, m=16):
    return make_config(n_subcarriers=n, n_frames=m, **WIFI)


def wifi_cfg(m=32):
    return make_config(n_subcarriers=512, n_frames=m, **WIFI)


def on_bin_target(cfg, range_bin, doppler_bin, gain=1.0):
    return Target(range_bin * range_resolution(cfg),
                  doppler_bin * doppler_resolution(cfg), gain)


def peak_bin(rdm):
    """(Doppler bin, range bin) of the map's maximum."""
    row, col = np.unravel_index(np.argmax(rdm.values), rdm.values.shape)
    return row - rdm.n_doppler // 2, col


def eq5_direct(cfg, scene):
    """Independent entry-by-entry evaluation of the CSI sum."""
    out = np.zeros((cfg.n_frames, cfg.n_subcarriers), dtype=complex)
    for m in range(cfg.n_frames):
        for n in range(cfg.n_subcarriers):
            acc = 0.0 + 0.0j
            for t in scene.reflectors():
                tau = 2.0 * t.range_m / SPEED_OF_LIGHT
                f_d = (2.0 * t.velocity_mps * cfg.carrier_freq_hz
                       / SPEED_OF_LIGHT)
                acc += t.gain * np.exp(
                    2j * np.pi * cfg.frame_interval_s * f_d * m) * np.exp(
                    -2j * np.pi * n * cfg.subcarrier_spacing_hz * tau)
            out[m, n] = acc
    return out


def test_empty_scene_is_silent():
    cfg = small_cfg()
    assert np.all(simulate_capture(cfg, Scene()) == 0)


def test_zero_delay_unit_target_is_all_ones():
    cfg = small_cfg()
    d = simulate_capture(cfg, Scene(targets=(Target(0.0, 0.0, 1.0),)))
    assert np.allclose(d, np.ones((cfg.n_frames, cfg.n_subcarriers)),
                       atol=1e-12)


def test_phase_slopes_match_delay_and_doppler():
    cfg = wifi_cfg()
    target = Target(0.45, 0.075, 1.0)
    d = simulate_capture(cfg, Scene(targets=(target,)))
    tau = 2.0 * 0.45 / SPEED_OF_LIGHT  # ~3 ns
    f_d = 2.0 * 0.075 * cfg.carrier_freq_hz / SPEED_OF_LIGHT  # ~3.15 Hz
    slope_n = np.angle(d[0, 1] / d[0, 0])
    slope_m = np.angle(d[1, 0] / d[0, 0])
    assert slope_n == pytest.approx(-2 * np.pi * cfg.subcarrier_spacing_hz * tau,
                                    rel=1e-9)
    assert slope_m == pytest.approx(2 * np.pi * cfg.frame_interval_s * f_d,
                                    rel=1e-9)
    assert f_d == pytest.approx(3.152101400933956, rel=1e-12)


def test_capture_matches_direct_sum():
    cfg = small_cfg(n=16, m=8)
    scene = Scene(targets=(on_bin_target(cfg, 3, 2),
                           Target(22.1, -0.04, 0.5 - 0.25j)),
                  clutter=(Target(40.0, 0.0, 0.3),))
    d = simulate_capture(cfg, scene)
    direct = eq5_direct(cfg, scene)
    assert np.max(np.abs(d - direct)) < 1e-9 * np.max(np.abs(direct))


def test_static_target_frames_equal_delay_ramp():
    cfg = small_cfg()
    target = Target(30.0, 0.0, 1.0)
    d = simulate_capture(cfg, Scene(targets=(target,)))
    tau = 2.0 * 30.0 / SPEED_OF_LIGHT
    expected_row = np.exp(-2j * np.pi * np.arange(cfg.n_subcarriers)
                          * cfg.subcarrier_spacing_hz * tau)
    for m in range(cfg.n_frames):
        assert np.allclose(d[m], expected_row, atol=1e-10)


def test_capture_superposition():
    cfg = small_cfg()
    t1 = on_bin_target(cfg, 2, 1)
    t2 = on_bin_target(cfg, 9, -3)
    a = simulate_capture(cfg, Scene(targets=(t1,)))
    b = simulate_capture(cfg, Scene(targets=(t2,)))
    both = simulate_capture(cfg, Scene(targets=(t1, t2)))
    assert np.max(np.abs(both - (a + b))) < 1e-12


def test_oracle_on_bin_argmax():
    cfg = small_cfg()
    scene = Scene(targets=(on_bin_target(cfg, 5, 3),))
    assert peak_bin(oracle_spectrum(cfg, scene)) == (3, 5)


def test_oracle_test1_target_bins():
    cfg = wifi_cfg()
    # tau*B = 0.640, fD*M*T = -2.522 for this range/velocity
    scene = Scene(targets=(Target(0.6, -0.075, 1.0),))
    p, l = peak_bin(oracle_spectrum(cfg, scene))
    assert l in (0, 1)
    assert p in (-3, -2)


def test_oracle_two_targets_two_maxima():
    cfg = small_cfg()
    t1 = on_bin_target(cfg, 4, 2)
    t2 = on_bin_target(cfg, 20, -5)
    mag = oracle_spectrum(cfg, Scene(targets=(t1, t2))).values
    row0 = mag.shape[0] // 2
    assert mag[row0 + 2, 4] == pytest.approx(cfg.n_frames * cfg.n_subcarriers,
                                             rel=1e-9)
    assert mag[row0 - 5, 20] == pytest.approx(cfg.n_frames * cfg.n_subcarriers,
                                              rel=1e-9)


def test_oracle_rejects_noise_and_impairments():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        oracle_spectrum(cfg, Scene(targets=(on_bin_target(cfg, 1, 1),),
                                   snr_db=20.0))
    with pytest.raises(ValueError):
        oracle_spectrum(cfg, Scene(
            targets=(on_bin_target(cfg, 1, 1),),
            impairments=Impairments(delay_offset_samples=1.0)))


def test_energy_adds_for_distinct_bins():
    cfg = small_cfg()
    t1 = on_bin_target(cfg, 4, 2)
    t2 = on_bin_target(cfg, 20, -5)
    e1 = np.sum(np.abs(simulate_capture(cfg, Scene(targets=(t1,)))) ** 2)
    both = np.sum(np.abs(simulate_capture(cfg, Scene(targets=(t1, t2)))) ** 2)
    assert both >= e1 - 1e-9 * e1


def test_capture_deterministic():
    cfg = small_cfg()
    scene = Scene(targets=(on_bin_target(cfg, 3, 1),), snr_db=10.0,
                  impairments=Impairments(phase_jump_step_rad=0.5,
                                          phase_jump_prob=0.3,
                                          phase_drift_std_rad=0.01,
                                          rng_seed=42))
    assert np.array_equal(simulate_capture(cfg, scene),
                          simulate_capture(cfg, scene))


def test_awgn_matches_requested_snr():
    cfg = wifi_cfg()  # 512 * 32 = 2^14 entries
    target = on_bin_target(cfg, 5, 3, gain=2.0)
    clean = simulate_capture(cfg, Scene(targets=(target,)))
    noisy = simulate_capture(
        cfg, Scene(targets=(target,), snr_db=12.0,
                   impairments=Impairments(rng_seed=9)))
    noise_power = np.mean(np.abs(noisy - clean) ** 2)
    measured_db = 10.0 * np.log10(abs(target.gain) ** 2 / noise_power)
    assert abs(measured_db - 12.0) < 0.5


def test_target_bounds_checked():
    cfg = small_cfg()
    with pytest.raises(ValueError, match="range"):
        simulate_capture(cfg, Scene(targets=(Target(1e6, 0.0),)))
    with pytest.raises(ValueError, match="velocity"):
        simulate_capture(cfg, Scene(targets=(Target(1.0, 5.0),)))


def test_scene_validation():
    with pytest.raises(ValueError, match="clutter"):
        Scene(clutter=(Target(1.0, 0.5),))
    with pytest.raises(ValueError, match="coupling"):
        Scene(coupling=Target(1.0, 0.0, 100.0))
    with pytest.raises(ValueError, match="dominate"):
        Scene(targets=(Target(1.0, 0.1, 5.0),), coupling=Target(0.0, 0.0, 1.0))
    # The noise reference is a gain's power; it must not overflow.
    with pytest.raises(ValueError, match="gain 1e\\+300 has no finite power"):
        Scene(targets=(Target(0.3, 0.1, 1e300),), snr_db=20.0)
    # So must the noise power an SNR asks for.
    with pytest.raises(ValueError,
                       match="snr_db -4000.0 has no finite linear value"):
        Scene(targets=(Target(0.3, 0.1),), snr_db=-4000.0)
    # An SNR is referenced to a non-coupling reflector, so it needs one.
    with pytest.raises(ValueError, match="non-coupling reflector"):
        Scene(coupling=Target(0.0, 0.0, 10.0), snr_db=20.0)


# simulate_trajectory builds a Scene from its mover samples, so it keeps
# the same rules.
@pytest.mark.parametrize("statics, message", [
    (dict(coupling=Target(1.0, 0.0, 100.0)), "coupling must sit at zero range"),
    (dict(coupling=Target(0.0, 0.0, 100.0), clutter=(Target(2.0, 0.1, 1.0),)),
     "clutter targets must have zero velocity"),
    (dict(coupling=Target(0.0, 0.0, 0.1)), "coupling gain must dominate"),
])
def test_simulate_trajectory_keeps_scene_rules(statics, message):
    cfg = small_cfg()
    with pytest.raises(ValueError, match=message):
        simulate_trajectory(cfg, [(0.0, 10.0, 0.0)], **statics)


# The mover's frames are checked as arrays, with the messages of a check
# one frame at a time: the first frame out of bounds is named, its range
# before its velocity, and the mover before the clutter.
_RANGE_LIMIT = "outside [0, 479.68)"
_VELOCITY_LIMIT = "outside +-0.4758730158730159"


@pytest.mark.parametrize("path, clutter, message", [
    ([(0, 10, 0.0), (0.1, 10, 0.0), (0.2, 900, 0.0), (0.4, 900, 0.0)], (),
     f"target range 677.5000000000001 m {_RANGE_LIMIT}"),
    ([(0, 10, 0.0), (0.1, 10, 0.9), (0.2, 10, 0.0), (0.4, 10, 0.0)], (),
     f"target velocity 0.9 m/s {_VELOCITY_LIMIT}"),
    ([(0, 10, 0.0), (0.1, 10, 0.0), (0.125, 900, 0.9), (0.4, 900, 0.0)], (),
     f"target range 900.0 m {_RANGE_LIMIT}"),
    ([(0, 10, 0.0), (0.1, 10, 0.9), (0.2, 10, 0.0), (0.4, 10, 0.0)],
     (Target(600.0, 0.0, 0.5),), f"target velocity 0.9 m/s {_VELOCITY_LIMIT}"),
    ([(0, 10, 0.0), (0.4, 10, 0.0)],
     (Target(2.0, 0.0, 0.5), Target(600.0, 0.0, 0.5)),
     f"target range 600.0 m {_RANGE_LIMIT}"),
])
def test_simulate_trajectory_names_the_first_frame_out_of_bounds(
        path, clutter, message):
    with pytest.raises(ValueError) as refused:
        simulate_trajectory(small_cfg(), path, clutter=clutter,
                            coupling=Target(0.0, 0.0, 10.0))
    assert str(refused.value) == message


def test_impairments_validation():
    with pytest.raises(ValueError):
        Impairments(phase_jump_prob=0.5)  # no step set
    with pytest.raises(ValueError):
        Impairments(phase_drift_std_rad=-0.1)
    with pytest.raises(ValueError):
        Impairments(phase_jump_prob=1.5, phase_jump_step_rad=0.1)


def test_phase_trace_starts_clean_and_jumps_quantized():
    imp = Impairments(phase_jump_step_rad=np.pi / 2, phase_jump_prob=0.4,
                      rng_seed=11)
    trace = phase_error_trace(imp, 64)
    assert trace[0] == 0.0
    steps = np.diff(trace)
    ratios = steps / (np.pi / 2)
    assert np.max(np.abs(ratios - np.round(ratios))) < 1e-12


def test_delay_offset_is_subcarrier_ramp():
    cfg = small_cfg()
    scene = Scene(targets=(Target(0.0, 0.0, 1.0),),
                  impairments=Impairments(delay_offset_samples=2.5))
    d = simulate_capture(cfg, scene)
    n = np.arange(cfg.n_subcarriers)
    expected = np.exp(-2j * np.pi * n * 2.5 / cfg.n_subcarriers)
    assert np.allclose(d[0], expected, atol=1e-12)


def test_trajectory_test1_shape():
    cfg = wifi_cfg(m=156)
    cap = simulate_trajectory(cfg, [(0.0, 0.6), (3.9, 0.3)])
    assert cap.shape == (156, 512)


def test_trajectory_constant_path_repeats_frames():
    cfg = small_cfg()
    cap = simulate_trajectory(cfg, [(0.0, 10.0, 0.0)])
    for m in range(1, cfg.n_frames):
        assert np.allclose(cap[m], cap[0], atol=1e-12)


def test_trajectory_too_short_rejected():
    cfg = small_cfg()
    with pytest.raises(ValueError, match="path covers"):
        simulate_trajectory(cfg, [(0.0, 1.0), (0.1, 1.2)])


def test_trajectory_constant_velocity_matches_static_capture():
    # A linear segment must reproduce the fixed-scene phasor model exactly.
    cfg = small_cfg()
    r0, v = 30.0, 0.05
    duration = cfg.n_frames * cfg.frame_interval_s
    cap = simulate_trajectory(cfg, [(0.0, r0), (duration, r0 + v * duration)])
    s = np.ones((cfg.n_frames, cfg.n_subcarriers), dtype=complex)
    ref = np.zeros_like(s)
    for m in range(cfg.n_frames):
        rm = r0 + v * m * cfg.frame_interval_s
        tau = 2.0 * rm / SPEED_OF_LIGHT
        f_d = 2.0 * v * cfg.carrier_freq_hz / SPEED_OF_LIGHT
        ref[m] = np.exp(2j * np.pi * cfg.frame_interval_s * f_d * m) * np.exp(
            -2j * np.pi * np.arange(cfg.n_subcarriers)
            * cfg.subcarrier_spacing_hz * tau)
    # Same range law; the Doppler phasor and moving delay ramp agree at the
    # carrier-independent level used by the map (compare magnitudes of the
    # range-bin content per frame and the frame-to-frame phase step).
    step_cap = np.angle(cap[1, 0] / cap[0, 0])
    step_ref = np.angle(ref[1, 0] / ref[0, 0])
    assert step_cap == pytest.approx(step_ref, abs=1e-12)
    assert np.allclose(np.abs(cap), np.abs(ref), atol=1e-12)


def test_trajectory_velocity_from_slope():
    times, ranges, velocities = trajectory_samples(
        [(0.0, 0.6), (3.9, 0.3)], 156, 0.025)
    assert len(times) == 156
    assert ranges[0] == pytest.approx(0.6)
    assert velocities[0] == pytest.approx(-0.3 / 3.9, rel=1e-12)
    assert np.all(velocities == velocities[0])
    # midpoint interpolation
    idx = np.argmin(np.abs(times - 1.95))
    assert ranges[idx] == pytest.approx(0.45, abs=2e-3)


def test_trajectory_explicit_velocity_piecewise():
    path = [(0.0, 0.0, 0.4), (1.0, 0.4, -0.4), (2.0, 0.0, 0.4)]
    times, _, velocities = trajectory_samples(path, 80, 0.025)
    assert velocities[0] == 0.4
    assert velocities[np.searchsorted(times, 1.01)] == -0.4


def test_trajectory_velocity_chosen_per_segment():
    # Segment 0 states its velocity; segment 1 takes its slope.
    path = [(0.0, 0.0, 0.1), (1.0, 0.4), (2.0, 0.0)]
    times, _, velocities = trajectory_samples(path, 80, 0.025)
    assert velocities[0] == 0.1
    assert velocities[np.searchsorted(times, 1.01)] == -0.4


# The whole-array simulators the block loop replaced, verbatim but for
# their names: every step over the whole capture at once.
def reference_channel_rows(cfg, targets):
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


def reference_apply_noise_and_impairments(cfg, grid, scene):
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


def reference_simulate_capture(cfg, scene):
    _check_bounds(cfg, scene.reflectors())
    csi = reference_channel_rows(cfg, scene.reflectors())
    return reference_apply_noise_and_impairments(cfg, csi, scene)


def reference_simulate_trajectory(cfg, path, *, gain=1.0 + 0.0j,
                                  coupling=None, clutter=(), snr_db=None,
                                  impairments=None):
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
        grid = grid + reference_channel_rows(cfg, statics)
    return reference_apply_noise_and_impairments(cfg, grid, scene)


def outcome(simulate, *args, **kwargs):
    """The capture's bytes, or the message it is refused with."""
    try:
        return simulate(*args, **kwargs).tobytes()
    except ValueError as exc:
        return str(exc)


def gains(low, high):
    return st.one_of(st.floats(low, high),
                     st.complex_numbers(min_magnitude=low, max_magnitude=high))


def off_or(strategy):
    return st.one_of(st.just(0.0), strategy)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_block_loop_matches_whole_array_reference(data):
    # Frame counts around one and two blocks, so a block is short, whole
    # or split; every noise and impairment switch; real and complex gains.
    # No whole-array temporary here reaches numpy's 256 KiB threshold for
    # reusing a temporary in place, which would swap the operands of the
    # reference's complex gain * outer product.
    b = _BLOCK_FRAMES
    cfg = small_cfg(n=data.draw(st.integers(2, 9), label="subcarriers"),
                    m=data.draw(st.sampled_from([2, b - 1, b, b + 1,
                                                 2 * b + 3]), label="frames"))
    jump_prob = data.draw(off_or(st.floats(0.01, 1.0)), label="jump prob")
    impairments = Impairments(
        delay_offset_samples=data.draw(off_or(st.floats(-5.0, 5.0)),
                                       label="delay offset"),
        phase_jump_step_rad=np.pi / 2 if jump_prob else 0.0,
        phase_jump_prob=jump_prob,
        phase_drift_std_rad=data.draw(off_or(st.floats(1e-3, 0.5)),
                                      label="drift"),
        rng_seed=data.draw(st.integers(0, 2**32 - 1), label="seed"))
    clutter = [Target(data.draw(st.floats(0.0, 400.0)), 0.0,
                      data.draw(gains(0.1, 2.0)))
               for _ in range(data.draw(st.integers(0, 2), label="clutter"))]
    coupling = data.draw(st.one_of(st.none(), gains(5.0, 100.0).map(
        lambda g: Target(0.0, 0.0, g))), label="coupling")
    snr_db = data.draw(st.one_of(st.none(), st.floats(-5.0, 40.0)),
                       label="snr_db")

    movers = [Target(data.draw(st.floats(0.0, 400.0)),
                     data.draw(st.floats(-0.45, 0.45)),
                     data.draw(gains(0.1, 2.0)))
              for _ in range(data.draw(st.integers(1, 2), label="movers"))]
    scene = Scene(targets=movers, coupling=coupling, clutter=clutter,
                  snr_db=snr_db, impairments=impairments)
    assert (simulate_capture(cfg, scene).tobytes()
            == reference_simulate_capture(cfg, scene).tobytes())

    duration = cfg.n_frames * cfg.frame_interval_s
    start = data.draw(st.floats(1.0, 100.0), label="start range")
    slopes = data.draw(st.lists(st.floats(-0.4, 0.4), min_size=2,
                                max_size=2), label="slopes")
    middle = start + slopes[0] * duration / 2
    path = [(0.0, start, data.draw(st.one_of(st.none(), st.floats(-0.4, 0.4)),
                                   label="stated velocity")),
            (duration / 2, middle), (duration, middle + slopes[1] * duration / 2)]
    kwargs = dict(gain=data.draw(gains(0.1, 2.0), label="gain"),
                  coupling=coupling, clutter=clutter, snr_db=snr_db,
                  impairments=impairments)
    # A path that closes in fast from a short start range goes below zero
    # before it ends; then both must refuse it with the same message.
    assert (outcome(simulate_trajectory, cfg, path, **kwargs)
            == outcome(reference_simulate_trajectory, cfg, path, **kwargs))
