"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers. Run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete."""
import json
import time

import numpy as np
import pytest

from csisense.channel import (Impairments, Scene, Target, oracle_spectrum,
                              simulate_capture)
from csisense.cli import main
from csisense.rdmap import doppler_time_profile, range_doppler, window_maps
from csisense.sic import remove_dc
from csisense.sync import SyncParams, align_phases, frame_phases, synchronize
from csisense.waveform import (doppler_resolution, make_config,
                               range_resolution, unambiguous_limits)

WIFI = dict(subcarrier_spacing_hz=312.5e3, frame_interval_s=0.025,
            carrier_freq_hz=6.3e9)


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_calculator_reproduction():
    started = time.perf_counter()
    cfg = make_config(n_subcarriers=512, n_frames=32, **WIFI)
    resolution = range_resolution(cfg)
    velocity = doppler_resolution(cfg)
    max_range, _ = unambiguous_limits(cfg)
    elapsed = time.perf_counter() - started
    ok = (abs(resolution - 0.9375) / 0.9375 <= 0.005
          and abs(velocity - 0.0298) / 0.0298 <= 0.005
          and abs(max_range - 480.0) / 480.0 <= 0.005
          and elapsed < 1.0)
    report("1 calculator", ok,
           f"dr={resolution:.6f} m dv={velocity:.6f} m/s "
           f"rmax={max_range:.2f} m in {elapsed:.3f} s")


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    cfg = make_config(n_subcarriers=32, n_frames=16, **WIFI)
    matches = 0
    cases = [(l, p) for l in (2, 7, 12, 17, 22) for p in (-6, -3, 1, 4, 7)]
    for range_bin, doppler_bin in cases:
        scene = Scene(targets=(Target(range_bin * range_resolution(cfg),
                                      doppler_bin * doppler_resolution(cfg)),))
        pipeline = range_doppler(simulate_capture(cfg, scene), cfg,
                                 window_fn="rect")
        if pipeline.argmax_bin() == oracle_spectrum(cfg, scene).argmax_bin() \
                == (doppler_bin, range_bin):
            matches += 1
    elapsed = time.perf_counter() - started
    ok = matches == 25 and elapsed < 10.0
    report("2 oracle equivalence", ok,
           f"{matches}/25 argmax matches in {elapsed:.2f} s")


def test_criterion_3_sync_recovery():
    cfg = make_config(n_subcarriers=256, n_frames=8, **WIFI)
    rng = np.random.default_rng(2024)
    recovered = 0
    aligned_all = True
    for case in range(50):
        offset = float(rng.integers(-8, 9)) + rng.choice([0.0, 0.25, 0.5])
        scene = Scene(
            targets=(Target(30.0, -0.09),),
            coupling=Target(0.0, 0.0, 10.0 ** 1.5),
            impairments=Impairments(delay_offset_samples=offset,
                                    rng_seed=case))
        grid = simulate_capture(cfg, scene)
        synced, rep = synchronize(grid, SyncParams(upsample_factor=16))
        if abs(rep.effective_lag_samples - offset) <= 1.0 / 16.0 + 1e-12:
            recovered += 1
        profiles = np.abs(np.fft.ifft(synced, axis=1))
        if not np.all(np.argmax(profiles, axis=1) == 0):
            aligned_all = False
    ok = recovered >= 48 and aligned_all
    report("3 sync recovery", ok,
           f"{recovered}/50 within 1/16 sample, "
           f"coupling at bin 0 in all: {aligned_all}")


def test_criterion_4_phase_alignment():
    delta = np.pi / 2
    drift = 0.02
    cfg = make_config(n_subcarriers=128, n_frames=128, **WIFI)
    scene = Scene(
        targets=(Target(12.0, -0.08),),
        coupling=Target(0.0, 0.0, 10.0 ** 1.5),
        impairments=Impairments(phase_jump_step_rad=delta,
                                phase_jump_prob=0.2,
                                phase_drift_std_rad=drift, rng_seed=7))
    grid = simulate_capture(cfg, scene)
    params = SyncParams(phase_step_rad=delta)
    aligned, _ = align_phases(grid, params)
    phases = frame_phases(aligned)
    diff_std = float(np.std(np.angle(np.exp(1j * np.diff(phases)))))
    twice, second = align_phases(aligned, params)
    idempotent = (np.max(np.abs(twice - aligned)) <= 1e-12
                  and np.max(np.abs(second.corrections_rad)) <= 1e-12)
    ok = diff_std <= 0.06 and idempotent
    report("4 phase alignment", ok,
           f"consecutive-frame phase std {diff_std:.4f} rad (limit 0.06), "
           f"idempotent: {idempotent}")


def test_criterion_5_sic_invariants():
    cfg = make_config(n_subcarriers=64, n_frames=32, **WIFI)
    mover = Target(5 * range_resolution(cfg), 6 * doppler_resolution(cfg))

    noisy = Scene(targets=(mover,), coupling=Target(0.0, 0.0, 100.0),
                  snr_db=20.0, impairments=Impairments(rng_seed=1))
    cleaned = remove_dc(simulate_capture(cfg, noisy))
    col_mean = float(np.max(np.abs(np.mean(cleaned, axis=0))))

    quiet = Scene(targets=(mover,), coupling=Target(0.0, 0.0, 100.0))
    grid = simulate_capture(cfg, quiet)
    rdm = range_doppler(remove_dc(grid), cfg, window_fn="rect")
    zero_row = rdm.n_doppler // 2
    bin0_ratio = float(np.sum(rdm.magnitude()[zero_row] ** 2)
                       / np.sum(rdm.magnitude() ** 2))

    alone = simulate_capture(cfg, Scene(targets=(mover,)))
    peak_alone = np.max(range_doppler(alone, cfg, window_fn="rect").magnitude())
    peak_clean = rdm.magnitude()[zero_row + 6, 5]
    mover_change = abs(peak_clean - peak_alone) / peak_alone

    # Fig-4 style scene: the coupling cell must collapse once removal runs.
    before = range_doppler(grid, cfg, window_fn="rect")
    cell_before = before.magnitude()[zero_row, 0] ** 2
    cell_after = rdm.magnitude()[zero_row, 0] ** 2
    drop_db = 10.0 * np.log10(cell_before / max(cell_after, 1e-300))
    distinguishable = rdm.argmax_bin() == (6, 5)

    ok = (col_mean <= 1e-12 and bin0_ratio <= 1e-18
          and mover_change < 1e-6 and drop_db >= 40.0 and distinguishable)
    report("5 sic invariants", ok,
           f"col mean {col_mean:.2e}, bin0 ratio {bin0_ratio:.2e}, "
           f"mover change {mover_change:.2e}, coupling drop {drop_db:.1f} dB, "
           f"mover is argmax: {distinguishable}")


def test_criterion_6_simulated_test1(tmp_path):
    started = time.perf_counter()
    capture = tmp_path / "test1.bin"
    detections = tmp_path / "test1.jsonl"
    truth = tmp_path / "test1.truth.csv"
    cfg = make_config(n_subcarriers=512, n_frames=32, **WIFI)
    min_velocity = doppler_resolution(cfg)

    assert main(["simulate", "--scenario", "test1", "--seed", "1",
                 "--out", str(capture), "--truth-out", str(truth)]) == 0
    assert main(["process", str(capture), "--window", "32", "--stride", "1",
                 "--out", str(detections)]) == 0
    eval_code = main(["eval", str(detections), str(truth),
                      "--max-range-err", "0.10", "--max-vel-err", "0.03",
                      "--min-true-velocity", f"{min_velocity}"])

    from csisense.capture_io import read_ground_truth
    rows = [json.loads(line) for line in detections.read_text().splitlines()]
    track = read_ground_truth(truth)
    times = np.array([r["t"] for r in rows])
    keep = np.abs(track.velocity_at(times)) >= min_velocity
    range_err = np.median(np.abs(
        np.array([r["range_m"] for r in rows]) - track.range_at(times))[keep])
    vel_err = np.median(np.abs(
        np.array([r["velocity_mps"] for r in rows])
        - track.velocity_at(times))[keep])
    elapsed = time.perf_counter() - started
    ok = (len(rows) == 125 and range_err <= 0.10 and vel_err <= 0.03
          and eval_code == 0 and elapsed < 60.0)
    report("6 simulated test1", ok,
           f"{len(rows)} windows, median range err {range_err:.4f} m, "
           f"median velocity err {vel_err:.4f} m/s, eval exit {eval_code}, "
           f"{elapsed:.1f} s")


def test_criterion_7_simulated_gesture():
    from csisense.scenarios import load_scenario, simulate_scenario
    scenario = load_scenario("gesture")
    cfg_sim, capture, truth = simulate_scenario(scenario, seed=1)
    cfg = make_config(n_subcarriers=512, n_frames=32, **WIFI)

    profile = doppler_time_profile(window_maps(capture, cfg, window=32,
                                               stride=1))
    dominant = profile.doppler_bins()[np.argmax(profile.values, axis=0)]
    truth_velocity = np.interp(profile.window_times_s, truth.times_s,
                               truth.velocities_mps)
    reversals = np.arange(1.0, 8.0)
    window_spacing = profile.window_times_s[1] - profile.window_times_s[0]
    near_reversal = np.min(np.abs(profile.window_times_s[:, None]
                                  - reversals[None, :]), axis=1) \
        <= window_spacing + 1e-9
    agree = np.sign(dominant) == np.sign(truth_velocity)
    signs_ok = bool(np.all(agree | near_reversal))
    flips = int(np.sum(np.abs(np.diff(np.sign(dominant))) > 0))

    rect = doppler_time_profile(window_maps(capture, cfg, window=32, stride=4,
                                            window_fn="rect"))
    zero_row = rect.values.shape[0] // 2
    ridge_ratio = float(np.sum(rect.values[zero_row]) / np.sum(rect.values))

    ok = signs_ok and flips >= 7 and ridge_ratio <= 1e-18
    report("7 simulated gesture", ok,
           f"sign agreement outside +-1 window of reversals: {signs_ok}, "
           f"{flips} sign flips, zero-Doppler ridge ratio {ridge_ratio:.2e}")


def test_criterion_8_format_robustness(tmp_path):
    from csisense.capture_io import read_capture_array, write_capture
    cfg = make_config(n_subcarriers=64, n_frames=16, **WIFI)
    rng = np.random.default_rng(0)
    grid = (rng.standard_normal((16, 64))
            + 1j * rng.standard_normal((16, 64))).astype(np.complex64)
    path = tmp_path / "cap.bin"
    write_capture(path, cfg, grid)
    _, back = read_capture_array(path)
    round_trip = np.array_equal(back, grid)

    bad_magic = tmp_path / "bad.bin"
    bad_magic.write_bytes(b"YOLO" + path.read_bytes()[4:])
    magic_code = main(["process", str(bad_magic)])

    truncated = tmp_path / "cut.bin"
    truncated.write_bytes(path.read_bytes()[:-100])
    truncated_code = main(["process", str(truncated), "--window", "8"])

    ok = round_trip and magic_code == 2 and truncated_code == 2
    report("8 format robustness", ok,
           f"round trip identical: {round_trip}, bad magic exit {magic_code}, "
           f"truncated exit {truncated_code}")
