import importlib.util
import math
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from csisense.scenarios import (SCENARIO_GESTURE, SCENARIO_TEST1,
                                ScenarioError, load_scenario, parse_scenario,
                                simulate_scenario)

# Every field the two presets share: the AX211 numerology and impairments.
AX211_SCENE = dict(
    n_subcarriers=512, frame_interval_s=0.025, carrier_freq_hz=6.3e9,
    subcarrier_spacing_hz=312.5e3, bandwidth_hz=None, snr_db=20.0,
    target_gain=1.0, coupling_gain_db=30.0, clutter=[],
    delay_offset_samples=2.25, phase_jump_step_rad=1.5707963267948966,
    phase_jump_prob=0.08, phase_drift_std_rad=0.005, seed=0)


def test_parse_test1_preset():
    sc = parse_scenario(SCENARIO_TEST1)
    assert asdict(sc) == dict(AX211_SCENE, frame_count=156,
                              path=[(0.0, 0.6), (3.9, 0.3)])
    assert sc.config().bandwidth_hz == pytest.approx(160e6)


def test_parse_gesture_preset():
    sc = parse_scenario(SCENARIO_GESTURE)
    triangle = [(float(t), 0.4 if t % 2 else 0.0) for t in range(9)]
    assert asdict(sc) == dict(AX211_SCENE, frame_count=320, path=triangle)


def test_benchmark_scene_is_the_test1_preset():
    # perfbench/workloads.py keeps its own copy of the presets' numerology
    # and impairments; its test1 scene must parse to the preset but for the
    # capture length and the seed. Loaded from its file without writing
    # bytecode next to it.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(workloads)
        text = workloads.WORKLOADS["export-all"].scenario_text(0)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    bench, preset = asdict(parse_scenario(text)), asdict(
        parse_scenario(SCENARIO_TEST1))
    for key in ("frame_count", "seed"):
        del bench[key], preset[key]
    assert bench == preset


def test_parse_errors():
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario("subcarriers = 8\nwhatever = 1\n")
    with pytest.raises(ScenarioError, match="missing keys"):
        parse_scenario("subcarriers = 8\n")
    with pytest.raises(ScenarioError,
                       match="line 1: path waypoint '1' needs t,range"):
        parse_scenario("path = 1\n")
    with pytest.raises(ScenarioError,
                       match="line 2: path waypoint '' needs t,range"):
        parse_scenario("subcarriers = 8\npath =\n")
    with pytest.raises(ScenarioError,
                       match="line 1: clutter entry ' 3' needs range,gain"):
        parse_scenario("clutter = 2, 0.5; 3\n")
    with pytest.raises(ScenarioError, match="key = value"):
        parse_scenario("just some text\n")


VALID_LINES = {
    "subcarriers": "16", "spacing_hz": "312.5e3", "frame_interval_s": "0.025",
    "carrier_freq_hz": "6.3e9", "frame_count": "4", "path": "0, 1.0",
}


@pytest.mark.parametrize("key, bad", [
    ("subcarriers", "inf"), ("frame_count", "nan"), ("seed", "inf"),
    ("spacing_hz", "nan"), ("bandwidth_hz", "inf"),
    ("frame_interval_s", "inf"), ("carrier_freq_hz", "inf"),
    ("snr_db", "nan"), ("snr_db", "-inf"),
    ("target_gain", "nan"), ("coupling_gain_db", "inf"),
    ("delay_offset_samples", "nan"), ("phase_jump_step_rad", "inf"),
    ("phase_jump_prob", "nan"), ("phase_drift_std_rad", "inf"),
    ("path", "0, 1.0; 1, nan"), ("path", "0, 1.0, inf"),
    ("clutter", "2.0, 0.5; inf, 0.5"), ("clutter", "2.0, nan"),
    ("subcarriers", "64.9"), ("frame_count", "40.7"), ("seed", "1.5"),
    ("frame_count", "1e-3"),
])
def test_parse_rejects_non_finite_values(key, bad):
    lines = dict(VALID_LINES)
    lines.pop(key, None)
    text = "".join(f"{k} = {v}\n" for k, v in lines.items())
    text += f"{key} = {bad}\n"
    lineno = text.count("\n")
    integral = key in ("subcarriers", "frame_count", "seed")
    problem = ("an integer" if integral and math.isfinite(float(bad))
               else "a finite number")
    with pytest.raises(ScenarioError,
                       match=f"line {lineno}: .* is not {problem}"):
        parse_scenario(text)


def test_parse_accepts_integral_float_notation():
    lines = dict(VALID_LINES, subcarriers="1.6e1", frame_count="4.0")
    sc = parse_scenario("".join(f"{k} = {v}\n" for k, v in lines.items())
                        + "seed = 1e3\n")
    assert (sc.n_subcarriers, sc.frame_count, sc.seed) == (16, 4, 1000)
    assert all(type(v) is int for v in (sc.n_subcarriers, sc.frame_count,
                                         sc.seed))


def test_parse_bandwidth_derives_spacing():
    sc = parse_scenario("""
subcarriers = 64
bandwidth_hz = 20e6
frame_interval_s = 0.025
carrier_freq_hz = 6.3e9
frame_count = 8
path = 0, 1.0
""")
    assert sc.config().subcarrier_spacing_hz == pytest.approx(312.5e3)


def test_parse_noiseless_and_comments():
    sc = parse_scenario("""
# comment line
subcarriers = 16   # trailing comment
spacing_hz = 312.5e3
frame_interval_s = 0.025
carrier_freq_hz = 6.3e9
frame_count = 4
snr_db = none
path = 0, 1.0
""")
    assert sc.snr_db is None


def test_load_preset_and_file(tmp_path):
    assert load_scenario("test1").frame_count == 156
    path = tmp_path / "my.scenario"
    path.write_text(SCENARIO_GESTURE)
    assert load_scenario(str(path)).frame_count == 320
    with pytest.raises(ScenarioError, match="neither a preset"):
        load_scenario("nonexistent-scenario")


def test_simulate_holds_the_result_noise_and_one_block():
    # A noisy, impaired trajectory with coupling is built one block of
    # frames at a time: the result (16 bytes a sample), the real noise
    # draws (8) and one block, not whole-capture temporaries (4x the result
    # when every step made one).
    scenario = parse_scenario(SCENARIO_TEST1.replace(
        "frame_count = 156", "frame_count = 2048").replace(
        "path = 0, 0.6; 3.9, 0.3", "path = 0, 0.6; 51.2, 1.2"))
    tracemalloc.start()
    try:
        _, capture, _ = simulate_scenario(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capture.shape == (2048, 512)
    assert scenario.snr_db is not None and scenario.coupling_gain_db
    assert scenario.delay_offset_samples and scenario.phase_jump_prob
    assert peak < 2 * capture.nbytes


def test_simulate_scenario_deterministic():
    sc = load_scenario("test1")
    cfg, cap1, truth = simulate_scenario(sc, seed=5)
    _, cap2, _ = simulate_scenario(sc, seed=5)
    _, cap3, _ = simulate_scenario(sc, seed=6)
    assert np.array_equal(cap1, cap2)
    assert not np.array_equal(cap1, cap3)
    assert cap1.shape == (156, 512)
    assert len(truth.times_s) == 156
    assert truth.ranges_m[0] == pytest.approx(0.6)
    assert truth.velocities_mps[0] == pytest.approx(-0.3 / 3.9)
