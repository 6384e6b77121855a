import math

import numpy as np
import pytest

from csisense.scenarios import (SCENARIO_GESTURE, SCENARIO_TEST1,
                                ScenarioError, load_scenario, parse_scenario,
                                simulate_scenario)


def test_parse_test1_preset():
    sc = parse_scenario(SCENARIO_TEST1)
    assert sc.n_subcarriers == 512
    assert sc.frame_count == 156
    assert sc.snr_db == 20.0
    assert sc.coupling_gain_db == 30.0
    assert sc.path == [(0.0, 0.6), (3.9, 0.3)]
    assert sc.config().bandwidth_hz == pytest.approx(160e6)


def test_parse_gesture_preset():
    sc = parse_scenario(SCENARIO_GESTURE)
    assert sc.frame_count == 320
    assert len(sc.path) == 9
    assert sc.path[1] == (1.0, 0.4)


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
