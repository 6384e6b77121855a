import json
import re
import struct

import numpy as np
import pytest

from csisense.cli import main
from csisense.scenarios import parse_scenario

SMALL_SCENARIO = """\
subcarriers = 64
spacing_hz = 312.5e3
frame_interval_s = 0.025
carrier_freq_hz = 6.3e9
frame_count = 48
snr_db = 20
target_gain = 1.0
coupling_gain_db = 30
path = 0, 10.0; 1.2, 10.3
delay_offset_samples = 1.25
phase_jump_step_rad = 1.5707963267948966
phase_jump_prob = 0.1
phase_drift_std_rad = 0.005
"""


def parse_kv(output):
    values = {}
    for line in output.strip().splitlines():
        key, _, rest = line.partition("=")
        values[key.strip()] = rest.split("#")[0].strip()
    return values


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "small.scenario"
    scenario.write_text(SMALL_SCENARIO)
    assert main(["simulate", "--scenario", str(scenario), "--seed", "3",
                 "--out", str(root / "cap.bin")]) == 0
    assert main(["process", str(root / "cap.bin"), "--window", "16",
                 "--out", str(root / "det.jsonl")]) == 0
    return root


def test_calc_preset(capsys):
    assert main(["calc", "--preset", "wifi-ax211"]) == 0
    values = parse_kv(capsys.readouterr().out)
    assert float(values["range_resolution_m"]) == pytest.approx(0.936875)
    assert float(values["velocity_resolution_mps"]) == pytest.approx(
        0.0297420634920635, rel=1e-9)
    assert float(values["max_range_m"]) == pytest.approx(479.68)
    assert values["velocity_limits_mps"].startswith("+-0.4758")


def test_calc_with_snr(capsys):
    assert main(["calc", "--preset", "wifi-ax211", "--snr-db", "20"]) == 0
    values = parse_kv(capsys.readouterr().out)
    assert float(values["range_accuracy_m"]) == pytest.approx(0.066247,
                                                              abs=1e-5)


def test_calc_bandwidth_only(capsys):
    assert main(["calc", "--bandwidth", "1.499e8"]) == 0
    values = parse_kv(capsys.readouterr().out)
    assert float(values["range_resolution_m"]) == pytest.approx(1.0)


_AX211_LINES = """\
range_resolution_m = 0.936875
velocity_resolution_mps = 0.029742063492063493
max_range_m = 479.68
max_velocity_span_mps = 0.9517460317460318
velocity_limits_mps = +-0.4758730158730159
"""


@pytest.mark.parametrize("argv, expected", [
    (["--preset", "wifi-ax211", "--snr-db", "20"], _AX211_LINES
     + "range_accuracy_m = 0.06624706656241466  # at 20.0 dB SNR\n"),
    (["--preset", "wifi-ax211"], _AX211_LINES),
    (["--subcarriers", "37", "--bandwidth", "160e6", "--snr-db", "3"],
     _AX211_LINES.replace("479.68", "34.664375")
     + "range_accuracy_m = 0.4689933150067685  # at 3.0 dB SNR\n"),
])
def test_calc_stdout_is_pinned(capsys, argv, expected):
    assert main(["calc", *argv]) == 0
    assert capsys.readouterr().out == expected


def test_calc_invalid_flag_exits_3(capsys):
    assert main(["calc", "--bandwidth", "not-a-number"]) == 3
    assert main(["frobnicate"]) == 3
    assert main(["calc", "--bandwidth", "-5"]) == 3
    # The wave speed is the constant c: no capture records another.
    assert main(["calc", "--wave-speed", "343"]) == 3


@pytest.mark.parametrize("flag", ["--carrier-freq", "--frame-interval",
                                  "--bandwidth", "--spacing", "--snr-db"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_calc_non_finite_value_exits_3(capsys, flag, value):
    assert main(["calc", f"{flag}={value}"]) == 3
    assert "=" not in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["--snr-db", "4000"], "--snr-db 4000.0 has no finite linear value"),
    (["--snr-db", "3080"], "2 * snr_linear finite"),
    (["--frames", "3", "--frame-interval", "1e-320"],
     "velocity resolution is inf"),
    (["--subcarriers", "0", "--bandwidth", "20e6"],
     "n_subcarriers must be >= 2"),
    (["--carrier-freq", "4.9e-324"],
     "carrier_freq_hz 5e-324 * frame_interval_s 0.025 underflows to zero"),
    # SNRs below -3.01 dB, where resolution / sqrt(2 SNR) exceeds a cell.
    (["--snr-db", "-300"], "2 * snr_linear finite"),
    (["--snr-db", "-3.1"], "2 * snr_linear finite"),
])
def test_calc_unrepresentable_value_exits_3(capsys, argv, message):
    assert main(["calc", *argv]) == 3
    captured = capsys.readouterr()
    assert "=" not in captured.out
    assert message in captured.err


def test_simulate_writes_capture_and_truth(workdir):
    assert (workdir / "cap.bin").stat().st_size == 38 + 48 * 64 * 8
    truth_lines = (workdir / "cap.truth.csv").read_text().splitlines()
    assert truth_lines[0] == "t,range_m,velocity_mps"
    assert len(truth_lines) == 1 + 48


def test_simulate_deterministic(workdir, tmp_path):
    scenario = workdir / "small.scenario"
    for name in ("a", "b"):
        assert main(["simulate", "--scenario", str(scenario), "--seed", "3",
                     "--out", str(tmp_path / f"{name}.bin"),
                     "--truth-out", str(tmp_path / f"{name}.csv")]) == 0
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.bin").read_bytes() == (workdir / "cap.bin").read_bytes()


def test_simulate_non_finite_scenario_value_exits_2(tmp_path, capsys):
    scenario = tmp_path / "nan.scenario"
    scenario.write_text(SMALL_SCENARIO.replace("snr_db = 20", "snr_db = nan"))
    out = tmp_path / "cap.bin"
    assert main(["simulate", "--scenario", str(scenario),
                 "--out", str(out)]) == 2
    assert "line 6: 'nan' is not a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, extra, code, message", [
    (("frame_count = 48", "frame_count = 1"), [], 2, "n_frames must be >= 2"),
    (("subcarriers = 64", "subcarriers = 1"), [], 2,
     "n_subcarriers must be >= 2"),
    (("phase_jump_prob = 0.1", "phase_jump_prob = 2"), [], 2,
     "phase_jump_prob must be in [0, 1]"),
    (("1.2, 10.3", "1.0, 10.3"), [], 2, "path covers [0.0, 1.0] s"),
    (("0, 10.0; 1.2, 10.3", "0, 600, 0; 1.2, 600, 0"), [], 2,
     "target range 600.0 m outside"),
    (("snr_db = 20", "snr_db = 20\nseed = -5"), [], 2,
     "line 7: seed '-5' is negative"),
    (("", ""), ["--seed", "-1"], 3, "--seed must be non-negative, got -1"),
    # Finite gains whose power or linear value overflows a float.
    (("target_gain = 1.0", "target_gain = 1e300"), [], 2,
     "reflector gain 1e+300 has no finite power"),
    (("coupling_gain_db = 30", "coupling_gain_db = 8000"), [], 2,
     "coupling_gain_db 8000.0 has no finite linear value"),
    # Finite samples that overflow the capture file's complex64.
    (("target_gain = 1.0", "target_gain = 1e100"), [], 2,
     "non-finite sample at frame 0, subcarrier 0 as complex64"),
    # A coupling return that does not outweigh the mover or the clutter.
    (("coupling_gain_db = 30", "coupling_gain_db = -20"), [], 2,
     "coupling gain must dominate the scene"),
    (("snr_db = 20", "snr_db = 20\nclutter = 2.0, 100"), [], 2,
     "coupling gain must dominate the scene"),
    # A finite SNR whose noise power overflows a float.
    (("snr_db = 20", "snr_db = -4000"), [], 2,
     "snr_db -4000.0 has no finite linear value"),
    # A bandwidth that disagrees with subcarriers * spacing.
    (("spacing_hz = 312.5e3", "spacing_hz = 312.5e3\nbandwidth_hz = 40e6"),
     [], 2, "inconsistent bandwidth"),
    # No subcarriers to spread a bandwidth over.
    (("subcarriers = 64\nspacing_hz = 312.5e3",
      "subcarriers = 0\nbandwidth_hz = 20e6"), [], 2,
     "n_subcarriers must be >= 2"),
    # A carrier so small that f_c * T underflows the velocity span's divisor.
    (("carrier_freq_hz = 6.3e9", "carrier_freq_hz = 4.9e-324"), [], 2,
     "carrier_freq_hz 5e-324 * frame_interval_s 0.025 underflows to zero"),
    # Finite impairments whose phase overflows a float.
    (("phase_drift_std_rad = 0.005", "phase_drift_std_rad = 1.7e308"), [], 2,
     "phase_drift_std_rad 1.7e+308 overflows the phase error"),
    (("delay_offset_samples = 1.25", "delay_offset_samples = 1.7e308"), [], 2,
     "delay_offset_samples 1.7e+308 overflows the delay ramp"),
    # The wave speed is not a scenario key: no capture could record it.
    (("snr_db = 20", "snr_db = 20\nwave_speed_mps = 1.5e8"), [], 2,
     "line 7: unknown key 'wave_speed_mps'"),
])
def test_simulate_rejected_scenario_or_seed(tmp_path, capsys, edit, extra,
                                            code, message):
    scenario = tmp_path / "bad.scenario"
    scenario.write_text(SMALL_SCENARIO.replace(*edit))
    out = tmp_path / "cap.bin"
    assert main(["simulate", "--scenario", str(scenario),
                 "--out", str(out), *extra]) == code
    err = capsys.readouterr().err
    assert message in err
    if code == 2:
        assert f"csisense: scenario {scenario}: " in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["subcarriers", "frame_count"])
def test_simulate_count_beyond_header_exits_2(tmp_path, capsys, monkeypatch,
                                              key):
    # The header stores both counts as u32; the refusal must come before
    # the simulator allocates the grid.
    def simulate_trajectory(*args, **kwargs):
        pytest.fail("simulate_trajectory ran on a count the header cannot hold")
    monkeypatch.setattr("csisense.scenarios.simulate_trajectory",
                        simulate_trajectory)
    scenario = tmp_path / "huge.scenario"
    scenario.write_text(SMALL_SCENARIO + f"{key} = 4294967296\n")
    out = tmp_path / "cap.bin"
    assert main(["simulate", "--scenario", str(scenario),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"csisense: scenario {scenario}: line 14: {key} 4294967296 "
            "does not fit the capture header's limit of 4294967295") in err
    assert not out.exists()
    # The largest count the header holds still parses.
    assert parse_scenario(SMALL_SCENARIO + f"{key} = 4294967295\n")


def test_simulate_unknown_scenario_exits_2(tmp_path):
    assert main(["simulate", "--scenario", "nope",
                 "--out", str(tmp_path / "x.bin")]) == 2


def test_process_detections(workdir):
    rows = [json.loads(line)
            for line in (workdir / "det.jsonl").read_text().splitlines()]
    assert len(rows) == 48 - 16 + 1
    times = [r["t"] for r in rows]
    assert times == sorted(times)
    velocities = np.array([r["velocity_mps"] for r in rows])
    assert np.median(np.abs(velocities - 0.25)) < 0.03
    for field in ("t", "range_m", "velocity_mps", "power_db", "bin_l", "bin_p"):
        assert field in rows[0]


def test_process_deterministic(workdir, tmp_path):
    out = tmp_path / "det2.jsonl"
    assert main(["process", str(workdir / "cap.bin"), "--window", "16",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (workdir / "det.jsonl").read_bytes()


def test_process_stdout_matches_out_file(workdir, capsys):
    capsys.readouterr()
    assert main(["process", str(workdir / "cap.bin"), "--window", "16"]) == 0
    assert capsys.readouterr().out.encode() == \
        (workdir / "det.jsonl").read_bytes()


def test_process_emits_reports(workdir, tmp_path):
    maps_dir = tmp_path / "maps"
    prof_csv = tmp_path / "prof.csv"
    sync_json = tmp_path / "sync.json"
    assert main(["process", str(workdir / "cap.bin"), "--window", "16",
                 "--stride", "8", "--out", str(tmp_path / "d.jsonl"),
                 "--emit-maps", str(maps_dir),
                 "--emit-spectrogram", str(prof_csv),
                 "--emit-sync-report", str(sync_json)]) == 0
    maps = sorted(maps_dir.iterdir())
    assert [p.name for p in maps[:2]] == ["map_00000.csv", "map_00000.pgm"]
    assert len(maps) == 2 * 5  # (48-16)/8 + 1 windows
    doc = json.loads(sync_json.read_text())
    assert doc["effective_lag_samples"] == pytest.approx(1.25, abs=1 / 16)
    lines = prof_csv.read_text().splitlines()
    assert len(lines) == 1 + 16


def test_process_spectrogram_pgm(workdir, tmp_path):
    pgm = tmp_path / "prof.pgm"
    assert main(["process", str(workdir / "cap.bin"), "--window", "16",
                 "--stride", "8", "--out", str(tmp_path / "d.jsonl"),
                 "--emit-spectrogram", str(pgm)]) == 0
    header = b"P5\n5 16\n255\n"  # 5 windows wide, 16 Doppler bins high
    raw = pgm.read_bytes()
    assert raw.startswith(header)
    pixels = raw[len(header):]
    assert len(pixels) == 5 * 16
    assert min(pixels) == 0 and max(pixels) == 255


def test_process_no_sic_dominated_by_coupling_cell(workdir, tmp_path):
    out = tmp_path / "nosic.jsonl"
    assert main(["process", str(workdir / "cap.bin"), "--window", "16",
                 "--no-sic", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows
    assert all(r["bin_l"] == 0 and r["bin_p"] == 0 for r in rows)


def spectrogram_matrix(path):
    lines = path.read_text().splitlines()
    return np.array([[float(x) for x in line.split(",")[1:]]
                     for line in lines[1:]])


def test_process_no_sync_smears_doppler(workdir, tmp_path):
    # Uncorrected phase jumps spread energy across Doppler bins, dropping
    # the dominant-bin share of each window's spectrum.
    fractions = {}
    for label, flags in (("sync", []), ("nosync", ["--no-sync"])):
        prof = tmp_path / f"{label}.csv"
        assert main(["process", str(workdir / "cap.bin"), "--window", "16",
                     "--out", str(tmp_path / f"{label}.jsonl"),
                     "--emit-spectrogram", str(prof)] + flags) == 0
        energy = spectrogram_matrix(prof)
        fractions[label] = np.mean(np.max(energy, axis=0)
                                   / np.sum(energy, axis=0))
    assert fractions["nosync"] < fractions["sync"]


def test_process_rejects_sync_report_without_sync(workdir, tmp_path):
    assert main(["process", str(workdir / "cap.bin"), "--no-sync",
                 "--emit-sync-report", str(tmp_path / "s.json")]) == 3


def test_process_bad_stride_writes_nothing(workdir, tmp_path):
    report = tmp_path / "sync.json"
    assert main(["process", str(workdir / "cap.bin"), "--window", "16",
                 "--stride", "0", "--emit-sync-report", str(report)]) == 3
    assert not report.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_process_non_finite_threshold_writes_nothing(workdir, tmp_path,
                                                     capsys, value):
    out, report = tmp_path / "d.jsonl", tmp_path / "sync.json"
    assert main(["process", str(workdir / "cap.bin"), "--window", "16",
                 f"--threshold-db={value}", "--out", str(out),
                 "--emit-sync-report", str(report)]) == 3
    assert "invalid finite_float value" in capsys.readouterr().err
    assert not out.exists() and not report.exists()


def test_process_unrepresentable_threshold_exits_3(workdir, tmp_path,
                                                   capsys):
    out, report = tmp_path / "d.jsonl", tmp_path / "sync.json"
    assert main(["process", str(workdir / "cap.bin"), "--window", "16",
                 "--threshold-db", "8000", "--out", str(out),
                 "--emit-sync-report", str(report)]) == 3
    assert "--threshold-db 8000.0 has no finite linear value" \
        in capsys.readouterr().err
    assert not out.exists() and not report.exists()
    # checked before the capture is opened
    assert main(["process", str(tmp_path / "missing.bin"),
                 "--threshold-db", "8000"]) == 3



@pytest.mark.parametrize("argv", [["--upsample", "0"], ["--upsample", "1025"],
                                  ["--history", "0"], ["--max-lag", "0"],
                                  ["--delta", "0"], ["--stride", "0"],
                                  ["--window", "1"]])
def test_process_bad_sync_argument_exits_3_before_the_read(tmp_path, capsys,
                                                           argv):
    assert main(["process", str(tmp_path / "missing.bin"), *argv]) == 3
    assert "No such file" not in capsys.readouterr().err


def test_process_upsample_limit(workdir, tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    assert main(["process", str(workdir / "cap.bin"), "--window", "16",
                 "--upsample", "1025", "--out", str(out)]) == 3
    assert "upsample_factor must be in [1, 1024]" in capsys.readouterr().err
    assert not out.exists()
    assert main(["process", str(workdir / "cap.bin"), "--window", "16",
                 "--upsample", "1024", "--out", str(out)]) == 0

@pytest.mark.parametrize("flag", ["--max-range-err", "--max-vel-err",
                                  "--min-true-velocity"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_eval_non_finite_limit_exits_3(workdir, capsys, flag, value):
    assert main(["eval", str(workdir / "det.jsonl"),
                 str(workdir / "cap.truth.csv"), f"{flag}={value}"]) == 3
    assert "invalid finite_float value" in capsys.readouterr().err


def test_process_bad_capture_exits_2(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + b"\x00" * 100)
    assert main(["process", str(bad)]) == 2
    assert main(["process", str(tmp_path / "missing.bin")]) == 2


def test_process_unsyncable_capture_exits_2(workdir, tmp_path, capsys):
    raw = bytearray((workdir / "cap.bin").read_bytes())
    raw[38:38 + 64 * 8] = bytes(64 * 8)  # frame 0 all zero
    bad = tmp_path / "zero_frame.bin"
    bad.write_bytes(bytes(raw))
    out = tmp_path / "d.jsonl"
    assert main(["process", str(bad), "--window", "16",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "received sequence is all zero" in err
    assert not out.exists()


def test_process_max_lag_beyond_capture_exits_3(workdir, tmp_path, capsys):
    out, report = tmp_path / "d.jsonl", tmp_path / "sync.json"
    assert main(["process", str(workdir / "cap.bin"), "--window", "16",
                 "--max-lag", "64", "--out", str(out),
                 "--emit-sync-report", str(report)]) == 3
    assert "--max-lag 64 must be below the capture's 64 subcarriers" \
        in capsys.readouterr().err
    assert not out.exists() and not report.exists()


def test_process_truncated_capture_exits_2(workdir, tmp_path):
    raw = (workdir / "cap.bin").read_bytes()
    cut = tmp_path / "cut.bin"
    cut.write_bytes(raw[: 38 + 10 * 64 * 8 + 17])
    assert main(["process", str(cut), "--window", "8"]) == 2


def test_process_non_finite_sample_exits_2(tmp_path, capsys):
    cap = tmp_path / "test1.bin"
    assert main(["simulate", "--scenario", "test1", "--seed", "3",
                 "--out", str(cap)]) == 0
    raw = bytearray(cap.read_bytes())
    n_sub = struct.unpack_from("<I", raw, 6)[0]
    offset = 38 + (40 * n_sub + 100) * 8
    raw[offset:offset + 4] = struct.pack("<f", float("nan"))
    cap.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["process", str(cap), "--out", str(tmp_path / "d.jsonl")]) == 2
    assert "frame 40, subcarrier 100" in capsys.readouterr().err
    assert not (tmp_path / "d.jsonl").exists()


def test_process_non_finite_header_exits_2(workdir, tmp_path, capsys):
    raw = bytearray((workdir / "cap.bin").read_bytes())
    raw[14:22] = struct.pack("<d", float("nan"))  # carrier frequency
    bad = tmp_path / "nan_carrier.bin"
    bad.write_bytes(bytes(raw))
    assert main(["process", str(bad), "--window", "16",
                 "--out", str(tmp_path / "d.jsonl")]) == 2
    assert "non-finite header field" in capsys.readouterr().err
    assert not (tmp_path / "d.jsonl").exists()


def test_process_trailing_bytes_exits_2(workdir, tmp_path, capsys):
    padded = tmp_path / "padded.bin"
    padded.write_bytes((workdir / "cap.bin").read_bytes() + b"\0" * 8)
    assert main(["process", str(padded), "--window", "16"]) == 2
    assert "past the 48 frames" in capsys.readouterr().err


def test_process_unpatched_frame_count_exits_2(workdir, tmp_path, capsys):
    # A header that declares 0 frames over a full payload.
    raw = bytearray((workdir / "cap.bin").read_bytes())
    raw[10:14] = struct.pack("<I", 0)
    unpatched = tmp_path / "unpatched.bin"
    unpatched.write_bytes(bytes(raw))
    assert main(["process", str(unpatched), "--window", "16"]) == 2
    assert "past the 0 frames" in capsys.readouterr().err


def test_process_one_subcarrier_header_exits_2(tmp_path, capsys):
    # A well-formed file whose header describes no usable waveform.
    bad = tmp_path / "one_subcarrier.bin"
    bad.write_bytes(struct.pack("<4sHIIddd", b"CSIF", 1, 1, 48, 6.3e9,
                                312.5e3, 0.025) + b"\0" * 48 * 8)
    out = tmp_path / "d.jsonl"
    assert main(["process", str(bad), "--window", "16",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "n_subcarriers must be >= 2" in err
    assert not out.exists()


def test_process_subnormal_spacing_header_exits_2(workdir, tmp_path, capsys):
    raw = bytearray((workdir / "cap.bin").read_bytes())
    raw[22:30] = struct.pack("<d", 1e-320)  # subcarrier spacing
    bad = tmp_path / "tiny_spacing.bin"
    bad.write_bytes(bytes(raw))
    assert main(["process", str(bad), "--window", "16"]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "range resolution is inf" in err


def test_eval_pass_and_fail(workdir, tmp_path, capsys):
    det = str(workdir / "det.jsonl")
    truth = str(workdir / "cap.truth.csv")
    assert main(["eval", det, truth, "--max-range-err", "0.5",
                 "--max-vel-err", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "range_error_m" in out and "result = pass" in out
    assert main(["eval", det, truth, "--max-range-err", "1e-9"]) == 1


def test_eval_min_true_velocity_skips_slow_truth(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("t,range_m,velocity_mps\n0,1.0,0\n1,1.0,0\n"
                     "2,1.5,0.5\n3,2.0,0.5\n")
    det = tmp_path / "det.jsonl"
    det.write_text("".join(
        json.dumps({"t": t, "range_m": r, "velocity_mps": v}) + "\n"
        for t, r, v in ((0.5, 1.0, 0.0), (2.5, 1.75, 0.5))))
    # The first detection's true velocity is 0, below the filter.
    assert main(["eval", str(det), str(truth),
                 "--min-true-velocity", "0.1"]) == 0
    assert "detections_evaluated = 1" in capsys.readouterr().out
    assert main(["eval", str(det), str(truth),
                 "--min-true-velocity", "0.6"]) == 1
    assert "no detections pass the filters" in capsys.readouterr().err


def test_eval_empty_detections(workdir, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["eval", str(empty), str(workdir / "cap.truth.csv")]) == 1


def test_eval_missing_truth_exits_2(workdir, tmp_path):
    assert main(["eval", str(workdir / "det.jsonl"),
                 str(tmp_path / "missing.csv")]) == 2


def test_eval_malformed_detections_exits_2(workdir, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"t": 0.1}\n')
    assert main(["eval", str(bad), str(workdir / "cap.truth.csv")]) == 2


@pytest.mark.parametrize("field, value", [
    ("range_m", "NaN"), ("velocity_mps", "-Infinity"), ("t", "Infinity")])
def test_eval_non_finite_detection_exits_2(workdir, tmp_path, capsys, field,
                                           value):
    lines = (workdir / "det.jsonl").read_text().splitlines()
    lines[1] = re.sub(f'"{field}": [^,}}]+', f'"{field}": {value}', lines[1])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["eval", str(bad), str(workdir / "cap.truth.csv")]) == 2
    assert "detection 1 has a non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("t", [-0.025, 1.2])
def test_eval_detection_outside_truth_span_exits_2(workdir, tmp_path, capsys,
                                                   t):
    # The truth spans [0, 1.175] s: 48 frames 25 ms apart.
    lines = (workdir / "det.jsonl").read_text().splitlines()
    lines[2] = re.sub('"t": [^,]+', f'"t": {t}', lines[2])
    bad = tmp_path / "late.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["eval", str(bad), str(workdir / "cap.truth.csv")]) == 2
    assert (f"detection 2 at t = {t} s lies outside the truth's span "
            "[0.0, 1.175] s") in capsys.readouterr().err


def test_process_window_longer_than_capture_exits_3(workdir):
    assert main(["process", str(workdir / "cap.bin"), "--window", "999"]) == 3


def test_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["process", "--help"]) == 0
