import csv
import io
import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csisense
from csisense import cli, gridcsv, rdmap
from csisense.capture_io import (CaptureFile, CaptureFormatError,
                                 read_capture_array,
                                 write_capture, write_sync_report_json)
from csisense.cli import main
from csisense.scenarios import parse_scenario
from csisense.sync import SyncParams, synchronize
from csisense.waveform import make_config

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


@pytest.mark.parametrize("flag, name", [("--subcarriers", "n_subcarriers"),
                                        ("--frames", "n_frames")])
def test_calc_count_past_the_float_range_exits_3(capsys, flag, name):
    # Such a count overflowed the bandwidth or resolution products with a
    # traceback (exit 1).
    assert main(["calc", "--preset", "wifi-ax211", flag, "1" + "0" * 400]) == 3
    assert capsys.readouterr() == (
        "", f"csisense: {name} is too large for a float\n")


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


def test_simulate_unwritable_output_exits_2_before_simulating(
        workdir, tmp_path, capsys, monkeypatch):
    # Every destination is checked before the scene is simulated, so a
    # refused command leaves neither file.
    monkeypatch.setattr(
        cli, "simulate_scenario",
        lambda *a: pytest.fail("simulated before the outputs were checked"))
    out, folder = tmp_path / "x.bin", tmp_path / "folder"
    folder.mkdir()
    missing = tmp_path / "nodir" / "t.csv"
    for extra, message in [
            (["--out", str(out), "--truth-out", str(missing)],
             f"cannot write {missing}: no directory {missing.parent}"),
            (["--out", str(missing)],
             f"cannot write {missing}: no directory {missing.parent}"),
            (["--out", str(out), "--truth-out", str(folder)],
             f"cannot write {folder}: it is a directory")]:
        assert main(["simulate", "--scenario",
                     str(workdir / "small.scenario"), *extra]) == 2
        assert capsys.readouterr().err == f"csisense: {message}\n"
        assert sorted(tmp_path.iterdir()) == [folder]
    # A bad seed is an invalid argument, refused before the outputs.
    assert main(["simulate", "--scenario", "test1", "--seed", "-1",
                 "--out", str(missing)]) == 3


@pytest.mark.parametrize("case", ["truth-out-is-out", "out-is-scenario",
                                  "truth-is-scenario"])
def test_simulate_same_file_twice_exits_2_before_simulating(
        tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(
        cli, "simulate_scenario",
        lambda *a: pytest.fail("simulated before the outputs were checked"))
    # The default truth path, <out>.truth.csv, is the scenario file in the
    # last case.
    scenario = tmp_path / ("s.truth.csv" if case == "truth-is-scenario"
                           else "s.scenario")
    scenario.write_text(SMALL_SCENARIO)
    out = tmp_path / "x.bin"
    argv, path, role = {
        "truth-out-is-out": (["--scenario", "test1", "--out", str(out),
                              "--truth-out", str(out)], out, "output"),
        "out-is-scenario": (["--scenario", str(scenario),
                             "--out", str(scenario)], scenario, "input"),
        "truth-is-scenario": (["--scenario", str(scenario),
                               "--out", str(tmp_path / "s.bin")],
                              scenario, "input"),
    }[case]
    assert main(["simulate", *argv]) == 2
    assert capsys.readouterr().err == (f"csisense: cannot write {path}: it is "
                                       f"the same file as the {role} {path}\n")
    assert sorted(tmp_path.iterdir()) == [scenario]
    assert scenario.read_text() == SMALL_SCENARIO


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


def files_under(root):
    """Every file under ``root``: relative path -> bytes."""
    return {path.relative_to(root): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def set_cpus(monkeypatch, count, affinity=True):
    """Make this process look as if it may run on ``count`` CPUs, told by
    ``os.sched_getaffinity`` or, where that is missing, ``os.cpu_count``."""
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def record_map_writer(monkeypatch):
    """The helper, or None, of each --emit-maps pass from here on."""
    started = []
    start_map_writer = cli._start_map_writer
    monkeypatch.setattr(cli, "_start_map_writer", lambda n: started.append(
        start_map_writer(n)) or started[-1])
    return started


@pytest.mark.parametrize("window, stride", [(16, 8), (40, 8), (48, 8)])
def test_process_maps_are_the_same_whatever_the_writer_count(
        workdir, tmp_path, monkeypatch, window, stride):
    # With two maps or more and more than one CPU, a helper process writes
    # the odd maps' CSVs; one that cannot start leaves them to this
    # process. Every tree, of 5, 2 or 1 maps, is the one-writer tree to the
    # byte, and every map CSV parses back exactly to window_maps'
    # magnitudes.
    cap = workdir / "cap.bin"
    header = read_capture_array(cap, 0, 0)[0]
    cfg = make_config(n_subcarriers=header.n_subcarriers, n_frames=window,
                      subcarrier_spacing_hz=header.subcarrier_spacing_hz,
                      frame_interval_s=header.frame_interval_s,
                      carrier_freq_hz=header.carrier_freq_hz)
    want = [rdm.values for rdm in rdmap.window_maps(
        CaptureFile(cap), cfg, window, stride)]
    started = record_map_writer(monkeypatch)
    popen = subprocess.Popen

    def cannot_start(*args, **kwargs):
        monkeypatch.setattr(subprocess, "Popen", popen)
        raise OSError("no process for this test")

    trees = []
    for cpus, affinity, fails in ((1, True, False), (2, True, False),
                                  (64, True, False), (3, False, False),
                                  (3, True, True)):
        set_cpus(monkeypatch, cpus, affinity)
        if fails:
            monkeypatch.setattr(subprocess, "Popen", cannot_start)
        out = tmp_path / f"{cpus}-{affinity}-{fails}"
        out.mkdir()
        assert main(["process", str(cap), "--window", str(window),
                     "--stride", str(stride), "--out", str(out / "d.jsonl"),
                     "--emit-maps", str(out / "maps")]) == 0
        assert no_child_left()
        assert (started[-1] is not None) \
            == (cpus > 1 and len(want) > 1 and not fails)
        trees.append(files_under(out))
    assert all(tree == trees[0] for tree in trees[1:])
    assert len(trees[0]) == 1 + 2 * len(want)
    for index, magnitudes in enumerate(want):
        text = trees[0][Path("maps", f"map_{index:05d}.csv")].decode()
        rows = list(csv.reader(io.StringIO(text, newline="")))[1:]
        back = np.array([[float(x) for x in row[1:]] for row in rows])
        assert np.array_equal(back, magnitudes)


def process_maps(workdir, out):
    return main(["process", str(workdir / "cap.bin"), "--window", "16",
                 "--stride", "8", "--out", str(out / "d.jsonl"),
                 "--emit-maps", str(out / "maps")])


@pytest.mark.parametrize("taken", [(1,), (3,), (0,), (2,), (4,), (1, 2)])
def test_process_map_that_cannot_be_written_exits_2(workdir, tmp_path,
                                                    monkeypatch, capsys,
                                                    taken):
    # Of the 5 maps, the helper writes the odd CSVs and this process the
    # even ones. Either way a CSV that cannot be written exits 2 with the
    # message of the first, as one writer would, and every map before it
    # is the one-writer map to the byte: where this process fails, the
    # helper writes what it was sent before it is reaped.
    set_cpus(monkeypatch, 1)
    (tmp_path / "one").mkdir()
    assert process_maps(workdir, tmp_path / "one") == 0
    whole = files_under(tmp_path / "one" / "maps")
    set_cpus(monkeypatch, 2)
    started = record_map_writer(monkeypatch)
    out = tmp_path / "two"
    for index in taken:
        (out / "maps" / f"map_{index:05d}.csv").mkdir(parents=True)
    with pytest.raises(OSError) as caught:
        open(out / "maps" / f"map_{taken[0]:05d}.csv", "w")
    capsys.readouterr()
    assert process_maps(workdir, out) == 2
    assert capsys.readouterr() == ("", f"csisense: {caught.value}\n")
    assert started[0].returncode == taken[0] % 2
    assert no_child_left()
    written = files_under(out / "maps")
    for index in range(taken[0]):
        for suffix in (".csv", ".pgm"):
            name = Path(f"map_{index:05d}{suffix}")
            assert written[name] == whole[name]


@pytest.mark.parametrize("sends_before_kill", [0, 1, 2])
def test_process_killed_map_writer_exits_2(workdir, tmp_path, monkeypatch,
                                           capsys, sends_before_kill):
    # The helper, sent the CSVs of maps 1 and 3, is killed before its
    # first, before its second or after its last: exit 2 with one line,
    # not a BrokenPipeError, and no helper left.
    set_cpus(monkeypatch, 2)
    started = record_map_writer(monkeypatch)
    sent = []
    send_grid = gridcsv.send_grid

    def kill():
        started[0].kill()
        started[0].wait(timeout=60)

    def send_then_kill(*args):
        if len(sent) == sends_before_kill:
            kill()
        sent.append(args[1])
        send_grid(*args)
        if len(sent) == sends_before_kill == 2:
            kill()

    monkeypatch.setattr(gridcsv, "send_grid", send_then_kill)
    capsys.readouterr()
    assert process_maps(workdir, tmp_path) == 2
    assert capsys.readouterr() == (
        "", f"csisense: a map CSV writer was killed by signal "
            f"{int(signal.SIGKILL)}\n")
    assert len(sent) == min(sends_before_kill + 1, 2)
    assert no_child_left()


def test_process_interrupted_stops_the_map_writer(workdir, tmp_path,
                                                  monkeypatch):
    # An interrupt does not wait for the helper: it is terminated, then
    # reaped, and the interrupt goes on.
    set_cpus(monkeypatch, 2)
    started = record_map_writer(monkeypatch)
    write_map_pgm = cli.capture_io.write_map_pgm

    def interrupt_at_map_2(path, rdm):
        if path.endswith("map_00002.pgm"):
            raise KeyboardInterrupt
        write_map_pgm(path, rdm)

    monkeypatch.setattr(cli.capture_io, "write_map_pgm", interrupt_at_map_2)
    with pytest.raises(KeyboardInterrupt):
        process_maps(workdir, tmp_path)
    assert started[0].returncode == -signal.SIGTERM
    assert no_child_left()


def test_process_sync_report_spans_every_block(tmp_path):
    # A capture of several blocks, synchronized inside the stream with
    # non-default parameters, reports what one synchronize call does.
    cfg = make_config(n_subcarriers=16, n_frames=8,
                      subcarrier_spacing_hz=312.5e3, frame_interval_s=0.025,
                      carrier_freq_hz=6.3e9)
    rng = np.random.default_rng(6)
    jumps = np.exp(0.5j * np.pi * rng.integers(0, 4, (150, 1)))
    grid = jumps * (np.exp(-0.5j * np.pi * np.arange(16) / 16)
                    + 0.1 * rng.standard_normal((150, 16)))
    cap = tmp_path / "cap.bin"
    write_capture(cap, cfg, grid)
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    assert main(["process", str(cap), "--window", "8", "--history", "3",
                 "--delta", "1.5", "--upsample", "4", "--max-lag", "3",
                 "--out", str(tmp_path / "d.jsonl"),
                 "--emit-sync-report", str(got)]) == 0
    _, capture = read_capture_array(cap)
    _, report = synchronize(capture, SyncParams(
        upsample_factor=4, phase_step_rad=1.5, history_len=3, max_lag=3))
    write_sync_report_json(want, report)
    assert len(report.frame_phases_rad) == 150
    assert got.read_bytes() == want.read_bytes()


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
    # Sync runs inside the pass over the windows; it refuses before any
    # output is written.
    report, maps, profile = (tmp_path / "sync.json", tmp_path / "maps",
                             tmp_path / "profile.csv")
    assert main(["process", str(bad), "--window", "16", "--out", str(out),
                 "--emit-sync-report", str(report), "--emit-maps", str(maps),
                 "--emit-spectrogram", str(profile)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"csisense: capture {bad} defeats sync: no "
                            "correlation peak: received sequence is all "
                            "zero\n")
    assert captured.out == ""
    assert not any(p.exists() for p in (out, report, maps, profile))


def test_process_max_lag_beyond_capture_exits_3(workdir, tmp_path, capsys):
    out, report = tmp_path / "d.jsonl", tmp_path / "sync.json"
    assert main(["process", str(workdir / "cap.bin"), "--window", "16",
                 "--max-lag", "64", "--out", str(out),
                 "--emit-sync-report", str(report)]) == 3
    assert "--max-lag 64 must be below the capture's 64 subcarriers" \
        in capsys.readouterr().err
    assert not out.exists() and not report.exists()


def test_process_unwritable_output_exits_2_before_the_read(workdir, tmp_path,
                                                          capsys):
    # Every destination is checked after the arguments and before the
    # capture is opened, so a refused command leaves no file behind.
    cap = str(workdir / "cap.bin")
    out, report = tmp_path / "d.jsonl", tmp_path / "sync.json"
    taken, folder = tmp_path / "taken", tmp_path / "folder"
    taken.write_text("")
    folder.mkdir()
    profile = tmp_path / "nodir" / "p.csv"
    for extra, message in [
            (["--emit-spectrogram", str(profile)],
             f"cannot write {profile}: no directory {profile.parent}"),
            (["--emit-maps", str(taken), "--emit-sync-report", str(report)],
             f"cannot write maps to {taken}: {taken} is not a directory"),
            (["--emit-maps", str(taken / "maps")],
             f"cannot write maps to {taken / 'maps'}: {taken} is not a "
             "directory"),
            (["--emit-sync-report", str(folder)],
             f"cannot write {folder}: it is a directory")]:
        assert main(["process", cap, "--window", "16", "--out", str(out),
                     *extra]) == 2
        assert capsys.readouterr().err == f"csisense: {message}\n"
        assert sorted(tmp_path.iterdir()) == [folder, taken]
        assert taken.read_text() == ""
    assert main(["process", cap, "--out", str(folder)]) == 2
    assert capsys.readouterr().err == (f"csisense: cannot write {folder}: "
                                       "it is a directory\n")
    # Before the capture is opened: a missing capture is not named.
    assert main(["process", str(tmp_path / "missing.bin"),
                 "--emit-spectrogram", str(profile)]) == 2
    assert str(profile) in capsys.readouterr().err
    # An invalid argument is still refused first (exit 3).
    assert main(["process", cap, "--stride", "0",
                 "--emit-spectrogram", str(profile)]) == 3
    assert sorted(tmp_path.iterdir()) == [folder, taken]


@pytest.mark.parametrize("case", [
    "out-is-capture", "out-is-capture-with-maps", "spectrogram-is-out",
    "report-is-spectrogram", "maps-folder-is-out", "out-is-hard-link",
    "capture-is-symlink"])
def test_process_same_file_twice_exits_2_before_the_read(workdir, tmp_path,
                                                         capsys, case):
    # Two outputs, or an output and the capture, that name one file would
    # overwrite each other; the command is refused before the read, and the
    # capture and folder are left as they were.
    cap, out = tmp_path / "cap.bin", tmp_path / "d.json"
    cap.write_bytes((workdir / "cap.bin").read_bytes())
    maps, link = tmp_path / "m", tmp_path / "link.bin"
    if case == "out-is-hard-link":
        os.link(cap, link)
    if case == "capture-is-symlink":
        link.symlink_to(cap)
    argv, path, role, other = {
        "out-is-capture": ([str(cap), "--out", str(cap)],
                           cap, "input", cap),
        "out-is-capture-with-maps": (
            [str(cap), "--out", str(cap), "--emit-maps", str(maps)],
            cap, "input", cap),
        "spectrogram-is-out": (
            [str(cap), "--out", str(out), "--emit-spectrogram", str(out)],
            out, "output", out),
        "report-is-spectrogram": (
            [str(cap), "--emit-spectrogram", str(out),
             "--emit-sync-report", str(out)], out, "output", out),
        "maps-folder-is-out": (
            [str(cap), "--out", str(out), "--emit-maps", str(out)],
            out, "output", out),
        "out-is-hard-link": ([str(cap), "--out", str(link)],
                             link, "input", cap),
        "capture-is-symlink": ([str(link), "--out", str(cap)],
                               cap, "input", link),
    }[case]
    before = sorted(tmp_path.iterdir())
    assert main(["process", *argv, "--window", "16"]) == 2
    assert capsys.readouterr().err == (f"csisense: cannot write {path}: it is "
                                       f"the same file as the {role} {other}\n")
    assert sorted(tmp_path.iterdir()) == before
    assert cap.read_bytes() == (workdir / "cap.bin").read_bytes()


@pytest.mark.parametrize("flag, name, spelling", [
    ("--out", "map_00000.csv", "m"),
    ("--out", "map_00000.pgm", "m"),
    ("--out", "map_123456.csv", "m"),
    ("--emit-spectrogram", "map_00001.pgm", "m/../m"),
    ("--emit-spectrogram", "map_00002.csv", "link"),
    ("capture", "map_00000.csv", "m"),
])
def test_process_output_named_like_a_map_file_exits_2_before_the_read(
        workdir, tmp_path, capsys, flag, name, spelling):
    # --emit-maps would overwrite a file output, or the capture, in its
    # folder that is named like one of its maps (the capture was lost and
    # the run then failed on the map's text); the command is refused before
    # the read, however the folder is spelled, and nothing is written.
    maps = tmp_path / "m"
    maps.mkdir()
    (tmp_path / "link").symlink_to(maps)
    path = tmp_path / spelling / name
    capture = workdir / "cap.bin"
    if flag == "capture":
        path.write_bytes(capture.read_bytes())
        capture, argv = path, []
    else:
        argv = [flag, str(path)]
    before = sorted(maps.iterdir())
    assert main(["process", str(capture), "--window", "16", *argv,
                 "--emit-maps", str(maps)]) == 2
    assert capsys.readouterr() == (
        "", f"csisense: cannot write {path}: --emit-maps writes a map file "
            f"of that name into {maps}\n")
    assert sorted(maps.iterdir()) == before
    assert capture.read_bytes() == (workdir / "cap.bin").read_bytes()


def test_process_output_beside_the_maps_is_written(workdir, tmp_path):
    maps = tmp_path / "m"
    maps.mkdir()
    outputs = [maps / "detections.jsonl", maps / "map_0000.csv",
               maps / "map_00000.txt"]
    for out in outputs:
        assert main(["process", str(workdir / "cap.bin"), "--window", "16",
                     "--stride", "16", "--out", str(out),
                     "--emit-maps", str(maps)]) == 0
    maps_written = [f"map_{i:05d}.{ext}" for i in range(3)
                    for ext in ("csv", "pgm")]
    assert sorted(p.name for p in maps.iterdir()) == sorted(
        [out.name for out in outputs] + maps_written)
    assert all(json.loads(line) for line in outputs[0].read_text().splitlines())


def coupling_capture(path, frames, n_sub=256):
    """A capture whose every frame is a zero-delay coupling plus noise."""
    cfg = make_config(n_subcarriers=n_sub, n_frames=32,
                      subcarrier_spacing_hz=312.5e3, frame_interval_s=0.025,
                      carrier_freq_hz=6.3e9)
    rng = np.random.default_rng(5)
    noise = rng.standard_normal((frames, 2 * n_sub), dtype=np.float32)
    write_capture(path, cfg, 1.0 + 0.01 * noise.view(np.complex64))
    return frames * n_sub * 8  # the payload's bytes


# process reads its capture a block of frames at a time, so beyond its
# stream buffer (window - 1 + _BLOCK_FRAMES complex128 rows, 0.39 MB at the
# default window of 32 and 256 subcarriers) it holds one block's working
# set, whatever the capture length: on numpy 2.4, 0.78 MB with sync in a
# process's first call (which also imports modules lazily), 0.66 MB after
# it, and 0.51 MB without sync. The bound leaves 0.17 MB above the
# largest; synchronizing each block into a copy of its own, beside the
# buffer, reads 1.18 MB or more. The next test bounds the whole peak.
PROCESS_WORKING_SET_BYTES = 950_000


@pytest.mark.parametrize("frames", [2048, 8192])
def test_process_holds_the_capture_and_one_block(tmp_path, frames):
    cap = tmp_path / "cap.bin"
    coupling_capture(cap, frames)
    buffer_bytes = (32 - 1 + rdmap._BLOCK_FRAMES) * 256 * 16
    for extra in ([], ["--no-sync"]):
        tracemalloc.start()
        try:
            assert main(["process", str(cap), "--stride", "32",
                         "--out", str(tmp_path / "d.jsonl"), *extra]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - buffer_bytes < PROCESS_WORKING_SET_BYTES, extra


# The whole peak of process is its stream buffer and one block's working
# set: at 256 subcarriers, on numpy 2.4, 1.17 MB with sync in a process's
# first call, 1.04 MB after it, and 0.90 MB without sync, against captures
# of 4 and 16 MB. The bound leaves 0.18 MB above the largest; a sync copy
# of each block beside the buffer reads 1.57 MB or more.
PROCESS_PEAK_BYTES = 1_350_000


@pytest.mark.parametrize("frames", [2048, 8192])
def test_process_peak_is_flat_in_capture_length(tmp_path, frames):
    cap = tmp_path / "cap.bin"
    coupling_capture(cap, frames)
    for extra in ([], ["--no-sync"]):
        tracemalloc.start()
        try:
            assert main(["process", str(cap), "--stride", "32",
                         "--out", str(tmp_path / "d.jsonl"), *extra]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < PROCESS_PEAK_BYTES, extra


# Minor page faults of one in-process process call on a 2048-frame,
# 512-subcarrier capture, after a first call, in a fresh interpreter:
# 358 to 391 on glibc 2.36, numpy 2.4, with or without sync, at every
# length of the capture's path. window_maps writes every block into one
# buffer, so no block's arrays are freed for the next block to fault back
# in. When each block's arrays were allocated anew and freed, glibc's
# dynamic thresholds gave about 420 or 7400 with sync and 290 or 7200
# without, flipped by a few characters of argv. The interpreter is fresh
# because malloc sets its thresholds from what the process freed before.
PROCESS_MINOR_FAULTS = 3000

_COUNT_FAULTS = """
import resource, sys
from csisense.cli import main
assert main(sys.argv[1:]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_process_does_not_refault_each_block(tmp_path):
    cap = tmp_path / "cap.bin"
    coupling_capture(cap, 2048, n_sub=512)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(csisense.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    for extra_chars in range(0, 32, 4):
        folder = tmp_path / ("d" + "x" * extra_chars)
        folder.mkdir()
        (folder / "cap.bin").symlink_to(cap)
        for extra in ([], ["--no-sync"]):
            run = subprocess.run(
                [sys.executable, "-c", _COUNT_FAULTS, "process",
                 str(folder / "cap.bin"), "--stride", "32",
                 "--out", str(tmp_path / "d.jsonl"), *extra],
                env=env, capture_output=True, text=True, check=True)
            assert int(run.stdout) < PROCESS_MINOR_FAULTS, (extra_chars,
                                                            extra)


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


def test_process_late_non_finite_sample_exits_2(tmp_path, capsys):
    # The pass that forms the detections reads every block before anything
    # is written, so a bad sample in the last block is refused with no
    # output, whatever is asked for.
    scenario = tmp_path / "long.scenario"
    scenario.write_text(SMALL_SCENARIO.replace(
        "frame_count = 48", "frame_count = 256").replace(
        "1.2, 10.3", "6.4, 11.6"))
    cap = tmp_path / "cap.bin"
    assert main(["simulate", "--scenario", str(scenario), "--seed", "3",
                 "--out", str(cap)]) == 0
    raw = bytearray(cap.read_bytes())
    offset = 38 + (200 * 64 + 37) * 8 + 4  # imaginary part
    raw[offset:offset + 4] = struct.pack("<f", float("inf"))
    cap.write_bytes(bytes(raw))
    outputs = (tmp_path / "d.jsonl", tmp_path / "sync.json",
               tmp_path / "maps", tmp_path / "profile.csv")
    capsys.readouterr()
    for out in ([], ["--out", str(outputs[0])]):
        assert main(["process", str(cap), *out,
                     "--emit-sync-report", str(outputs[1]),
                     "--emit-maps", str(outputs[2]),
                     "--emit-spectrogram", str(outputs[3])]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("csisense: non-finite sample at frame 200, "
                                "subcarrier 37\n")
        assert captured.out == ""
        assert not any(p.exists() for p in outputs)


def test_process_names_truncation_before_an_earlier_bad_sample(
        workdir, tmp_path, capsys):
    # Every reader checks the file's length before it reads any sample: the
    # whole read and process alike name the truncation, not the NaN.
    raw = bytearray((workdir / "cap.bin").read_bytes())
    offset = 38 + (5 * 64 + 9) * 8
    raw[offset:offset + 4] = struct.pack("<f", float("nan"))
    cut = tmp_path / "cut.bin"
    cut.write_bytes(bytes(raw[:38 + 20 * 64 * 8 + 17]))
    message = "truncated at frame 20: expected 512 bytes, got 17"
    with pytest.raises(CaptureFormatError, match=f"^{message}$"):
        read_capture_array(cut)
    out = tmp_path / "d.jsonl"
    assert main(["process", str(cut), "--window", "16",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"csisense: {message}\n"
    assert not out.exists()


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
    # A header that declares 0 frames over a full payload: the length check
    # when the capture is opened refuses it (exit 2) before the window
    # check could call it too short (exit 3).
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


@pytest.mark.parametrize("rows, t", [
    # The interpolated truth overflows to inf or NaN.
    ("0,1e308,1e308\n10,-1e308,-1e308\n", 5.0),
    ("0,0,0\n1e-16,1e308,0\n", 5e-17),
    # The truth is finite, the detection's distance from it is not.
    ("0,-1e308,0\n10,-1e308,0\n", 5.0),
])
def test_eval_detection_without_finite_error_exits_2(tmp_path, capsys, rows,
                                                     t):
    truth = tmp_path / "truth.csv"
    truth.write_text("t,range_m,velocity_mps\n" + rows)
    det = tmp_path / "det.jsonl"
    det.write_text(json.dumps({"t": 0.0, "range_m": 1.0, "velocity_mps": 0})
                   + "\n" + json.dumps({"t": t, "range_m": 1e308,
                                         "velocity_mps": 0}) + "\n")
    assert main(["eval", str(det), str(truth)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"csisense: detection [01] at t = \S+ s has no "
                        r"finite error against the truth\n", err), err


def test_eval_errors_too_large_to_average_exits_2(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("t,range_m,velocity_mps\n0,0,0\n1,0,0\n")
    det = tmp_path / "det.jsonl"
    det.write_text("".join(
        json.dumps({"t": t, "range_m": 1e308, "velocity_mps": 0}) + "\n"
        for t in (0.25, 0.75)))
    assert main(["eval", str(det), str(truth)]) == 2
    assert capsys.readouterr() == (
        "", "csisense: the detections' errors are too large to average as "
            "floats\n")


def test_eval_truth_times_far_apart_are_increasing(tmp_path, capsys):
    # Their difference overflows a float; the order is still checked.
    truth = tmp_path / "truth.csv"
    truth.write_text("t,range_m,velocity_mps\n-1e308,1,0\n1e308,1,0\n")
    det = tmp_path / "det.jsonl"
    det.write_text(json.dumps({"t": 0, "range_m": 1.0, "velocity_mps": 0})
                   + "\n")
    assert main(["eval", str(det), str(truth)]) == 0
    assert "range_error_m: median=0.000000" in capsys.readouterr().out


# The eval property's edge values: JSON tokens for a detection field, and
# text for a truth CSV cell.
_EDGE_NUMBERS = ["0", "5e-324", "-5e-324", "1e308", "-1e308", "-0.0", "0.5",
                 "2.75", "1" + "0" * 400, "1" + "0" * 5000]
_JSON_EDGES = _EDGE_NUMBERS + ["NaN", "Infinity", "-Infinity", '"nan"',
                               '"inf"', '""', "null"]
_CSV_EDGES = _EDGE_NUMBERS + ["nan", "inf", "-inf", ""]
_EVAL_TRUTH = [["0", "1.0", "0.5"], ["1", "1.5", "0.5"], ["2", "2.0", "0.5"]]
_EVAL_DETECTIONS = [{"t": "0.5", "range_m": "1.2", "velocity_mps": "0.5"},
                    {"t": "1.0", "range_m": "1.5", "velocity_mps": "0.45"},
                    {"t": "1.5", "range_m": "1.8", "velocity_mps": "0.5"}]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_eval_exits_cleanly_on_mutated_inputs(tmp_path_factory, data):
    # Mutate a valid detections file and truth CSV with edge values: eval
    # exits 0, 1 or 2, with at most one csisense: line on stderr, and what
    # it prints on exit 0 or 1 is finite.
    truth = [list(row) for row in _EVAL_TRUTH]
    dets = [dict(det) for det in _EVAL_DETECTIONS]
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        if data.draw(st.booleans(), label="in truth"):
            row = data.draw(st.sampled_from(truth), label="row")
            row[data.draw(st.integers(0, 2), label="column")] = data.draw(
                st.sampled_from(_CSV_EDGES), label="cell")
        else:
            det = data.draw(st.sampled_from(dets), label="detection")
            key = data.draw(st.sampled_from(sorted(_EVAL_DETECTIONS[0])),
                            label="key")
            value = data.draw(st.sampled_from(_JSON_EDGES + [None]),
                              label="value")
            if value is None:
                det.pop(key, None)
            else:
                det[key] = value
    folder = tmp_path_factory.mktemp("eval")
    (folder / "truth.csv").write_text(
        "t,range_m,velocity_mps\n" + "".join(",".join(r) + "\n"
                                             for r in truth))
    (folder / "det.jsonl").write_text("".join(
        "{" + ", ".join(f'"{k}": {v}' for k, v in det.items()) + "}\n"
        for det in dets))
    err, printed = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stderr(err), redirect_stdout(printed):
        warnings.simplefilter("always")
        code = main(["eval", str(folder / "det.jsonl"),
                     str(folder / "truth.csv")])
    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught] == []
    assert re.fullmatch(r"(csisense: [^\n]*\n)?", err.getvalue())
    medians = re.findall(r"median=(\S+)", printed.getvalue())
    assert len(medians) == (0 if err.getvalue() else 2)
    assert all(math.isfinite(float(m)) for m in medians)


# The calc property's flags and the text it puts after each: the eval
# edge numbers, non-integers, nan, inf and an empty value.
_CALC_FLAGS = ["--subcarriers", "--frames", "--spacing", "--bandwidth",
               "--frame-interval", "--carrier-freq", "--snr-db"]
_CALC_EDGES = _EDGE_NUMBERS + ["nan", "-nan", "inf", "-inf", "", "64",
                               "1e400", "0x10", " 2"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_calc_exits_cleanly_on_mutated_arguments(data):
    # calc --preset wifi-ax211 with edge values for some of its flags: exit
    # 0 or 3, stderr empty or one csisense line, no warning, and on exit 0
    # every printed number is finite.
    argv = ["calc", "--preset", "wifi-ax211"]
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        flag = data.draw(st.sampled_from(_CALC_FLAGS), label="flag")
        value = data.draw(st.sampled_from(_CALC_EDGES), label="value")
        # "--flag value" reads a value that starts with "-" as a flag.
        if data.draw(st.booleans(), label="joined"):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    err, printed = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stderr(err), redirect_stdout(printed):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 3)
    assert [str(w.message) for w in caught] == []
    assert re.fullmatch(r"(csisense[^\n]*\n)?", err.getvalue())
    assert (code == 0) == (err.getvalue() == "")
    if code == 0:
        values = parse_kv(printed.getvalue())
        assert len(values) in (5, 6)
        for text in values.values():
            number = text.split("#")[0].strip().removeprefix("+-")
            assert math.isfinite(float(number))


# The process property's flags and the text it puts after each: the eval
# edge numbers, 30-digit integers, nan, inf, an empty value, and a count
# small enough for the 40-frame, 16-subcarrier capture.
_PROCESS_FLAGS = ["--window", "--stride", "--upsample", "--delta",
                  "--history", "--max-lag", "--threshold-db"]
_PROCESS_EDGES = _EDGE_NUMBERS + ["1" + "0" * 29, "9" * 30, "nan", "inf",
                                  "", "3"]


@pytest.fixture(scope="module")
def small_synced_capture(tmp_path_factory):
    root = tmp_path_factory.mktemp("process-argv")
    scenario = root / "small.scenario"
    scenario.write_text(SMALL_SCENARIO.replace("subcarriers = 64",
                                               "subcarriers = 16")
                        .replace("frame_count = 48", "frame_count = 40"))
    assert main(["simulate", "--scenario", str(scenario), "--seed", "1",
                 "--out", str(root / "cap.bin")]) == 0
    return root / "cap.bin"


@settings(max_examples=150, deadline=None)
@given(mutations=st.lists(st.tuples(st.sampled_from(_PROCESS_FLAGS),
                                    st.sampled_from(_PROCESS_EDGES),
                                    st.booleans()), min_size=1, max_size=3))
@example(mutations=[("--history", "1" + "0" * 29, False)])
@example(mutations=[("--delta", "1e-308", False)])
@example(mutations=[("--delta", "5e-324", True)])
def test_process_exits_cleanly_on_mutated_arguments(small_synced_capture,
                                                     mutations):
    # process on a small synced capture with edge values for some of its
    # flags: exit 0, 2 or 3, stderr empty or one csisense line, no warning,
    # and on exit 0 every detection's numbers are finite.
    argv = ["process", str(small_synced_capture)]
    for flag, value, joined in mutations:
        # "--flag value" reads a value that starts with "-" as a flag.
        argv += [f"{flag}={value}"] if joined else [flag, value]
    err, printed = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stderr(err), redirect_stdout(printed):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3)
    assert [str(w.message) for w in caught] == []
    assert re.fullmatch(r"(csisense[^\n]*\n)?", err.getvalue())
    assert (code == 0) == (err.getvalue() == "")
    if code == 0:
        for line in printed.getvalue().splitlines():
            det = json.loads(line)
            assert all(math.isfinite(v) for v in det.values()
                       if isinstance(v, (int, float)))
    else:
        assert printed.getvalue() == ""


def test_gesture_preset_passes_eval_end_to_end(tmp_path, capsys):
    # The README quick start, on the hand-gesture preset.
    capture, truth = tmp_path / "gesture.bin", tmp_path / "gesture.truth.csv"
    detections = tmp_path / "gesture.jsonl"
    assert main(["simulate", "--scenario", "gesture", "--seed", "1",
                 "--out", str(capture)]) == 0
    assert main(["process", str(capture), "--window", "32", "--stride", "1",
                 "--out", str(detections)]) == 0
    assert main(["eval", str(detections), str(truth),
                 "--max-range-err", "0.10", "--max-vel-err", "0.03",
                 "--min-true-velocity", "0.0297"]) == 0
    assert "result = pass" in capsys.readouterr().out


def test_process_window_longer_than_capture_exits_3(workdir):
    assert main(["process", str(workdir / "cap.bin"), "--window", "999"]) == 3


def test_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["process", "--help"]) == 0
