import csv
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csisense.capture_io import (CaptureFormatError, Trajectory,
                                 read_capture, read_capture_array,
                                 read_detections_jsonl, read_ground_truth,
                                 write_capture, write_detections_jsonl,
                                 write_ground_truth, write_map_csv,
                                 write_map_pgm, write_profile_csv,
                                 write_sync_report_json)
from csisense.channel import Scene, Target, csi_divide, simulate_capture
from csisense.rdmap import (Detection, DopplerTimeProfile, RangeDopplerMap,
                            range_doppler)
from csisense.sync import SyncReport
from csisense.waveform import generate_ltf_symbols, make_config


def wifi_cfg(m=32):
    return make_config(n_subcarriers=512, n_frames=m,
                       subcarrier_spacing_hz=312.5e3, frame_interval_s=0.025,
                       carrier_freq_hz=6.3e9)


def simulated_grid(cfg):
    s = generate_ltf_symbols(cfg, 7)
    scene = Scene(targets=(Target(10.0, 0.1, 1.0),), snr_db=15.0)
    return csi_divide(simulate_capture(cfg, scene, s), s)


def test_round_trip_bit_identical(tmp_path):
    cfg = wifi_cfg()
    grid = simulated_grid(cfg).astype(np.complex64)
    path = tmp_path / "cap.bin"
    assert write_capture(path, cfg, grid) == 32
    header, data = read_capture_array(path)
    assert data.dtype == np.complex64
    assert np.array_equal(data, grid)
    # a second write of the read-back data produces identical bytes
    path2 = tmp_path / "cap2.bin"
    write_capture(path2, cfg, data)
    assert path.read_bytes() == path2.read_bytes()


def test_header_fields(tmp_path):
    cfg = wifi_cfg()
    path = tmp_path / "cap.bin"
    write_capture(path, cfg, np.zeros((3, 512), dtype=np.complex64))
    header, _ = read_capture(path)
    assert header.n_subcarriers == 512
    assert header.n_frames == 3
    assert header.subcarrier_spacing_hz == 312500.0
    assert header.frame_interval_s == 0.025
    assert header.carrier_freq_hz == 6.3e9
    assert header.bandwidth_hz == pytest.approx(160e6)


def test_empty_stream(tmp_path):
    cfg = wifi_cfg()
    path = tmp_path / "cap.bin"
    assert write_capture(path, cfg, iter(())) == 0
    header, data = read_capture_array(path)
    assert header.n_frames == 0
    assert data.shape == (0, 512)
    assert path.stat().st_size == 38  # header only


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 60)
    with pytest.raises(CaptureFormatError, match="bad magic"):
        read_capture(path)


def test_unsupported_version(tmp_path):
    cfg = wifi_cfg()
    path = tmp_path / "cap.bin"
    write_capture(path, cfg, np.zeros((1, 512), dtype=np.complex64))
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(CaptureFormatError, match="version"):
        read_capture(path)


@pytest.mark.parametrize("offset", [14, 22, 30],
                         ids=["carrier", "spacing", "interval"])
def test_non_finite_or_non_positive_header_field(tmp_path, offset):
    cfg = wifi_cfg()
    path = tmp_path / "cap.bin"
    write_capture(path, cfg, np.zeros((1, 512), dtype=np.complex64))
    good = path.read_bytes()
    for value in (float("nan"), float("inf"), float("-inf"), 0.0):
        raw = bytearray(good)
        raw[offset:offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(CaptureFormatError, match="non-finite"):
            read_capture(path)


def test_truncation_reports_frame(tmp_path):
    cfg = wifi_cfg()
    path = tmp_path / "cap.bin"
    write_capture(path, cfg, np.ones((4, 512), dtype=np.complex64))
    raw = path.read_bytes()
    path.write_bytes(raw[:38 + 2 * 512 * 8 + 100])  # cut inside frame 2
    header, frames = read_capture(path)
    next(frames)
    next(frames)
    with pytest.raises(CaptureFormatError, match="frame 2"):
        next(frames)


def test_short_header(tmp_path):
    path = tmp_path / "tiny.bin"
    path.write_bytes(b"CSIF\x01")
    with pytest.raises(CaptureFormatError, match="too short"):
        read_capture(path)


def test_reader_is_streaming(tmp_path):
    cfg = wifi_cfg()
    path = tmp_path / "cap.bin"
    grid = np.arange(4 * 512, dtype=np.complex64).reshape(4, 512)
    write_capture(path, cfg, grid)
    header, frames = read_capture(path)
    assert not isinstance(frames, (list, np.ndarray))
    first = next(frames)
    assert first.shape == (512,)
    assert np.array_equal(first, grid[0])
    frames.close()  # early stop must release the file


def test_frame_length_mismatch_rejected(tmp_path):
    cfg = wifi_cfg()
    with pytest.raises(CaptureFormatError, match="entries"):
        write_capture(tmp_path / "x.bin", cfg,
                      np.ones((2, 100), dtype=np.complex64))


def test_ground_truth_interpolation(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("t,range_m,velocity_mps\n"
                    "0,0.6,-0.0769\n"
                    "3.9,0.3,-0.0769\n")
    truth = read_ground_truth(path)
    assert truth.range_at(1.95) == pytest.approx(0.45, abs=1e-12)
    assert truth.velocity_at(2.0) == pytest.approx(-0.0769)
    # clamped outside the covered span
    assert truth.range_at(10.0) == pytest.approx(0.3)


def test_ground_truth_single_row_constant(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("t,range_m,velocity_mps\n1.0,2.5,0.0\n")
    truth = read_ground_truth(path)
    assert truth.range_at(0.0) == 2.5
    assert truth.range_at(9.0) == 2.5


def test_ground_truth_rejects_disorder_and_bad_header(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("t,range_m,velocity_mps\n2,1,0\n1,2,0\n")
    with pytest.raises(CaptureFormatError, match="increasing"):
        read_ground_truth(path)
    path.write_text("time,range\n1,2\n")
    with pytest.raises(CaptureFormatError, match="header"):
        read_ground_truth(path)
    path.write_text("t,range_m,velocity_mps\n1,2\n")
    with pytest.raises(CaptureFormatError, match="3 columns"):
        read_ground_truth(path)
    for bad in ("1,nan,0", "nan,1,0", "1,2,inf", "1,2,-inf"):
        path.write_text(f"t,range_m,velocity_mps\n0,1,0\n{bad}\n")
        with pytest.raises(CaptureFormatError, match="line 3: non-finite"):
            read_ground_truth(path)


def test_ground_truth_round_trip(tmp_path):
    truth = Trajectory(times_s=np.array([0.0, 1.0, 2.0]),
                       ranges_m=np.array([0.5, 0.4, 0.42]),
                       velocities_mps=np.array([-0.1, 0.02, 0.0]))
    path = tmp_path / "truth.csv"
    write_ground_truth(path, truth)
    back = read_ground_truth(path)
    assert np.array_equal(back.times_s, truth.times_s)
    assert np.array_equal(back.ranges_m, truth.ranges_m)
    assert np.array_equal(back.velocities_mps, truth.velocities_mps)


def map_for_export():
    cfg = make_config(n_subcarriers=16, n_frames=8,
                      subcarrier_spacing_hz=312.5e3, frame_interval_s=0.025,
                      carrier_freq_hz=6.3e9)
    rng = np.random.default_rng(1)
    grid = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
    return range_doppler(grid, cfg)


def test_map_csv_layout(tmp_path):
    rdm = map_for_export()
    path = tmp_path / "map.csv"
    write_map_csv(path, rdm)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 8
    header = lines[0].split(",")
    assert header[0] == "velocity_mps"
    assert float(header[1]) == 0.0
    assert float(header[2]) == pytest.approx(rdm.range_scale_m)
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(-4 * rdm.velocity_scale_mps)
    mag = rdm.magnitude()
    assert float(first[1]) == pytest.approx(mag[0, 0], rel=1e-12)


def test_map_pgm_format(tmp_path):
    rdm = map_for_export()
    path = tmp_path / "map.pgm"
    write_map_pgm(path, rdm)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n16 8\n255\n")
    pixels = raw.split(b"255\n", 1)[1]
    assert len(pixels) == 16 * 8
    assert max(pixels) == 255 and min(pixels) == 0


def test_profile_csv_layout(tmp_path):
    profile = DopplerTimeProfile(values=np.arange(12.0).reshape(4, 3),
                                 velocity_scale_mps=0.05,
                                 window_times_s=np.array([0.1, 0.2, 0.3]))
    path = tmp_path / "prof.csv"
    write_profile_csv(path, profile)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[1:] == ["0.1", "0.2", "0.3"]
    assert len(lines) == 5
    assert float(lines[1].split(",")[0]) == pytest.approx(-2 * 0.05)


def reference_map_csv(path, rdm):
    """The per-cell ``repr`` writer that ``write_map_csv`` must match."""
    mag = rdm.magnitude()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["velocity_mps"] +
                        [repr(l * rdm.range_scale_m) for l in range(rdm.n_range)])
        for row, p in enumerate(rdm.doppler_bins()):
            writer.writerow([repr(float(p) * rdm.velocity_scale_mps)] +
                            [repr(float(x)) for x in mag[row]])


def reference_profile_csv(path, profile):
    """The per-cell ``repr`` writer that ``write_profile_csv`` must match."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["velocity_mps"] +
                        [repr(float(t)) for t in profile.window_times_s])
        for row, p in enumerate(profile.doppler_bins()):
            writer.writerow([repr(float(p) * profile.velocity_scale_mps)] +
                            [repr(float(x)) for x in profile.values[row]])


AWKWARD = np.array([[5e-324, 1e-300, 0.1 + 0.2],
                    [1e300, 0.0, 3.0],
                    [2.0 ** 53, 7.0, 1.0 / 3.0],
                    [1e-5, 123456789.0, 2.5e-8]])


def test_grid_writers_match_reference_bytes(tmp_path):
    rdm = RangeDopplerMap(values=AWKWARD, range_scale_m=0.1,
                          velocity_scale_mps=1.0 / 3.0)
    write_map_csv(tmp_path / "map.csv", rdm)
    reference_map_csv(tmp_path / "ref_map.csv", rdm)
    assert (tmp_path / "map.csv").read_bytes() \
        == (tmp_path / "ref_map.csv").read_bytes()
    exported = map_for_export()
    write_map_csv(tmp_path / "map.csv", exported)
    reference_map_csv(tmp_path / "ref_map.csv", exported)
    assert (tmp_path / "map.csv").read_bytes() \
        == (tmp_path / "ref_map.csv").read_bytes()

    profile = DopplerTimeProfile(values=AWKWARD, velocity_scale_mps=0.1,
                                 window_times_s=np.array([0.1, 0.2, 0.3]))
    write_profile_csv(tmp_path / "prof.csv", profile)
    reference_profile_csv(tmp_path / "ref_prof.csv", profile)
    assert (tmp_path / "prof.csv").read_bytes() \
        == (tmp_path / "ref_prof.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64,
                  hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=st.floats(min_value=0.0, allow_nan=False,
                                     allow_infinity=False)))
def test_map_csv_parses_back_exactly(tmp_path_factory, magnitudes):
    path = tmp_path_factory.mktemp("grid") / "map.csv"
    write_map_csv(path, RangeDopplerMap(values=magnitudes, range_scale_m=0.1,
                                        velocity_scale_mps=0.05))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    back = np.array([[float(x) for x in row[1:]] for row in rows])
    assert back.shape == magnitudes.shape
    assert np.all(back == magnitudes)


def test_detections_jsonl_round_trip(tmp_path):
    dets = [Detection(time_s=0.5, range_m=1.25, velocity_mps=-0.07,
                      power_db=21.5, bin_l=1, bin_p=-2),
            Detection(time_s=0.6, range_m=1.20, velocity_mps=-0.07,
                      power_db=20.0, bin_l=1, bin_p=-2)]
    path = tmp_path / "det.jsonl"
    write_detections_jsonl(path, dets)
    rows = read_detections_jsonl(path)
    assert rows[0] == {"t": 0.5, "range_m": 1.25, "velocity_mps": -0.07,
                       "power_db": 21.5, "bin_l": 1, "bin_p": -2}
    assert len(rows) == 2
    path.write_text("not json\n")
    with pytest.raises(CaptureFormatError):
        read_detections_jsonl(path)


def test_sync_report_json(tmp_path):
    report = SyncReport(coarse_lag_samples=2, fine_lag_samples=0.25,
                        frame_phases_rad=np.array([0.0, 0.1]),
                        corrections_rad=np.array([0.0, 0.0]),
                        references_rad=np.array([0.0, 0.0]))
    path = tmp_path / "sync.json"
    write_sync_report_json(path, report)
    doc = json.loads(path.read_text())
    assert doc["effective_lag_samples"] == 2.25
    assert doc["frame_phases_rad"] == [0.0, 0.1]
