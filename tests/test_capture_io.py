import csv
import io
import json
import struct
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from typing import Iterator, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csisense import gridcsv
from csisense.capture_io import (_ENTRY_BYTES, _FINITE_BLOCK_SAMPLES,
                                 _HEADER, CaptureFile, CaptureFormatError,
                                 CaptureHeader, Trajectory, _pack_header,
                                 read_capture_array, read_detections_jsonl,
                                 read_ground_truth, read_header,
                                 map_csv_grid, write_capture,
                                 write_detections_jsonl,
                                 write_ground_truth, write_map_csv,
                                 write_map_pgm, write_profile_csv,
                                 write_sync_report_json)
from csisense.channel import Scene, Target, simulate_capture
from csisense.cli import main
from csisense.rdmap import (Detection, DopplerTimeProfile, RangeDopplerMap,
                            range_doppler, range_profiles)
from csisense.scenarios import load_scenario, simulate_scenario
from csisense.sync import SyncReport
from csisense.waveform import make_config


def wifi_cfg(m=32):
    return make_config(n_subcarriers=512, n_frames=m,
                       subcarrier_spacing_hz=312.5e3, frame_interval_s=0.025,
                       carrier_freq_hz=6.3e9)


def simulated_grid(cfg):
    scene = Scene(targets=(Target(10.0, 0.1, 1.0),), snr_db=15.0)
    return simulate_capture(cfg, scene)


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
    with open(path, "rb") as fh:
        header = read_header(fh)
    assert header.n_subcarriers == 512
    assert header.n_frames == 3
    assert header.subcarrier_spacing_hz == 312500.0
    assert header.frame_interval_s == 0.025
    assert header.carrier_freq_hz == 6.3e9
    assert header == CaptureHeader(512, 3, 6.3e9, 312500.0, 0.025)


def test_empty_stream(tmp_path):
    cfg = wifi_cfg()
    path = tmp_path / "cap.bin"
    assert write_capture(path, cfg, np.zeros((0, 512), np.complex64)) == 0
    header, data = read_capture_array(path)
    assert header.n_frames == 0
    assert data.shape == (0, 512)
    assert path.stat().st_size == 38  # header only


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 60)
    with pytest.raises(CaptureFormatError, match="bad magic"):
        read_capture_array(path)


def test_unsupported_version(tmp_path):
    cfg = wifi_cfg()
    path = tmp_path / "cap.bin"
    write_capture(path, cfg, np.zeros((1, 512), dtype=np.complex64))
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(CaptureFormatError, match="version"):
        read_capture_array(path)


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
            read_capture_array(path)


def test_truncation_reports_frame(tmp_path):
    cfg = wifi_cfg()
    path = tmp_path / "cap.bin"
    write_capture(path, cfg, np.ones((4, 512), dtype=np.complex64))
    raw = path.read_bytes()
    path.write_bytes(raw[:38 + 2 * 512 * 8 + 100])  # cut inside frame 2
    with pytest.raises(CaptureFormatError, match="frame 2"):
        read_capture_array(path)


def test_short_header(tmp_path):
    path = tmp_path / "tiny.bin"
    path.write_bytes(b"CSIF\x01")
    with pytest.raises(CaptureFormatError, match="too short"):
        read_capture_array(path)


def test_frame_length_mismatch_rejected(tmp_path):
    cfg = wifi_cfg()
    with pytest.raises(CaptureFormatError, match="entries"):
        write_capture(tmp_path / "x.bin", cfg,
                      np.ones((2, 100), dtype=np.complex64))


def reference_write_capture(path, cfg, frames) -> int:
    """The per-frame writer that ``write_capture`` replaced, kept verbatim
    as the reference for its bytes."""
    count = 0
    with open(path, "wb") as fh:
        fh.write(_pack_header(cfg, 0))
        for frame in frames:
            row = np.asarray(frame, dtype=np.complex64).ravel()
            if row.size != cfg.n_subcarriers:
                raise CaptureFormatError(
                    f"frame {count} has {row.size} entries, expected "
                    f"{cfg.n_subcarriers}")
            fh.write(row.astype("<c8").tobytes())
            count += 1
        fh.seek(0)
        fh.write(_pack_header(cfg, count))
    return count


def reference_read_capture(path) -> Tuple[CaptureHeader, Iterator[np.ndarray]]:
    """The streaming reader that ``read_capture_array`` replaced, kept
    verbatim as the reference for its arrays and messages."""
    with open(path, "rb") as fh:
        header = read_header(fh)

    def frames() -> Iterator[np.ndarray]:
        frame_bytes = header.n_subcarriers * _ENTRY_BYTES
        with open(path, "rb") as fh:
            fh.seek(_HEADER.size)
            for index in range(header.n_frames):
                raw = fh.read(frame_bytes)
                if len(raw) < frame_bytes:
                    raise CaptureFormatError(
                        f"truncated at frame {index}: expected {frame_bytes} "
                        f"bytes, got {len(raw)}")
                row = np.frombuffer(raw, dtype="<c8").copy()
                if not np.isfinite(row).all():
                    bad = int(np.argmin(np.isfinite(row)))
                    raise CaptureFormatError(
                        f"non-finite sample at frame {index}, "
                        f"subcarrier {bad}")
                yield row
            if fh.read(1):
                raise CaptureFormatError(
                    f"payload continues past the {header.n_frames} frames "
                    f"the header declares")

    return header, frames()


def reference_read_capture_array(path):
    """The streaming reference under the rule that a file's length is
    checked before any sample: it streams a copy of the file whose payload
    is zeroed, where only a header or length fault can fire, and then the
    file itself."""
    raw = path.read_bytes()
    zeroed = path.with_name(path.name + ".zeroed")
    zeroed.write_bytes(raw[:_HEADER.size]
                       + bytes(max(0, len(raw) - _HEADER.size)))
    for source in (zeroed, path):
        header, frames = reference_read_capture(source)
        rows = list(frames)
    if rows:
        return header, np.vstack(rows)
    return header, np.zeros((0, header.n_subcarriers), dtype=np.complex64)


def read_outcome(read, path):
    """What a reader makes of a file: its message, or the header and the
    array's dtype, shape and bytes."""
    try:
        header, frames = read(path)
    except CaptureFormatError as exc:
        return str(exc)
    return header, frames.dtype, frames.shape, frames.tobytes()


def small_cfg(n_sub):
    return make_config(n_subcarriers=n_sub, n_frames=2,
                       subcarrier_spacing_hz=312.5e3, frame_interval_s=0.025,
                       carrier_freq_hz=6.3e9)


small_grids = st.integers(2, 16).flatmap(lambda n_sub: hnp.arrays(
    np.complex64, st.tuples(st.integers(0, 6), st.just(n_sub)),
    elements=st.complex_numbers(allow_nan=False, allow_infinity=False,
                                width=64)))


@settings(max_examples=150, deadline=None)
@given(grid=small_grids)
def test_round_trip_matches_streaming_reference(tmp_path_factory, grid):
    folder = tmp_path_factory.mktemp("codec")
    cfg = small_cfg(grid.shape[1])
    path, again, ref = (folder / n for n in ("a.bin", "b.bin", "ref.bin"))
    assert write_capture(path, cfg, grid) == grid.shape[0]
    assert reference_write_capture(ref, cfg, grid) == grid.shape[0]
    assert path.read_bytes() == ref.read_bytes()
    header, data = read_capture_array(path)
    assert data.dtype == np.complex64 and data.shape == grid.shape
    assert data.tobytes() == grid.tobytes()
    assert read_outcome(read_capture_array, path) \
        == read_outcome(reference_read_capture_array, path)
    write_capture(again, cfg, data)
    assert again.read_bytes() == path.read_bytes()


def malform(path, grid, data) -> None:
    """Rewrite a capture of ``grid`` with drawn faults: non-finite samples,
    a changed frame count, a cut, appended bytes."""
    raw = bytearray(path.read_bytes())
    if grid.size and data.draw(st.booleans(), label="non-finite"):
        for _ in range(data.draw(st.integers(1, 3), label="cells")):
            offset = (_HEADER.size
                      + data.draw(st.integers(0, 2 * grid.size - 1)) * 4)
            value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            raw[offset:offset + 4] = struct.pack("<f", value)
    if data.draw(st.booleans(), label="recount"):
        raw[10:14] = struct.pack("<I", data.draw(st.integers(0, 8)))
    if data.draw(st.booleans(), label="cut"):
        del raw[data.draw(st.integers(0, len(raw) - 1), label="at"):]
    if data.draw(st.booleans(), label="append"):
        raw += data.draw(st.binary(min_size=1, max_size=40))
    path.write_bytes(bytes(raw))


@settings(max_examples=300, deadline=None)
@given(grid=small_grids, data=st.data())
def test_malformed_capture_matches_streaming_reference(tmp_path_factory,
                                                       grid, data):
    path = tmp_path_factory.mktemp("codec") / "cap.bin"
    write_capture(path, small_cfg(grid.shape[1]), grid)
    malform(path, grid, data)
    assert read_outcome(read_capture_array, path) \
        == read_outcome(reference_read_capture_array, path)


@settings(max_examples=100, deadline=None)
@given(grid=small_grids, data=st.data())
def test_process_refuses_what_the_reader_refuses(tmp_path_factory, grid,
                                                 data):
    # process reads by the same rule, a block of frames at a time: a file the
    # whole read refuses exits 2 with the same message and no output. Only
    # a window longer than the capture, found after the length and before
    # the samples, is refused first (exit 3).
    folder = tmp_path_factory.mktemp("process")
    path, out = folder / "cap.bin", folder / "d.jsonl"
    write_capture(path, small_cfg(grid.shape[1]), grid)
    malform(path, grid, data)
    try:
        read_capture_array(path)
        expected = (0, "")
    except CaptureFormatError as exc:
        expected = (2, f"csisense: {exc}\n")
    try:
        n_frames = read_capture_array(path, 0, 0)[0].n_frames
    except CaptureFormatError:
        n_frames = None  # a header or length fault comes first
    if n_frames is not None and n_frames < 2:
        expected = (3, f"csisense: capture of {n_frames} frames is shorter "
                       f"than window 2\n")
    err, printed = io.StringIO(), io.StringIO()
    with redirect_stderr(err), redirect_stdout(printed):
        code = main(["process", str(path), "--no-sync", "--window", "2",
                     "--out", str(out)])
    assert (code, err.getvalue()) == expected
    assert printed.getvalue() == ""
    assert out.exists() == (code == 0)


@settings(max_examples=150, deadline=None)
@given(grid=small_grids, data=st.data())
def test_positional_read_is_a_slice_of_the_whole(tmp_path_factory, grid,
                                                 data):
    path = tmp_path_factory.mktemp("codec") / "cap.bin"
    write_capture(path, small_cfg(grid.shape[1]), grid)
    stop = data.draw(st.integers(0, len(grid)), label="stop")
    start = data.draw(st.integers(0, stop), label="start")
    whole_header, whole = read_capture_array(path)
    header, frames = read_capture_array(path, start, stop)
    part = whole[start:stop]
    assert header == whole_header
    assert frames.dtype == part.dtype and frames.shape == part.shape
    assert frames.tobytes() == part.tobytes()
    cap = CaptureFile(path)
    assert cap.header == header and cap.shape == grid.shape
    assert cap[start:stop].tobytes() == frames.tobytes()


@settings(max_examples=300, deadline=None)
@given(grid=small_grids, data=st.data())
def test_malformed_positional_read_matches_streaming_reference(
        tmp_path_factory, grid, data):
    path = tmp_path_factory.mktemp("codec") / "cap.bin"
    write_capture(path, small_cfg(grid.shape[1]), grid)
    malform(path, grid, data)
    try:
        with open(path, "rb") as fh:
            header = read_header(fh)
    except CaptureFormatError:
        header = None  # both readers refuse the header first
    stop = data.draw(st.integers(0, header.n_frames if header else 0),
                     label="stop")
    start = data.draw(st.integers(0, stop), label="start")
    # The expected outcome: the whole read's header or length refusal, else
    # the first non-finite sample inside [start, stop), else that slice of
    # the whole. It is the whole streaming reference's over a copy of the
    # file whose payload is zeroed outside the range, sliced to the range.
    raw = bytearray(path.read_bytes())
    if header is not None:
        frame_bytes = header.n_subcarriers * _ENTRY_BYTES
        lo = _HEADER.size + start * frame_bytes
        hi = _HEADER.size + stop * frame_bytes
        raw[_HEADER.size:lo] = bytes(len(raw[_HEADER.size:lo]))
        raw[hi:] = bytes(len(raw[hi:]))
    kept = path.with_name("kept.bin")
    kept.write_bytes(bytes(raw))

    def reference(p):
        whole_header, whole = reference_read_capture_array(p)
        return whole_header, whole[start:stop]

    assert read_outcome(lambda p: read_capture_array(p, start, stop), path) \
        == read_outcome(reference, kept)


def test_positional_read_outside_the_capture_is_refused(tmp_path):
    path = tmp_path / "cap.bin"
    write_capture(path, small_cfg(4), np.ones((3, 4), dtype=np.complex64))
    for start, stop in ((2, 1), (-1, 2), (0, 4)):
        with pytest.raises(ValueError, match="not within the capture's 3"):
            read_capture_array(path, start, stop)
    cap = CaptureFile(path)
    assert cap[1:10].shape == (2, 4) and cap[5:9].shape == (0, 4)
    with pytest.raises(ValueError, match="contiguous"):
        cap[::2]


@pytest.mark.parametrize("cut, message", [
    (-3, "truncated at frame 2: expected 32 bytes, got 29"),
    (3, "payload continues past the 3 frames the header declares"),
], ids=["truncated", "padded"])
def test_capture_file_checks_the_length_before_the_samples(tmp_path, cut,
                                                           message):
    # Every reader checks the file's length, from its size alone, before
    # any sample, so the NaN in frame 0 is never named.
    path = tmp_path / "cap.bin"
    grid = np.ones((3, 4), dtype=np.complex64)
    write_capture(path, small_cfg(4), grid)
    raw = bytearray(path.read_bytes())
    raw[_HEADER.size:_HEADER.size + 4] = struct.pack("<f", np.nan)
    path.write_bytes(bytes(raw[:cut] if cut < 0 else raw + bytes(cut)))
    for read in (read_capture_array, lambda p: read_capture_array(p, 0, 1),
                 CaptureFile):
        with pytest.raises(CaptureFormatError, match=f"^{message}$"):
            read(path)


def test_capture_file_refuses_a_key_that_is_not_a_slice(tmp_path):
    path = tmp_path / "cap.bin"
    write_capture(path, small_cfg(4), np.ones((3, 4), dtype=np.complex64))
    cap = CaptureFile(path)
    for key in (3, np.int64(1), (slice(0, 2), 1), Ellipsis):
        with pytest.raises(TypeError, match=r"read as a slice, cap\[lo:hi\]"):
            cap[key]


@pytest.mark.parametrize("offset, message", [
    (10, "truncated at frame 1: expected 4096 bytes, got 0"),
    (6, "truncated at frame 0: expected 34359738360 bytes, got 4096"),
], ids=["frames", "subcarriers"])
def test_overstated_header_allocates_about_the_file(tmp_path, offset,
                                                    message):
    # The header claims 2**32 - 1 frames (or subcarriers) over one frame.
    path = tmp_path / "cap.bin"
    write_capture(path, wifi_cfg(), np.ones((1, 512), dtype=np.complex64))
    raw = bytearray(path.read_bytes())
    raw[offset:offset + 4] = struct.pack("<I", 2 ** 32 - 1)
    path.write_bytes(bytes(raw))
    tracemalloc.start()
    try:
        with pytest.raises(CaptureFormatError, match=message):
            read_capture_array(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 21


# Frames per block of the finite check on 512-subcarrier frames.
_BLOCK = _FINITE_BLOCK_SAMPLES // 512


@pytest.mark.parametrize("cells, first", [
    ([(_BLOCK - 1, 511)], (_BLOCK - 1, 511)),
    ([(_BLOCK, 0)], (_BLOCK, 0)),
    ([(2 * _BLOCK + 44, 17)], (2 * _BLOCK + 44, 17)),
    ([(2 * _BLOCK + 44, 3), (_BLOCK + 1, 400)], (_BLOCK + 1, 400)),
], ids=["end-of-block", "start-of-block", "later-block", "two-blocks"])
def test_non_finite_sample_named_across_blocks(tmp_path, cells, first):
    # The check runs a block of frames at a time; the message still names
    # the first bad sample in file order, on both read and write.
    cfg = wifi_cfg()
    grid = np.ones((3 * _BLOCK + 5, 512), dtype=np.complex64)
    path = tmp_path / "cap.bin"
    write_capture(path, cfg, grid)
    raw = bytearray(path.read_bytes())
    for frame, sub in cells:
        grid[frame, sub] = complex(1.0, np.nan)
        offset = _HEADER.size + (frame * 512 + sub) * _ENTRY_BYTES + 4
        raw[offset:offset + 4] = struct.pack("<f", np.inf)
    path.write_bytes(bytes(raw))
    message = f"non-finite sample at frame {first[0]}, subcarrier {first[1]}"
    with pytest.raises(CaptureFormatError, match=f"^{message}$"):
        read_capture_array(path)
    with pytest.raises(CaptureFormatError, match=f"^{message}$"):
        read_capture_array(path, 1)  # blocks counted from frame 1
    with pytest.raises(CaptureFormatError,
                       match=f"^{message} as complex64$"):
        write_capture(tmp_path / "refused.bin", cfg, grid)
    assert not (tmp_path / "refused.bin").exists()


def test_read_peaks_at_about_the_payload(tmp_path):
    # The finite check holds one block's flags, not one per sample (an
    # eighth of the complex64 payload).
    path = tmp_path / "cap.bin"
    grid = np.ones((2048, 256), dtype=np.complex64)
    write_capture(path, small_cfg(256), grid)
    read_capture_array(path)
    tracemalloc.start()
    try:
        read_capture_array(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * grid.nbytes


def test_ground_truth_interpolation(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("t,range_m,velocity_mps\n"
                    "0,0.6,-0.0769\n"
                    "\n"  # blank rows are skipped
                    "3.9,0.3,-0.0769\n")
    truth = read_ground_truth(path)
    assert truth.times_s.tolist() == [0.0, 3.9]
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
    path.write_text("t,range_m,velocity_mps\n0,1,0\n1,x,0\n")
    with pytest.raises(CaptureFormatError, match="line 3: could not convert"):
        read_ground_truth(path)
    path.write_text("t,range_m,velocity_mps\n\n")
    with pytest.raises(CaptureFormatError, match="no data rows"):
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


def reference_write_ground_truth(path, trajectory):
    """The per-row ``repr`` writer that ``write_ground_truth`` must match."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "range_m", "velocity_mps"])
        for t, r, v in zip(trajectory.times_s, trajectory.ranges_m,
                           trajectory.velocities_mps):
            writer.writerow([repr(float(t)), repr(float(r)), repr(float(v))])


@settings(max_examples=80, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(3)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_ground_truth_writer_matches_reference_bytes(tmp_path_factory, rows):
    truth = Trajectory(times_s=rows[:, 0], ranges_m=rows[:, 1],
                       velocities_mps=rows[:, 2])
    root = tmp_path_factory.mktemp("truth")
    write_ground_truth(root / "truth.csv", truth)
    reference_write_ground_truth(root / "ref.csv", truth)
    assert (root / "truth.csv").read_bytes() == (root / "ref.csv").read_bytes()


@pytest.mark.parametrize("scenario", ["test1", "gesture"])
@pytest.mark.parametrize("seed", [0, 3])
def test_simulated_truth_matches_reference_bytes(tmp_path, scenario, seed):
    _, _, truth = simulate_scenario(load_scenario(scenario), seed)
    write_ground_truth(tmp_path / "truth.csv", truth)
    reference_write_ground_truth(tmp_path / "ref.csv", truth)
    assert (tmp_path / "truth.csv").read_bytes() \
        == (tmp_path / "ref.csv").read_bytes()


def map_for_export():
    cfg = make_config(n_subcarriers=16, n_frames=8,
                      subcarrier_spacing_hz=312.5e3, frame_interval_s=0.025,
                      carrier_freq_hz=6.3e9)
    rng = np.random.default_rng(1)
    grid = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
    return range_doppler(range_profiles(grid), cfg)


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


def grid_helper():
    return subprocess.Popen([sys.executable, "-I", "-S", gridcsv.__file__],
                            stdin=subprocess.PIPE, stderr=subprocess.PIPE)


def test_grid_helper_writes_the_same_bytes(tmp_path):
    # A helper process, stdlib-only under -I -S, writes each grid it is
    # sent with the one CSV writer, so its file is write_map_csv's to the
    # byte, also for a map with no rows to label.
    maps = [RangeDopplerMap(values=AWKWARD, range_scale_m=0.1,
                            velocity_scale_mps=1.0 / 3.0),
            map_for_export(),
            RangeDopplerMap(values=np.empty((0, 3)), range_scale_m=0.1,
                            velocity_scale_mps=0.05)]
    helper = grid_helper()
    for index, rdm in enumerate(maps):
        gridcsv.send_grid(helper.stdin, tmp_path / f"sent_{index}é.csv",
                          *map_csv_grid(rdm))
        write_map_csv(tmp_path / f"own_{index}.csv", rdm)
    assert helper.communicate(timeout=60) == (None, b"")
    assert helper.returncode == 0
    for index in range(len(maps)):
        assert (tmp_path / f"sent_{index}é.csv").read_bytes() \
            == (tmp_path / f"own_{index}.csv").read_bytes()


def test_grid_helper_names_its_failure(tmp_path):
    # A file the helper cannot write, or an input that ends partway through
    # a grid, ends it with status 1 and one line of message.
    taken = tmp_path / "taken.csv"
    taken.mkdir()
    with pytest.raises(OSError) as caught:
        open(taken, "w")
    helper = grid_helper()
    gridcsv.send_grid(helper.stdin, taken, *map_csv_grid(map_for_export()))
    assert helper.communicate(timeout=60)[1] == f"{caught.value}\n".encode()
    assert helper.returncode == 1
    sent = io.BytesIO()
    gridcsv.send_grid(sent, tmp_path / "cut.csv",
                      *map_csv_grid(map_for_export()))
    for cut in (3, 40, len(sent.getvalue()) - 1):
        helper = grid_helper()
        helper.stdin.write(sent.getvalue()[:cut])
        assert helper.communicate(timeout=60)[1] \
            == b"grid input ended partway through a grid\n"
        assert helper.returncode == 1
    assert not (tmp_path / "cut.csv").exists()


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
    path.write_text("\n" + path.read_text() + "\n  \n")
    assert read_detections_jsonl(path) == rows
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
