"""Correctness gate for the benchmark's ``csisense process`` calls.

An operation fails when any of these holds:

- ``process`` exits non-zero;
- its detections fail ``csisense eval`` against the truth CSV at 0.10 m,
  0.03 m/s and ``--min-true-velocity 0.0297``;
- for the reference seed, the detections differ from the reference stored
  with the benchmark: count, ``t``, ``bin_l`` and ``bin_p`` must be
  identical, ``range_m``, ``velocity_mps`` and ``power_db`` within 1e-9;
- with ``--emit-maps``, the map directory does not hold two files per
  window, or a sample of map CSVs does not parse back to the library's own
  magnitudes within 1e-12 relative.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
from typing import List, Optional, Sequence, Tuple

import numpy as np

from csisense import capture_io, cli, rdmap
from csisense.sync import SyncParams, synchronize
from csisense.waveform import make_config

MAX_RANGE_ERR_M = 0.10
MAX_VEL_ERR_MPS = 0.03
MIN_TRUE_VELOCITY_MPS = 0.0297
VALUE_TOL = 1e-9
MAP_REL_TOL = 1e-12
EVAL_ARGS = ["--max-range-err", str(MAX_RANGE_ERR_M),
             "--max-vel-err", str(MAX_VEL_ERR_MPS),
             "--min-true-velocity", str(MIN_TRUE_VELOCITY_MPS)]


def load_jsonl(path) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def accuracy(detections: Sequence[dict], truth) -> Tuple[float, float, int]:
    """Median |range| and |velocity| error against truth, with the same
    selection as ``csisense eval``: detections whose true speed is below
    the minimum are skipped."""
    t = np.array([float(d["t"]) for d in detections])
    keep = np.abs(truth.velocity_at(t)) >= MIN_TRUE_VELOCITY_MPS
    if not np.any(keep):
        return float("nan"), float("nan"), 0
    t = t[keep]
    r = np.array([float(d["range_m"]) for d in detections])[keep]
    v = np.array([float(d["velocity_mps"]) for d in detections])[keep]
    return (float(np.median(np.abs(r - truth.range_at(t)))),
            float(np.median(np.abs(v - truth.velocity_at(t)))),
            int(keep.sum()))


def compare_reference(detections: Sequence[dict],
                      reference: Sequence[dict]) -> List[str]:
    if len(detections) != len(reference):
        return [f"{len(detections)} detections, reference has "
                f"{len(reference)}"]
    for index, (got, want) in enumerate(zip(detections, reference)):
        for key in ("t", "bin_l", "bin_p"):
            if got[key] != want[key]:
                return [f"detection {index}: {key} {got[key]!r} != "
                        f"reference {want[key]!r}"]
        for key in ("range_m", "velocity_mps", "power_db"):
            if abs(got[key] - want[key]) > VALUE_TOL:
                return [f"detection {index}: {key} {got[key]!r} differs from "
                        f"reference {want[key]!r} by more than {VALUE_TOL}"]
    return []


def read_map_csv(path) -> np.ndarray:
    """Magnitudes of a map CSV written by ``--emit-maps`` (headers dropped)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(x) for x in row[1:]] for row in rows[1:]])


def library_maps(capture_path, window: int, stride: int,
                 indices: Sequence[int]) -> dict:
    """Magnitudes of selected windows' maps, formed by the library with the
    settings ``process`` uses by default."""
    header, capture = capture_io.read_capture_array(capture_path)
    capture = capture.astype(complex)
    cfg = make_config(
        n_subcarriers=header.n_subcarriers, n_frames=window,
        subcarrier_spacing_hz=header.subcarrier_spacing_hz,
        frame_interval_s=header.frame_interval_s,
        carrier_freq_hz=header.carrier_freq_hz)
    capture, _ = synchronize(
        capture, SyncParams(max_lag=max(1, header.n_subcarriers // 4)))
    wanted = set(indices)
    return {i: rdm.magnitude() for i, rdm in enumerate(rdmap.window_maps(
        capture, cfg, window, stride, apply_sync=False, window_fn="hann"))
        if i in wanted}


class Gate:
    """Checks one operation's outputs; counts attempted and failed ones."""

    def __init__(self, truth_path: str, n_windows: int,
                 reference: Optional[List[dict]] = None,
                 expected_maps: Optional[dict] = None) -> None:
        self.truth_path = truth_path
        self.truth = capture_io.read_ground_truth(truth_path)
        self.n_windows = n_windows
        self.reference = reference
        self.expected_maps = expected_maps
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, exit_code: int, out_dir: str) -> dict:
        """Gate one ``process`` call whose outputs are under ``out_dir``.
        Returns the operation's accuracy figures (empty if it failed early).
        """
        self.attempted += 1
        problems, stats = self._problems(exit_code, out_dir)
        if problems:
            self.failed += 1
            self.failures.append(f"operation {self.attempted}: "
                                 + "; ".join(problems))
        return stats

    def _problems(self, exit_code: int, out_dir: str):
        if exit_code != 0:
            return [f"process exited {exit_code}"], {}
        det_path = os.path.join(out_dir, "detections.jsonl")
        try:
            detections = load_jsonl(det_path)
            range_err, vel_err, evaluated = accuracy(detections, self.truth)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable detections: {exc}"], {}
        stats = {"range_err_m": range_err, "vel_err_mps": vel_err,
                 "evaluated": evaluated,
                 "detect_yield": len(detections) / self.n_windows}
        problems = self._eval(det_path, range_err)
        if self.reference is not None:
            problems += compare_reference(detections, self.reference)
        if self.expected_maps is not None:
            problems += self._maps(os.path.join(out_dir, "maps"))
        return problems, stats

    def _eval(self, det_path: str, range_err: float) -> List[str]:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), \
                contextlib.redirect_stderr(printed):
            code = cli.main(["eval", det_path, self.truth_path, *EVAL_ARGS])
        if code != 0:
            return [f"eval exited {code}: {printed.getvalue().strip()}"]
        # eval prints its median to six places; ours must agree with it.
        found = re.search(r"range_error_m: median=([0-9.]+)",
                          printed.getvalue())
        if found is None or found.group(1) != f"{range_err:.6f}":
            return ["benchmark's range error disagrees with eval's"]
        return []

    def _maps(self, maps_dir: str) -> List[str]:
        try:
            names = sorted(os.listdir(maps_dir))
        except OSError as exc:
            return [f"no map directory: {exc}"]
        if len(names) != 2 * self.n_windows:
            return [f"{len(names)} map files, expected {2 * self.n_windows}"]
        for index, want in self.expected_maps.items():
            path = os.path.join(maps_dir, f"map_{index:05d}.csv")
            try:
                got = read_map_csv(path)
            except (OSError, ValueError, IndexError) as exc:
                return [f"{path}: {exc}"]
            if got.shape != want.shape or not np.allclose(
                    got, want, rtol=MAP_REL_TOL, atol=0.0):
                return [f"{path} does not match the library's map"]
        return []
