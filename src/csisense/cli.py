"""Command-line surface: simulate captures, process them into detections and
figure exports, evaluate against ground truth, and print capability numbers.

Exit codes: 0 success, 1 evaluation failure, 2 I/O or format error,
3 invalid arguments.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Optional

import numpy as np

from . import capture_io, gridcsv, rdmap
from .capture_io import CaptureFormatError
from .scenarios import (PRESET_CONFIGS, PRESET_SCENARIOS, ScenarioError,
                        finite_float, load_scenario, simulate_scenario)
from .sync import MAX_UPSAMPLE_FACTOR, SyncError, SyncParams, SyncReport
from .waveform import (db_to_linear, doppler_resolution, make_config,
                       range_accuracy, range_resolution, unambiguous_limits)

EXIT_OK = 0
EXIT_EVAL_FAILED = 1
EXIT_IO = 2
EXIT_USAGE = 3

# The name of each map file that --emit-maps writes into its folder.
_MAP_FILE = re.compile(r"map_\d{5,}\.(csv|pgm)")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for I/O errors.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="csisense",
                     description="Monostatic CSI range-Doppler sensing toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    calc = sub.add_parser("calc", help="print resolution/ambiguity/accuracy")
    calc.add_argument("--preset", choices=sorted(PRESET_CONFIGS),
                      help="start from a named parameter set")
    # Each waveform flag's dest is its make_config keyword.
    calc.add_argument("--subcarriers", type=int, dest="n_subcarriers")
    calc.add_argument("--frames", type=int, dest="n_frames")
    calc.add_argument("--spacing", type=float, dest="subcarrier_spacing_hz",
                      help="subcarrier spacing, Hz")
    calc.add_argument("--bandwidth", type=float, dest="bandwidth_hz",
                      help="total bandwidth, Hz")
    calc.add_argument("--frame-interval", type=float, dest="frame_interval_s",
                      help="seconds")
    calc.add_argument("--carrier-freq", type=float, dest="carrier_freq_hz",
                      help="Hz")
    calc.add_argument("--snr-db", type=finite_float,
                      help="also print range accuracy at this SNR")
    calc.set_defaults(func=cmd_calc)

    sim = sub.add_parser("simulate", help="write a capture + truth CSV")
    sim.add_argument("--scenario", required=True,
                     help="preset name (test1, gesture) or scenario file")
    sim.add_argument("--seed", type=int, help="override the scenario seed")
    sim.add_argument("--out", required=True, help="capture file to write")
    sim.add_argument("--truth-out",
                     help="truth CSV path (default: <out>.truth.csv)")
    sim.set_defaults(func=cmd_simulate)

    proc = sub.add_parser("process", help="capture -> detections JSON lines")
    proc.add_argument("capture")
    proc.add_argument("--out", help="detections path (default: stdout)")
    proc.add_argument("--window", type=int, default=32, help="frames per map")
    proc.add_argument("--stride", type=int, default=1)
    proc.add_argument("--no-sic", action="store_true",
                      help="skip zero-Doppler removal")
    proc.add_argument("--no-sync", action="store_true",
                      help="skip delay/phase synchronization")
    proc.add_argument("--upsample", type=int,
                      default=SyncParams.upsample_factor,
                      help=f"delay refinement factor, 1 to "
                           f"{MAX_UPSAMPLE_FACTOR}")
    proc.add_argument("--delta", type=float,
                      default=SyncParams.phase_step_rad,
                      help="phase jump quantum, rad")
    proc.add_argument("--history", type=int, default=SyncParams.history_len,
                      help="phase reference history, frames")
    proc.add_argument("--max-lag", type=int,
                      help="coarse delay search half-width (default N/4)")
    proc.add_argument("--threshold-db", type=finite_float,
                      default=rdmap.DEFAULT_THRESHOLD_DB)
    proc.add_argument("--emit-maps", metavar="DIR",
                      help="write per-window CSV+PGM maps here")
    proc.add_argument("--emit-spectrogram", metavar="FILE",
                      help="write the Doppler-time profile (CSV, or PGM "
                           "if the name ends in .pgm)")
    proc.add_argument("--emit-sync-report", metavar="FILE",
                      help="write the sync report JSON")
    proc.set_defaults(func=cmd_process)

    ev = sub.add_parser("eval", help="compare detections against truth")
    ev.add_argument("detections", help="JSON-lines detections file")
    ev.add_argument("truth", help="truth CSV")
    ev.add_argument("--max-range-err", type=finite_float, default=0.10,
                    help="median range error limit, m")
    ev.add_argument("--max-vel-err", type=finite_float, default=0.03,
                    help="median velocity error limit, m/s")
    ev.add_argument("--min-true-velocity", type=finite_float, default=0.0,
                    help="skip detections where |true velocity| is below this")
    ev.set_defaults(func=cmd_eval)
    return parser


def _same_file(a, b) -> bool:
    """Whether paths ``a`` and ``b`` name one file: the same resolved path,
    or, when both exist, the same file under two names (a hard link)."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return False


def _check_outputs(files, folder=None, inputs=()) -> None:
    """Refuse, before any input is read or simulated, an output that could
    not be written, so a refused command leaves no file behind: each file's
    directory must exist and the file must not be a directory, and the
    nearest existing path of the ``folder`` to make must be a directory.
    No output may name the same file as an input or as another output, and
    no output or input may be a map file that will be written into the
    ``folder``."""
    files = [path for path in files if path]
    for path in files:
        where = os.path.dirname(path) or os.curdir
        if not os.path.isdir(where):
            raise FileNotFoundError(
                f"cannot write {path}: no directory {where}")
        if os.path.isdir(path):
            raise IsADirectoryError(f"cannot write {path}: it is a directory")
    for path in [*files, *inputs]:
        if (folder and _MAP_FILE.fullmatch(os.path.basename(path))
                and _same_file(os.path.dirname(path) or os.curdir, folder)):
            raise FileExistsError(f"cannot write {path}: --emit-maps writes "
                                  f"a map file of that name into {folder}")
    existing = folder
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise NotADirectoryError(
            f"cannot write maps to {folder}: {existing} is not a directory")
    outputs = files + ([folder] if folder else [])
    for index, path in enumerate(outputs):
        for other, role in ([(p, "input") for p in inputs]
                            + [(p, "output") for p in outputs[:index]]):
            if _same_file(path, other):
                raise FileExistsError(f"cannot write {path}: it is the same "
                                      f"file as the {role} {other}")


def cmd_calc(args) -> int:
    params = dict(PRESET_CONFIGS[args.preset or "wifi-ax211"])
    if args.bandwidth_hz is not None and args.subcarrier_spacing_hz is None:
        del params["subcarrier_spacing_hz"]  # derived from the bandwidth
    for key in ("n_subcarriers", "n_frames", "subcarrier_spacing_hz",
                "bandwidth_hz", "frame_interval_s", "carrier_freq_hz"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    cfg = make_config(**params)
    max_range, velocity_span = unambiguous_limits(cfg)
    accuracy = None
    if args.snr_db is not None:  # checked before anything prints
        accuracy = range_accuracy(
            cfg, db_to_linear("--snr-db", args.snr_db, 10.0))
    print(f"range_resolution_m = {range_resolution(cfg)!r}")
    print(f"velocity_resolution_mps = {doppler_resolution(cfg)!r}")
    print(f"max_range_m = {max_range!r}")
    print(f"max_velocity_span_mps = {velocity_span!r}")
    print(f"velocity_limits_mps = +-{velocity_span / 2.0!r}")
    if accuracy is not None:
        print(f"range_accuracy_m = {accuracy!r}  # at {args.snr_db} dB SNR")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    truth_path = args.truth_out or f"{os.path.splitext(args.out)[0]}.truth.csv"
    scenario_file = [] if args.scenario in PRESET_SCENARIOS else [args.scenario]
    _check_outputs([args.out, truth_path], inputs=scenario_file)
    try:
        cfg, capture, truth = simulate_scenario(load_scenario(args.scenario),
                                                args.seed)
        frames = capture_io.write_capture(args.out, cfg, capture)
    except (ScenarioError, CaptureFormatError) as exc:
        raise ScenarioError(f"scenario {args.scenario}: {exc}") from None
    capture_io.write_ground_truth(truth_path, truth)
    print(f"wrote {frames} frames to {args.out}; truth to {truth_path}")
    return EXIT_OK


def cmd_process(args) -> int:
    if args.no_sync and args.emit_sync_report:
        raise ValueError("--emit-sync-report requires synchronization "
                         "(drop --no-sync)")
    # rdmap.detect applies the threshold as an amplitude ratio.
    db_to_linear("--threshold-db", args.threshold_db, 20.0)
    params = SyncParams(
        upsample_factor=args.upsample, phase_step_rad=args.delta,
        history_len=args.history, max_lag=args.max_lag)
    # Window and stride alone, before the read; the capture length after.
    rdmap.window_starts(args.window, args.window, args.stride)
    _check_outputs([args.out, args.emit_spectrogram, args.emit_sync_report],
                   args.emit_maps, inputs=[args.capture])
    # The header and the file's length are checked here; each sample when
    # the pass over the windows reads its block, before anything is written.
    capture = capture_io.CaptureFile(args.capture)
    header = capture.header
    n_windows = len(rdmap.window_starts(header.n_frames, args.window,
                                        args.stride))
    if args.max_lag is not None and args.max_lag >= header.n_subcarriers:
        raise ValueError(f"--max-lag {args.max_lag} must be below the "
                         f"capture's {header.n_subcarriers} subcarriers")
    try:
        cfg = make_config(
            n_subcarriers=header.n_subcarriers, n_frames=args.window,
            subcarrier_spacing_hz=header.subcarrier_spacing_hz,
            frame_interval_s=header.frame_interval_s,
            carrier_freq_hz=header.carrier_freq_hz)
    except ValueError as exc:
        # The window is already checked, so the header is at fault.
        raise CaptureFormatError(
            f"capture {args.capture} has an unusable header: {exc}") from None

    # Sync, when on, runs block by block inside each pass over the windows.
    def maps(sync_reports=None):
        return rdmap.window_maps(
            capture, cfg, args.window, args.stride,
            apply_sync=not args.no_sync, apply_sic=not args.no_sic,
            sync_params=params, sync_reports=sync_reports)

    reports = [] if args.emit_sync_report else None
    try:
        detections = rdmap.track(maps(reports), threshold_db=args.threshold_db)
    except SyncError as exc:
        raise CaptureFormatError(
            f"capture {args.capture} defeats sync: {exc}") from None
    if reports is not None:
        capture_io.write_sync_report_json(args.emit_sync_report,
                                          SyncReport.concatenate(reports))
    if args.out:
        capture_io.write_detections_jsonl(args.out, detections)
    else:
        for det in detections:
            print(json.dumps(det.to_json_dict()))

    if args.emit_maps:
        _write_maps(args.emit_maps, maps(), n_windows)
    if args.emit_spectrogram:
        profile = rdmap.doppler_time_profile(maps())
        if args.emit_spectrogram.endswith(".pgm"):
            capture_io.write_profile_pgm(args.emit_spectrogram, profile)
        else:
            capture_io.write_profile_csv(args.emit_spectrogram, profile)
    return EXIT_OK


def _write_maps(folder, maps, n_maps: int) -> None:
    """Each map's CSV and PGM into ``folder``. A ``gridcsv`` helper process
    writes the odd maps' CSVs, where it starts (see ``_start_map_writer``);
    this process writes the others and every PGM. The helper is reaped
    before this returns or raises. One that fails raises its message as an
    ``OSError``. Where this process fails, the helper first writes the maps
    it was sent, which are all earlier ones: every map before the failing
    one is complete, and a helper's failure, at an earlier map, is raised
    in its place."""
    os.makedirs(folder, exist_ok=True)
    helper = None
    try:
        helper = _start_map_writer(n_maps)
        for index, rdm in enumerate(maps):
            base = os.path.join(folder, f"map_{index:05d}")
            if helper is None or index % 2 == 0:
                capture_io.write_map_csv(base + ".csv", rdm)
            else:
                try:
                    gridcsv.send_grid(helper.stdin, base + ".csv",
                                      *capture_io.map_csv_grid(rdm))
                except BrokenPipeError:
                    _reap(helper)  # raises the message of its failure
                    raise
            capture_io.write_map_pgm(base + ".pgm", rdm)
        if helper is not None:
            _reap(helper)
    except Exception:
        if helper is not None and helper.returncode is None:
            _reap(helper)
        raise
    finally:
        if helper is not None and helper.returncode is None:
            helper.terminate()  # interrupted: stopped, then reaped
            helper.communicate()


def _start_map_writer(n_maps: int):
    """A ``gridcsv`` helper ``subprocess.Popen``, where there are two maps
    or more and this process may run on more than one CPU; None otherwise,
    or where it cannot start. One helper is what was measured: more wait
    for timings on a host of more than two CPUs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    if n_maps < 2 or cpus < 2:
        return None
    import subprocess  # not at the top: about 4 ms of every csisense start
    try:
        return subprocess.Popen(
            [sys.executable, "-I", "-S", gridcsv.__file__],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
    except OSError:
        return None


def _reap(helper) -> None:
    """Close a helper's input, wait for it to write what it was sent, and
    raise an ``OSError`` with its message if it failed."""
    message = helper.communicate()[1].decode(errors="replace").strip()
    code = helper.returncode
    if code == 0:
        return
    if message:
        raise OSError(message.splitlines()[-1])
    if code < 0:
        raise OSError(f"a map CSV writer was killed by signal {-code}")
    raise OSError(f"a map CSV writer exited with status {code}")


def cmd_eval(args) -> int:
    detections = capture_io.read_detections_jsonl(args.detections)
    truth = capture_io.read_ground_truth(args.truth)
    range_errors = []
    velocity_errors = []
    for index, det in enumerate(detections):
        try:
            t = float(det["t"])
            range_m = float(det["range_m"])
            velocity = float(det["velocity_mps"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CaptureFormatError(
                f"detection {index} lacks a numeric t/range_m/velocity_mps: "
                f"{exc}") from exc
        if not all(map(math.isfinite, (t, range_m, velocity))):
            raise CaptureFormatError(
                f"detection {index} has a non-finite t/range_m/velocity_mps")
        # Interpolation would hold the track's end value past its span.
        if not truth.times_s[0] <= t <= truth.times_s[-1]:
            raise CaptureFormatError(
                f"detection {index} at t = {t} s lies outside the truth's "
                f"span [{truth.times_s[0]}, {truth.times_s[-1]}] s")
        true_velocity = float(truth.velocity_at(t))
        if abs(true_velocity) < args.min_true_velocity:
            continue
        range_errors.append(abs(range_m - float(truth.range_at(t))))
        velocity_errors.append(abs(velocity - true_velocity))
        # A truth too steep or too large for floats interpolates to inf or
        # NaN, and so does a detection's distance from a huge truth value.
        if not (math.isfinite(range_errors[-1])
                and math.isfinite(velocity_errors[-1])):
            raise CaptureFormatError(
                f"detection {index} at t = {t} s has no finite error "
                f"against the truth")
    if not range_errors:
        print("csisense: nothing to evaluate: no detections pass the filters",
              file=sys.stderr)
        return EXIT_EVAL_FAILED

    # Finite errors can still sum past the float range: refused, not inf.
    stats = {}
    with np.errstate(over="ignore"):
        for label, errors in (("range_error_m", range_errors),
                              ("velocity_error_mps", velocity_errors)):
            stats[label] = (np.median(errors), np.mean(errors),
                            np.percentile(errors, 90))
    if not np.isfinite(list(stats.values())).all():
        raise CaptureFormatError(
            "the detections' errors are too large to average as floats")
    print(f"detections_evaluated = {len(range_errors)}")
    for label, (median, mean, p90) in stats.items():
        print(f"{label}: median={median:.6f} mean={mean:.6f} p90={p90:.6f}")
    ok = (stats["range_error_m"][0] <= args.max_range_err
          and stats["velocity_error_mps"][0] <= args.max_vel_err)
    print(f"result = {'pass' if ok else 'fail'} "
          f"(limits: range {args.max_range_err} m, "
          f"velocity {args.max_vel_err} m/s)")
    return EXIT_OK if ok else EXIT_EVAL_FAILED


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (CaptureFormatError, ScenarioError, OSError) as exc:
        print(f"csisense: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"csisense: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
