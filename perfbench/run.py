#!/usr/bin/env python3
"""Benchmark of ``csisense process``, the toolkit's one batch call.

    python3 perfbench/run.py --workload track-stride1 --seed 0 \
        --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and driven in-process through ``csisense.cli.main``. One run:

1. set-up: imports the package, writes the workload's scenario text
   (generated from ``--seed``) and runs ``csisense simulate`` on it
   ``SETUP_REPS`` times, each after a first import of the package in a
   fresh interpreter, checking that every repetition writes identical
   files;
2. with ``--trace 0``: one untimed ``process`` call under ``tracemalloc``
   for the peak allocation, then timed ``process`` calls for ``--seconds``
   (at least ``MIN_OPS`` of them), tracing off;
3. with ``--trace 1``: timed calls alternating untraced and traced, where
   the traced ones record spans around each layer's public functions (see
   ``spans.py``) for the per-layer breakdown;
4. every ``process`` call goes through the correctness gate (``gate.py``).

It prints a readable report, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(machine block, inputs, per-operation times, failures) and, for traced
runs, the spans are written under ``.perfbench/out/``.

``--tiny`` shrinks every capture so the whole metric set can be checked in
seconds (see ``selftest.py``).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench" / "work"
OUT = ROOT / ".perfbench" / "out"

# Detections for this seed are compared against perfbench/reference/.
REFERENCE_SEED = 0
SETUP_REPS = 3
# The tail is the highest percentile with at least TAIL_BEYOND samples
# beyond it, so a run times more calls than that.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
MIN_TRACED_OPS = 3

END_TO_END_UNITS = {
    "process_min_s": "s", "frames_per_s": "frames/s", "setup_s": "s",
    "peak_alloc_mb": "MB", "detect_yield": "ratio", "process_s": "s",
    "process_s.tail": "s", "range_err_m": "m", "vel_err_mps": "m/s",
    "error_rate": "ratio",
}
# Printed in the report and recorded, but left out of the final JSON line
# that regression bounds apply to. On a shared 2-core host the median and
# tail of a run move by about 20% from one run to the next while the fastest
# call moves by about 10%; the accuracy medians move with the seed's noise
# (about 40% on export-all); error_rate is zero whenever the gate passes.
REPORT_ONLY = ("process_s", "process_s.tail", "range_err_m", "vel_err_mps",
               "error_rate")

# Per-layer time metric -> (span, "total" or "self").
SPAN_TIMES = {
    "rdmap.detect_s": ("rdmap.detect", "total"),
    "rdmap.range_doppler_s": ("rdmap.range_doppler", "total"),
    "sic.remove_dc_s": ("sic.remove_dc", "total"),
    "rdmap.track_self_s": ("rdmap.track", "self"),
    "rdmap.profile_self_s": ("rdmap.doppler_time_profile", "self"),
    "sync.synchronize_s": ("sync.synchronize", "total"),
    "sync.align_phases_s": ("sync.align_phases", "total"),
    "sync.coarse_delay_s": ("sync.coarse_delay", "total"),
    "sync.fine_delay_s": ("sync.fine_delay", "total"),
    "sync.compensate_delay_s": ("sync.compensate_delay", "total"),
    "capture_io.read_s": ("capture_io.read_capture_array", "total"),
    "capture_io.write_map_csv_s": ("capture_io.write_map_csv", "total"),
    "capture_io.write_map_pgm_s": ("capture_io.write_map_pgm", "total"),
    "capture_io.write_profile_s": ("capture_io.write_profile_csv", "total"),
    "capture_io.write_detections_s": ("capture_io.write_detections_jsonl",
                                      "total"),
    "capture_io.write_sync_report_s": ("capture_io.write_sync_report_json",
                                       "total"),
}
# Spans that only the named `emit` option of a workload calls; on other
# workloads they are zero by construction, not missing.
EMIT_ONLY = {
    "rdmap.doppler_time_profile": "spectrogram",
    "capture_io.write_profile_csv": "spectrogram",
    "capture_io.write_map_csv": "maps",
    "capture_io.write_map_pgm": "maps",
    "capture_io.write_sync_report_json": "sync-report",
}
WRITERS = ("capture_io.write_detections_jsonl", "capture_io.write_map_csv",
           "capture_io.write_map_pgm", "capture_io.write_profile_csv",
           "capture_io.write_sync_report_json")
PER_LAYER_UNITS = dict(
    {name: "s" for name in SPAN_TIMES},
    **{"rdmap.maps_formed": "count", "rdmap.maps_per_window": "ratio",
       "sync.frames": "count", "sync.phase_corrections": "count",
       "sync.lags_searched": "count", "capture_io.read_mb": "MB",
       "capture_io.bytes_written": "bytes",
       "capture_io.files_written": "count", "cli.self_s": "s",
       "channel.simulate_s": "s", "trace.process_s": "s",
       "trace.overhead": "ratio"})


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny captures, for the self-test")
    return parser.parse_args(argv)


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def quietly(cli, argv) -> int:
    """Run a CLI command with its standard output swallowed, so the last
    line this program prints stays the result."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def machine_block() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # the config layout differs across numpy releases
        blas = None
    git = {"commit": None, "dirty": None}
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=30)
        if head.returncode == 0:
            git = {"commit": head.stdout.strip(),
                   "dirty": bool(status.stdout.strip())}
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "git": git,
    }


def first_import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the package's CLI."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); import csisense.cli; "
            "print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"importing csisense failed: {proc.stderr}")
    return float(proc.stdout)


def tail(samples):
    """(value, percentile, count): the highest percentile with at least
    TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


class Run:
    def __init__(self, args, cli) -> None:
        self.args = args
        self.cli = cli
        self.workload = WORKLOADS[args.workload]
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.tag = tag + ("-tiny" if args.tiny else "")
        self.work = WORK / f"{self.tag}-{os.getpid()}"
        self.capture = self.work / "capture.bin"
        self.truth = self.work / "capture.truth.csv"
        self.ops = 0

    def setup(self, tracer) -> tuple:
        """Scenario, then SETUP_REPS times a first package import in a fresh
        interpreter followed by `simulate`. Returns the inputs record and
        each repetition's (import, simulate) seconds."""
        self.work.mkdir(parents=True)
        text = self.workload.scenario_text(self.args.seed, self.args.tiny)
        scenario = self.work / "scenario.txt"
        scenario.write_text(text)
        times, digests = [], set()
        for rep in range(SETUP_REPS):
            imported = first_import_seconds()
            if tracer is not None:
                tracer.op = f"setup-{rep}"
            start = time.perf_counter()
            code = quietly(self.cli, ["simulate", "--scenario", scenario,
                                      "--out", self.capture,
                                      "--truth-out", self.truth])
            times.append((imported, time.perf_counter() - start))
            if tracer is not None:
                tracer.op = None
            if code != 0:
                raise RuntimeError(f"simulate exited {code}")
            digests.add((sha256(self.capture), sha256(self.truth)))
        if len(digests) != 1:
            raise RuntimeError("simulate wrote different files on repeat")
        from csisense import capture_io

        with open(self.capture, "rb") as fh:
            header = capture_io.read_header(fh)
        capture_sha, truth_sha = digests.pop()
        inputs = {"scenario": text, "capture_sha256": capture_sha,
                  "truth_sha256": truth_sha, "header": vars(header),
                  "capture_bytes": self.capture.stat().st_size}
        return inputs, times

    def operation(self, gate, stats, *, tracer=None, measure_alloc=False):
        """One gated `process` call; returns its wall seconds and, with
        ``measure_alloc``, its tracemalloc peak in bytes."""
        self.ops += 1
        out_dir = self.work / f"op-{self.ops}"
        out_dir.mkdir()
        argv = self.workload.process_args(str(self.capture), str(out_dir))
        if tracer is not None:
            tracer.install()
            tracer.op = f"op-{self.ops}"
        if measure_alloc:
            tracemalloc.start()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        peak = None
        if measure_alloc:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
        stats.append(gate.check(code, str(out_dir)))
        shutil.rmtree(out_dir)
        return elapsed, peak


def end_to_end(run, times, peak, setup_times, stats, gate) -> tuple:
    value, pct, count = tail(times)
    fastest = min(times)
    good = [s for s in stats if s]

    def med(key):
        values = [s[key] for s in good]
        return statistics.median(values) if values else None

    metrics = {
        "process_min_s": fastest,
        "frames_per_s": run.workload.n_frames(run.args.tiny) / fastest,
        "setup_s": statistics.median([imp + sim for imp, sim in setup_times]),
        "peak_alloc_mb": peak / 1e6,
        "detect_yield": med("detect_yield"),
        "process_s": statistics.median(times),
        "process_s.tail": value,
        "range_err_m": med("range_err_m"),
        "vel_err_mps": med("vel_err_mps"),
        "error_rate": gate.failed / gate.attempted,
    }
    extra = {"process_s.tail": {"percentile": pct, "samples": count},
             "process_s": {"samples": count}}
    return metrics, extra


def per_layer(run, tracer, traced_ops, traced, untraced, setup_ops) -> tuple:
    """Span times and counts: means over the traced operations, so the
    top-level spans plus cli.self_s add up to trace.process_s."""
    from spans import breakdown

    emits = set(run.workload.emits)
    per_op = [breakdown(tracer.spans, op) for op in traced_ops]
    windows = run.workload.n_windows(run.args.tiny)

    def called(span):
        return any(span in b for b in per_op)

    def absent(span):
        # Missing: gone from the package, or never called although this
        # workload's options call it. Zero: not called by design.
        if span in tracer.missing:
            return "missing"
        if called(span):
            return None
        option = EMIT_ONLY.get(span)
        return "zero" if option is not None and option not in emits \
            else "missing"

    def mean_of(span, field):
        state = absent(span)
        if state == "missing":
            return None
        if state == "zero":
            return 0.0
        values = [b.get(span, {}).get(field, 0) for b in per_op]
        if any(span in b and field not in b[span] for b in per_op):
            return None  # the counter could not be taken
        return statistics.fmean(values)

    metrics = {name: mean_of(span, field)
               for name, (span, field) in SPAN_TIMES.items()}
    maps = mean_of("rdmap.range_doppler", "calls")
    metrics["rdmap.maps_formed"] = maps
    metrics["rdmap.maps_per_window"] = (None if maps is None
                                        else maps / windows)
    metrics["sync.frames"] = mean_of("sync.synchronize", "frames")
    metrics["sync.phase_corrections"] = mean_of("sync.synchronize",
                                                "phase_corrections")
    coarse = mean_of("sync.coarse_delay", "lags")
    fine = mean_of("sync.fine_delay", "lags")
    metrics["sync.lags_searched"] = (None if coarse is None or fine is None
                                     else coarse + fine)
    read = mean_of("capture_io.read_capture_array", "bytes")
    metrics["capture_io.read_mb"] = None if read is None else read / 1e6
    written = [mean_of(w, "bytes") for w in WRITERS]
    files = [mean_of(w, "files") for w in WRITERS]
    metrics["capture_io.bytes_written"] = (
        None if None in written else sum(written))
    metrics["capture_io.files_written"] = (
        None if None in files else sum(files))
    tops = [b.get(None, {"total": 0.0})["total"] for b in per_op]
    metrics["trace.process_s"] = statistics.fmean(traced)
    metrics["cli.self_s"] = statistics.fmean(
        t - top for t, top in zip(traced, tops))
    simulate = [breakdown(tracer.spans, op).get(
        "channel.simulate_trajectory", {}).get("total") for op in setup_ops]
    metrics["channel.simulate_s"] = (
        None if "channel.simulate_trajectory" in tracer.missing
        or None in simulate else statistics.median(simulate))
    metrics["trace.overhead"] = (statistics.median(traced)
                                 / statistics.median(untraced))
    extra = {"top_level_s": statistics.fmean(tops),
             "traced_ops": len(traced), "untraced_ops": len(untraced),
             "missing": sorted(k for k, v in metrics.items() if v is None)}
    return metrics, extra


def execute(args) -> int:
    if not (SRC / "csisense" / "cli.py").is_file():
        print(f"perfbench: no package sources at {SRC.relative_to(ROOT)}/"
              "csisense; run from the root of a full source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import csisense
    import csisense.cli as cli

    if not Path(csisense.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported csisense from {csisense.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import gate as gate_mod
    from spans import Tracer

    run = Run(args, cli)
    workload = run.workload
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        inputs, setup_times = run.setup(tracer)
        if tracer is not None:
            tracer.uninstall()
        setup_ops = [f"setup-{rep}" for rep in range(SETUP_REPS)]

        reference = None
        if args.seed == REFERENCE_SEED and not args.tiny:
            reference = gate_mod.load_jsonl(
                Path(__file__).parent / "reference" / f"{workload.name}.jsonl")
        expected_maps = None
        windows = workload.n_windows(args.tiny)
        if "maps" in workload.emits:
            # Map CSVs parsed back: first, middle and last window.
            sample = sorted({0, windows // 2, windows - 1})
            expected_maps = gate_mod.library_maps(
                run.capture, workload.window, workload.stride, sample)
        gate = gate_mod.Gate(str(run.truth), windows, reference,
                             expected_maps)
        stats = []
        if not args.trace:
            _, peak = run.operation(gate, stats, measure_alloc=True)
            deadline = time.perf_counter() + args.seconds
            times = []
            while time.perf_counter() < deadline or len(times) < MIN_OPS:
                times.append(run.operation(gate, stats)[0])
            metrics, extra = end_to_end(run, times, peak, setup_times,
                                        stats, gate)
            units = END_TO_END_UNITS
            result_metrics = [m for m in units if m not in REPORT_ONLY]
            timings = {"process_s": times}
        else:
            run.operation(gate, stats)  # warm-up, gated but untimed
            deadline = time.perf_counter() + args.seconds
            traced, untraced, traced_ops = [], [], []
            while (time.perf_counter() < deadline
                   or min(len(traced), len(untraced)) < MIN_TRACED_OPS):
                untraced.append(run.operation(gate, stats)[0])
                traced.append(run.operation(gate, stats, tracer=tracer)[0])
                traced_ops.append(f"op-{run.ops}")
            metrics, extra = per_layer(run, tracer, traced_ops, traced,
                                       untraced, setup_ops)
            units = PER_LAYER_UNITS
            result_metrics = list(units)
            timings = {"traced_s": traced, "untraced_s": untraced}
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run.work, ignore_errors=True)

    record = {
        "workload": workload.name, "seed": args.seed,
        "trace": args.trace, "tiny": args.tiny, "seconds": args.seconds,
        "machine": machine_block(), "inputs": inputs,
        "setup_import_simulate_s": setup_times,
        "metrics": {m: {"value": metrics[m], "unit": units[m]}
                    for m in units},
        "detail": extra, "timings": timings,
        "attempted": gate.attempted, "failed": gate.failed,
        "failures": gate.failures,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{run.tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{run.tag}.spans.jsonl")

    report(record)
    for failure in gate.failures[:5]:
        print(f"perfbench: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m: record["metrics"][m] for m in result_metrics},
    }))
    return 0


def report(record: dict) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']}{' tiny' if record['tiny'] else ''}")
    print("machine " + json.dumps(record["machine"]))
    inputs = dict(record["inputs"])
    scenario = inputs.pop("scenario")
    print("inputs " + json.dumps(inputs))
    for line in scenario.splitlines():
        print(f"  scenario | {line}")
    for name, entry in record["metrics"].items():
        value = entry["value"]
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<32} {shown:>14} {entry['unit']}")
    print("detail " + json.dumps(record["detail"]))
    print(f"operations attempted={record['attempted']} "
          f"failed={record['failed']}")


if __name__ == "__main__":
    sys.exit(execute(parse_args()))
