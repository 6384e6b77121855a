#!/usr/bin/env python3
"""Self-test of the benchmark; run from the root of a source checkout:

    python3 perfbench/selftest.py

1. For every workload, tiny-input runs with ``--trace 0`` and ``--trace 1``
   must pass the correctness gate and print every metric ``BENCHMARK.json``
   lists, each with a number and a unit, plus the report-only ones. The
   traced run must show each window's map formed three times with every
   export on and once otherwise, and its top-level spans plus
   ``cli.self_s`` must add up to the traced ``process`` time.
2. A copy of the reference detections with one ``bin_p`` changed must be
   counted as a failed operation, while an unchanged copy passes: the gate
   bites.

Exits non-zero at the first check that fails.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from run import (END_TO_END_UNITS, OUT, PER_LAYER_UNITS, REFERENCE_SEED,
                 ROOT, SRC, WORK, quietly)
from workloads import WORKLOADS


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAIL: {message}")


def tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", name, "--seed", "0", "--seconds", "0.5",
                 "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = f"{name} --trace {trace}"
            check(proc.returncode == 0, f"{where} exited {proc.returncode}: "
                  f"{proc.stderr.strip()}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], f"{where}: result keys")
            check(result["correct"] and result["failed"] == 0,
                  f"{where}: gate failed")
            check(sorted(result["metrics"]) == sorted(listed[trace]),
                  f"{where}: metrics differ from BENCHMARK.json")
            for metric, entry in result["metrics"].items():
                check(isinstance(entry["value"], (int, float))
                      and math.isfinite(entry["value"]) and entry["unit"],
                      f"{where}: {metric} = {entry}")
            record = json.loads(
                (OUT / f"{name}-seed0-trace{trace}-tiny.json").read_text())
            metrics = {k: v["value"] for k, v in record["metrics"].items()}
            units = END_TO_END_UNITS if trace == 0 else PER_LAYER_UNITS
            check(sorted(metrics) == sorted(units), f"{where}: report names")
            for metric in units:
                check(metric in proc.stdout, f"{where}: {metric} not printed")
            if trace == 1:
                want = 3.0 if "maps" in workload.emits else 1.0
                check(metrics["rdmap.maps_per_window"] == want,
                      f"{where}: maps_per_window "
                      f"{metrics['rdmap.maps_per_window']} != {want}")
                total = record["detail"]["top_level_s"] + metrics["cli.self_s"]
                check(abs(total - metrics["trace.process_s"]) < 1e-9,
                      f"{where}: spans do not add up to the traced time")
            print(f"selftest: ok  {where}: {len(result['metrics'])} metrics")


def gate_bites() -> None:
    sys.path.insert(0, str(SRC))
    import csisense.cli as cli
    import gate as gate_mod

    workload = WORKLOADS["track-stride1"]
    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        scenario = work / "scenario.txt"
        scenario.write_text(workload.scenario_text(REFERENCE_SEED))
        capture = work / "capture.bin"
        check(quietly(cli, ["simulate", "--scenario", scenario,
                            "--out", capture]) == 0, "simulate")
        reference_path = (ROOT / "perfbench" / "reference"
                          / f"{workload.name}.jsonl")
        reference = gate_mod.load_jsonl(reference_path)
        gate = gate_mod.Gate(str(work / "capture.truth.csv"),
                             workload.n_windows(), reference)

        shutil.copyfile(reference_path, work / "detections.jsonl")
        gate.check(0, str(work))
        check(gate.failed == 0, f"unchanged reference fails: {gate.failures}")

        flipped = [dict(d) for d in reference]
        flipped[len(flipped) // 2]["bin_p"] = -flipped[len(flipped) // 2][
            "bin_p"] or 1
        with open(work / "detections.jsonl", "w") as fh:
            fh.writelines(json.dumps(d) + "\n" for d in flipped)
        gate.check(0, str(work))
        check(gate.attempted == 2 and gate.failed == 1,
              "a flipped bin_p was not counted as a failed operation")
        print(f"selftest: ok  flipped bin_p fails: {gate.failures[-1]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    tiny_runs()
    gate_bites()
    print("selftest: all checks passed")
