#!/usr/bin/env python3
"""Regenerate ``perfbench/reference/<workload>.jsonl``: the detections
``csisense process`` gives on each workload's inputs for the reference seed.

    python3 perfbench/make_reference.py

The correctness gate compares every run on the reference seed against these
files, so regenerate them only with a change that is meant to alter
detections, and say so in that change.
"""
from __future__ import annotations

import shutil
import sys

from run import REFERENCE_SEED, ROOT, SRC, WORK, quietly
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    import csisense.cli as cli

    work = WORK / "make-reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for workload in WORKLOADS.values():
            scenario = work / f"{workload.name}.txt"
            scenario.write_text(workload.scenario_text(REFERENCE_SEED))
            capture = work / f"{workload.name}.bin"
            if quietly(cli, ["simulate", "--scenario", scenario,
                             "--out", capture]) != 0:
                return 1
            out_dir = work / workload.name
            out_dir.mkdir()
            if quietly(cli, workload.process_args(str(capture),
                                                  str(out_dir))) != 0:
                return 1
            target = (ROOT / "perfbench" / "reference"
                      / f"{workload.name}.jsonl")
            shutil.copyfile(out_dir / "detections.jsonl", target)
            print(f"wrote {target.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
