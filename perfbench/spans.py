"""Span recorder for the traced run.

The recorder rebinds public functions of ``csisense`` modules to timing
wrappers. Every module attribute that holds the function is rebound,
including names other modules imported by value (``cli.synchronize``,
``rdmap.synchronize``), so calls made through any of them are seen. The
package's own code is not edited. The wrappers exist only between
``install`` and ``uninstall``; untraced calls run the original functions.

Spans live in memory as dicts (id, name, op, parent, start, end, plus any
counts taken at the call) and are written out when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

PACKAGE = "csisense"

# Public functions timed in the traced run. The `window_maps` generator is
# deliberately absent: its body runs inside whichever caller iterates it, so
# its maps show up as children of `track`, `doppler_time_profile` or, for
# `--emit-maps`, as top-level spans of the CLI.
TRACED = (
    "capture_io.read_capture_array",
    "capture_io.write_detections_jsonl",
    "capture_io.write_map_csv",
    "capture_io.write_map_pgm",
    "capture_io.write_profile_csv",
    "capture_io.write_sync_report_json",
    "sync.synchronize",
    "sync.coarse_delay",
    "sync.fine_delay",
    "sync.compensate_delay",
    "sync.align_phases",
    "sic.remove_dc",
    "rdmap.range_doppler",
    "rdmap.detect",
    "rdmap.track",
    "rdmap.doppler_time_profile",
    "channel.simulate_trajectory",
)


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.isfile(path) else 0


def _written(bound, result) -> dict:
    return {"files": 1, "bytes": _file_bytes(bound.arguments["path"])}


def _coarse_lags(bound, result) -> dict:
    return {"lags": 2 * int(bound.arguments["max_lag"]) + 1}


def _fine_lags(bound, result) -> dict:
    u = int(bound.arguments["upsample_factor"])
    return {"lags": 2 * u + 1 if u > 1 else 0}


def _sync_counts(bound, result) -> dict:
    _, report = result
    return {"frames": int(np.shape(bound.arguments["grid"])[0]),
            "phase_corrections": int(np.count_nonzero(report.corrections_rad))}


def _read_bytes(bound, result) -> dict:
    return {"bytes": _file_bytes(bound.arguments["path"])}


# Counts taken where the work happens: span name -> f(bound args, result).
_COUNTERS: Dict[str, Callable] = {
    "capture_io.read_capture_array": _read_bytes,
    "capture_io.write_detections_jsonl": _written,
    "capture_io.write_map_csv": _written,
    "capture_io.write_map_pgm": _written,
    "capture_io.write_profile_csv": _written,
    "capture_io.write_sync_report_json": _written,
    "sync.synchronize": _sync_counts,
    "sync.coarse_delay": _coarse_lags,
    "sync.fine_delay": _fine_lags,
}


class Tracer:
    """Records one span per call of a traced function while ``op`` is set."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.op: Optional[str] = None
        self.missing: set = set()
        self._stack: List[int] = []
        self._saved: list = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for name in TRACED:
            module_name, func_name = name.split(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _wrap(self, name: str, original: Callable) -> Callable:
        counter = _COUNTERS.get(name)
        signature = inspect.signature(original) if counter else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return original(*args, **kwargs)
            span = {"id": len(self.spans), "name": name, "op": self.op,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.update(counter(bound, result))
                except (KeyError, TypeError, ValueError):
                    # The function's signature or result changed; the count
                    # is then reported as missing rather than guessed.
                    pass
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def breakdown(spans: List[dict], op: str) -> Dict[str, dict]:
    """Per span name for one operation: total and self seconds, calls, and
    summed counts. Self time is a span's duration minus its direct
    children's durations; the top-level entry ``None`` sums the spans that
    have no parent."""
    own = [s for s in spans if s["op"] == op]
    child_time: Dict[int, float] = defaultdict(float)
    for s in own:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: Dict[Optional[str], dict] = defaultdict(
        lambda: {"total": 0.0, "self": 0.0, "calls": 0})
    for s in own:
        duration = s["end"] - s["start"]
        entry = out[s["name"]]
        entry["total"] += duration
        entry["self"] += duration - child_time[s["id"]]
        entry["calls"] += 1
        for key in ("files", "bytes", "lags", "frames", "phase_corrections"):
            if key in s:
                entry[key] = entry.get(key, 0) + s[key]
        if s["parent"] is None:
            top = out[None]
            top["total"] += duration
            top["calls"] += 1
    return dict(out)
