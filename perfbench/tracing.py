"""In-memory span recorder for one traced `earpipe` process.

The program is not edited. `install` replaces each earpipe function at
the module attributes where earpipe.pipeline, earpipe.cli,
earpipe.artifact and earpipe.analysis look it up, so a call made
through `from .x import y` bindings passes through a wrapper that
records a span: name, start, end, parent span and run id. Spans stay
in memory and are written as JSON when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
import types
import uuid

LOOKUP_MODULES = ("pipeline", "cli", "artifact", "analysis")

# Private names that are layer boundaries: input loading, report
# writing and the regression step have no public entry point.
PRIVATE_BOUNDARIES = {
    ("pipeline", "_load_inputs"),
    ("pipeline", "_run_regressions"),
    ("pipeline", "_json_dump"),
    ("cli", "_dump_json"),
}


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Counts taken from a call's arguments and result, keyed by span name.
# They run after the span's end time is taken.
PROBES = {
    "ingest.parse_stream": lambda a, r: {
        "bytes": len(a["data"]),
        "resyncs": r[1].resyncs,
        "dropped_packets": r[1].dropped_packets,
    },
    "ingest.load_session_csv": lambda a, r: {"bytes": _path_size(a["path"])},
    "filters.apply_zero_phase": lambda a, r: {
        "macs": a["fir"].n_taps * a["rec"].n_samples * a["rec"].n_channels
    },
    "artifact.ica_decompose": lambda a, r: {
        "iters": r.n_iter,
        "converged": int(r.converged),
        "components": r.n_components,
    },
    "artifact.select_ecg_ic": lambda a, r: {"selected": int(r is not None)},
    "artifact.asr_calibrate": lambda a, r: {"calib_windows": r.calib_windows_used},
    "artifact.asr_process": lambda a, r: {"flagged": len(r[1])},
    "cardiac.pan_tompkins": lambda a, r: {"beats": len(r)},
    "cardiac.rr_periods": lambda a, r: {"beats": len(a["beats"])},
    "cardiac.rr_outlier_filter": lambda a, r: {"outliers": int((~r.kept_mask).sum())},
    "spectral.welch_psd_recording": lambda a, r: {
        "windows_used": r.window_count,
        "windows_total": 1 + (a["rec"].n_samples - a["seg"]) // (a["seg"] - a["overlap"]),
    },
}


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        probe = PROBES.get(name)
        sig = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "run": self.run_id,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"] = probe(bound.arguments, result)
            return result

        traced.__perfbench_traced__ = True
        return traced

    def install(self) -> None:
        for short in LOOKUP_MODULES:
            mod = importlib.import_module(f"earpipe.{short}")
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                if getattr(value, "__perfbench_traced__", False):
                    continue
                home = value.__module__
                if not home.startswith("earpipe."):
                    continue
                home_short = home.rsplit(".", 1)[1]
                if value.__name__.startswith("_") and (home_short, value.__name__) not in PRIVATE_BOUNDARIES:
                    continue
                setattr(mod, attr, self.wrap(value, f"{home_short}.{value.__name__}"))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)
