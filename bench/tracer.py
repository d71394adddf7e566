"""Outside-in tracer: wraps zoneplan's public functions at run time.

Only the traced benchmark run installs it.  Each wrapped call records a
span (name, start, end, parent, count) in memory; the worker writes the
spans as JSON lines when it exits.  Counts are read from return values,
so they are exact.  Per-row helpers (format_timestamp, parse_timestamp,
_read_rows) are never wrapped: their call counts would swamp the timings.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

# module -> functions ("Class.method" for methods) that get a span
TARGETS = {
    "ingest": ["load_plug_load", "resample_15min", "exclude_days", "write_grid",
               "load_grid", "load_zone_map", "load_lighting"],
    "states": ["fit_vbgmm", "infer_states_detailed", "write_states", "load_states",
               "write_models"],
    "diversity": ["layout_diversity"],
    "reduce": ["state_matrix", "svd_decompose", "project"],
    "surrogate": ["build_features", "targets_from_lighting", "time_split", "fit_mlr",
                  "fit_random_forest", "evaluate", "feature_importance", "save_model",
                  "load_model", "predict_energy", "write_energy_report",
                  "RfModel.predict_raw", "RfModel.predict_rows", "MlrModel.predict_rows"],
    "optimize": ["swap_optimize", "ga_optimize", "crossover", "mutate", "load_layout",
                 "write_layout", "write_trace"],
    "cli": ["cmd_ingest", "cmd_infer_states", "cmd_train_surrogate", "cmd_optimize",
            "cmd_simulate"],
}


def _vbgmm_count(out, args, kwargs):
    n = len(out.elbo_trace)
    return {"iterations": n, "converged": int(n < kwargs.get("max_iter", 5000))}


def _ga_count(out, args, kwargs):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"fitness_calls": config.population * len(out[1].objectives)}


COUNTS = {
    "ingest.load_plug_load": lambda out, a, k: {"rows": sum(e.times.size for e in out.values())},
    "states.fit_vbgmm": _vbgmm_count,
    "surrogate.fit_random_forest": lambda out, a, k: {"nodes": sum(t.feature.size for t in out.trees)},
    "surrogate.RfModel.predict_raw": lambda out, a, k: {"rows": int(np.atleast_2d(a[1]).shape[0])},
    "optimize.swap_optimize": lambda out, a, k: {"iterations": len(out[1].objectives),
                                                 "accepted": len(out[1].accepted)},
    "optimize.ga_optimize": _ga_count,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else -1}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["count"] = count(out, args, kwargs)
            return out

        return traced

    def install(self, package: str = "zoneplan") -> None:
        """Wrap every TARGETS function and every module binding of one.

        A `from .x import f` binding in another module is the same function
        object, so it is found by identity and gets the same wrapper.
        """
        modules = {m: importlib.import_module(f"{package}.{m}") for m in TARGETS}
        wrappers = {}
        for short, names in TARGETS.items():
            for qual in names:
                owner = modules[short]
                *cls_path, attr = qual.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
                wrapped = self.wrap(f"{short}.{qual}", fn)
                setattr(owner, attr, wrapped)
                if not cls_path:
                    wrappers[fn] = wrapped
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, s (outermost spans only), self_s, summed counts.

    Self time is a span's duration minus the part of it covered by its
    child spans.  `s` skips spans nested in a span of the same name, so
    recursion is not counted twice.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span["parent"], []).append(i)

    def inside_same_name(i: int) -> bool:
        name, p = spans[i]["name"], spans[i]["parent"]
        while p >= 0:
            if spans[p]["name"] == name:
                return True
            p = spans[p]["parent"]
        return False

    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        dur = span["end"] - span["start"]
        kids = [(spans[c]["start"], spans[c]["end"]) for c in children.get(i, [])]
        agg = out.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
        agg["calls"] += 1
        agg["self_s"] += dur - _covered(kids, span["start"], span["end"])
        if not inside_same_name(i):
            agg["s"] += dur
        for key, value in span.get("count", {}).items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value
    return out


def calls_under(spans: list[dict], name: str, ancestor: str) -> int:
    """Number of `name` spans that have an `ancestor` span above them."""
    n = 0
    for span in spans:
        if span["name"] != name:
            continue
        p = span["parent"]
        while p >= 0 and spans[p]["name"] != ancestor:
            p = spans[p]["parent"]
        n += p >= 0
    return n
