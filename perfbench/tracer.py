"""In-memory span tracer that wraps the package's public functions.

A span is (name, start, end, parent, counts).  Spans are appended to a
list while the program runs and written once, at the end.  Self time is a
span's duration minus the part of it that its direct children cover.
Functions called inside one layer's inner loop (the solver's objective and
gradient) are only counted, so their time stays in the enclosing span.

Wrapping rebinds each function in every loaded module of the package that
holds the same function object under the same name, so call sites that did
``from .module import name`` are traced as well.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

PACKAGE = "halfspace_active"

# Counters read a call's (args, kwargs, result) and return {quantity: number},
# summed per span name.  ``data`` arguments are (X, y) tuples.


def _rows_of_result(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _query_mask_counts(args, kwargs, result):
    return {"rows": int(result.shape[0]), "selected": int(result.sum())}


def _examples(args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    return {"examples": int(len(data[1]))}


def _run_counts(args, kwargs, result):
    return {
        "scanned": sum(e.scanned for e in result.epochs),
        "labels": sum(e.labels for e in result.epochs),
    }


def _bytes_written(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result.values())}


# (module, function, span name, counter).  A counter of None records a
# plain span; COUNT_ONLY records no span, just the call count.  The span
# name is the layer the call is attributed to: export_results lives in
# harness but is timed as the CLI's output step.
COUNT_ONLY = "count-only"
TARGETS = (
    ("cli", "load_config", "cli.load_config", None),
    ("harness", "export_results", "cli.export_results", _bytes_written),
    ("harness", "label_complexity_curve", "harness.label_complexity_curve", None),
    ("harness", "check_query_rule_equivalence", "harness.check_query_rule_equivalence", None),
    ("harness", "check_sphere_identity", "harness.check_sphere_identity", None),
    ("harness", "check_concentration_scaling", "harness.check_concentration_scaling", None),
    ("driver", "run_active", "driver.run_active", _run_counts),
    ("driver", "run_passive", "driver.run_passive", None),
    ("data_models", "sample_unlabeled", "data_models.sample_unlabeled", _rows_of_result),
    ("data_models", "label_batch", "data_models.label_batch", _rows_of_result),
    ("data_models", "exact_surrogate_risk", "data_models.exact_surrogate_risk", None),
    ("data_models", "disagreement_probability", "data_models.disagreement_probability", None),
    ("geometry", "query_mask", "geometry.query_mask", _query_mask_counts),
    ("geometry", "should_query", "geometry.should_query", None),
    ("geometry", "disagreement_exists_oracle", "geometry.disagreement_exists_oracle", None),
    ("solvers", "erm_zero_one_2d", "solvers.erm_zero_one_2d", _examples),
    ("solvers", "erm_zero_one_search", "solvers.erm_zero_one_search", None),
    ("solvers", "minimize_in_ball", "solvers.minimize_in_ball", None),
    ("solvers", "surrogate_gradient", "solvers.surrogate_gradient", COUNT_ONLY),
    ("solvers", "surrogate_objective", "solvers.surrogate_objective", COUNT_ONLY),
    ("streams", "substream", "streams.substream", None),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS)


class Tracer:
    """Collects spans from wrapped functions; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self.calls: dict[str, int] = {}  # count-only functions
        self._stack: list[int] = []

    def count(self, fn, name):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap(self, fn, name, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap every target in every loaded package module; returns rebinds."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        rebinds = 0
        for module_name, fn_name, span_name, counter in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], fn_name)
            if counter is COUNT_ONLY:
                traced = self.count(original, span_name)
            else:
                traced = self.wrap(original, span_name, counter)
            rebinds += rebind(modules, fn_name, original, traced)
        return rebinds

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                       "spans": self.spans, "calls": self.calls}, fh, separators=(",", ":"))


def rebind(modules, name: str, original, replacement) -> int:
    """Point every module's ``name`` that is ``original`` at ``replacement``."""
    count = 0
    for module in modules:
        if getattr(module, name, None) is original:
            setattr(module, name, replacement)
            count += 1
    return count


def load(path: str) -> tuple[list[list], dict[str, int]]:
    """(spans, count-only calls) as written by Tracer.dump."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["spans"], data["calls"]


def _covered(intervals) -> float:
    """Length of the union of [start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Per-span duration minus the union of its direct children's intervals."""
    children: list[list] = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i])
        for i, (name, start, end, parent, _) in enumerate(spans)
    ]


def aggregate(spans, calls=None) -> dict[str, dict]:
    """Per span name: calls, s (inclusive), self_s, p50_s, max_s and counts.

    Count-only functions appear with their calls alone.
    """
    selfs = self_times(spans)
    out: dict[str, dict] = {name: {"calls": n} for name, n in (calls or {}).items()}
    durations: dict[str, list[float]] = {}
    for (name, start, end, parent, counts), own in zip(spans, selfs):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own
        durations.setdefault(name, []).append(end - start)
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    for name, values in durations.items():
        out[name]["p50_s"] = statistics.median(values)
        out[name]["max_s"] = max(values)
    return out
