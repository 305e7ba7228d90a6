"""Self-time arithmetic and metric plumbing of the benchmark tracer.

    python3 -m pytest perfbench/test_tracer.py      (or: python3 perfbench/test_tracer.py)

These tests use synthetic spans and need neither numpy nor the package.
"""

from __future__ import annotations

import json
import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402

# root [0, 10) with children a [1, 4) and b [5, 9); a has child c [2, 3);
# b has two overlapping children d [5, 7) and e [6, 8), which cover [5, 8).
TREE = [
    ["root", 0.0, 10.0, -1, None],
    ["a", 1.0, 4.0, 0, {"rows": 5}],
    ["c", 2.0, 3.0, 1, None],
    ["b", 5.0, 9.0, 0, {"rows": 7}],
    ["d", 5.0, 7.0, 3, None],
    ["e", 6.0, 8.0, 3, None],
]


def test_self_time_subtracts_direct_children_only():
    assert tracer.self_times(TREE) == [3.0, 2.0, 1.0, 1.0, 2.0, 2.0]


def test_overlapping_children_are_not_subtracted_twice():
    assert tracer._covered([(6.0, 8.0), (5.0, 7.0)]) == 3.0
    assert tracer._covered([(0.0, 1.0), (2.0, 3.0), (2.5, 2.75)]) == 2.0
    assert tracer._covered([]) == 0.0


def test_self_times_sum_to_root_duration_without_overlap():
    flat = [s for s in TREE if s[0] != "e"]
    assert sum(tracer.self_times(flat)) == 10.0


def test_aggregate_merges_calls_counts_and_count_only_functions():
    tree = TREE + [["a", 9.0, 9.5, 0, {"rows": 1}]]
    agg = tracer.aggregate(tree, {"solvers.surrogate_gradient": 4})
    assert agg["a"]["calls"] == 2
    assert agg["a"]["rows"] == 6
    assert agg["a"]["s"] == 3.5
    assert agg["a"]["self_s"] == 2.5
    assert agg["a"]["max_s"] == 3.0
    assert agg["a"]["p50_s"] == 1.75
    assert agg["root"]["self_s"] == 2.5
    assert agg["solvers.surrogate_gradient"] == {"calls": 4}


def test_wrapped_calls_nest_and_rebind_imported_names():
    package = types.ModuleType(tracer.PACKAGE)
    inner_mod = types.ModuleType(tracer.PACKAGE + ".inner")
    user_mod = types.ModuleType(tracer.PACKAGE + ".user")

    def leaf(n):
        return n + 1

    inner_mod.leaf = leaf
    user_mod.leaf = leaf  # as after "from .inner import leaf"
    user_mod.outer = lambda n: user_mod.leaf(n) * 2
    t = tracer.Tracer()
    traced_leaf = t.wrap(leaf, "inner.leaf")
    assert tracer.rebind((package, inner_mod, user_mod), "leaf", leaf, traced_leaf) == 2
    outer = t.wrap(user_mod.outer, "user.outer")
    assert outer(1) == 4
    assert [s[0] for s in t.spans] == ["user.outer", "inner.leaf"]
    assert t.spans[1][3] == 0 and t.spans[0][3] == -1
    assert inner_mod.leaf is traced_leaf


def test_every_predicted_span_is_a_target():
    names = set(tracer.SPAN_NAMES)
    for workload in run.WORKLOADS.values():
        assert set(workload.reached) <= names
        assert set(workload.never) <= names


def test_layer_metrics_cover_the_declared_per_layer_list():
    agg = {
        "driver.run_active": {"calls": 2, "scanned": 400, "labels": 100},
        "geometry.query_mask": {"calls": 1, "rows": 10, "selected": 4},
        "solvers.surrogate_gradient": {"calls": 3},
        "solvers.surrogate_objective": {"calls": 6},
    }
    values = run.layer_metrics(agg, 0.25)
    assert list(values) == [name for name, _, _ in run.PER_LAYER]
    assert values["driver.query_rate"] == 0.25
    assert values["geometry.query_mask.hit_rate"] == 0.4
    assert values["solvers.line_search.accept_rate"] == 0.5
    assert values["driver.run_active.calls"] == 2
    assert values["solvers.erm_zero_one_2d.self_s"] == 0
    assert values["trace.overhead_s"] == 0.25


def test_benchmark_json_matches_the_metrics_the_script_reports():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failures else 0)
