"""The benchmark's trace targets and set-up entries name real package functions.

``perfbench/tracer.py`` wraps package functions by (module, function), and
each workload in ``perfbench/workloads.py`` ends its set-up at a named
``cli`` function and predicts which spans its trace reaches.  A rename, or
a change of what a workload calls, would only show when the benchmark
runs, so both files are loaded by path here, unedited.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from halfspace_active import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    targets = load_perfbench("tracer").TARGETS
    missing = [
        (module, fn) for module, fn, *_ in targets
        if not callable(getattr(importlib.import_module(f"halfspace_active.{module}"), fn, None))
    ]
    assert targets and missing == []


def test_every_work_entry_is_a_cli_function():
    workloads = load_perfbench("workloads").WORKLOADS
    missing = [w.work_entry for w in workloads.values() if not callable(getattr(cli, w.work_entry, None))]
    assert workloads and missing == []


@pytest.mark.parametrize("name", ["run-convex-deep", "run-search-d10", "curve-2d", "check-mc"])
def test_workload_reaches_its_spans(name, tmp_path, monkeypatch, capsys):
    # a shrunken copy of the workload's config: 2 seeds, for the curve one
    # target, and for the checks small sizes; every span it predicts reached
    # is called, no `never` span is
    workload = load_perfbench("workloads").WORKLOADS[name]
    config = workload.config(0)
    if "run" in config:
        config["run"]["seeds"] = [0, 1]
    elif "curve" in config:
        config["curve"].update(seeds=[0, 1], epsilons=[0.2])
    else:
        config["check"] = dict(equivalence_samples=150, pairs=1, n_mc=1000, scaling_trials=2,
                               scaling_n=50, scaling_candidates=4)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    targets = {span: (module, fn) for module, fn, span, _ in load_perfbench("tracer").TARGETS}
    package = [m for n, m in list(sys.modules.items()) if n.startswith("halfspace_active")]
    calls = dict.fromkeys(workload.reached + workload.never, 0)
    for span in calls:
        module, fn = targets[span]
        original = getattr(importlib.import_module(f"halfspace_active.{module}"), fn)

        def counted(*args, _span=span, _fn=original, **kwargs):
            calls[_span] += 1
            return _fn(*args, **kwargs)

        for holder in package:
            if getattr(holder, fn, None) is original:
                monkeypatch.setattr(holder, fn, counted)
    argv = [workload.command, "--config", str(path), *workload.extra_args,
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert [s for s in workload.reached if not calls[s]] == []
    assert [s for s in workload.never if calls[s]] == []
