"""The benchmark's trace targets and set-up entries name real package functions.

``perfbench/tracer.py`` wraps package functions by (module, function), and
each workload in ``perfbench/workloads.py`` ends its set-up at a named
``cli`` function.  A rename that missed them would only show when the
benchmark runs, so both files are loaded by path here, unedited.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
