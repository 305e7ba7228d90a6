"""End-to-end and per-layer benchmark of the halfspace-active CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` and nothing needs to be installed or built.  Every repetition is a
fresh child process (perfbench/child.py) running one CLI subcommand on a
config generated from the workload seed.  Outputs land in .perfbench_out/.

--trace 0 repeats the workload as often as --seconds holds at its nominal
repetition time (at least once), adds a few set-up-only probes, and reports
medians of the end-to-end metrics.  --trace 1 makes one untraced and one traced repetition and
reports per-layer metrics from the traced one's spans.  Either way the last
stdout line is one JSON object: correct, attempted, failed, metrics.
Lines before it describe the machine, the outputs and any failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, Workload  # noqa: E402

OUT_ROOT = ".perfbench_out"
OUTPUT_FILES = ("run_records.json", "curve.csv", "checks.csv")
BLAS_THREADS = 1
SETUP_PROBES = 7
RUN_BUDGET_S = 170.0  # every child of one run ends within this, or the run fails
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, better).  "<span>.<quantity>" reads the traced aggregate;
# the rest are derived in layer_metrics.
PER_LAYER = (
    ("cli.load_config.s", "s", "lower"),
    ("cli.export_results.s", "s", "lower"),
    ("cli.export_results.bytes", "B", "lower"),
    ("harness.label_complexity_curve.self_s", "s", "lower"),
    ("harness.check_query_rule_equivalence.s", "s", "lower"),
    ("harness.check_sphere_identity.s", "s", "lower"),
    ("harness.check_concentration_scaling.s", "s", "lower"),
    ("driver.run_passive.calls", "count", "lower"),
    ("driver.run_active.calls", "count", "lower"),
    ("driver.run_active.self_s", "s", "lower"),
    ("driver.run_active.p50_s", "s", "lower"),
    ("driver.run_active.max_s", "s", "lower"),
    ("driver.scanned", "count", "lower"),
    ("driver.labels", "count", "lower"),
    ("driver.query_rate", "ratio", "higher"),
    ("data_models.sample_unlabeled.calls", "count", "lower"),
    ("data_models.sample_unlabeled.rows", "count", "lower"),
    ("data_models.sample_unlabeled.self_s", "s", "lower"),
    ("data_models.label_batch.calls", "count", "lower"),
    ("data_models.label_batch.rows", "count", "lower"),
    ("data_models.label_batch.self_s", "s", "lower"),
    ("data_models.exact_surrogate_risk.calls", "count", "lower"),
    ("data_models.exact_surrogate_risk.self_s", "s", "lower"),
    ("data_models.disagreement_probability.calls", "count", "lower"),
    ("data_models.disagreement_probability.self_s", "s", "lower"),
    ("geometry.query_mask.calls", "count", "lower"),
    ("geometry.query_mask.rows", "count", "lower"),
    ("geometry.query_mask.selected", "count", "lower"),
    ("geometry.query_mask.self_s", "s", "lower"),
    ("geometry.query_mask.hit_rate", "ratio", "higher"),
    ("geometry.should_query.calls", "count", "lower"),
    ("geometry.should_query.self_s", "s", "lower"),
    ("geometry.disagreement_exists_oracle.calls", "count", "lower"),
    ("geometry.disagreement_exists_oracle.self_s", "s", "lower"),
    ("solvers.erm_zero_one_2d.calls", "count", "lower"),
    ("solvers.erm_zero_one_2d.examples", "count", "lower"),
    ("solvers.erm_zero_one_2d.self_s", "s", "lower"),
    ("solvers.erm_zero_one_search.calls", "count", "lower"),
    ("solvers.erm_zero_one_search.self_s", "s", "lower"),
    ("solvers.minimize_in_ball.calls", "count", "lower"),
    ("solvers.minimize_in_ball.self_s", "s", "lower"),
    ("solvers.minimize_in_ball.max_s", "s", "lower"),
    ("solvers.surrogate_gradient.calls", "count", "lower"),
    ("solvers.surrogate_objective.calls", "count", "lower"),
    ("solvers.line_search.accept_rate", "ratio", "higher"),
    ("streams.substream.calls", "count", "lower"),
    ("streams.substream.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


@dataclass(frozen=True)
class Rep:
    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    outcome: Outcome | None
    digests: tuple[str, ...]
    package_file: str


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict[str, dict], overhead_s: float) -> dict[str, float]:
    def get(span: str, quantity: str) -> float:
        return agg.get(span, {}).get(quantity, 0)

    run = "driver.run_active"
    derived = {
        "driver.scanned": get(run, "scanned"),
        "driver.labels": get(run, "labels"),
        "driver.query_rate": _ratio(get(run, "labels"), get(run, "scanned")),
        "geometry.query_mask.hit_rate": _ratio(get("geometry.query_mask", "selected"),
                                               get("geometry.query_mask", "rows")),
        "solvers.line_search.accept_rate": _ratio(
            get("solvers.surrogate_gradient", "calls"),
            get("solvers.surrogate_objective", "calls")),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        else:
            span, quantity = name.rsplit(".", 1)
            out[name] = get(span, quantity)
    return out


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def _wait(argv: list[str], env: dict, log_dir: str, timeout: float):
    """Run argv to completion; returns (exit code, rusage).  Kills on timeout."""
    with open(os.path.join(log_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(log_dir, "stderr.txt"), "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _sha256(path: str) -> str:
    if not os.path.exists(path):
        return "missing"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass(frozen=True)
class Bench:
    """One benchmark run: a workload, its generated config and where it writes."""

    workload: Workload
    config: dict
    config_path: str
    out_dir: str
    env: dict
    deadline: float  # time.monotonic() by which every child must have ended

    def repetition(self, name: str, setup_only: bool = False,
                   spans: str | None = None) -> Rep:
        rep_dir = os.path.join(self.out_dir, name)
        os.makedirs(rep_dir)
        result_path = os.path.join(rep_dir, "timing.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"),
                "--result", result_path, "--entry", self.workload.work_entry]
        if setup_only:
            argv.append("--setup-only")
        if spans:
            argv += ["--spans", spans]
        argv += ["--", self.workload.command, "--config", self.config_path,
                 *self.workload.extra_args, "--out", rep_dir]
        start = time.monotonic()
        rc, usage = _wait(argv, self.env, rep_dir, max(1.0, self.deadline - start))
        marks = {}
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                marks = json.load(fh)
        if "setup_end" not in marks:
            with open(os.path.join(rep_dir, "stderr.txt"), encoding="utf-8",
                      errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"{name} exited with {rc} before finishing set-up:\n{tail}")
        return Rep(
            setup_s=marks["setup_end"] - start,
            wall_s=marks["work_end"] - marks["setup_end"],
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            outcome=None if setup_only else self.workload.check(self.config, rep_dir, rc),
            digests=tuple(_sha256(os.path.join(rep_dir, f)) for f in OUTPUT_FILES),
            package_file=marks["package_file"],
        )


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def _tree_digest(src: str) -> str:
    """sha256 over the package sources, so a non-git checkout is identified too."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(root: str, src: str) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(root),
        "src_digest": _tree_digest(src),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _outputs_report(reps: list[Rep]) -> tuple[list[str], bool]:
    """Lines describing failures and digests; False if the outputs drifted."""
    lines = []
    for i, rep in enumerate(reps):
        for problem in rep.outcome.problems:
            lines.append(f"rep {i}: {problem}")
    digests = {rep.digests for rep in reps}
    for name, value in zip(OUTPUT_FILES, reps[0].digests):
        lines.append(f"sha256 {name} {value}")
    steady = len(digests) == 1
    if not steady:
        lines.append(f"NONDETERMINISM: {len(digests)} distinct output sets over "
                     f"{len(reps)} repetitions of the same code")
    chords = [rep.outcome.chord_err_med for rep in reps]
    if chords[0] is not None:
        lines.append(f"chord_err_med {chords[0]!r}")
    return lines, steady


def timed_run(bench: Bench, seconds: float) -> tuple[dict, list[Rep], list]:
    count = max(1, round(seconds / bench.workload.rep_s))
    reps = [bench.repetition(f"rep{i}") for i in range(count)]
    probes = [bench.repetition(f"probe{i}", setup_only=True) for i in range(SETUP_PROBES)]
    values = {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "setup_s": statistics.median(r.setup_s for r in reps + probes),
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
    }
    notes = [f"repetitions {len(reps)}, set-up samples {len(reps) + len(probes)}"]
    notes += [f"rep {i}: wall_s {r.wall_s:.4f} cpu_s {r.cpu_s:.4f} setup_s {r.setup_s:.4f}"
              for i, r in enumerate(reps)]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, reps, notes


def traced_run(bench: Bench) -> tuple[dict, list[Rep], list]:
    plain = bench.repetition("rep0")
    spans_path = os.path.join(bench.out_dir, "spans.json")
    traced = bench.repetition("traced", spans=spans_path)
    agg = tracer.aggregate(*tracer.load(spans_path))
    workload = bench.workload
    missing = [n for n in workload.reached if agg.get(n, {}).get("calls", 0) == 0]
    unexpected = [n for n in workload.never if agg.get(n, {}).get("calls", 0) != 0]
    if missing or unexpected:
        raise BenchError(
            f"trace of {workload.name} broke its predictions: "
            f"never reached {missing}, unexpectedly reached {unexpected}")
    values = layer_metrics(agg, traced.wall_s - plain.wall_s)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    timed = {n: v for n, v in agg.items() if "self_s" in v}
    notes = [f"untraced wall_s {plain.wall_s:.4f}, traced wall_s {traced.wall_s:.4f}, "
             f"spans {sum(v['calls'] for v in timed.values())}"]
    notes += [f"self {name} {v['self_s']:.4f} s "
              f"({100 * v['self_s'] / traced.wall_s:.1f}% of traced wall)"
              for name, v in sorted(timed.items(), key=lambda kv: -kv[1]["self_s"])]
    return metrics, [plain, traced], notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "halfspace_active", "cli.py")):
        print(f"error: {src}/halfspace_active not found; run from the root of a "
              "halfspace-active checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(root, OUT_ROOT, workload.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    config = workload.config(args.seed)
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
    bench = Bench(workload, config, config_path, out_dir, child_env(src),
                  time.monotonic() + RUN_BUDGET_S)
    try:
        bench.repetition("warmup", setup_only=True)  # compiles bytecode, warms the file cache
        if args.trace:
            metrics, reps, notes = traced_run(bench)
        else:
            metrics, reps, notes = timed_run(bench, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report, steady = _outputs_report(reps)
    info = {"workload": workload.name, "seed": args.seed, **provenance(root, src),
            "package_file": reps[0].package_file}
    for key, value in info.items():
        print(f"{key} {value}")
    for line in notes + report:
        print(line)
    attempted = sum(r.outcome.attempted for r in reps)
    failed = sum(r.outcome.failed for r in reps)
    print(json.dumps({"correct": failed == 0 and steady, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
