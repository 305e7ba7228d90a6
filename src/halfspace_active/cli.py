"""Command-line harness: run, curve, check, psi-table, budget.

Configuration is a single JSON tree (diffable, archivable) with dotted
``--set key=value`` overrides; unknown keys are rejected by name.  Exit
codes: 0 success, 1 runtime failure (partial results are still written),
2 usage or configuration errors, caught before any work starts.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import json
import logging
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import harness
from .data_models import DataModel
from .driver import (
    ConvexUpdate,
    ScheduleParams,
    ZeroOneUpdate,
    kappa_threshold,
    radius_at,
    run_active,
    total_label_bound,
)
from .errors import ConfigError, HalfspaceActiveError, ScheduleError
from .harness import ExperimentConfig, export_results, label_complexity_curve
from .losses import BUILTIN_LOSSES, get_loss, psi, psi_numeric
from .solvers import ConvexSolverParams

__all__ = ["main", "load_config", "config_digest", "DEFAULT_CONFIG"]

DEFAULT_CONFIG = {
    "model": {
        "dimension": 2,
        "marginal": "uniform-sphere",
        "conditional": "powered-margin",
        "w_star": [1.0, 0.0],
        "kappa": 1.0,
        "tau0": 1.0,
        "scale": 1.0,
        "seed": 0,
    },
    "update": {
        "kind": "convex",
        "loss": "truncated-quadratic",
        "restarts": ZeroOneUpdate().restarts,
    },
    "solver": asdict(ConvexSolverParams()),
    "schedule": asdict(ScheduleParams(mode="fixed", n=500)),
    "run": {
        "epochs": 6,
        "seeds": [0],
        "excess_risk_mc": 0,
    },
    "curve": {
        "epsilons": [0.2, 0.1],
        "seeds": [0, 1, 2, 3, 4],
        "passive_update": "zero-one",
        "passive_cap": ExperimentConfig.passive_cap,
        "bootstrap": 500,
    },
    "check": {
        "only": None,
        "equivalence_samples": 100000,
        "pairs": 20,
        "n_mc": 1000000,
        "gradient_triples": 100,
        "scaling_trials": 50,
        "scaling_n": 400,
        "scaling_candidates": 128,
    },
    "out": "results",
    "seed": 0,
}


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    """``override`` laid over ``base``; every key in it must exist in ``base``.

    An object merges into an object and a value replaces a value; any other
    pairing, like an unknown key, is rejected by its dotted path.
    """
    merged = dict(base)
    for key, value in override.items():
        path = prefix + key
        if key not in base:
            raise ConfigError(f"unknown config key {path!r}")
        if isinstance(base[key], dict) != isinstance(value, dict):
            expected = "an object" if isinstance(base[key], dict) else "a value, not an object"
            raise ConfigError(f"config key {path!r} takes {expected}")
        merged[key] = _merge(base[key], value, path + ".") if isinstance(value, dict) else value
    return merged


def load_config(path: str | None, overrides=(), seed: int | None = None, out: str | None = None) -> dict:
    """Resolve defaults <- file <- --set overrides <- flag overrides.

    ``--set a.b=v`` is the one-leaf tree ``{"a": {"b": v}}`` and merges
    exactly as the same tree in the file would.
    """
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                file_config = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file {path!r} does not exist") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from None
        if not isinstance(file_config, dict):
            raise ConfigError("config root must be a JSON object")
        config = _merge(config, file_config)
    for assignment in overrides:
        dotted, eq, raw = assignment.partition("=")
        if not eq:
            raise ConfigError(f"override {assignment!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for key in reversed(dotted.split(".")):
            value = {key: value}
        config = _merge(config, value)
    if seed is not None:
        config["seed"] = int(seed)
    if out is not None:
        config["out"] = out
    return config


def config_digest(config: dict) -> str:
    """Digest of the experiment identity (everything except where files land)."""
    payload = {k: v for k, v in config.items() if k != "out"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _loss_name(name) -> str:
    if not isinstance(name, str) or name not in BUILTIN_LOSSES:
        raise ConfigError(f"unknown loss {name!r}; available: {sorted(BUILTIN_LOSSES)}")
    return name


@contextlib.contextmanager
def _config_values():
    """Report a bad value met while building objects from the config as ConfigError."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def build_model(config: dict) -> DataModel:
    mc = config["model"]
    kind = mc["conditional"]
    return DataModel(
        dimension=int(mc["dimension"]),
        marginal=mc["marginal"],
        conditional=kind,
        w_star=np.asarray(mc["w_star"], dtype=float),
        seed=int(mc["seed"]),
        scale=float(mc["scale"]),
        kappa=float(mc["kappa"]) if kind == "powered-margin" else None,
        tau0=float(mc["tau0"]),
    )


def build_update(config: dict, R: float, kind: str | None = None):
    uc = config["update"]
    kind = uc["kind"] if kind is None else kind
    loss_name = _loss_name(uc["loss"])  # checked whatever the kind, as it is digested
    if kind == "zero-one":
        return ZeroOneUpdate(restarts=int(uc["restarts"]))
    if kind == "convex":
        sc = config["solver"]
        # coerce each value to its default's type (max_iters int, the rest float)
        params = ConvexSolverParams(**{
            f.name: type(f.default)(sc[f.name]) for f in fields(ConvexSolverParams)
        })
        return ConvexUpdate(loss=get_loss(loss_name, R=R), params=params)
    raise ConfigError(f"unknown update kind {kind!r}")


def build_schedule(config: dict) -> ScheduleParams:
    sc = config["schedule"]
    kwargs = {f.name: sc[f.name] for f in fields(ScheduleParams)}
    if kwargs["n"] is not None:
        kwargs["n"] = int(kwargs["n"])
    return ScheduleParams(**kwargs)


def _fmt6(value) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}"


def _print_epoch_table(record) -> None:
    print(f"seed={record.seed} digest={record.config_digest} total_labels={record.total_labels}")
    print(f"{'k':>3} {'r_k':>10} {'n_k':>8} {'labels':>8} {'scanned':>9} {'chord_err':>11}")
    for e in record.epochs:
        print(
            f"{e.k:>3} {_fmt6(e.r_k):>10} {e.n_k:>8} {e.labels:>8} "
            f"{e.scanned:>9} {_fmt6(e.chord_error):>11}"
        )


def cmd_run(config: dict) -> int:
    rc = config["run"]
    with _config_values():
        model = build_model(config)
        update = build_update(config, R=model.R)
        schedule = build_schedule(config)
        epochs, excess_risk_mc = int(rc["epochs"]), int(rc["excess_risk_mc"])
        seeds = [int(seed) for seed in rc["seeds"]]
        master_seed = int(config["seed"])
    if epochs < 1:
        raise ConfigError(f"run.epochs must be at least 1, got {epochs}")
    digest = config_digest(config)
    records = []
    failure = None
    for seed in seeds:
        try:
            rec = run_active(model, update, schedule, m=epochs, seed=seed,
                             excess_risk_mc=excess_risk_mc, config_digest=digest)
        except (HalfspaceActiveError, ValueError) as exc:
            if getattr(exc, "partial", None) is not None:
                records.append(exc.partial)
            failure = exc
            break
        records.append(rec)
        _print_epoch_table(rec)
    export_results(records, None, [], config["out"], config_digest=digest,
                   master_seed=master_seed)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


def cmd_curve(config: dict) -> int:
    cc = config["curve"]
    with _config_values():
        model = build_model(config)
        experiment = ExperimentConfig(
            model=model,
            update=build_update(config, R=model.R),
            schedule=build_schedule(config),
            epsilons=tuple(float(e) for e in cc["epsilons"]),
            seeds=tuple(int(s) for s in cc["seeds"]),
            passive_update=build_update(config, kind=cc["passive_update"], R=model.R),
            passive_cap=int(cc["passive_cap"]),
        )
        master_seed = int(config["seed"])
    digest = config_digest(config)
    result = label_complexity_curve(experiment)
    paths = export_results(
        result.records, result, [], config["out"],
        config_digest=digest, master_seed=master_seed,
    )
    print(f"{'epsilon':>8} {'active_med':>11} {'passive_med':>12} {'censored':>9}")
    for p in result.points:
        print(
            f"{_fmt6(p.epsilon):>8} {_fmt6(p.labels_active_med):>11} "
            f"{_fmt6(p.labels_passive_med):>12} {str(p.censored).lower():>9}"
        )
    print(f"wrote {paths['curve']}")
    return 0


# Check name -> call, in the order rows are written.  Each entry looks up
# ``harness.check_*`` when it runs, so a rebound or patched check is used.
CHECKS = {
    "query-rule": lambda cc, seed: harness.check_query_rule_equivalence(
        total=int(cc["equivalence_samples"]), seed=seed),
    "psi": lambda cc, seed: harness.check_psi_transform(),
    "sphere": lambda cc, seed: harness.check_sphere_identity(
        pairs=int(cc["pairs"]), n_mc=int(cc["n_mc"]), seed=seed),
    "gaussian": lambda cc, seed: harness.check_gaussian_lower_bound(
        pairs=int(cc["pairs"]), n_mc=int(cc["n_mc"]), seed=seed),
    "gradient": lambda cc, seed: harness.check_gradient_finite_difference(
        triples=int(cc["gradient_triples"]), seed=seed),
    "scaling": lambda cc, seed: harness.check_concentration_scaling(
        trials=int(cc["scaling_trials"]), n=int(cc["scaling_n"]),
        candidates=int(cc["scaling_candidates"]), seed=seed),
}


# Smallest value each sized check setting takes; checked before any suite runs.
_CHECK_MINIMA = {"equivalence_samples": 1, "pairs": 1, "n_mc": 100, "gradient_triples": 1,
                 "scaling_trials": 1, "scaling_n": 1, "scaling_candidates": 2}


def _selected_checks(cc: dict) -> list[str]:
    """Names in ``check.only`` (a comma-separated string or a list; None
    selects them all) in table order, once the sized settings are checked."""
    for key, least in _CHECK_MINIMA.items():
        if isinstance(cc[key], bool) or not isinstance(cc[key], (int, float)) or not cc[key] >= least:
            raise ConfigError(f"check.{key} must be a number >= {least}, got {cc[key]!r}")
    only = cc["only"]
    if isinstance(only, str):
        only = only.split(",")
    if only is not None and not isinstance(only, list):
        raise ConfigError("check.only takes a comma-separated string or a list of check names")
    selected = set(only or CHECKS)
    unknown = selected - CHECKS.keys()
    if unknown:
        raise ConfigError(f"unknown check name(s): {sorted(unknown)}; known: {list(CHECKS)}")
    return [name for name in CHECKS if name in selected]


def cmd_check(config: dict) -> int:
    names = _selected_checks(config["check"])
    with _config_values():
        seed = int(config["seed"])
    # digested as the set of suites that ran, however check.only spelled it
    only = None if len(names) == len(CHECKS) else names
    config = {**config, "check": {**config["check"], "only": only}}
    rows = [row for name in names for row in CHECKS[name](config["check"], seed)]
    export_results([], None, rows, config["out"],
                   config_digest=config_digest(config), master_seed=seed)
    failed = [r for r in rows if not r.passed]
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"[{status}] {row.check_name} {row.parameter}: "
              f"observed={_fmt6(row.observed)} target={row.bound_or_target}")
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
    return 0 if not failed else 1


def cmd_psi_table(loss_name: str, step: float) -> int:
    loss = get_loss(_loss_name(loss_name))
    if not 0.0 < step <= 1.0:
        raise ConfigError(f"step must lie in (0, 1], got {step}")
    print("z,psi,psi_numeric,lower_bound")
    z = 0.0
    while z <= 1.0 + 1e-12:
        zc = min(z, 1.0)
        lower = loss.psi_lower_a * zc**loss.psi_lower_gamma
        print(f"{zc:.10g},{psi(loss, zc):.10g},{psi_numeric(loss, zc):.10g},{lower:.10g}")
        z += step
    return 0


def cmd_budget(config: dict) -> int:
    sc = config["schedule"]
    with _config_values():
        schedule = build_schedule(config)
        # both theory schedules are built before any output: they validate gamma and m
        theory = {mode: replace(schedule, mode=mode, n=None)
                  for mode in ("theory-nonconvex", "theory-convex")}
        gamma = float(sc["gamma"])
        alpha_ncx = float(sc["gamma_minus"]) - float(sc["gamma_plus"]) / float(sc["kappa"])
        alpha_cvx = gamma * float(sc["gamma_minus"]) - gamma * float(sc["gamma_plus"]) / float(sc["kappa"]) - 1.0
        epochs = int(sc["m"])
    budgets = {mode: [s.budget(k) for k in range(1, epochs + 1)] for mode, s in theory.items()}
    print(f"kappa_threshold(gamma={_fmt6(gamma)}) = {kappa_threshold(gamma):.6f}")
    print(f"alpha (non-convex) = {_fmt6(alpha_ncx)}   alpha (convex) = {_fmt6(alpha_cvx)}")
    print(f"{'k':>3} {'r_k':>10} {'n_k (0-1)':>14} {'n_k (convex)':>14}")
    for k in range(1, epochs + 1):
        print(f"{k:>3} {_fmt6(radius_at(k)):>10} "
              f"{budgets['theory-nonconvex'][k - 1]:>14} {budgets['theory-convex'][k - 1]:>14}")
    eps = radius_at(epochs + 1)
    for label, alpha, n0 in (
        ("non-convex", alpha_ncx, budgets["theory-nonconvex"][0]),
        ("convex", alpha_cvx, budgets["theory-convex"][0]),
    ):
        bound = total_label_bound(alpha, eps, n0)
        branch = "power" if alpha > 0 else "log"
        print(f"total bound ({label}, eps={_fmt6(eps)}, {branch} branch) = {_fmt6(bound)}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfspace-active",
        description="Selective sampling for halfspaces: runs, curves, and verification checks.",
    )
    parser.add_argument("--verbose", action="store_true", help="enable info logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required):
        p.add_argument("--config", required=config_required, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="config override (dotted key)")

    common(sub.add_parser("run", help="execute the epoch loop per seed"), True)
    common(sub.add_parser("curve", help="label-complexity curve, active vs passive"), True)
    p_check = sub.add_parser("check", help="run the verification suites")
    common(p_check, True)
    p_check.add_argument("--only", default=None,
                         help=f"comma-separated subset of {','.join(CHECKS)}")
    p_psi = sub.add_parser("psi-table", help="print a z -> psi(z) table as CSV")
    p_psi.add_argument("--loss", required=True, help="loss name")
    p_psi.add_argument("--step", type=float, default=0.1, help="grid step (default 0.1)")
    common(sub.add_parser("budget", help="evaluate the label-budget formulas"), False)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        if args.command == "psi-table":
            return cmd_psi_table(args.loss, args.step)
        overrides = list(args.overrides)
        if getattr(args, "only", None) is not None:
            # a config setting like any other, so the digest says which suites ran
            overrides.append(f"check.only={json.dumps(args.only)}")
        config = load_config(args.config, overrides, seed=args.seed, out=args.out)
        # looked up per call: the commands are module globals that may be rebound
        commands = {"run": cmd_run, "curve": cmd_curve, "check": cmd_check, "budget": cmd_budget}
        return commands[args.command](config)
    except (ConfigError, ScheduleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HalfspaceActiveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
