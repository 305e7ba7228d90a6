"""Command-line harness: run, curve, check, psi-table, budget.

Configuration is a single JSON tree (diffable, archivable) with dotted
``--set key=value`` overrides; unknown keys are rejected by name, and each
leaf is checked by its form rule (SETTINGS) whatever the command.  Exit
codes: 0 success, 1 runtime failure (partial results are still written),
2 usage or configuration errors, caught before any work starts.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import logging
import sys
import time
from dataclasses import replace

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
from .harness import ExperimentConfig, config_digest, export_results, label_complexity_curve
from .losses import (
    BUILTIN_LOSSES,
    get_loss,
    lower_bound_constants,
    psi,
    psi_numeric,
    upper_bound_constants,
)

__all__ = ["main", "load_config", "config_digest", "DEFAULT_CONFIG"]

logger = logging.getLogger(__name__)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _whole(least: int | None = None):
    """The rule for a whole number, >= ``least`` if given, which it returns as
    an int: a bool, a fraction or a non-finite float is refused, not truncated."""
    def rule(path: str, value) -> int:
        if (not _is_number(value) or isinstance(value, float) and not value.is_integer()
                or least is not None and not value >= least):
            floor = "" if least is None else f" >= {least}"
            raise ConfigError(f"{path} must be a number{floor} and whole, got {value!r}")
        return int(value)
    return rule


def _real(path: str, value):
    """A number, as given: a bool or a string is refused, not read as 1 or parsed."""
    if not _is_number(value):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    return value


def _bool(path: str, value) -> bool:
    if not isinstance(value, bool):  # the string "no" would be true
        raise ConfigError(f"{path} must be true or false, got {value!r}")
    return value


def _or_null(rule):
    return lambda path, value: None if value is None else rule(path, value)


def _seeds(path: str, values) -> list[int]:
    """At least one whole seed, none twice (a repeat would count one run twice
    in every median and quartile)."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{path} must name at least one seed, got {values!r}")
    seeds = [_whole()(path, value) for value in values]
    if len(set(seeds)) != len(seeds):
        repeated = sorted({s for s in seeds if seeds.count(s) > 1})
        raise ConfigError(f"{path} names seed(s) {repeated} more than once")
    return seeds


def _numbers(path: str, values) -> list:
    if not isinstance(values, list) or not all(map(_is_number, values)):
        raise ConfigError(f"{path} must be a list of numbers, got {values!r}")
    if not values:
        raise ConfigError(f"{path} must name at least one target")
    return values


def _loss_name(path: str, name) -> str:
    if not isinstance(name, str) or name not in BUILTIN_LOSSES:
        raise ConfigError(f"unknown loss {name!r} for {path}; available: {sorted(BUILTIN_LOSSES)}")
    return name


def _check_names(path: str, only):
    """The suites selected (a comma-separated string or a non-empty list) as
    names in table order, or None when all are selected."""
    names = only.split(",") if isinstance(only, str) else only
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ConfigError(f"{path} takes a comma-separated string or a list of check names")
    if not names or "" in names:
        raise ConfigError(f"{path} must name at least one check, and no empty entry, got {only!r}")
    unknown = set(names) - CHECKS.keys()
    if unknown:
        raise ConfigError(f"unknown check name(s): {sorted(unknown)}; known: {list(CHECKS)}")
    selected = [name for name in CHECKS if name in names]
    return None if len(selected) == len(CHECKS) else selected


def _tree(flat: dict) -> dict:
    """The nested tree of a {dotted path: value} dict."""
    tree = {}
    for dotted, value in flat.items():
        *sections, key = dotted.split(".")
        node = tree
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
    return tree


# Every config leaf: (its default, its form rule), which load_config applies
# whatever the command.  A rule of None passes the value on; what is built from
# it checks it there, as it does all that needs another leaf or a built object.
SETTINGS = {
    "model.dimension": (2, _whole()),
    "model.marginal": ("uniform-sphere", None),
    "model.conditional": ("powered-margin", None),
    "model.w_star": ([1.0, 0.0], None),
    "model.kappa": (1.0, _real),
    "model.tau0": (DataModel.tau0, _real),
    # read by nothing; kept only while perfbench's curve-2d config sets it
    "model.seed": (DataModel.seed, _whole()),
    "update.kind": ("convex", None),
    "update.loss": ("truncated-quadratic", _loss_name),
    "update.restarts": (ZeroOneUpdate.restarts, _whole(0)),
    "schedule.mode": ("fixed", None),
    "schedule.n": (500, _or_null(_whole())),
    "schedule.n0": (None, _or_null(_real)),
    "schedule.ratio": (None, _or_null(_real)),
    "schedule.mu": (ScheduleParams.mu, _real),
    "schedule.theta_eps": (ScheduleParams.theta_eps, _real),
    "schedule.delta": (ScheduleParams.delta, _real),
    "schedule.floor_enabled": (ScheduleParams.floor_enabled, _bool),
    "run.epochs": (6, _whole(1)),
    "run.seeds": ([0], _seeds),
    "curve.epsilons": ([0.2, 0.1], _numbers),
    "curve.seeds": ([0, 1, 2, 3, 4], _seeds),
    "curve.passive_update": ("zero-one", None),
    "curve.passive_cap": (ExperimentConfig.passive_cap, _whole(1)),
    "check.only": (None, _or_null(_check_names)),  # null selects every suite
    "check.equivalence_samples": (100000, _whole(1)),
    "check.pairs": (20, _whole(1)),
    "check.n_mc": (1000000, _whole(100)),
    "check.gradient_triples": (100, _whole(1)),
    "check.scaling_trials": (50, _whole(1)),
    "check.scaling_n": (400, _whole(1)),
    "check.scaling_candidates": (128, _whole(2)),
    "out": ("results", None),
    "seed": (0, _whole()),
}
DEFAULT_CONFIG = _tree({dotted: default for dotted, (default, _) in SETTINGS.items()})


def _leaves(tree: dict, prefix: str = ""):
    """(dotted path, value) for each leaf of ``tree``."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


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
    """Resolve defaults <- file <- --set overrides <- flag overrides, then
    apply each leaf's form rule.

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
        config = _merge(config, _tree({dotted: value}))
    flags = {"seed": seed, "out": out}
    config = _merge(config, {key: value for key, value in flags.items() if value is not None})
    return _tree({dotted: value if SETTINGS[dotted][1] is None else SETTINGS[dotted][1](dotted, value)
                  for dotted, value in _leaves(config)})


class _Reads(dict):
    """A loaded config by dotted path, as a command reads it.  Each leaf read
    is noted in ``read``, so the reading code alone says what a command read."""

    def __init__(self, config: dict):
        super().__init__(_leaves(config))
        self.read = {}

    def __getitem__(self, dotted: str):
        self.read[dotted] = value = super().__getitem__(dotted)
        return value


def _digested(config: _Reads) -> dict:
    """The leaves read from ``config``, less ``out``, as the tree the outputs
    are digested over; one WARNING names each leaf set off its default but not read."""
    unread = [dotted for dotted, value in config.items()
              if dotted not in config.read and value != SETTINGS[dotted][0]]
    if unread:
        logger.warning("set but not read by this command: %s", ", ".join(unread))
    return _tree({dotted: value for dotted, value in config.read.items() if dotted != "out"})


@contextlib.contextmanager
def _config_values():
    """Report a bad value met while building objects from the config as ConfigError."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def build_model(config) -> DataModel:
    kind = config["model.conditional"]
    noise = ("kappa", "tau0") if kind == "powered-margin" else ()
    return DataModel(dimension=config["model.dimension"], marginal=config["model.marginal"],
                     conditional=kind, w_star=np.asarray(config["model.w_star"], dtype=float),
                     **{key: float(config[f"model.{key}"]) for key in noise})


def _update_loss(config, R: float):
    """The update loss sized for classifiers of norm R = ||model.w_star||."""
    name = config["update.loss"]
    try:
        return get_loss(name, R=R)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"update.loss {name!r} at ||model.w_star|| = {R:g}: {exc}") from exc


def build_update(config, model: DataModel, kind: str):
    """The update of ``kind``: only the restart search (d > 2) reads
    update.restarts, and only the convex update reads update.loss."""
    if kind == "zero-one":
        return ZeroOneUpdate(config["update.restarts"]) if model.dimension > 2 else ZeroOneUpdate()
    if kind == "convex":
        return ConvexUpdate(loss=_update_loss(config, model.R))
    raise ConfigError(f"unknown update kind {kind!r}")


def build_schedule(config, model: DataModel, mode: str) -> ScheduleParams:
    """The schedule of ``mode``, with every other budget constant taken from
    where the program already holds it.

    A fixed schedule reads only n, and a geometric one n0 and ratio.  The
    theory modes read mu, theta_eps, delta and floor_enabled: d and R are
    the model's, κ is its noise exponent, L, a and γ are the update loss's
    at norm R, and the excess-risk sandwich comes from upper_bound_constants
    and lower_bound_constants.  m is left to run_active, which budgets for
    the epochs that actually run.
    """
    if mode not in ("theory-nonconvex", "theory-convex"):
        sizes = ("n",) if mode == "fixed" else ("n0", "ratio") if mode == "geometric" else ()
        return ScheduleParams(mode, **{key: config[f"schedule.{key}"] for key in sizes})
    mu = config["schedule.mu"]
    if not mu > 0:
        raise ConfigError(f"schedule.mu must be a number > 0, got {mu!r}")
    R, kappa, loss = model.R, model.noise_exponent, _update_loss(config, model.R)
    ell_plus, gamma_plus = upper_bound_constants(loss, R)
    ell_minus, gamma_minus = lower_bound_constants(mu, kappa)
    return ScheduleParams(
        mode, mu=mu, theta_eps=config["schedule.theta_eps"], delta=config["schedule.delta"],
        floor_enabled=config["schedule.floor_enabled"], d=model.dimension, R=R, kappa=kappa,
        L=loss.lipschitz, a=loss.psi_lower_a, gamma=loss.psi_lower_gamma,
        ell_plus=ell_plus, gamma_plus=gamma_plus, ell_minus=ell_minus, gamma_minus=gamma_minus,
    )


def _fmt6(value) -> str:
    return f"{value:.6g}"


def _print_epoch_table(record) -> None:
    print(f"seed={record.seed} digest={record.config_digest} total_labels={record.total_labels}")
    print(f"{'k':>3} {'r_k':>10} {'n_k':>8} {'labels':>8} {'scanned':>9} {'chord_err':>11}")
    for e in record.epochs:
        print(
            f"{e.k:>3} {_fmt6(e.r_k):>10} {e.n_k:>8} {e.labels:>8} "
            f"{e.scanned:>9} {_fmt6(e.chord_error):>11}"
        )


def cmd_run(config: _Reads) -> int:
    with _config_values():
        model = build_model(config)
        update = build_update(config, model, config["update.kind"])
        schedule = build_schedule(config, model, config["schedule.mode"])
    seeds, epochs, out = config["run.seeds"], config["run.epochs"], config["out"]
    read = _digested(config)
    digest = config_digest(read)
    records = []
    failure = None
    for seed in seeds:
        try:
            rec = run_active(model, update, schedule, m=epochs, seed=seed, config_digest=digest)
        except (HalfspaceActiveError, ValueError) as exc:
            if getattr(exc, "partial", None) is not None:
                records.append(exc.partial)
            failure = exc
            break
        records.append(rec)
        _print_epoch_table(rec)
    export_results(records, None, None, out, read)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


def cmd_curve(config: _Reads) -> int:
    with _config_values():
        model = build_model(config)
        experiment = ExperimentConfig(
            model=model,
            update=build_update(config, model, config["update.kind"]),
            schedule=build_schedule(config, model, config["schedule.mode"]),
            epsilons=config["curve.epsilons"],
            seeds=config["curve.seeds"],
            passive_update=build_update(config, model, config["curve.passive_update"]),
            passive_cap=config["curve.passive_cap"],
        )
    out, read = config["out"], _digested(config)
    result = label_complexity_curve(experiment, config_digest=config_digest(read))
    paths = export_results(result.records, result, None, out, read)
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
    "query-rule": lambda config: harness.check_query_rule_equivalence(
        total=config["check.equivalence_samples"], seed=config["seed"]),
    "psi": lambda config: harness.check_psi_transform(),
    "sphere": lambda config: harness.check_sphere_identity(
        pairs=config["check.pairs"], n_mc=config["check.n_mc"], seed=config["seed"]),
    "gaussian": lambda config: harness.check_gaussian_lower_bound(
        pairs=config["check.pairs"], n_mc=config["check.n_mc"], seed=config["seed"]),
    "gradient": lambda config: harness.check_gradient_finite_difference(
        triples=config["check.gradient_triples"], seed=config["seed"]),
    "scaling": lambda config: harness.check_concentration_scaling(
        trials=config["check.scaling_trials"], n=config["check.scaling_n"],
        candidates=config["check.scaling_candidates"], seed=config["seed"]),
}


def cmd_check(config: _Reads) -> int:
    rows = []
    for name in config["check.only"] or CHECKS:
        start = time.perf_counter()
        suite = CHECKS[name](config)
        # wall times go to the log, never into checks.csv
        logger.info("check %s: %d rows in %.3f s", name, len(suite), time.perf_counter() - start)
        rows += suite
    export_results(None, None, rows, config["out"], _digested(config))
    failed = [r for r in rows if not r.passed]
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"[{status}] {row.check_name} {row.parameter}: "
              f"observed={_fmt6(row.observed)} target={row.bound_or_target}")
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
    return 0 if not failed else 1


def cmd_psi_table(loss_name: str, step: float) -> int:
    loss = get_loss(_loss_name("--loss", loss_name))
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


def cmd_budget(config: _Reads) -> int:
    with _config_values():
        model = build_model(config)
        epochs = config["run.epochs"]
        # both theory schedules are built before any output: they validate delta and m
        theory = {mode: replace(build_schedule(config, model, mode), m=epochs)
                  for mode in ("theory-nonconvex", "theory-convex")}
    _digested(config)  # for its WARNING: budget writes no file
    s = theory["theory-convex"]
    alpha_ncx = s.gamma_minus - s.gamma_plus / s.kappa
    alpha_cvx = s.gamma * alpha_ncx - 1.0
    budgets = {mode: [t.budget(k) for k in range(1, epochs + 1)] for mode, t in theory.items()}
    print(f"constants: d={s.d} R={_fmt6(s.R)} (model), kappa={_fmt6(s.kappa)} (model noise "
          f"exponent), m={s.m} (run.epochs), L={_fmt6(s.L)} a={_fmt6(s.a)} gamma={_fmt6(s.gamma)} "
          f"(loss {config['update.loss']}), ell_plus={_fmt6(s.ell_plus)} "
          f"gamma_plus={_fmt6(s.gamma_plus)} (upper_bound_constants), "
          f"ell_minus={_fmt6(s.ell_minus)} gamma_minus={_fmt6(s.gamma_minus)} "
          f"(lower_bound_constants of schedule.mu and kappa)")
    print(f"kappa_threshold(gamma={_fmt6(s.gamma)}) = {kappa_threshold(s.gamma):.6f}")
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
    # the check.only setting, laid over the config in its place among the --set overrides
    p_check.add_argument("--only", dest="overrides", action="append", metavar="ONLY",
                         type=lambda names: f"check.only={json.dumps(names)}",
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
        config = load_config(args.config, args.overrides, seed=args.seed, out=args.out)
        # looked up per call: the commands are module globals that may be rebound
        commands = {"run": cmd_run, "curve": cmd_curve, "check": cmd_check, "budget": cmd_budget}
        return commands[args.command](_Reads(config))
    except (ConfigError, ScheduleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HalfspaceActiveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
