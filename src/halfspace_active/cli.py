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
from .harness import ExperimentConfig, export_results, label_complexity_curve
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

# Each sized check setting: (its default, the smallest value it takes, checked
# before any suite runs).
_CHECK_SIZES = {
    "equivalence_samples": (100000, 1),
    "pairs": (20, 1),
    "n_mc": (1000000, 100),
    "gradient_triples": (100, 1),
    "scaling_trials": (50, 1),
    "scaling_n": (400, 1),
    "scaling_candidates": (128, 2),
}

DEFAULT_CONFIG = {
    "model": {
        "dimension": 2,
        "marginal": "uniform-sphere",
        "conditional": "powered-margin",
        "w_star": [1.0, 0.0],
        "kappa": 1.0,
        "tau0": DataModel.tau0,
        "seed": DataModel.seed,
    },
    "update": {
        "kind": "convex",
        "loss": "truncated-quadratic",
        "restarts": ZeroOneUpdate.restarts,
    },
    # the theory budgets' other constants come from the model, the loss and
    # the epoch count (build_schedule, run_active)
    "schedule": {
        "mode": "fixed",
        "n": 500,
        "n0": None,
        "ratio": None,
        "mu": ScheduleParams.mu,
        "theta_eps": ScheduleParams.theta_eps,
        "delta": ScheduleParams.delta,
        "floor_enabled": ScheduleParams.floor_enabled,
    },
    "run": {
        "epochs": 6,
        "seeds": [0],
    },
    "curve": {
        "epsilons": [0.2, 0.1],
        "seeds": [0, 1, 2, 3, 4],
        "passive_update": "zero-one",
        "passive_cap": ExperimentConfig.passive_cap,
        "bootstrap": 500,
    },
    "check": {"only": None, **{key: default for key, (default, _) in _CHECK_SIZES.items()}},
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


def _update_loss(config: dict, R: float):
    """The update loss sized for classifiers of norm R = ||model.w_star||."""
    name = _loss_name(config["update"]["loss"])
    try:
        return get_loss(name, R=R)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"update.loss {name!r} at ||model.w_star|| = {R:g}: {exc}") from exc


def _whole(path: str, value, least: int | None = None) -> int:
    """``value`` as an int, once it is a whole number, and >= ``least`` if
    given: a bool, a fraction or a non-finite float is refused, not truncated."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()
            or least is not None and not value >= least):
        floor = "" if least is None else f" >= {least}"
        raise ConfigError(f"{path} must be a number{floor} and whole, got {value!r}")
    return int(value)


def _real(path: str, value, above: float | None = None):
    """``value`` as given, once it is a number, and > ``above`` if given: a
    bool or a string is refused, not read as 1 or parsed."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or above is not None and not value > above):
        bound = "" if above is None else f" > {above}"
        raise ConfigError(f"{path} must be a number{bound}, got {value!r}")
    return value


def _seeds(path: str, values) -> tuple[int, ...]:
    """The seeds at ``path``: at least one, each whole, none twice (a repeat
    would count one run twice in every median and quartile)."""
    seeds = tuple(_whole(path, value) for value in values)
    if not seeds:
        raise ConfigError(f"{path} must name at least one seed")
    if len(set(seeds)) != len(seeds):
        repeated = sorted({s for s in seeds if seeds.count(s) > 1})
        raise ConfigError(f"{path} names seed(s) {repeated} more than once")
    return seeds


@contextlib.contextmanager
def _config_values():
    """Report a bad value met while building objects from the config as ConfigError."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def build_model(config: dict) -> DataModel:
    mc = config["model"]
    kind = mc["conditional"]
    return DataModel(
        dimension=_whole("model.dimension", mc["dimension"]),
        marginal=mc["marginal"],
        conditional=kind,
        w_star=np.asarray(mc["w_star"], dtype=float),
        seed=_whole("model.seed", mc["seed"]),
        kappa=float(_real("model.kappa", mc["kappa"])) if kind == "powered-margin" else None,
        tau0=float(_real("model.tau0", mc["tau0"])),
    )


def build_update(config: dict, R: float, kind: str | None = None):
    uc = config["update"]
    kind = uc["kind"] if kind is None else kind
    # checked whatever the kind, as they are digested
    _loss_name(uc["loss"])
    restarts = _whole("update.restarts", uc["restarts"], 0)
    if kind == "zero-one":
        return ZeroOneUpdate(restarts=restarts)
    if kind == "convex":
        return ConvexUpdate(loss=_update_loss(config, R))
    raise ConfigError(f"unknown update kind {kind!r}")


def build_schedule(config: dict, model: DataModel) -> ScheduleParams:
    """The ``schedule`` settings, with every other budget constant taken from
    where the program already holds it.

    A fixed or geometric schedule reads only mode, n, n0 and ratio.  The
    theory modes read the rest: d and R are the model's, κ is its noise
    exponent, L, a and γ are the update loss's at norm R, and the
    excess-risk sandwich comes from upper_bound_constants and
    lower_bound_constants.  m is left to run_active, which budgets for the
    epochs that actually run.
    """
    sc = config["schedule"]
    n, n0, ratio = (None if sc[key] is None else rule(f"schedule.{key}", sc[key])
                    for key, rule in (("n", _whole), ("n0", _real), ("ratio", _real)))
    sizes = dict(mode=sc["mode"], n=n, n0=n0, ratio=ratio)
    if sc["mode"] not in ("theory-nonconvex", "theory-convex"):
        return ScheduleParams(**sizes)
    R, kappa, mu = model.R, model.noise_exponent, _real("schedule.mu", sc["mu"], 0)
    floor = sc["floor_enabled"]
    if not isinstance(floor, bool):  # the string "no" would be true
        raise ConfigError(f"schedule.floor_enabled must be true or false, got {floor!r}")
    loss = _update_loss(config, R)
    ell_plus, gamma_plus = upper_bound_constants(loss, R)
    ell_minus, gamma_minus = lower_bound_constants(mu, kappa)
    return ScheduleParams(
        **sizes, mu=mu, theta_eps=_real("schedule.theta_eps", sc["theta_eps"]),
        delta=_real("schedule.delta", sc["delta"]),
        floor_enabled=floor, d=model.dimension, R=R, kappa=kappa,
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


def cmd_run(config: dict) -> int:
    rc = config["run"]
    with _config_values():
        model = build_model(config)
        update = build_update(config, R=model.R)
        schedule = build_schedule(config, model)
        seeds = _seeds("run.seeds", rc["seeds"])
        master_seed = _whole("seed", config["seed"])
    epochs = _whole("run.epochs", rc["epochs"], 1)
    digest = config_digest(config)
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
    export_results(records, None, [], config["out"], config_digest=digest,
                   master_seed=master_seed)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


def cmd_curve(config: dict) -> int:
    cc = config["curve"]
    epsilons = cc["epsilons"]
    if not isinstance(epsilons, list) or any(
            isinstance(e, bool) or not isinstance(e, (int, float)) for e in epsilons):
        raise ConfigError(f"curve.epsilons must be a list of numbers, got {epsilons!r}")
    if not epsilons:
        raise ConfigError("curve.epsilons must name at least one target")
    with _config_values():
        model = build_model(config)
        experiment = ExperimentConfig(
            model=model,
            update=build_update(config, R=model.R),
            schedule=build_schedule(config, model),
            epsilons=tuple(float(e) for e in epsilons),
            seeds=_seeds("curve.seeds", cc["seeds"]),
            passive_update=build_update(config, kind=cc["passive_update"], R=model.R),
            passive_cap=_whole("curve.passive_cap", cc["passive_cap"]),
        )
        # digested, so checked, though no output reads it yet
        _whole("curve.bootstrap", cc["bootstrap"], 1)
        master_seed = _whole("seed", config["seed"])
    digest = config_digest(config)
    result = label_complexity_curve(experiment, config_digest=digest)
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
        total=cc["equivalence_samples"], seed=seed),
    "psi": lambda cc, seed: harness.check_psi_transform(),
    "sphere": lambda cc, seed: harness.check_sphere_identity(
        pairs=cc["pairs"], n_mc=cc["n_mc"], seed=seed),
    "gaussian": lambda cc, seed: harness.check_gaussian_lower_bound(
        pairs=cc["pairs"], n_mc=cc["n_mc"], seed=seed),
    "gradient": lambda cc, seed: harness.check_gradient_finite_difference(
        triples=cc["gradient_triples"], seed=seed),
    "scaling": lambda cc, seed: harness.check_concentration_scaling(
        trials=cc["scaling_trials"], n=cc["scaling_n"],
        candidates=cc["scaling_candidates"], seed=seed),
}


def _check_section(cc: dict) -> dict:
    """The ``check`` section as the work that runs, which CHECKS reads and the
    digest records: each sized setting as a checked int, and ``check.only``
    (a comma-separated string or a non-empty list; None selects them all) as the
    selected names in table order, or None when every suite is selected."""
    sizes = {key: _whole(f"check.{key}", cc[key], least) for key, (_, least) in _CHECK_SIZES.items()}
    only = cc["only"]
    if isinstance(only, str):
        only = only.split(",")
    if only is not None and not isinstance(only, list):
        raise ConfigError("check.only takes a comma-separated string or a list of check names")
    if only == []:
        raise ConfigError("check.only must name at least one check")
    selected = set(only or CHECKS)
    unknown = selected - CHECKS.keys()
    if unknown:
        raise ConfigError(f"unknown check name(s): {sorted(unknown)}; known: {list(CHECKS)}")
    names = [name for name in CHECKS if name in selected]
    return {**cc, **sizes, "only": None if len(names) == len(CHECKS) else names}


def cmd_check(config: dict) -> int:
    cc = _check_section(config["check"])
    seed = _whole("seed", config["seed"])
    config = {**config, "check": cc}
    rows = []
    for name in cc["only"] or CHECKS:
        start = time.perf_counter()
        suite = CHECKS[name](cc, seed)
        # wall times go to the log, never into checks.csv
        logger.info("check %s: %d rows in %.3f s", name, len(suite), time.perf_counter() - start)
        rows += suite
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
    with _config_values():
        model = build_model(config)
        epochs = _whole("run.epochs", config["run"]["epochs"], 1)
        # both theory schedules are built before any output: they validate delta and m
        theory = {}
        for mode in ("theory-nonconvex", "theory-convex"):
            with_mode = {**config, "schedule": {**config["schedule"], "mode": mode}}
            theory[mode] = replace(build_schedule(with_mode, model), m=epochs)
    s = theory["theory-convex"]
    alpha_ncx = s.gamma_minus - s.gamma_plus / s.kappa
    alpha_cvx = s.gamma * alpha_ncx - 1.0
    budgets = {mode: [t.budget(k) for k in range(1, epochs + 1)] for mode, t in theory.items()}
    print(f"constants: d={s.d} R={_fmt6(s.R)} (model), kappa={_fmt6(s.kappa)} (model noise "
          f"exponent), m={s.m} (run.epochs), L={_fmt6(s.L)} a={_fmt6(s.a)} gamma={_fmt6(s.gamma)} "
          f"(loss {config['update']['loss']}), ell_plus={_fmt6(s.ell_plus)} "
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
