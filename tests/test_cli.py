import copy
import hashlib
import importlib
import json
import logging
import math
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import replace

import pytest

import numpy as np

import halfspace_active
from halfspace_active import cli, driver, harness, solvers
from halfspace_active.cli import main
from halfspace_active.driver import ScheduleParams
from halfspace_active.errors import ConfigError


def write_config(tmp_path, **overrides):
    config = {
        "model": {
            "dimension": 2,
            "marginal": "uniform-sphere",
            "conditional": "powered-margin",
            "w_star": [1.0, 0.0],
            "kappa": 1.0,
        },
        "update": {"kind": "zero-one"},
        "schedule": {"mode": "fixed", "n": 40},
        "run": {"epochs": 3, "seeds": [1]},
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_module_entry_point_prints_no_runtime_warning():
    src = os.path.dirname(os.path.dirname(os.path.abspath(halfspace_active.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-m", "halfspace_active.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize(
    "module", [""] + [m.name for m in pkgutil.iter_modules(halfspace_active.__path__)]
)
def test_exported_names_resolve(module):
    # a name left in __all__ after its definition is deleted fails here
    mod = importlib.import_module("halfspace_active" + (f".{module}" if module else ""))
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


class TestConfig:
    def test_defaults_round_trip(self):
        config = cli.load_config(None)
        assert config["schedule"]["mode"] == "fixed"

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"modle": {}}))
        with pytest.raises(ConfigError, match="modle"):
            cli.load_config(str(path))

    def test_nested_unknown_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"dims": 3}}))
        with pytest.raises(ConfigError, match="model.dims"):
            cli.load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            cli.load_config("/nonexistent/config.json")

    @pytest.mark.parametrize("text, message", [
        ("{model", "is not valid JSON"), ("[1, 2]", "config root must be a JSON object"),
    ])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting, message", [
        ("foo", "not of the form key=value"), ("update.kind=foo", "unknown update kind 'foo'"),
    ])
    def test_bad_override_exits_two(self, tmp_path, capsys, setting, message):
        path = write_config(tmp_path)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out"),
                     "--set", setting]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_set_overrides(self, tmp_path):
        path = write_config(tmp_path)
        config = cli.load_config(path, overrides=["schedule.n=99", "model.marginal=gaussian"])
        assert config["schedule"]["n"] == 99
        assert config["model"]["marginal"] == "gaussian"

    def test_set_unknown_key(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(ConfigError, match="schedule.nn"):
            cli.load_config(path, overrides=["schedule.nn=99"])

    def test_set_object_merges_like_leaf(self, tmp_path):
        path = write_config(tmp_path)
        whole = cli.load_config(path, overrides=['model={"kappa": 1.5}'])
        leaf = cli.load_config(path, overrides=["model.kappa=1.5"])
        assert whole == leaf
        assert cli.config_digest(whole) == cli.config_digest(leaf)

    def test_value_where_object_belongs(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": 5}))
        with pytest.raises(ConfigError, match="'model'"):
            cli.load_config(str(path))
        assert main(["run", "--config", str(path)]) == 2
        assert "'model'" in capsys.readouterr().err

    def test_object_where_value_belongs(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(ConfigError, match=r"'model\.dimension'"):
            cli.load_config(path, overrides=["model.dimension.x=1"])

    def test_digest_is_stable(self, tmp_path):
        path = write_config(tmp_path)
        a = cli.config_digest(cli.load_config(path))
        b = cli.config_digest(cli.load_config(path))
        assert a == b and len(a) == 16

    def test_every_leaf_has_one_form_rule(self):
        # a key added to the config without a rule, or a rule left for a
        # removed key, fails here; each default passes its own rule unchanged
        leaves = dict(_leaves(cli.DEFAULT_CONFIG))
        assert list(leaves) == list(cli.SETTINGS)
        for key, (default, rule) in cli.SETTINGS.items():
            assert rule is None or rule(key, copy.deepcopy(default)) == default

    def test_loaded_values_are_normalised(self, tmp_path):
        path = write_config(tmp_path)
        config = cli.load_config(path, ["run.epochs=3.0", "check.only=sphere,psi,psi"])
        assert type(config["run"]["epochs"]) is int
        assert config["check"]["only"] == ["psi", "sphere"]
        everything = cli.load_config(path, ["check.only=" + ",".join(reversed(cli.CHECKS))])
        assert everything["check"]["only"] is None


def _leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


# The numeric and boolean config leaves that change a small 2-D run's records,
# a small 2-D zero-one curve's rows and records, or the rows of a small
# gradient and scaling check.
# A key missing here that a run reads, or one listed that it no longer reads,
# fails the probe below: wire the key up or remove it, then update this table.
LEAVES_THAT_CHANGE_RUN_RECORDS = {
    "zero-one": {"model.dimension", "model.kappa", "model.tau0", "schedule.n", "run.epochs"},
    "convex": {"model.dimension", "schedule.n", "run.epochs"},
    # its passive search stops at the cap, so the cap shows
    "curve": {"model.dimension", "model.kappa", "model.tau0", "schedule.n", "curve.passive_cap"},
    "check": {"seed", "check.gradient_triples", "check.scaling_trials", "check.scaling_n",
              "check.scaling_candidates"},
}

# The files each command writes beside config.json.
OUTPUTS = {"run": ["run_records.json"], "curve": ["run_records.json", "curve.csv"],
           "check": ["checks.csv"]}


def read_outputs(out, command):
    """A command's outputs without the digest they carry: records less their
    config_digest field, CSVs less their leading comment."""
    outputs = []
    for name in OUTPUTS[command]:
        lines = (out / name).read_text().splitlines()
        if name.endswith(".json"):
            outputs.append([{k: v for k, v in json.loads(line).items() if k != "config_digest"}
                            for line in lines])
        else:
            outputs.append([line for line in lines if not line.startswith("#")])
    return outputs


@pytest.mark.parametrize("probe", sorted(LEAVES_THAT_CHANGE_RUN_RECORDS))
def test_config_leaves_that_change_run_records(tmp_path, capsys, probe):
    # each numeric or boolean leaf is perturbed on its own: a bool is negated,
    # an int raised by 1 and a float scaled by 1.5; an exit code counts as a
    # change.  A leaf that changes an output is named in config.json, and a
    # leaf that config.json leaves out changes nothing.
    command = {"zero-one": "run", "convex": "run"}.get(probe, probe)
    update = "convex" if probe == "convex" else "zero-one"
    model = ({"conditional": "powered-margin", "w_star": [1.0, 0.0]} if update == "zero-one"
             else {"conditional": "affine", "w_star": [0.4, 0.0]})
    # the check sizes are test_checks_csv_digest's, at which both suites pass
    path = write_config(tmp_path, model={"dimension": 2, **model},
                        update={"kind": update, "loss": "truncated-quadratic"},
                        schedule={"mode": "fixed", "n": 60}, run={"epochs": 3, "seeds": [0]},
                        curve={"epsilons": [0.1], "seeds": [0, 1, 2], "passive_cap": 8},
                        check={"only": "gradient,scaling", "equivalence_samples": 3000,
                               "pairs": 3, "n_mc": 20000, "gradient_triples": 20,
                               "scaling_trials": 4, "scaling_n": 100, "scaling_candidates": 16})
    out = tmp_path / "out"

    def outputs(*overrides):
        code = main([command, "--config", path, "--out", str(out), *overrides])
        return code or read_outputs(out, command)

    baseline = outputs()
    assert isinstance(baseline, list)  # an exit code would hide every change
    digested = {key for key, _ in _leaves(json.loads((out / "config.json").read_text()))}
    changed, perturbed = set(), set()
    # the loaded config has exactly DEFAULT_CONFIG's leaves, at the probe's values
    for key, value in _leaves(cli.load_config(path)):
        if isinstance(value, bool):
            value = not value
        elif isinstance(value, int):
            value += 1
        elif isinstance(value, float):
            value *= 1.5
        else:
            continue
        perturbed.add(key)
        if outputs("--set", f"{key}={json.dumps(value)}") != baseline:
            changed.add(key)
    capsys.readouterr()
    assert changed == LEAVES_THAT_CHANGE_RUN_RECORDS[probe]
    # of the leaves perturbed, config.json names exactly those that changed an output
    assert changed == digested & perturbed
    if probe == "check":
        # the sphere, gaussian and query-rule sizes are neither read nor digested
        assert {"check.pairs", "check.n_mc", "check.equivalence_samples"}.isdisjoint(digested)
        assert "seed" in digested


# The budget constants of the truncated quadratic at R = 1: margins reach
# M = 3R + 1 = 4, so L = 2(1 + M) = 10; psi(z) = z^2 gives a = 1 and gamma = 2;
# curvature 2 gives ell_plus = (2 R^2 / 2a)^(1/2) = 1 and gamma_plus = 2/gamma = 1.
TQ_CONSTANTS = dict(R=1.0, L=10.0, a=1.0, gamma=2.0, ell_plus=1.0, gamma_plus=1.0)


class TestCmdRun:
    def test_theory_budget_for_the_epochs_that_run(self, tmp_path, capsys):
        path = write_config(tmp_path, schedule={"mode": "theory-nonconvex", "theta_eps": 0.05})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
        rec = json.loads((tmp_path / "out" / "run_records.json").read_text().splitlines()[0])
        # write_config's 2-D kappa = 1 model, 3 epochs, and the default loss
        s = ScheduleParams(mode="theory-nonconvex", theta_eps=0.05, d=2, kappa=1.0, m=3,
                           ell_minus=1.0 / math.pi, gamma_minus=1.0, **TQ_CONSTANTS)
        assert s.budget(1) != replace(s, m=1).budget(1)
        assert [e["n_k"] for e in rec["epochs"]] == [s.budget(k) for k in (1, 2, 3)]
        assert all(e["labels"] == e["n_k"] for e in rec["epochs"])

    def test_epoch_table_and_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        # one table row per epoch
        assert len([l for l in out.splitlines() if l.strip().startswith(("1 ", "2 ", "3 "))]) == 3

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"wrong": 1}))
        code = main(["run", "--config", str(path)])
        assert code == 2
        assert "wrong" in capsys.readouterr().err

    def test_unknown_loss_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, update={"kind": "convex"})
        code = main(["run", "--config", path, "--out", str(tmp_path / "out"),
                     "--set", "update.loss=perceptron"])
        assert code == 2
        assert "unknown loss" in capsys.readouterr().err

    def test_unknown_loss_exits_two_for_zero_one_update(self, tmp_path, capsys):
        # the loss is checked by its form rule, whatever the update kind
        path = write_config(tmp_path, update={"kind": "zero-one"})
        code = main(["run", "--config", path, "--out", str(tmp_path / "out"),
                     "--set", "update.loss=perceptron"])
        assert code == 2
        assert "unknown loss" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write_config(tmp_path)
        main(["run", "--config", path, "--out", str(tmp_path / "a")])
        main(["run", "--config", path, "--out", str(tmp_path / "b")])
        capsys.readouterr()
        a = (tmp_path / "a" / "run_records.json").read_bytes()
        b = (tmp_path / "b" / "run_records.json").read_bytes()
        assert a == b and len(a) > 0

    def test_partial_trace_on_exhaustion(self, tmp_path, capsys, monkeypatch):
        # a model never runs dry, so epoch 2 (r = 1) is made to come back one
        # row short; the trace keeps the finished epoch 1 and the short epoch 2
        epoch = driver._model_epoch

        def short_epoch_two(model, ball, n_k, rng):
            X, at, scanned = epoch(model, ball, n_k, rng)
            if ball.radius == 1.0:
                return X[:-1], at[:-1], scanned
            return X, at, scanned

        monkeypatch.setattr(driver, "_model_epoch", short_epoch_two)
        path = write_config(tmp_path, schedule={"mode": "fixed", "n": 40})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "pool ran dry in epoch 2 after 39/40 labels" in capsys.readouterr().err
        lines = (tmp_path / "out" / "run_records.json").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        first, second = record["epochs"]
        assert (first["k"], first["n_k"], first["labels"]) == (1, 40, 40)
        assert (second["k"], second["labels"]) == (2, 39)
        assert record["total_labels"] == 79

    def test_partial_trace_on_solver_failure(self, tmp_path, capsys, monkeypatch):
        # under a cap of 3 Newton iterations, seed 37 solves epoch 1 and
        # raises MaxItersExceeded in epoch 2, which the trace still records
        monkeypatch.setattr(solvers, "MAX_ITERS", 3)
        path = write_config(
            tmp_path,
            model={"dimension": 2, "marginal": "uniform-sphere", "conditional": "affine",
                   "w_star": [0.4, 0.0]},
            update={"kind": "convex", "loss": "exponential"},
            schedule={"mode": "fixed", "n": 500},
            run={"epochs": 10, "seeds": [37]},
        )
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "no convergence" in capsys.readouterr().err
        lines = (tmp_path / "out" / "run_records.json").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert len(record["epochs"]) == 2
        assert record["total_labels"] == sum(e["labels"] for e in record["epochs"])

    def test_linalg_error_mid_run_exits_one_with_partial_trace(self, tmp_path, capsys, monkeypatch):
        # a numpy fault inside a run is a runtime failure, not a usage error
        solve = driver._solve_epoch

        def fail_in_epoch_two(update, X, y, w_k, r_k, R, seed, k, *rest):
            if k == 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solve(update, X, y, w_k, r_k, R, seed, k, *rest)

        monkeypatch.setattr(driver, "_solve_epoch", fail_in_epoch_two)
        path = write_config(tmp_path)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "Eigenvalues did not converge" in capsys.readouterr().err
        record = json.loads((tmp_path / "out" / "run_records.json").read_text())
        assert [e["k"] for e in record["epochs"]] == [1, 2]
        assert record["total_labels"] == 80

    def test_loss_constants_that_overflow_exit_two(self, tmp_path, capsys):
        # the exponential loss's constants are e^(3R + 1), past float range for R = 300
        path = write_config(tmp_path, update={"kind": "convex", "loss": "exponential"})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out"),
                     "--set", "model.w_star=[300, 0]"]) == 2
        assert "math range error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("settings", [
        ["schedule.mu=0"],
        ["update.loss=exponential", "model.conditional=logistic", "model.w_star=[300, 0]"],
    ])
    def test_theory_only_settings_leave_a_fixed_schedule_alone(self, tmp_path, capsys, settings):
        # mu and the update loss's constants feed only the theory budgets; the
        # exponential loss's constants at R = 300 are past float range
        path = write_config(tmp_path)
        overrides = [arg for setting in settings for arg in ("--set", setting)]
        assert main(["run", "--config", path, "--out", str(tmp_path / "out"), *overrides]) == 0
        assert len((tmp_path / "out" / "run_records.json").read_text().splitlines()) == 1

    @pytest.mark.parametrize("setting", ["run.seeds=5", "model.dimension=[2]", "run.epochs=0"])
    def test_bad_run_values_exit_two_before_any_run(self, tmp_path, capsys, setting):
        path = write_config(tmp_path)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out"),
                     "--set", setting]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("seeds", []), ("epochs", 2.5), ("epochs", True)])
    def test_run_of_no_seeds_or_part_epochs_exits_two(self, tmp_path, capsys, key, value):
        # no seed would write an empty run_records.json; 2.5 epochs would run
        # 2, and true 1, under a digest that records the value given
        path = write_config(tmp_path, run={"epochs": 3, "seeds": [1], key: value})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"run.{key}" in err
        assert not (tmp_path / "out").exists()

    def test_whole_float_epochs_run(self, tmp_path, capsys):
        path = write_config(tmp_path, run={"epochs": 3.0, "seeds": [1]})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
        record = json.loads((tmp_path / "out" / "run_records.json").read_text())
        assert len(record["epochs"]) == 3

    @pytest.mark.parametrize("given", ["file", "set"])
    def test_removed_excess_risk_key_is_not_a_setting(self, tmp_path, capsys, given):
        if given == "file":
            path = write_config(tmp_path, run={"epochs": 3, "seeds": [1], "excess_risk_mc": 2000})
            overrides = []
        else:
            path, overrides = write_config(tmp_path), ["--set", "run.excess_risk_mc=2000"]
        assert main(["run", "--config", path, "--out", str(tmp_path / "out"), *overrides]) == 2
        assert "unknown config key 'run.excess_risk_mc'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ill_conditioned_seed_converges(self, tmp_path, capsys):
        # seed 172's last epochs have Hessian condition numbers near 1e4, where
        # projected gradient ran out of iterations; Newton steps are indifferent
        path = write_config(
            tmp_path,
            model={"dimension": 2, "marginal": "uniform-sphere", "conditional": "affine",
                   "w_star": [0.4, 0.0]},
            update={"kind": "convex", "loss": "truncated-quadratic"},
            schedule={"mode": "fixed", "n": 500},
            run={"epochs": 10, "seeds": [172]},
        )
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
        record = json.loads((tmp_path / "out" / "run_records.json").read_text())
        assert len(record["epochs"]) == 10

    @pytest.mark.parametrize(
        "key", ["max_iters", "grad_tol", "initial_step", "backtrack_factor", "armijo_c"])
    def test_removed_solver_key_is_not_a_setting(self, tmp_path, capsys, key):
        path = write_config(tmp_path, update={"kind": "convex", "loss": "truncated-quadratic"})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out"),
                     "--set", f"solver.{key}=1"]) == 2
        assert "unknown config key 'solver'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCmdCurve:
    def test_writes_curve_csv(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            curve={"epsilons": [0.4, 0.2], "seeds": [0, 1, 2, 3, 4], "passive_cap": 20000},
        )
        out_dir = tmp_path / "out"
        code = main(["curve", "--config", path, "--out", str(out_dir)])
        assert code == 0
        rows = (out_dir / "curve.csv").read_text().splitlines()[2:]  # comment, header
        assert len(rows) == 2

    def test_records_carry_the_config_digest(self, tmp_path, capsys):
        path = write_config(tmp_path, curve={"epsilons": [0.4], "seeds": [0, 1]})
        assert main(["curve", "--config", path, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "run_records.json").read_text().splitlines()
        digest = hashlib.sha256((tmp_path / "out" / "config.json").read_bytes()).hexdigest()[:16]
        assert [json.loads(line)["config_digest"] for line in lines] == [digest, digest]

    def test_empty_seed_list_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, curve={"epsilons": [0.4], "seeds": []})
        assert main(["curve", "--config", path, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("cap", [0, -1])
    def test_passive_cap_below_one_exits_two_before_any_run(self, tmp_path, capsys, cap):
        path = write_config(tmp_path, curve={"epsilons": [0.4], "seeds": [0, 1]})
        assert main(["curve", "--config", path, "--out", str(tmp_path / "out"),
                     "--set", f"curve.passive_cap={cap}"]) == 2
        assert "passive_cap" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_value_error_mid_curve_exits_one(self, tmp_path, capsys, monkeypatch):
        def fail(experiment, config_digest):
            raise ValueError("forced failure")

        monkeypatch.setattr(cli, "label_complexity_curve", fail)
        path = write_config(tmp_path, curve={"epsilons": [0.4], "seeds": [0]})
        assert main(["curve", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: forced failure\n"


class TestOutputs:
    def test_a_run_leaves_a_curve_in_the_same_directory_alone(self, tmp_path, capsys):
        path = write_config(tmp_path, curve={"epsilons": [0.4], "seeds": [0, 1]},
                            check={"only": "psi"})
        out = str(tmp_path / "out")
        assert main(["curve", "--config", path, "--out", out]) == 0
        curve = (tmp_path / "out" / "curve.csv").read_bytes()
        assert main(["run", "--config", path, "--out", out]) == 0
        assert (tmp_path / "out" / "curve.csv").read_bytes() == curve
        records = (tmp_path / "out" / "run_records.json").read_bytes()
        assert main(["check", "--config", path, "--out", out]) == 0
        assert (tmp_path / "out" / "curve.csv").read_bytes() == curve
        assert (tmp_path / "out" / "run_records.json").read_bytes() == records

    @pytest.mark.parametrize("command", sorted(OUTPUTS))
    def test_config_json_digest_is_carried_by_every_output(self, tmp_path, capsys, command):
        path = write_config(tmp_path, curve={"epsilons": [0.4], "seeds": [0, 1]},
                            check={"only": "psi"})
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "config.json").read_bytes()).hexdigest()[:16]
        assert sorted(p.name for p in out.iterdir()) == sorted(["config.json", *OUTPUTS[command]])
        for name in OUTPUTS[command]:
            lines = (out / name).read_text().splitlines()
            if name.endswith(".json"):
                assert lines and all(json.loads(line)["config_digest"] == digest for line in lines)
            else:
                assert lines[0] == f"# config_digest={digest}"
        read = json.loads((out / "config.json").read_text())
        assert "out" not in read  # never where the files land
        if command == "check":
            assert read == {"check": {"only": ["psi"]}}  # psi takes no size and no seed

    def test_set_leaves_a_command_does_not_read_are_warned(self, tmp_path, capsys, caplog):
        path = write_config(tmp_path)
        with caplog.at_level(logging.WARNING, logger="halfspace_active.cli"):
            assert main(["run", "--config", path, "--out", str(tmp_path / "out"), "--seed", "3",
                         "--set", "update.restarts=5", "--set", "curve.passive_cap=9"]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        # a 2-D zero-one update never runs the restart search
        assert warnings == ["set but not read by this command: update.restarts, "
                            "curve.passive_cap, seed"]


class TestWholeNumberSettings:
    """Seeds, sizes and counts are whole numbers: a fraction or a bool exits 2
    before any run, and every whole value runs."""

    @pytest.mark.parametrize("value", ["2.5", "true"])
    @pytest.mark.parametrize("command, key", [
        ("run", "run.seeds"), ("curve", "curve.seeds"), ("curve", "curve.passive_cap"),
        ("run", "model.dimension"), ("run", "schedule.n"), ("run", "update.restarts"),
        ("curve", "update.restarts"), ("run", "seed"), ("curve", "seed"), ("check", "seed"),
        ("run", "model.seed"), ("curve", "model.seed"),
    ])
    def test_refused_before_any_run(self, tmp_path, capsys, monkeypatch, command, key, value):
        ran = []
        monkeypatch.setattr(cli, "run_active", lambda *a, **kw: ran.append(a))
        monkeypatch.setattr(cli, "label_complexity_curve", lambda *a, **kw: ran.append(a))
        monkeypatch.setitem(cli.CHECKS, "psi", lambda cc, seed: ran.append(seed) or [])
        path = write_config(tmp_path, curve={"epsilons": [0.4], "seeds": [0]},
                            check={"only": "psi"})
        setting = f"{key}=[{value}]" if key.endswith("seeds") else f"{key}={value}"
        assert main([command, "--config", path, "--out", str(tmp_path / "out"),
                     "--set", setting]) == 2
        assert f"{key} must be a number" in capsys.readouterr().err
        assert ran == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "curve"])
    def test_negative_restarts_refused(self, tmp_path, capsys, monkeypatch, command):
        ran = []
        monkeypatch.setattr(cli, "run_active", lambda *a, **kw: ran.append(a))
        monkeypatch.setattr(cli, "label_complexity_curve", lambda *a, **kw: ran.append(a))
        path = write_config(tmp_path, curve={"epsilons": [0.4], "seeds": [0]})
        assert main([command, "--config", path, "--out", str(tmp_path / "out"),
                     "--set", "update.restarts=-3"]) == 2
        assert "update.restarts must be a number >= 0" in capsys.readouterr().err
        assert ran == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["[true]", '["0.1"]', "[0.4, false]", "[null]", "0.4"])
    def test_epsilons_refused_before_any_run(self, tmp_path, capsys, monkeypatch, value):
        ran = []
        monkeypatch.setattr(cli, "label_complexity_curve", lambda *a, **kw: ran.append(a))
        path = write_config(tmp_path, curve={"epsilons": [0.4], "seeds": [0]})
        assert main(["curve", "--config", path, "--out", str(tmp_path / "out"),
                     "--set", f"curve.epsilons={value}"]) == 2
        assert "curve.epsilons must be a list of numbers" in capsys.readouterr().err
        assert ran == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value, repeated", [("[0, 0]", 0), ("[3, 1, 3.0]", 3)])
    @pytest.mark.parametrize("command", ["run", "curve"])
    def test_repeated_seed_refused_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                  command, value, repeated):
        # a repeated seed would count one run twice in every median and quartile
        ran = []
        monkeypatch.setattr(cli, "run_active", lambda *a, **kw: ran.append(a))
        monkeypatch.setattr(cli, "label_complexity_curve", lambda *a, **kw: ran.append(a))
        path = write_config(tmp_path, curve={"epsilons": [0.4], "seeds": [0]})
        assert main([command, "--config", path, "--out", str(tmp_path / "out"),
                     "--set", f"{command}.seeds={value}"]) == 2
        assert f"{command}.seeds names seed(s) [{repeated}] more than once" in capsys.readouterr().err
        assert ran == [] and not (tmp_path / "out").exists()

    def test_no_epsilons_refused_before_any_run(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "label_complexity_curve", lambda *a, **kw: ran.append(a))
        path = write_config(tmp_path, curve={"epsilons": [0.4], "seeds": [0]})
        assert main(["curve", "--config", path, "--out", str(tmp_path / "out"),
                     "--set", "curve.epsilons=[]"]) == 2
        assert "curve.epsilons must name at least one target" in capsys.readouterr().err
        assert ran == [] and not (tmp_path / "out").exists()

    def test_whole_values_run(self, tmp_path, capsys):
        path = write_config(tmp_path, curve={"epsilons": [0.9], "seeds": [-2, 5.0],
                                             "passive_cap": 64.0})
        out = tmp_path / "out"
        settings = ["run.seeds=[-3, 4.0]", "model.dimension=2.0", "schedule.n=40.0",
                    "update.restarts=0", "seed=3.0", "model.seed=2.0"]
        for command in ("run", "curve"):
            args = [command, "--config", path, "--out", str(out / command)]
            assert main(args + [a for s in settings for a in ("--set", s)]) == 0
        seeds = {command: [json.loads(line)["seed"] for line in
                           (out / command / "run_records.json").read_text().splitlines()]
                 for command in ("run", "curve")}
        assert seeds == {"run": [-3, 4], "curve": [-2, 5]}
        # config.json holds each whole value the curve read as an int
        digested = json.loads((out / "curve" / "config.json").read_text())
        assert digested["curve"]["passive_cap"] == 64 and digested["curve"]["seeds"] == [-2, 5]
        assert all(type(v) is int for v in (digested["model"]["dimension"], digested["schedule"]["n"]))

    def test_whole_master_seed_reaches_checks(self, tmp_path, capsys):
        path = write_config(tmp_path, check={"gradient_triples": 2})
        out = tmp_path / "out"
        assert main(["check", "--config", path, "--out", str(out), "--only", "gradient",
                     "--set", "seed=4.0"]) == 0
        assert '"seed":4}' in (out / "config.json").read_text()


class TestRealNumberSettings:
    """Real-valued leaves are numbers: a bool is not read as 1 and a string is
    not parsed, wherever the model or the schedule reads them."""

    KEYS = ["model.kappa", "model.tau0", "schedule.mu", "schedule.theta_eps",
            "schedule.delta", "schedule.n0", "schedule.ratio"]

    @pytest.mark.parametrize("value", ["true", '"2"', '"0.1"', "[1]"])
    @pytest.mark.parametrize("key", KEYS)
    @pytest.mark.parametrize("command", ["run", "budget"])
    def test_refused_before_any_run(self, tmp_path, capsys, monkeypatch, command, key, value):
        ran = []
        monkeypatch.setattr(cli, "run_active", lambda *a, **kw: ran.append(a))
        path = write_config(tmp_path, schedule={"mode": "theory-convex"})
        assert main([command, "--config", path, "--out", str(tmp_path / "out"),
                     "--set", f"{key}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {key} must be a number")
        assert ran == [] and captured.out == "" and not (tmp_path / "out").exists()

    def test_geometric_sizes_pass_as_given(self, tmp_path, capsys):
        # n0 and ratio default to null, which every fixed-schedule test runs
        path = write_config(tmp_path, schedule={"mode": "geometric", "n0": 10, "ratio": 2})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
        record = json.loads((tmp_path / "out" / "run_records.json").read_text())
        assert [e["n_k"] for e in record["epochs"]] == [10, 20, 40]

    @pytest.mark.parametrize("value", ['"no"', "0", "1", "null", '"false"'])
    def test_floor_enabled_takes_only_a_boolean(self, capsys, value):
        assert main(["budget", "--set", f"schedule.floor_enabled={value}"]) == 2
        assert "schedule.floor_enabled must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("floor, budgets", [("false", [1] * 4), ("true", [9] * 4)])
    def test_floor_enabled_sets_the_convex_floor(self, tmp_path, capsys, floor, budgets):
        path = write_config(tmp_path, schedule={"mode": "theory-convex", "mu": 1e-4,
                                                "floor_enabled": json.loads(floor)},
                            run={"epochs": 4, "seeds": [1]})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
        record = json.loads((tmp_path / "out" / "run_records.json").read_text())
        assert [e["n_k"] for e in record["epochs"]] == budgets


class TestCmdCheck:
    def test_subset_runs_and_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, check={"equivalence_samples": 1500})
        code = main([
            "check", "--config", path, "--out", str(tmp_path / "out"),
            "--only", "query-rule,psi",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] query-rule-equivalence" in out
        assert (tmp_path / "out" / "checks.csv").exists()

    def test_unknown_check_name(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(["check", "--config", path, "--only", "nosuch"])
        assert code == 2

    def test_rows_follow_table_order(self, tmp_path, capsys):
        path = write_config(tmp_path, check={"equivalence_samples": 1500})
        csvs = []
        for i, only in enumerate(("psi,query-rule", "query-rule,psi", "psi,query-rule,psi")):
            out = tmp_path / f"out{i}"
            assert main(["check", "--config", path, "--out", str(out), "--only", only]) == 0
            csvs.append((out / "checks.csv").read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]

    def test_only_from_config_string_matches_flag(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["check", "--config", path, "--out", str(out_a), "--only", "psi"]) == 0
        assert main(["check", "--config", path, "--out", str(out_b), "--set", "check.only=psi"]) == 0
        # --only is the check.only setting, so the digest in the leading comment agrees too
        a = (out_a / "checks.csv").read_bytes()
        assert a == (out_b / "checks.csv").read_bytes() and len(a.splitlines()) == 5

    @pytest.mark.parametrize("setting", ["check.only=[]", 'check={"only": []}'])
    def test_empty_only_list_exits_two_before_any_suite(self, tmp_path, capsys, monkeypatch,
                                                        setting):
        # an empty list selects no suite; it does not fall back to all of them
        ran = []
        for name in cli.CHECKS:
            monkeypatch.setitem(cli.CHECKS, name, lambda cc, seed: ran.append(seed) or [])
        path = write_config(tmp_path)
        assert main(["check", "--config", path, "--out", str(tmp_path / "out"),
                     "--set", setting]) == 2
        assert "check.only must name at least one check" in capsys.readouterr().err
        assert ran == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [["--only", ""], ["--set", "check.only=psi,"],
                                      ["--set", 'check.only=["psi", ""]']])
    def test_empty_only_entry_is_named(self, tmp_path, capsys, args):
        path = write_config(tmp_path)
        assert main(["check", "--config", path, "--out", str(tmp_path / "out"), *args]) == 2
        err = capsys.readouterr().err
        assert "no empty entry" in err and "unknown check" not in err
        assert not (tmp_path / "out").exists()

    def test_only_must_be_a_string_or_a_list(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["check", "--config", path, "--out", str(tmp_path / "out"),
                     "--set", "check.only=5"]) == 2
        assert "check.only takes a comma-separated string" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_flag_is_the_master_seed(self, tmp_path, capsys):
        path = write_config(tmp_path, check={"gradient_triples": 2})
        comments = []
        for seed in ("0", "5"):
            out = tmp_path / seed
            assert main(["check", "--config", path, "--out", str(out), "--only", "gradient",
                         "--seed", seed]) == 0
            comments.append((out / "checks.csv").read_text().splitlines()[0])
            assert json.loads((out / "config.json").read_text())["seed"] == int(seed)
        assert comments[0] != comments[1]  # the config digests

    def test_only_changes_the_digest(self, tmp_path, capsys):
        # the digest in the leading comment says which suites ran
        path = write_config(tmp_path, check={"equivalence_samples": 15})
        digests = []
        for name in ("psi", "query-rule"):
            out = tmp_path / name
            assert main(["check", "--config", path, "--out", str(out), "--only", name]) == 0
            digests.append((out / "checks.csv").read_text().splitlines()[0])
        assert digests[0] != digests[1]

    def test_whole_float_size_digested_as_its_int(self, tmp_path, capsys):
        # the suites run int(check.pairs), so 20.0 and 20 are the same work
        path = write_config(tmp_path)
        csvs = []
        for i, pairs in enumerate(("20.0", "20")):
            out = tmp_path / f"out{i}"
            assert main(["check", "--config", path, "--out", str(out), "--only", "psi",
                         "--set", f"check.pairs={pairs}"]) == 0
            csvs.append((out / "checks.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_suites_receive_whole_float_sizes_as_ints(self, tmp_path, capsys, monkeypatch):
        seen = {}

        def sphere(**kwargs):
            seen.update(kwargs)
            return []

        monkeypatch.setattr(harness, "check_sphere_identity", sphere)
        path = write_config(tmp_path, check={"pairs": 3.0, "n_mc": 2000.0})
        assert main(["check", "--config", path, "--out", str(tmp_path / "out"),
                     "--only", "sphere"]) == 0
        assert seen == {"pairs": 3, "n_mc": 2000, "seed": 0}
        assert all(type(v) is int for v in seen.values())

    @pytest.mark.parametrize("setting", [
        "scaling_trials=0", "scaling_candidates=1", "scaling_n=0", "pairs=0", "n_mc=99",
        "equivalence_samples=0", "gradient_triples=0", "pairs=\"many\"",
    ])
    def test_bad_sizes_exit_two_before_any_suite(self, tmp_path, capsys, monkeypatch, setting):
        ran = []
        monkeypatch.setattr(harness, "check_psi_transform", lambda: ran.append("psi") or [])
        path = write_config(tmp_path)
        code = main(["check", "--config", path, "--out", str(tmp_path / "out"),
                     "--set", f"check.{setting}"])
        assert code == 2 and ran == []
        assert f"check.{setting.split('=')[0]} must be a number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting", ["n_mc=Infinity", "pairs=1.5"])
    def test_sizes_that_are_not_whole_exit_two_before_any_suite(self, tmp_path, capsys,
                                                                monkeypatch, setting):
        ran = []
        monkeypatch.setattr(harness, "check_psi_transform", lambda: ran.append("psi") or [])
        path = write_config(tmp_path)
        code = main(["check", "--config", path, "--out", str(tmp_path / "out"),
                     "--only", "psi", "--set", f"check.{setting}"])
        assert code == 2 and ran == []
        assert f"check.{setting.split('=')[0]} must be a number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_verbose_logs_each_suite_and_keeps_the_bytes(self, tmp_path, capsys, caplog):
        path = write_config(tmp_path, check={"equivalence_samples": 1500})
        args = ["check", "--config", path, "--only", "query-rule,psi"]
        assert main(args + ["--out", str(tmp_path / "quiet")]) == 0
        with caplog.at_level(logging.INFO, logger="halfspace_active.cli"):
            assert main(["--verbose", *args, "--out", str(tmp_path / "verbose")]) == 0
        csv = (tmp_path / "verbose" / "checks.csv").read_bytes()
        assert csv == (tmp_path / "quiet" / "checks.csv").read_bytes()
        logged = [re.fullmatch(r"check (\S+): (\d+) rows in \d+\.\d{3} s", r.getMessage())
                  for r in caplog.records
                  if r.name == "halfspace_active.cli" and r.levelno == logging.INFO]
        assert [m[1] for m in logged] == ["query-rule", "psi"]
        assert sum(int(m[2]) for m in logged) == len(csv.splitlines()) - 2  # comment, header

    def test_failing_rows_exit_one(self, tmp_path, capsys, monkeypatch):
        bad = harness.CheckRow("psi-closed-vs-numeric", "forced", 1.0, "0.0", 0.0, False)
        monkeypatch.setattr(harness, "check_psi_transform", lambda: [bad])
        path = write_config(tmp_path)
        code = main(["check", "--config", path, "--out", str(tmp_path / "out"), "--only", "psi"])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out


class TestCmdPsiTable:
    def test_table_shape_and_minorant(self, capsys):
        assert main(["psi-table", "--loss", "exponential", "--step", "0.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "z,psi,psi_numeric,lower_bound"
        rows = [list(map(float, l.split(","))) for l in lines[1:]]
        assert len(rows) == 11  # z = 0.0, 0.1, ..., 1.0
        assert rows[0] == [0.0, 0.0, 0.0, 0.0]
        for z, p, pn, lower in rows:
            assert p >= lower - 1e-12

    def test_unknown_loss(self, capsys):
        assert main(["psi-table", "--loss", "perceptron"]) == 2
        assert "unknown loss" in capsys.readouterr().err

    def test_bad_step_exits_two(self, capsys):
        assert main(["psi-table", "--loss", "exponential", "--step", "0"]) == 2
        assert "step must lie in (0, 1]" in capsys.readouterr().err


class TestCmdBudget:
    def test_defaults_print_threshold(self, capsys):
        # default gamma is 2.0, whose threshold is (1 + sqrt(17))/4
        assert main(["budget"]) == 0
        out = capsys.readouterr().out
        assert "kappa_threshold" in out
        assert "1.280776" in out

    def test_log_branch_printed(self, capsys):
        assert main(["budget", "--set", "run.epochs=4"]) == 0
        out = capsys.readouterr().out
        assert "log branch" in out

    def test_inconsistent_params_exit_two(self, capsys):
        assert main(["budget", "--set", "schedule.delta=1.5"]) == 2

    @pytest.mark.parametrize("epochs", ["2.5", "true", "0"])
    def test_epochs_must_be_whole_and_positive(self, capsys, epochs):
        assert main(["budget", "--set", f"run.epochs={epochs}"]) == 2
        assert "run.epochs must be a number >= 1 and whole" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["d", "R", "kappa", "m", "L", "a", "gamma", "ell_plus",
                                     "gamma_plus", "ell_minus", "gamma_minus"])
    def test_derived_constant_is_not_a_setting(self, capsys, key):
        assert main(["budget", "--set", f"schedule.{key}=1"]) == 2
        assert f"schedule.{key}" in capsys.readouterr().err

    def test_constants_from_model_loss_and_epochs(self, capsys):
        w_star = json.dumps([1.0] + [0.0] * 9)
        assert main(["budget", "--set", "model.dimension=10", "--set", f"model.w_star={w_star}",
                     "--set", "model.kappa=1.5", "--set", "run.epochs=5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines) if "n_k (0-1)" in line)
        rows = [[int(v) for v in line.split()[2:]] for line in lines[header + 1:header + 6]]
        constants = dict(d=10, kappa=1.5, m=5, ell_minus=(1.0 / math.pi) ** 1.5,
                         gamma_minus=1.5, **TQ_CONSTANTS)
        ncx = ScheduleParams(mode="theory-nonconvex", **constants)
        cvx = ScheduleParams(mode="theory-convex", **constants)
        assert rows == [[ncx.budget(k), cvx.budget(k)] for k in range(1, 6)]

    def test_nonpositive_mu_names_its_key(self, capsys):
        assert main(["budget", "--set", "schedule.mu=0"]) == 2
        assert "schedule.mu" in capsys.readouterr().err

    def test_loss_constants_that_overflow_name_their_keys(self, capsys):
        # the exponential loss's constants are e^(3R + 1), past float range for R = 300
        assert main(["budget", "--set", "update.loss=exponential",
                     "--set", "model.w_star=[300, 0]"]) == 2
        err = capsys.readouterr().err
        assert "update.loss" in err and "||model.w_star|| = 300" in err
        assert err.rstrip().endswith("math range error")
