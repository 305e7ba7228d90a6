import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import numpy as np

import halfspace_active
from halfspace_active import cli, driver, harness
from halfspace_active.cli import main
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


class TestCmdRun:
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
        # the loss is part of the config digest, so it is checked for every kind
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

    def test_partial_trace_on_exhaustion(self, tmp_path, capsys):
        # theory budgets are huge; a finite pool cannot satisfy them -- but
        # run uses the generative model, so force failure via a doomed schedule
        path = write_config(tmp_path, schedule={"mode": "fixed", "n": 40})
        # sanity: the normal run works; exhaustion needs a pool, which the CLI
        # does not expose, so this just documents exit 0 here
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0

    def test_partial_trace_on_solver_failure(self, tmp_path, capsys):
        # damped Newton steps (a quarter of the Newton step at first) take 50
        # or 51 iterations in the first three epochs of seed 172 and 58 in the
        # fourth, so a cap of 54 raises MaxItersExceeded in epoch 4
        path = write_config(
            tmp_path,
            model={"dimension": 2, "marginal": "uniform-sphere", "conditional": "affine",
                   "w_star": [0.4, 0.0]},
            update={"kind": "convex", "loss": "logistic"},
            schedule={"mode": "fixed", "n": 500},
            run={"epochs": 10, "seeds": [172]},
            solver={"initial_step": 0.25, "max_iters": 54},
        )
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "no convergence" in capsys.readouterr().err
        lines = (tmp_path / "out" / "run_records.json").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert len(record["epochs"]) == 4
        assert record["total_labels"] == sum(e["labels"] for e in record["epochs"])

    def test_linalg_error_mid_run_exits_one_with_partial_trace(self, tmp_path, capsys, monkeypatch):
        # a numpy fault inside a run is a runtime failure, not a usage error
        solve = driver._solve_epoch

        def fail_in_epoch_two(update, X, y, w_k, r_k, R, seed, k):
            if k == 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solve(update, X, y, w_k, r_k, R, seed, k)

        monkeypatch.setattr(driver, "_solve_epoch", fail_in_epoch_two)
        path = write_config(tmp_path)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "Eigenvalues did not converge" in capsys.readouterr().err
        record = json.loads((tmp_path / "out" / "run_records.json").read_text())
        assert [e["k"] for e in record["epochs"]] == [1, 2]
        assert record["total_labels"] == 80

    @pytest.mark.parametrize("setting", ["run.seeds=5", "model.dimension=[2]", "run.epochs=0"])
    def test_bad_run_values_exit_two_before_any_run(self, tmp_path, capsys, setting):
        path = write_config(tmp_path)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out"),
                     "--set", setting]) == 2
        assert capsys.readouterr().err.startswith("error: ")
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

    def test_initial_step_past_newton_point_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, update={"kind": "convex", "loss": "truncated-quadratic"})
        code = main(["run", "--config", path, "--out", str(tmp_path / "out"),
                     "--set", "solver.initial_step=2"])
        assert code == 2
        assert "initial_step" in capsys.readouterr().err


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

    def test_empty_seed_list_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, curve={"epsilons": [0.4], "seeds": []})
        assert main(["curve", "--config", path, "--out", str(tmp_path / "o")]) == 2


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

    def test_only_changes_the_digest(self, tmp_path, capsys):
        # the digest in the leading comment says which suites ran
        path = write_config(tmp_path, check={"equivalence_samples": 15})
        digests = []
        for name in ("psi", "query-rule"):
            out = tmp_path / name
            assert main(["check", "--config", path, "--out", str(out), "--only", name]) == 0
            digests.append((out / "checks.csv").read_text().splitlines()[0])
        assert digests[0] != digests[1]

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

    def test_golden_ratio_threshold(self, capsys):
        assert main(["budget", "--set", "schedule.gamma=1.0"]) == 0
        assert "1.618034" in capsys.readouterr().out

    def test_log_branch_printed(self, capsys):
        assert main(["budget", "--set", "schedule.m=4"]) == 0
        out = capsys.readouterr().out
        assert "log branch" in out

    def test_inconsistent_params_exit_two(self, capsys):
        assert main(["budget", "--set", "schedule.delta=1.5"]) == 2
