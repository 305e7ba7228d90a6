"""Pinned output bytes: refactors of the driver, CLI or models must not move them.

The run-records digest belongs to acceptance criterion 11's config; the
curve digests belong to a small criterion-07 curve whose active and passive
arms both refit by the exact 2-D 0-1 sweep, the active arm's first epoch on
the whole circle (r = 2); the ball-curve digests belong to a curve on the
uniform ball whose passive probes run past the first 4,096-row chunk of
each seed's stream, up to a cap of 12,000; the search digest belongs to d = 10 zero-one runs
that refit by the restart search, from the whole sphere (r = 2) down to caps
narrow enough that refined candidates are clipped back; the config digest
is that of the built-in defaults; the checks digest belongs to all six
check suites at small sizes; the pool record covers the finite-pool source,
which no CLI command reaches.
"""

import hashlib
import json

import numpy as np

from halfspace_active import cli
from halfspace_active.data_models import DataModel
from halfspace_active.driver import FinitePool, ScheduleParams, ZeroOneUpdate, run_active

CRITERION_11_RECORDS_SHA256 = "9a70421149a660c3cd99310ad3b327c131884e782c4197aaed75f276bb8ad3b3"
ZERO_ONE_CURVE_CSV_SHA256 = "aeac62d970b1c00cf265e37c2985d616db4357e26897b1498553956456b88285"
ZERO_ONE_CURVE_RECORDS_SHA256 = "447bb979162e3a28b4496e9f8749817aa415e57c5fddb891d8c880fc09fcbfff"
BALL_CURVE_CSV_SHA256 = "4c3b864b3b5a71142ec5f936ab585bdc0d256ab596dd0459008513fb9462a3d7"
BALL_CURVE_RECORDS_SHA256 = "2fa3daaf471bd7a112b5a7cb7c145e7fe41b8b0d1dd4470e93a0c21f1371481c"
ZERO_ONE_SEARCH_RECORDS_SHA256 = "7d3dad2de8b01ae0f1e678bb521290dc21776c0f555ad19d5e13071fc7b779bb"
CHECKS_CSV_SHA256 = "9e91cd8e6b32f06b28eac1af3191e7ef51d43376e3f87e1e1b0772bbb18178df"

POOL_RECORD = (
    '{"config_digest":"pool","epochs":['
    '{"chord_error":1.9726124390415714,"excess_risk_est":null,"k":1,"labels":40,'
    '"n_k":40,"r_k":2.0,"scanned":40},'
    '{"chord_error":0.04148916898031942,"excess_risk_est":null,"k":2,"labels":40,'
    '"n_k":40,"r_k":1.0,"scanned":69},'
    '{"chord_error":0.04461988624184146,"excess_risk_est":null,"k":3,"labels":40,'
    '"n_k":40,"r_k":0.5,"scanned":106}],'
    '"final_w":[0.9999225296861086,-0.012447273843427755],"seed":6,"total_labels":120}'
)


def test_criterion_11_records_digest(tmp_path, capsys):
    config = {
        "model": {"dimension": 2, "marginal": "uniform-sphere",
                  "conditional": "powered-margin", "w_star": [1.0, 0.0], "kappa": 1.0},
        "update": {"kind": "convex", "loss": "truncated-quadratic"},
        "schedule": {"mode": "fixed", "n": 120},
        "run": {"epochs": 3, "seeds": [5, 6]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    data = (tmp_path / "out" / "run_records.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == CRITERION_11_RECORDS_SHA256


def test_zero_one_curve_digests(tmp_path, capsys):
    config = {
        "model": {"dimension": 2, "marginal": "uniform-sphere",
                  "conditional": "powered-margin", "w_star": [1.0, 0.0],
                  "kappa": 1.5, "seed": 7},
        "update": {"kind": "zero-one"},
        "schedule": {"mode": "fixed", "n": 200},
        "curve": {"epsilons": [0.2, 0.1], "seeds": [0, 1, 2, 3],
                  "passive_update": "zero-one", "passive_cap": 4096},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["curve", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    curve = (tmp_path / "out" / "curve.csv").read_bytes()
    records = (tmp_path / "out" / "run_records.json").read_bytes()
    assert hashlib.sha256(curve).hexdigest() == ZERO_ONE_CURVE_CSV_SHA256
    assert hashlib.sha256(records).hexdigest() == ZERO_ONE_CURVE_RECORDS_SHA256


def test_ball_curve_digests(tmp_path, capsys):
    config = {
        "model": {"dimension": 2, "marginal": "uniform-ball",
                  "conditional": "powered-margin", "w_star": [1.0, 0.0],
                  "kappa": 1.5, "seed": 7},
        "update": {"kind": "zero-one"},
        "schedule": {"mode": "fixed", "n": 50},
        "curve": {"epsilons": [0.05, 0.01], "seeds": [0, 1, 2, 3],
                  "passive_update": "zero-one", "passive_cap": 12000},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["curve", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    curve = (tmp_path / "out" / "curve.csv").read_bytes()
    records = (tmp_path / "out" / "run_records.json").read_bytes()
    assert hashlib.sha256(curve).hexdigest() == BALL_CURVE_CSV_SHA256
    assert hashlib.sha256(records).hexdigest() == BALL_CURVE_RECORDS_SHA256


def test_zero_one_search_records_digest(tmp_path, capsys):
    config = {
        "model": {"dimension": 10, "marginal": "uniform-sphere",
                  "conditional": "powered-margin", "w_star": [1.0] + [0.0] * 9,
                  "kappa": 1.5},
        "update": {"kind": "zero-one", "restarts": 8},
        "schedule": {"mode": "fixed", "n": 120},
        "run": {"epochs": 4, "seeds": [0, 1]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    data = (tmp_path / "out" / "run_records.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == ZERO_ONE_SEARCH_RECORDS_SHA256


def test_checks_csv_digest(tmp_path, capsys):
    config = {
        "check": {"equivalence_samples": 3000, "pairs": 3, "n_mc": 20000,
                  "gradient_triples": 20, "scaling_trials": 4, "scaling_n": 100,
                  "scaling_candidates": 16},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["check", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    data = (tmp_path / "out" / "checks.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == CHECKS_CSV_SHA256


def test_default_config_digest():
    assert cli.config_digest(cli.DEFAULT_CONFIG) == "82fa0726fa1bc0e1"


def test_finite_pool_record():
    model = DataModel(dimension=2, marginal="uniform-sphere", conditional="powered-margin",
                      w_star=np.array([1.0, 0.0]), seed=10, kappa=1.0)
    pool = FinitePool(model.stream("pool").standard_normal((3000, 2)), model=model)
    rec = run_active(pool, ZeroOneUpdate(), ScheduleParams(mode="fixed", n=40), m=3, seed=6,
                     config_digest="pool")
    assert rec.to_json_line() == POOL_RECORD
