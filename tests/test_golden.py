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

CRITERION_11_RECORDS_SHA256 = "68688a94bd9e00feba7c433c1143c42525af6e9eeec8c7eaab2a6035d8a7645c"
ZERO_ONE_CURVE_CSV_SHA256 = "ec7e3de2ecb9d5c2ba65a2071929e8aef893586f39f0fd73133c5bad56e95556"
ZERO_ONE_CURVE_RECORDS_SHA256 = "f7a08d4d51513d221a5597fbd53fdaaf301547996144ba1b2483a04840f2f278"
BALL_CURVE_CSV_SHA256 = "1f592888ae0f15f60db2aebb2e3e111d975fabd509dc5a596b0b72a9e6698ef7"
BALL_CURVE_RECORDS_SHA256 = "0111d95f8a8fb4f77ab6666c5c754a9d87f1cceb8d9a8824a3850ec2dce4ad55"
ZERO_ONE_SEARCH_RECORDS_SHA256 = "1efb59d1a2665fd410f0f113c0b9e9e9415807e457bb802808ac35579701431f"
CHECKS_CSV_SHA256 = "fd3ad2ee23234cbb163adb9d0021d7c1a3f6b14cb662a40eb14fb8dcdb68b122"

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
    assert cli.config_digest(cli.DEFAULT_CONFIG) == "c1702b14545532af"


def test_finite_pool_record():
    model = DataModel(dimension=2, marginal="uniform-sphere", conditional="powered-margin",
                      w_star=np.array([1.0, 0.0]), seed=10, kappa=1.0)
    pool = FinitePool(model.stream("pool").standard_normal((3000, 2)), model=model)
    rec = run_active(pool, ZeroOneUpdate(), ScheduleParams(mode="fixed", n=40), m=3, seed=6,
                     config_digest="pool")
    assert rec.to_json_line() == POOL_RECORD
