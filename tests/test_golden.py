"""Pinned output bytes: refactors of the driver, CLI or models must not move them.

The run-records digest belongs to acceptance criterion 11's config; the
curve digests belong to a small criterion-07 curve whose active and passive
arms both refit by the exact 2-D 0-1 sweep, the active arm's first epoch on
the whole circle (r = 2); the search digest belongs to d = 10 zero-one runs
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

CRITERION_11_RECORDS_SHA256 = "0cb32d54de843c9f576d03160091bad6299a2374fcf5bb126bcd426063693802"
ZERO_ONE_CURVE_CSV_SHA256 = "6220b270b2881149bcae01924d7d4a20737e4134a3069cd6f75b9d685676f6f8"
ZERO_ONE_CURVE_RECORDS_SHA256 = "dbefe617a82c3f4ff138435a5ece3f45f33bb9dc45a71ddc136f19edaabe740b"
ZERO_ONE_SEARCH_RECORDS_SHA256 = "288e65f640942bfedd30cf1f763a583ff0f82e8950d84e40e3e7e7c0c061e86d"
CHECKS_CSV_SHA256 = "77c508443a8a2fd502b1f7393f31b8be35afa4f5759316bdd0dc52331eb7d1f7"

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
    assert cli.config_digest(cli.DEFAULT_CONFIG) == "36e1545893b947c5"


def test_finite_pool_record():
    model = DataModel(dimension=2, marginal="uniform-sphere", conditional="powered-margin",
                      w_star=np.array([1.0, 0.0]), seed=10, kappa=1.0)
    pool = FinitePool(model.stream("pool").standard_normal((3000, 2)), model=model)
    rec = run_active(pool, ZeroOneUpdate(), ScheduleParams(mode="fixed", n=40), m=3, seed=6,
                     config_digest="pool")
    assert rec.to_json_line() == POOL_RECORD
