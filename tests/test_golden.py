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

CRITERION_11_RECORDS_SHA256 = "67dd5cc0635bd2c8fd425ae433a985c8364756b7405cecb4ba948d10d6b1a50f"
ZERO_ONE_CURVE_CSV_SHA256 = "9d4a7b04cb706d97b71013b415293d00dfc9279b06f4efc33dc0e3f232685b53"
ZERO_ONE_CURVE_RECORDS_SHA256 = "d0b67fca85cfa74c0d1858d7dfb73fc34bd08f61309fed1f039fbf61a692da60"
BALL_CURVE_CSV_SHA256 = "b2d166af6d1830603790e073245ea222304a8f0f55e28d8f0fec31acd26713e5"
BALL_CURVE_RECORDS_SHA256 = "88c702067b4304ff1605be88b6f40d8ed146282873754e3ff0b9d018570b2639"
ZERO_ONE_SEARCH_RECORDS_SHA256 = "c5d0ce235bc5fb856db7c1d4fc871c3cafe37ed573848d9050766a9fdd95ee15"
CHECKS_CSV_SHA256 = "3eed3cd547be54174721cad94f35c4cefabc00414e3f307b0727b2ad0f479f06"

POOL_RECORD = (
    '{"config_digest":"pool","epochs":['
    '{"chord_error":1.9726124390415714,"k":1,"labels":40,'
    '"n_k":40,"r_k":2.0,"scanned":40},'
    '{"chord_error":0.04148916898031942,"k":2,"labels":40,'
    '"n_k":40,"r_k":1.0,"scanned":69},'
    '{"chord_error":0.04461988624184146,"k":3,"labels":40,'
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
    assert cli.config_digest(cli.DEFAULT_CONFIG) == "434f62bc1feba8e9"


def test_finite_pool_record():
    model = DataModel(dimension=2, marginal="uniform-sphere", conditional="powered-margin",
                      w_star=np.array([1.0, 0.0]), seed=10, kappa=1.0)
    pool = FinitePool(model.stream("pool").standard_normal((3000, 2)), model=model)
    rec = run_active(pool, ZeroOneUpdate(), ScheduleParams(mode="fixed", n=40), m=3, seed=6,
                     config_digest="pool")
    assert rec.to_json_line() == POOL_RECORD
