import csv
import dataclasses
import logging
from pathlib import Path

import numpy as np
import pytest

from halfspace_active import data_models as dm
from halfspace_active import harness
from halfspace_active.data_models import DataModel
from halfspace_active.driver import ConvexUpdate, ScheduleParams, ZeroOneUpdate, run_passive
from halfspace_active.errors import ConfigError
from halfspace_active.geometry import normalize
from halfspace_active.harness import (
    CheckRow,
    CurvePoint,
    ExperimentConfig,
    check_gradient_finite_difference,
    check_psi_transform,
    check_query_rule_equivalence,
    curve_fits,
    empirical_process_gap_profile,
    export_results,
    label_complexity_curve,
    angle_disagreement_report,
)
from halfspace_active.losses import truncated_quadratic_loss
from halfspace_active.streams import substream

logging.disable(logging.WARNING)

TQ = truncated_quadratic_loss()


def curve_config(seeds=range(6), epsilons=(0.4, 0.2), n=200):
    model = DataModel(
        2, "uniform-sphere", "powered-margin", np.array([1.0, 0.0]), seed=0, kappa=1.5
    )
    return ExperimentConfig(
        model=model,
        update=ZeroOneUpdate(),
        schedule=ScheduleParams(mode="fixed", n=n),
        epsilons=tuple(epsilons),
        seeds=tuple(seeds),
        passive_cap=50_000,
    )


class TestExperimentConfig:
    def test_epsilons_must_decrease(self):
        with pytest.raises(ConfigError):
            curve_config(epsilons=(0.1, 0.2))
        with pytest.raises(ConfigError):
            curve_config(epsilons=(0.2, 0.2))

    def test_epsilons_domain(self):
        with pytest.raises(ConfigError):
            curve_config(epsilons=(2.5, 0.2))

    def test_needs_seeds(self):
        with pytest.raises(ConfigError):
            curve_config(seeds=())

    @pytest.mark.parametrize("cap", [0, -5])
    def test_passive_cap_at_least_one(self, cap):
        with pytest.raises(ConfigError, match="passive_cap"):
            dataclasses.replace(curve_config(), passive_cap=cap)


class TestLabelComplexityCurve:
    def test_points_and_audit_identity(self):
        config = curve_config()
        result = label_complexity_curve(config)
        assert len(result.points) == 2
        # labels_active medians come from the run records (audit identity)
        per_eps = len(config.seeds)
        for i, p in enumerate(result.points):
            recs = result.records[i * per_eps : (i + 1) * per_eps]
            totals = [r.total_labels for r in recs]
            assert p.labels_active_med == np.median(totals)
            for r in recs:
                assert r.total_labels == sum(e.labels for e in r.epochs)

    def test_active_labels_grow_with_precision(self):
        result = label_complexity_curve(curve_config())
        assert result.points[1].labels_active_med > result.points[0].labels_active_med

    def test_passive_probe_table_recorded(self):
        config = curve_config()
        result = label_complexity_curve(config)
        ns = [n for n, _ in result.passive_errors]
        assert ns == sorted(ns) and len(ns) > 0
        assert all(len(errs) == len(config.seeds) for _, errs in result.passive_errors)
        assert not any(p.censored for p in result.points)

    def test_passive_iqr_ordering(self):
        result = label_complexity_curve(curve_config())
        for p in result.points:
            assert p.labels_passive_q1 <= p.labels_passive_med <= p.labels_passive_q3

    def test_censoring_at_tiny_cap(self):
        config = curve_config()
        config = ExperimentConfig(
            model=config.model, update=config.update, schedule=config.schedule,
            epsilons=(0.01,), seeds=config.seeds, passive_cap=16,
        )
        result = label_complexity_curve(config)
        assert result.points[0].censored

    def test_no_probe_above_a_small_cap(self):
        # doubling used to start at 8 whatever the cap, and reported 7 labels
        # at a cap of 4, with q3 below the median
        config = dataclasses.replace(curve_config(epsilons=(0.6,)), passive_cap=4)
        result = label_complexity_curve(config)
        assert max(n for n, _ in result.passive_errors) <= 4
        p = result.points[0]
        assert p.labels_passive_q1 <= p.labels_passive_med <= p.labels_passive_q3 <= 4

    def test_bisection_reaches_below_four_when_the_first_probe_meets_epsilon(self):
        # statistic 1/n meets 0.5 from n = 2 on; the search used to bisect
        # only [4, 8] and report 4
        probed = []

        class Stub:
            def statistic(self, n, percentile):
                probed.append(n)
                return 1.0 / n

        assert harness._bisect_labels(Stub(), 0.5, 50.0, cap=200_000) == 2
        assert probed == [8, 4, 2, 1]

    def test_logs_probes_and_cached_rows_per_target(self, caplog):
        config = curve_config(seeds=range(3))
        with caplog.at_level(logging.INFO, logger="halfspace_active.harness"):
            result = label_complexity_curve(config)
        lines = [r.getMessage() for r in caplog.records if r.name == "halfspace_active.harness"]
        assert len(lines) == len(config.epsilons)
        probes = len(result.passive_errors)
        rows = 3 * 4096 * -(-result.passive_errors[-1][0] // 4096)
        assert f"{probes} passive probes evaluated" in lines[-1]
        assert f"{rows} stream rows held over 3 seeds" in lines[-1]

    def test_fits(self):
        result = label_complexity_curve(curve_config(epsilons=(0.4, 0.2, 0.1)))
        fits = curve_fits(result, bootstrap=100, seed=1)
        assert fits.active_r2 > 0.8
        assert fits.passive_slope > 0
        lo, hi = fits.passive_slope_ci
        assert lo <= fits.passive_slope <= hi


class TestPassiveProbe:
    """Probes fit prefixes of each seed's cached stream, with the bits of fresh runs."""

    @pytest.mark.parametrize("marginal,conditional,update", [
        ("uniform-sphere", "powered-margin", ZeroOneUpdate()),
        ("uniform-ball", "powered-margin", ZeroOneUpdate()),
        ("gaussian", "powered-margin", ZeroOneUpdate()),
        ("uniform-sphere", "affine", ConvexUpdate(TQ)),
        ("uniform-ball", "affine", ConvexUpdate(TQ)),
        # the affine conditional needs bounded support
        ("gaussian", "logistic", ConvexUpdate(TQ)),
    ])
    def test_prefix_runs_match_fresh_runs(self, marginal, conditional, update):
        model = DataModel(2, marginal, conditional, np.array([0.4, 0.0]), seed=3, kappa=1.5)
        config = dataclasses.replace(curve_config(seeds=(5,)), model=model, update=update,
                                     passive_update=update)
        probe = harness._PassiveProbe(config)
        held = []
        # large, then small, then larger: the pool is regrown twice
        for n in (4096, 1, 7, 4095, 4097, 9001):
            fresh = run_passive(model, update, n, seed=5)
            assert probe.run(5, n).to_json_line() == fresh.to_json_line()
            held.append(probe.rows_held())
        assert held == [4096] * 4 + [8192, 12288]


class TestEmpiricalProcessGap:
    MODEL = DataModel(2, "uniform-sphere", "affine", np.array([0.4, 0.0]))

    def test_gap_positive_and_monotone_in_r(self):
        prof = empirical_process_gap_profile(
            TQ, self.MODEL, [0.2, 0.4, 0.8], n=200, trials=5, candidates=32,
            rng=substream(0, "gap"),
        )
        assert 0 < prof[0.2] <= prof[0.4] <= prof[0.8]

    def test_gap_shrinks_with_more_samples(self):
        small = empirical_process_gap_profile(TQ, self.MODEL, [0.4], 100, 20, 64, substream(1, "a"))
        large = empirical_process_gap_profile(TQ, self.MODEL, [0.4], 6400, 20, 64, substream(1, "b"))
        assert large[0.4] < small[0.4]

    def test_tiny_radius_tiny_gap(self):
        gap = empirical_process_gap_profile(TQ, self.MODEL, [1e-4], 400, 5, 32, substream(2, "c"))
        assert gap[1e-4] < 1e-3

    def test_one_quadrature_call_per_radius_per_trial(self, monkeypatch):
        # the base risk once, then one batched call for every candidate set
        calls = []
        real = dm.exact_surrogate_risk

        def counted(*args):
            calls.append(np.shape(args[2]))
            return real(*args)

        for module in (dm, harness):
            monkeypatch.setattr(module, "exact_surrogate_risk", counted)
        empirical_process_gap_profile(
            TQ, self.MODEL, [0.2, 0.4, 0.8], n=50, trials=4, candidates=16,
            rng=substream(0, "count"),
        )
        assert calls == [(2,)] + [(16, 2)] * (4 * 3)

    def test_margin_blocks_do_not_change_the_profile(self, monkeypatch):
        args = (TQ, self.MODEL, [0.2, 0.4], 200, 3, 32)
        whole = empirical_process_gap_profile(*args, rng=substream(5, "blocks"))
        monkeypatch.setattr(harness, "_MARGIN_BLOCK", 1000)  # 5 candidates per block
        assert empirical_process_gap_profile(*args, rng=substream(5, "blocks")) == whole


class TestChecks:
    def test_query_rule_equivalence_small(self):
        rows = check_query_rule_equivalence(total=3000, seed=3)
        assert len(rows) == 15
        assert all(r.passed for r in rows)
        assert all(r.observed == 1.0 for r in rows)

    def test_query_rule_blocks_keep_the_per_pair_draws(self, monkeypatch):
        seen = []
        should_query = harness.should_query

        def recording(x, ball):
            seen.append((x.copy(), ball.center.coords))
            return should_query(x, ball)

        monkeypatch.setattr(harness, "should_query", recording)
        monkeypatch.setattr(harness, "_QUERY_RULE_BLOCK", 7)  # 20 pairs a cell: 7 + 7 + 6
        rows = check_query_rule_equivalence(total=300, seed=3)
        assert all(r.passed for r in rows)
        rng = substream(3, "query-rule-equivalence")
        expected = []
        for d in (2, 3, 10):
            for _ in range(5 * 20):  # five radii of 20 pairs each
                w = normalize(rng.standard_normal(d))
                expected.append((rng.standard_normal(d), w.coords))
        assert len(seen) == len(expected)
        for (x, c), (x_old, c_old) in zip(seen, expected):
            assert x.tobytes() == x_old.tobytes()
            assert c.tobytes() == c_old.tobytes()

    def test_psi_rows(self):
        rows = check_psi_transform()
        assert all(r.passed for r in rows)
        names = {r.check_name for r in rows}
        assert names == {"psi-closed-vs-numeric", "psi-exponential-minorant"}

    def test_gradient_rows(self):
        rows = check_gradient_finite_difference(triples=30, seed=4)
        assert rows[0].passed
        assert rows[0].observed <= 1e-5

    def test_angle_report_sphere(self):
        model = DataModel(3, "uniform-sphere", "powered-margin", np.array([1.0, 0, 0]), kappa=1.0)
        rows = angle_disagreement_report(model, 8, 100_000, substream(5, "rep"))
        assert len(rows) == 8
        assert all(r.passed for r in rows)
        assert all(r.check_name == "sphere-identity" for r in rows)

    def test_angle_report_gaussian(self):
        model = DataModel(4, "gaussian", "powered-margin", np.array([1.0, 0, 0, 0]), kappa=1.0)
        rows = angle_disagreement_report(model, 8, 100_000, substream(6, "rep"))
        assert all(r.passed for r in rows)
        assert all(r.check_name == "gaussian-lower-bound" for r in rows)


class TestExport:
    def test_files_written_and_byte_stable(self, tmp_path):
        config = curve_config()
        result = label_complexity_curve(config)
        rows = check_psi_transform()
        paths1 = export_results(
            result.records, result, rows, str(tmp_path / "a"),
            config_digest="deadbeef", master_seed=7,
        )
        paths2 = export_results(
            result.records, result, rows, str(tmp_path / "b"),
            config_digest="deadbeef", master_seed=7,
        )
        for key in paths1:
            assert Path(paths1[key]).read_bytes() == Path(paths2[key]).read_bytes()
        head = Path(paths1["curve"]).read_text(encoding="utf-8").splitlines()[0]
        assert "config_digest=deadbeef" in head and "master_seed=7" in head

    def test_curve_csv_round_trip(self, tmp_path):
        # floats are written with repr, so reading them back is exact
        result = label_complexity_curve(curve_config())
        paths = export_results(result.records, result, [], str(tmp_path), master_seed=1)
        with open(paths["curve"], encoding="utf-8") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert rows[0] == harness.CURVE_HEADER
        parsed = tuple(
            CurvePoint(*[float(v) for v in row[:7]], censored=row[7] == "true") for row in rows[1:]
        )
        assert parsed == result.points

    def test_empty_exports_have_headers(self, tmp_path):
        paths = export_results([], None, [], str(tmp_path))
        curve_lines = Path(paths["curve"]).read_text(encoding="utf-8").splitlines()
        checks_lines = Path(paths["checks"]).read_text(encoding="utf-8").splitlines()
        assert curve_lines[1].split(",") == harness.CURVE_HEADER
        assert checks_lines[1].split(",") == harness.CHECKS_HEADER
        assert Path(paths["run_records"]).read_text(encoding="utf-8") == ""

    def test_single_point_single_row(self, tmp_path):
        result = label_complexity_curve(curve_config(epsilons=(0.4,)))
        paths = export_results([], result, [], str(tmp_path))
        lines = Path(paths["curve"]).read_text(encoding="utf-8").splitlines()
        rows = [l for l in lines if not l.startswith("#")]
        assert len(rows) == 2  # header + one data row
