import csv
import dataclasses
import logging
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from halfspace_active import data_models as dm
from halfspace_active import harness
from halfspace_active.data_models import DataModel
from halfspace_active.driver import (
    ConvexUpdate,
    ScheduleParams,
    ZeroOneUpdate,
    epochs_for_target,
    run_passive,
)
from halfspace_active.errors import ConfigError, DegenerateSolution
from halfspace_active.geometry import HypothesisBall, disagreement_exists_oracle, normalize
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

    def test_seeds_distinct(self):
        with pytest.raises(ConfigError, match="distinct"):
            curve_config(seeds=(0, 1, 0))

    def test_needs_epsilons(self):
        with pytest.raises(ConfigError, match="at least one epsilon"):
            curve_config(epsilons=())

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
        # 2-D rows and labels take 24 bytes a row, their sweep tables 27
        assert f"in {rows * 51} bytes, {rows * 27} of them sweep tables" in lines[-1]

    def test_fits(self):
        result = label_complexity_curve(curve_config(epsilons=(0.4, 0.2, 0.1)))
        fits = curve_fits(result, bootstrap=100, seed=1)
        assert fits.active_r2 > 0.8
        assert fits.passive_slope > 0
        lo, hi = fits.passive_slope_ci
        assert lo <= fits.passive_slope <= hi


class TestActiveArm:
    """Each seed's active loop runs once, at the deepest target, and every
    target's record is the one its own m-epoch run returns."""

    @pytest.mark.parametrize("schedule, reused", [
        (ScheduleParams(mode="fixed", n=60), True),
        (ScheduleParams(mode="geometric", n0=20, ratio=1.5), True),
        # the theory budgets read m, so m = 2 budgets differ from the m = 3 run's
        (ScheduleParams(mode="theory-nonconvex", kappa=1.5), False),
    ])
    def test_records_equal_fresh_runs(self, monkeypatch, schedule, reused):
        config = dataclasses.replace(curve_config(seeds=(0, 3)), schedule=schedule,
                                     passive_cap=64)
        # ExperimentConfig keeps its targets strictly decreasing; the active
        # arm reads no order from them, so give them unordered and with a
        # repeat (0.3 and 0.26 both take m = 3, 0.9 takes m = 2)
        object.__setattr__(config, "epsilons", (0.3, 0.9, 0.26, 0.3))
        calls, run = [], harness.run_active

        def counting(*args, **kwargs):
            calls.append((kwargs["seed"], kwargs["m"]))
            return run(*args, **kwargs)

        monkeypatch.setattr(harness, "run_active", counting)
        result = label_complexity_curve(config, config_digest="abc")
        fresh = [
            run(config.model, config.update, schedule, m=epochs_for_target(eps),
                              seed=seed, config_digest="abc")
            for eps in config.epsilons for seed in config.seeds
        ]
        assert [r.to_json_line() for r in result.records] == [r.to_json_line() for r in fresh]
        assert [r.final_w for r in result.records] == [r.final_w for r in fresh]
        assert [[e.w_k for e in r.epochs] for r in result.records] == \
            [[e.w_k for e in r.epochs] for r in fresh]
        deep = [(0, 3), (3, 3)]
        assert calls == (deep if reused else deep + [(0, 2), (3, 2)])

    def test_failed_deep_run_leaves_each_target_its_own_run(self, monkeypatch):
        config = curve_config(seeds=(0, 3), epsilons=(0.9, 0.3))
        calls, run = [], harness.run_active

        def failing(*args, **kwargs):
            calls.append((kwargs["seed"], kwargs["m"]))
            if calls[-1] == (3, 3):
                raise DegenerateSolution("forced failure")
            return run(*args, **kwargs)

        monkeypatch.setattr(harness, "run_active", failing)
        with pytest.raises(DegenerateSolution, match="forced failure"):
            label_complexity_curve(config)
        # seed 3's m = 2 target runs alone; its m = 3 target fails as it would alone
        assert calls == [(0, 3), (3, 3), (3, 2), (3, 3)]


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

    def test_bisection_probes_share_one_table(self):
        # probes in bisection order filter one sorted table; the longer pool
        # that a larger probe draws sorts a table of its own
        model = DataModel(2, "uniform-sphere", "powered-margin", np.array([1.0, 0.0]),
                          seed=3, kappa=1.5)
        probe = harness._PassiveProbe(dataclasses.replace(curve_config(seeds=(5,)), model=model))
        tables = []
        for n in (8, 16, 32, 24, 20, 22, 21, 4097, 30):
            fresh = run_passive(model, ZeroOneUpdate(), n, seed=5)
            assert probe.run(5, n).to_json_line() == fresh.to_json_line()
            tables.append(probe.pools[5]._table)
        assert len(set(map(id, tables[:7]))) == 1 and tables[7] is tables[8] is not tables[0]
        assert probe.bytes_held() == (8192 * (24 + 27), 8192 * 27)


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


def _traced_peak(call) -> int:
    """Bytes that ``call`` holds at once, by tracemalloc, after a first call
    has built the caches and imports that later calls share."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """The check suites' Monte Carlo kernels stream through small blocks, so
    their working set does not grow with the draw count."""

    BOUND = 2 << 20

    def test_disagreement_probability(self):
        model = DataModel(5, "uniform-sphere", "powered-margin", np.eye(5)[0], kappa=1.0)
        u, v = np.random.default_rng(0).standard_normal((2, 5))
        assert _traced_peak(lambda: dm.disagreement_probability(
            model, u, v, n_mc=200_000, rng=substream(0, "mc"))) <= self.BOUND

    def test_empirical_process_gap_profile(self):
        model = DataModel(2, "uniform-sphere", "affine", np.array([0.8, 0.0]))
        assert _traced_peak(lambda: empirical_process_gap_profile(
            TQ, model, [0.4], n=1600, trials=1, candidates=128,
            rng=substream(0, "gap"))) <= self.BOUND


class TestChecks:
    def test_query_rule_equivalence_small(self):
        rows = check_query_rule_equivalence(total=3000, seed=3)
        assert len(rows) == 15
        assert all(r.passed for r in rows)
        assert all(r.observed == 1.0 for r in rows)

    def test_query_rule_blocks_draw_a_center_then_its_rows(self, monkeypatch):
        seen = []
        query_mask = harness.query_mask

        def recording(X, ball):
            seen.append((X.copy(), ball.center.coords))
            return query_mask(X, ball)

        monkeypatch.setattr(harness, "query_mask", recording)
        monkeypatch.setattr(harness, "_QUERY_RULE_BLOCK", 7)  # 20 rows a cell: 7 + 7 + 6
        rows = check_query_rule_equivalence(total=300, seed=3)
        assert all(r.passed for r in rows)
        rng = substream(3, "query-rule-equivalence")
        expected = []
        for d in (2, 3, 10):
            for _ in range(5):  # five radii, three blocks each
                for n in (7, 7, 6):
                    w = normalize(rng.standard_normal(d))
                    expected.append((rng.standard_normal((n, d)), w.coords))
        assert len(seen) == len(expected)
        for (X, c), (X_old, c_old) in zip(seen, expected):
            assert X.tobytes() == X_old.tobytes()
            assert c.tobytes() == c_old.tobytes()

    @pytest.mark.parametrize("name", ["query_mask", "should_query"])
    def test_one_wrong_verdict_fails_its_cell(self, monkeypatch, name):
        # the first call flips one row's verdict: the last row of the first
        # block's batch, which no scalar call sees (at r = 2 the first rows
        # are spot-checked), or the first block's first spot-checked row
        original = getattr(harness, name)
        calls = []

        def flipped(x, ball):
            out = original(x, ball)
            calls.append(ball)
            if len(calls) == 1:
                if name == "query_mask":
                    out = out.copy()
                    out[-1] = not out[-1]
                else:
                    out = not out
            return out

        monkeypatch.setattr(harness, name, flipped)
        rows = check_query_rule_equivalence(total=3000, seed=3)
        per_cell = 3000 // 15
        assert (calls[0].dim, calls[0].radius) == (2, 2.0)  # the first cell
        assert rows[0].passed is False
        assert rows[0].observed == (per_cell - 1) / per_cell
        assert all(r.passed and r.observed == 1.0 for r in rows[1:])

    @pytest.mark.parametrize("d", [2, 3, 10])
    def test_arc_oracle_matches_the_scalar_oracle(self, d):
        rng = substream(8, "arc-oracle", d)
        for r in (2.0, 1.0, 0.5, 0.25, 0.125):
            ball = HypothesisBall(normalize(rng.standard_normal(d)), r)
            X = rng.standard_normal((300, d))
            arc, edge = harness._arc_query_mask(X, ball)
            assert arc.tolist() == [disagreement_exists_oracle(x, ball) for x in X]
            assert np.all(edge >= 0.0)

    @pytest.mark.parametrize("d", [2, 3, 10])
    def test_arc_oracle_queries_ties(self, d):
        # integer rows a·e_i + b·e_j with a² + b² = c²: the cosine with ±e_i is
        # a/c rounded once, whatever the summation order; a radius whose half
        # angle is exactly the row's arc offset must query, and one whose half
        # angle is smaller must not (np.arccos and math.acos may differ in the
        # last bit, so a tie of one oracle need not be a tie of the other)
        triples = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (9, 40, 41)]
        ties = 0
        for k, (a, b, c) in enumerate(triples):
            i, j = k % d, (k + 1) % d
            for sign in (1.0, -1.0):
                x = np.zeros(d)
                x[i], x[j] = a, b
                center = np.zeros(d)
                center[i] = sign
                off = abs(math.acos(a / c) - math.pi / 2.0)
                r0 = 2.0 * math.sin(off / 2.0)
                for r in [r0 + step * math.ulp(r0) for step in range(-8, 9)]:
                    ball = HypothesisBall(normalize(center), r)
                    arc, edge = harness._arc_query_mask(x[None, :], ball)
                    if edge[0] == 0.0:
                        ties += 1
                        assert arc[0]
                        below = HypothesisBall(ball.center, r - 4 * math.ulp(r))
                        assert below.half_angle < ball.half_angle
                        assert not harness._arc_query_mask(x[None, :], below)[0][0]
        assert ties >= len(triples)  # most rows have a tying radius

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
