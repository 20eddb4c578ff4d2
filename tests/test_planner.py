"""Tests for the error-bounded AQP planner (repro.analytics.planner).

Covers plan certification, greedy partition selection, fallback
triggers, stratified execution, engine integration (including the
per-dataset cache invalidation satellite), and metrics emission.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analytics.aqp import ApproximateQueryEngine
from repro.analytics import planner as planner_module
from repro.analytics.planner import QueryPlanner
from repro.errors import ConfigurationError, DatasetNotFoundError
from repro.kernels import available_backends, numpy_available, use_backend
from repro.obs.runtime import capture
from repro.rng import SplittableRng
from repro.warehouse.catalog import Catalog
from repro.warehouse.dataset import PartitionKey
from repro.warehouse.maintenance import warehouse_delete
from repro.warehouse.parallel import SampleTask, sample_partition
from repro.warehouse.synopsis import PartitionSynopsis
from repro.warehouse.warehouse import SampleWarehouse


def exact_warehouse(*, partitions=6, per=200, seed=7, dataset="plan.exact"):
    """Warehouse where every partition carries an exact synopsis."""
    wh = SampleWarehouse(bound_values=64, rng=SplittableRng(seed))
    rng = SplittableRng(seed).spawn("values")
    for i in range(partitions):
        values = [rng.gauss(50.0 + 5.0 * i, 6.0) for _ in range(per)]
        wh.ingest_batch(dataset, values)
    return wh


def sketchy_warehouse(*, partitions=6, per=300, seed=11,
                      dataset="plan.sketch", live_bound=64, sketch_bound=8):
    """Warehouse whose synopses come from coarse sketches, so the live
    samples carry much more information than the stored statistics —
    the regime where selection actually pays."""
    wh = SampleWarehouse(bound_values=live_bound, rng=SplittableRng(seed))
    rng = SplittableRng(seed).spawn("values")
    truth = 0.0
    for i in range(partitions):
        values = [rng.gauss(40.0 + 10.0 * i, 5.0 + i) for _ in range(per)]
        truth += sum(values)
        srng = SplittableRng(seed).spawn("sample", i)
        live = sample_partition(SampleTask(
            values=values, scheme="hr", bound_values=live_bound,
            seed=srng.spawn("live").seed_value))
        sketch = sample_partition(SampleTask(
            values=values, scheme="hr", bound_values=sketch_bound,
            seed=srng.spawn("sketch").seed_value))
        wh.ingest_sample(
            PartitionKey(dataset, 0, i), live,
            synopsis=PartitionSynopsis.from_sample(sketch))
    return wh, truth


def aqp_warehouse(shape, *, partitions=128, per=1_500, seed=2006):
    """A mixed warehouse at scale: every 4th partition arrives as a
    foreign sample whose synopsis was estimated upstream from a
    32-value sketch; the rest carry exact synopses.  Values are uniform
    on 1..1000 or log-uniform over three decades (a heavy right tail
    without unbounded outliers)."""
    rng = SplittableRng(seed)
    data = rng.spawn("data", shape)
    wh = SampleWarehouse(bound_values=256, scheme="hr",
                         rng=rng.spawn("wh", shape))
    dataset = f"aqp.{shape}"
    for i in range(partitions):
        if shape == "uniform":
            values = [float(data.randrange(1_000) + 1) for _ in range(per)]
        else:
            values = [100.0 + 10.0 ** (3.0 * data.random())
                      for _ in range(per)]
        live = sample_partition(SampleTask(
            values=values, scheme="hr", bound_values=256,
            seed=rng.spawn("live", i).seed_value))
        if i % 4 == 0:
            sketch = sample_partition(SampleTask(
                values=values, scheme="hr", bound_values=32,
                seed=rng.spawn("sketch", i).seed_value))
            synopsis = PartitionSynopsis.from_sample(sketch)
        else:
            synopsis = PartitionSynopsis.from_values(values)
        wh.ingest_sample(PartitionKey(dataset, 0, i), live,
                         synopsis=synopsis)
    return wh, dataset


def tied_warehouse(*, partitions=64, per=300, seed=5,
                   dataset="plan.tied"):
    """Every fourth partition carries one shared sketch-estimated
    synopsis, the rest one exact synopsis, all the same live sample: the
    unselected variances tie within each group, so every order the
    planner builds rests on its key tie-break (and ``.../0/10`` sorts
    after ``.../0/9`` by key, before it as text)."""
    wh = SampleWarehouse(bound_values=64, scheme="hr",
                         rng=SplittableRng(seed))
    rng = SplittableRng(seed).spawn("values")
    values = [rng.gauss(100.0, 20.0) for _ in range(per)]
    live = sample_partition(SampleTask(
        values=values, scheme="hr", bound_values=64,
        seed=rng.spawn("live").seed_value))
    sketch = PartitionSynopsis.from_sample(sample_partition(SampleTask(
        values=values, scheme="hr", bound_values=8,
        seed=rng.spawn("sketch").seed_value)))
    exact = PartitionSynopsis.from_values(values)
    for i in range(partitions):
        wh.ingest_sample(PartitionKey(dataset, 0, i), live,
                         synopsis=sketch if i % 4 == 3 else exact)
    return wh


def eager_ranking(wh, dataset):
    """``(str(key), unselected variance)`` per stratum, sorted as
    planning sorted them eagerly before the ranking became lazy."""
    def unselected(meta):
        s = meta.synopsis
        return 0.0 if s.exact else s.count ** 2 * s.variance / s.basis

    metas = wh.catalog.partitions(dataset)
    return [(str(m.key), unselected(m))
            for m in sorted(metas, key=lambda m: (-unselected(m), m.key))]


class TestPlanCertification:
    def test_exact_synopses_certify_without_selection(self):
        wh = exact_warehouse()
        plan = QueryPlanner(wh).plan("plan.exact", "sum",
                                     target_half_width=1.0)
        assert plan.certified and not plan.fallback
        assert plan.selected == ()
        assert plan.predicted_half_width == 0.0
        assert len(plan.synopsis_keys) == plan.total_partitions == 6

    def test_count_certifies_with_zero_reads(self):
        wh = exact_warehouse()
        plan = QueryPlanner(wh).plan("plan.exact", "count",
                                     target_half_width=0.0)
        assert plan.certified and plan.selected == ()
        est = QueryPlanner(wh).execute(plan)
        assert est.value == 6 * 200 and est.exact

    def test_estimated_synopses_force_selection(self):
        wh, _ = sketchy_warehouse()
        planner = QueryPlanner(wh)
        loose = planner.plan("plan.sketch", "sum", target_half_width=0.5,
                             relative=True)
        tight = planner.plan("plan.sketch", "sum", target_half_width=0.02,
                             relative=True)
        assert loose.certified and tight.certified
        assert len(tight.selected) > len(loose.selected)
        assert tight.predicted_half_width <= tight.target_half_width

    def test_greedy_picks_highest_gain_first(self):
        wh, _ = sketchy_warehouse()
        planner = QueryPlanner(wh)
        # Sweep targets from loose to tight: the selected sets must be
        # nested (greedy order is a fixed ranking by gain).
        prev = None
        for frac in (0.5, 0.2, 0.1, 0.05, 0.02):
            plan = planner.plan("plan.sketch", "sum",
                                target_half_width=frac, relative=True)
            chosen = set(plan.selected)
            if prev is not None:
                assert prev <= chosen
            prev = chosen

    def test_avg_plans_in_sum_space(self):
        wh, _ = sketchy_warehouse()
        plan = QueryPlanner(wh).plan("plan.sketch", "avg",
                                     target_half_width=0.05, relative=True)
        assert plan.certified
        est = QueryPlanner(wh).execute(plan)
        assert est.ci_low <= est.value <= est.ci_high

    def test_ranked_orders_by_unselected_variance(self):
        wh, _ = sketchy_warehouse()
        plan = QueryPlanner(wh).plan("plan.sketch", "sum",
                                     target_half_width=0.1, relative=True)
        weights = [w for _, w in plan.ranked]
        assert weights == sorted(weights, reverse=True)


class TestLazyRanking:
    """Planning neither sorts every stratum nor prints a key; the
    ranking is built when ``plan.ranked`` is read, in the eager order."""

    @pytest.mark.parametrize("agg", ["sum", "avg"])
    def test_planning_ranks_nothing_until_asked(self, agg, monkeypatch):
        wh = tied_warehouse()
        printed, sorts = [], []
        key_str = PartitionKey.__str__

        def counting_str(key):
            printed.append(key)
            return key_str(key)

        def counting_sorted(items, **kwargs):
            items = list(items)
            sorts.append(len(items))
            return sorted(items, **kwargs)

        monkeypatch.setattr(PartitionKey, "__str__", counting_str)
        monkeypatch.setattr(planner_module, "sorted", counting_sorted,
                            raising=False)
        plan = QueryPlanner(wh).plan("plan.tied", agg,
                                     target_half_width=0.005,
                                     relative=True)
        assert plan.certified and plan.selected
        assert plan.total_partitions == 64
        assert printed == []
        assert sorts and max(sorts) == 16    # the selection candidates
        ranked = plan.ranked
        assert sorts[-1] == 64 and len(printed) == 64
        monkeypatch.undo()

        expected = eager_ranking(wh, "plan.tied")
        assert list(ranked) == expected
        assert [str(k) for k, _ in plan.stratum_variances] \
            != [k for k, _ in expected]
        summary = ApproximateQueryEngine(wh).plan_summary(
            "plan.tied", agg, target_half_width=0.005,
            relative_target=True)
        assert summary["ranked"] == [list(pair) for pair in expected[:8]]


class TestExecuteWork:
    """A warm planned sum/avg that reads stored strata converts no keys
    and looks up no catalog record: the plan carries the records it
    read, and each stored sample keeps its float view."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("agg", ["sum", "avg"])
    def test_warm_execute_converts_and_looks_up_nothing(self, agg, backend,
                                                        monkeypatch):
        wh, _ = sketchy_warehouse()
        planner = QueryPlanner(wh)
        with use_backend(backend):
            plan = planner.plan("plan.sketch", agg, target_half_width=0.02,
                                relative=True)
            assert plan.certified and plan.selected and plan.synopsis_keys
            cold = planner.execute(plan)
            calls = []
            if numpy_available():
                import numpy as np
                fromiter = np.fromiter

                def counting_fromiter(*args, **kwargs):
                    calls.append("fromiter")
                    return fromiter(*args, **kwargs)

                monkeypatch.setattr(np, "fromiter", counting_fromiter)
            get = Catalog.get

            def counting_get(catalog, key):
                calls.append("get")
                return get(catalog, key)

            monkeypatch.setattr(Catalog, "get", counting_get)
            warm = planner.execute(plan)
            monkeypatch.undo()
        assert calls == []
        assert repr(warm) == repr(cold) and warm == cold

    def test_carried_records_see_in_place_maintenance(self):
        wh, _ = sketchy_warehouse()
        planner = QueryPlanner(wh)
        plan = planner.plan("plan.sketch", "sum", target_half_width=0.02,
                            relative=True)
        assert plan.selected and plan.synopsis_keys
        before = planner.execute(plan)
        key = plan.synopsis_keys[0]
        value = next(wh.sample_for(key).histogram.values())
        warehouse_delete(wh, key, value, parent_count=1)
        after = planner.execute(plan)
        assert after != before
        # The same plan with no carried records reads the catalog.
        assert after == planner.execute(dataclasses.replace(plan, records=()))
        wh.catalog.get(key).synopsis = None
        with pytest.raises(ConfigurationError, match="lost its synopsis"):
            planner.execute(plan)


class TestFallbacks:
    def test_missing_synopsis_falls_back(self):
        wh = exact_warehouse(partitions=2, dataset="plan.bare")
        # Simulate a record persisted by a pre-synopsis producer: strip
        # one partition's statistics and re-register it.
        meta = wh.catalog.partitions("plan.bare")[0]
        wh.catalog.register(dataclasses.replace(meta, synopsis=None),
                            replace=True)
        plan = QueryPlanner(wh).plan("plan.bare", "sum",
                                     target_half_width=1.0)
        assert plan.fallback and not plan.certified
        assert "no usable synopsis" in plan.reason

    def test_unreachable_bound_falls_back(self):
        wh, _ = sketchy_warehouse()
        plan = QueryPlanner(wh).plan("plan.sketch", "sum",
                                     target_half_width=0.0001, relative=True)
        assert plan.fallback
        assert "not certifiable" in plan.reason

    def test_unknown_dataset_raises(self):
        wh = exact_warehouse()
        with pytest.raises(DatasetNotFoundError):
            QueryPlanner(wh).plan("no.such.dataset", "sum",
                                  target_half_width=1.0)

    def test_all_rolled_out_falls_back(self):
        wh = exact_warehouse(partitions=2, dataset="plan.empty")
        for meta in wh.catalog.partitions("plan.empty"):
            wh.roll_out(meta.key)
        plan = QueryPlanner(wh).plan("plan.empty", "sum",
                                     target_half_width=1.0)
        assert plan.fallback
        assert "no partitions" in plan.reason

    def test_bad_arguments_raise(self):
        wh = exact_warehouse()
        planner = QueryPlanner(wh)
        with pytest.raises(ConfigurationError):
            planner.plan("plan.exact", "median", target_half_width=1.0)
        with pytest.raises(ConfigurationError):
            planner.plan("plan.exact", "sum", target_half_width=-1.0)
        with pytest.raises(ConfigurationError):
            planner.plan("plan.exact", "sum", target_half_width=1.0,
                         confidence=1.5)

    @pytest.mark.parametrize("target", [float("nan"), float("inf"),
                                        float("-inf")])
    def test_non_finite_target_raises(self, target):
        # NaN slips past a plain `< 0` check; both it and inf would
        # otherwise reach the served plan block as non-JSON tokens.
        planner = QueryPlanner(exact_warehouse())
        for agg in ("count", "sum", "avg"):
            with pytest.raises(ConfigurationError, match="finite"):
                planner.plan("plan.exact", agg, target_half_width=target)
        with pytest.raises(ConfigurationError, match="finite"):
            ApproximateQueryEngine(planner._warehouse).sum(
                "plan.exact", target_half_width=target)

    def test_execute_rejects_fallback_plan(self):
        wh, _ = sketchy_warehouse()
        planner = QueryPlanner(wh)
        plan = planner.plan("plan.sketch", "sum",
                            target_half_width=0.0001, relative=True)
        assert plan.fallback
        with pytest.raises(ConfigurationError):
            planner.execute(plan)


class TestExecution:
    def test_sum_interval_contains_point_estimate(self):
        wh, truth = sketchy_warehouse()
        planner = QueryPlanner(wh)
        plan = planner.plan("plan.sketch", "sum", target_half_width=0.05,
                            relative=True)
        assert plan.certified
        est = planner.execute(plan)
        assert est.ci_low <= est.value <= est.ci_high
        assert est.confidence == plan.confidence
        # The realized half-width respects the certificate's order of
        # magnitude (the certificate is conservative, not exact).
        assert (est.ci_high - est.ci_low) / 2 <= 3 * plan.predicted_half_width

    def test_plan_to_dict_is_json_shaped(self):
        wh, _ = sketchy_warehouse()
        plan = QueryPlanner(wh).plan("plan.sketch", "sum",
                                     target_half_width=0.05, relative=True)
        d = plan.to_dict()
        assert d["dataset"] == "plan.sketch"
        assert d["agg"] == "sum"
        assert isinstance(d["selected"], list)
        assert all(isinstance(k, str) for k in d["selected"])
        assert d["total_partitions"] == 6
        assert d["certified"] is True and d["fallback"] is False


class TestEngineIntegration:
    def test_planned_sum_agrees_with_merge_all(self):
        wh, truth = sketchy_warehouse()
        engine = ApproximateQueryEngine(wh)
        planned = engine.sum("plan.sketch", target_half_width=0.05,
                             relative_target=True)
        merged = engine.sum("plan.sketch")
        # Both are unbiased estimates of the same total; their CIs
        # must overlap and both should bracket near the truth scale.
        assert planned.ci_low <= merged.ci_high
        assert merged.ci_low <= planned.ci_high
        assert abs(planned.value - truth) / truth < 0.5

    def test_predicate_bypasses_planner(self):
        wh = exact_warehouse()
        engine = ApproximateQueryEngine(wh)
        est = engine.count("plan.exact", where=lambda v: v > 50.0,
                           target_half_width=1.0)
        # The planner cannot price a predicate; the legacy merge path
        # must serve it (non-exact, nonzero CI possible).
        assert 0 < est.value < 6 * 200

    def test_plan_summary_reports_selection(self):
        wh, _ = sketchy_warehouse()
        engine = ApproximateQueryEngine(wh)
        summary = engine.plan_summary("plan.sketch", "sum",
                                      target_half_width=0.05,
                                      relative_target=True)
        assert summary["certified"] is True
        assert summary["total_partitions"] == 6
        assert len(summary["ranked"]) <= 8

    def test_estimate_to_dict_round_trip_fields(self):
        wh = exact_warehouse()
        engine = ApproximateQueryEngine(wh)
        est = engine.sum("plan.exact", target_half_width=1.0)
        d = est.to_dict()
        for field in ("value", "ci_low", "ci_high", "confidence", "exact",
                      "sample_size", "population_size"):
            assert field in d
        assert d["value"] == est.value
        assert d["confidence"] == est.confidence

    def test_merge_all_and_planned_sum_fold_alike(self):
        """Merge-all totals its exhaustive sample left to right, like
        the exact synopsis the planner reads, so both paths give the
        same bytes on every Python version (builtin ``sum`` compensates
        on 3.12+ and would return 1.0 here)."""
        wh = SampleWarehouse(bound_values=64, rng=SplittableRng(3))
        wh.ingest_batch("fold", [1e16, 1.0, -1e16])
        engine = ApproximateQueryEngine(wh)
        merged = engine.sum("fold")
        planned = engine.sum("fold", target_half_width=1.0)
        assert merged.exact and planned.exact
        assert merged.value == 0.0
        assert planned.value == 0.0


class TestAcceptanceAtScale:
    """The planner's acceptance bar as work counts, not wall-clock: at
    128 partitions with a quarter of the synopses estimated, a 2 %
    relative target certifies from synopses and reads at most half the
    partitions, so a planned query does at most half of merge-all's
    partition reads."""

    @pytest.fixture(scope="class", params=["uniform", "log-uniform"])
    def warehouse(self, request):
        return aqp_warehouse(request.param)

    @pytest.mark.parametrize("agg", ["count", "sum", "avg"])
    def test_certifies_reading_at_most_half(self, warehouse, agg):
        wh, dataset = warehouse
        summary = ApproximateQueryEngine(wh).plan_summary(
            dataset, agg, target_half_width=0.02, relative_target=True)
        assert summary["total_partitions"] == 128
        assert summary["certified"] and not summary["fallback"]
        assert len(summary["selected"]) <= 128 // 2


class TestInvalidation:
    def test_mutation_invalidates_only_touched_dataset(self):
        """The engine keeps no state between queries, so a mutation of
        one dataset moves that dataset's answers and leaves its
        neighbour's byte-identical."""
        wh = SampleWarehouse(bound_values=64, rng=SplittableRng(3))
        rng = SplittableRng(3).spawn("v")
        wh.ingest_batch("inv.a", [rng.gauss(10, 2) for _ in range(300)])
        wh.ingest_batch("inv.b", [rng.gauss(90, 2) for _ in range(300)])
        engine = ApproximateQueryEngine(wh)
        before_a = engine.sum("inv.a").to_dict()
        before_b = engine.sum("inv.b").to_dict()
        assert engine.sum("inv.a").to_dict() == before_a
        wh.ingest_batch("inv.a", [rng.gauss(10, 2) for _ in range(100)])
        assert engine.sum("inv.b").to_dict() == before_b
        assert engine.sum("inv.a").to_dict() != before_a
        summary = engine.sampling_summary("inv.a")
        assert summary["population_size"] == 400


class TestMetrics:
    def test_plan_emits_planner_instruments(self):
        wh, _ = sketchy_warehouse()
        planner = QueryPlanner(wh)
        with capture() as (registry, _sink):
            planner.plan("plan.sketch", "sum", target_half_width=0.05,
                         relative=True)
            # An unreachable bound records a planner fallback.
            planner.plan("plan.sketch", "sum", target_half_width=0.0001,
                         relative=True)
            snapshot = registry.snapshot()
        assert snapshot["aqp.planner.partitions.total"]["value"] == 12
        assert snapshot["aqp.planner.partitions.selected"]["value"] >= 1
        assert snapshot["aqp.planner.fallback"]["value"] == 1
        assert snapshot["aqp.planner.seconds"]["count"] == 2
