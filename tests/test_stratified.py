"""Tests for StratifiedSample and stratified access through the engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.aqp import ApproximateQueryEngine
from repro.analytics.estimators import (StratifiedSample,
                                        stratified_partition_estimate)
from repro.core.hybrid_reservoir import AlgorithmHR
from repro.errors import ConfigurationError
from repro.rng import SplittableRng
from repro.warehouse.warehouse import SampleWarehouse


def stratum(values, bound, rng):
    hr = AlgorithmHR(bound_values=bound, rng=rng)
    hr.feed_many(values)
    return hr.finalize()


class TestConstruction:
    def test_needs_strata(self):
        with pytest.raises(ConfigurationError):
            StratifiedSample([])

    def test_accounting(self, rng):
        s = StratifiedSample([
            stratum(list(range(1000)), 32, rng.spawn(0)),
            stratum(list(range(1000, 3000)), 32, rng.spawn(1)),
        ])
        assert s.num_strata == 2
        assert s.population_size == 3000
        assert s.size == 64
        assert len(s.values()) == 64


class TestEstimators:
    def test_exact_when_all_exhaustive(self, rng):
        s = StratifiedSample([
            stratum([1, 2, 3], 100, rng.spawn(0)),
            stratum([4, 5], 100, rng.spawn(1)),
        ])
        est = s.estimate_sum()
        assert est.value == 15.0
        assert est.exact
        avg = s.estimate_avg()
        assert avg.value == 3.0

    def test_sum_accuracy(self, rng):
        strata = [stratum(list(range(i * 10_000, (i + 1) * 10_000)), 256,
                          rng.spawn(i)) for i in range(4)]
        s = StratifiedSample(strata)
        truth = sum(range(40_000))
        est = s.estimate_sum()
        assert abs(est.value - truth) / truth < 0.05
        assert est.ci_low < est.value < est.ci_high

    def test_count_with_predicate(self, rng):
        strata = [stratum(list(range(i * 5_000, (i + 1) * 5_000)), 256,
                          rng.spawn(i)) for i in range(2)]
        s = StratifiedSample(strata)
        est = s.estimate_count(where=lambda v: v < 5_000)
        # The predicate aligns with stratum 0 exactly: stratified
        # estimation nails it (zero between-strata leakage).
        assert est.value == pytest.approx(5_000.0)

    def test_stratification_beats_merging_on_drifted_data(self, rng):
        """When stratum means differ wildly, the stratified estimator's
        interval is tighter than the merged-sample estimator's."""
        from repro.analytics.estimators import estimate_avg
        from repro.core.merge import merge_tree

        strata = []
        for i in range(4):
            base = i * 1_000_000  # strong drift between partitions
            strata.append(stratum([base + v for v in range(8_000)], 128,
                                  rng.spawn("s", i)))
        stratified = StratifiedSample(strata).estimate_avg()
        merged = estimate_avg(merge_tree(strata, rng=rng.spawn("m")))
        assert stratified.half_width < merged.half_width

    def test_avg_empty_population(self):
        with pytest.raises(ConfigurationError):
            s = StratifiedSample.__new__(StratifiedSample)
            s._strata = []
            s.estimate_avg()


class TestSinglePath:
    """StratifiedSample is a container over the planner's estimator."""

    @given(st.lists(st.tuples(st.integers(1, 400),     # values
                              st.integers(4, 64),      # bound
                              st.integers(0, 10**6)),  # seed
                    min_size=1, max_size=4),
           st.sampled_from([0.8, 0.95]))
    @settings(max_examples=40, deadline=None)
    def test_estimates_equal_stratified_partition_estimate(self, specs,
                                                          confidence):
        strata = [stratum([(i * 7_919 + seed) % 1_000 / 8.0
                           for i in range(n)], bound, SplittableRng(seed))
                  for n, bound, seed in specs]
        s = StratifiedSample(strata)
        sampled = [(h.population_size, h) for h in strata]

        def where(v):
            return v < 60.0

        for agg, got in (("sum", s.estimate_sum(confidence=confidence)),
                         ("avg", s.estimate_avg(confidence=confidence))):
            want = stratified_partition_estimate(
                agg, sampled=sampled, confidence=confidence)
            assert got.to_dict() == want.to_dict()
        want = stratified_partition_estimate(
            "sum", sampled=sampled, confidence=confidence,
            value_fn=lambda v: 1.0 if where(v) else 0.0)
        got = s.estimate_count(where=where, confidence=confidence)
        assert got.to_dict() == want.to_dict()


class TestExactFlag:
    """``exact`` follows the strata, not a zero variance."""

    def test_equal_valued_reservoir_is_not_exact(self):
        import dataclasses

        from repro.analytics.estimators import estimate_sum
        from repro.analytics.planner import QueryPlanner
        from repro.core.histogram import CompactHistogram
        from repro.core.phases import SampleKind
        from repro.core.sample import WarehouseSample
        from repro.warehouse.dataset import PartitionKey

        sample = WarehouseSample(
            histogram=CompactHistogram.from_values([5.0] * 10),
            kind=SampleKind.RESERVOIR, population_size=1_000,
            bound_values=10, scheme="hr")
        single = estimate_sum(sample)
        stratified = stratified_partition_estimate(
            "sum", sampled=[(1_000, sample)])
        container = StratifiedSample([sample]).estimate_sum()
        wh = SampleWarehouse(bound_values=10, rng=SplittableRng(1))
        key = PartitionKey("t.v", 0, 0)
        wh.ingest_sample(key, sample)
        planner = QueryPlanner(wh)
        plan = dataclasses.replace(
            planner.plan("t.v", "sum", target_half_width=1.0),
            selected=(key,), synopsis_keys=(), fallback=False)
        planned = planner.execute(plan)
        for got in (stratified, container, planned):
            assert got.value == single.value == 5_000.0
            assert got.exact is single.exact is False

    def test_exhaustive_and_exact_synopsis_strata_are_exact(self):
        from repro.warehouse.synopsis import PartitionSynopsis

        whole = stratum([1.0, 2.0, 3.0], 64, SplittableRng(2))
        assert whole.kind.is_exhaustive
        got = stratified_partition_estimate(
            "sum", sampled=[(3, whole)],
            synopses=[PartitionSynopsis.from_values([4.0, 5.0])])
        assert got.exact and got.value == 15.0


class TestWarehouseIntegration:
    def test_stratified_sample(self):
        wh = SampleWarehouse(bound_values=64, rng=SplittableRng(12))
        wh.ingest_batch("d", list(range(20_000)), partitions=5)
        s = ApproximateQueryEngine(wh).stratified_sample("d")
        assert s.num_strata == 5
        assert s.population_size == 20_000

    def test_label_selection(self):
        wh = SampleWarehouse(bound_values=64, rng=SplittableRng(12))
        wh.ingest_batch("d", list(range(9_000)), partitions=3,
                        labels=["a", "b", "a"])
        s = ApproximateQueryEngine(wh).stratified_sample("d", labels=["a"])
        assert s.num_strata == 2
        assert s.population_size == 6_000

    def test_empty_selection(self):
        wh = SampleWarehouse(bound_values=64, rng=SplittableRng(12))
        wh.ingest_batch("d", list(range(100)), labels=["a"])
        with pytest.raises(ConfigurationError):
            ApproximateQueryEngine(wh).stratified_sample("d",
                                                         labels=["zzz"])
