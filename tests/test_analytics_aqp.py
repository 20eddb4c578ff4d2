"""Tests for repro.analytics.aqp (the approximate query engine)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.aqp import ApproximateQueryEngine
from repro.rng import SplittableRng
from repro.warehouse.ingest import CountPolicy
from repro.warehouse.maintenance import warehouse_delete
from repro.warehouse.warehouse import SampleWarehouse


@pytest.fixture()
def warehouse():
    wh = SampleWarehouse(bound_values=512, rng=SplittableRng(21))
    wh.ingest_batch("sales", list(range(100_000)), partitions=4)
    wh.ingest_batch("days", [i % 7 for i in range(7_000)], partitions=2,
                    labels=["w1", "w2"])
    return wh


class TestAggregates:
    def test_count(self, warehouse):
        engine = ApproximateQueryEngine(warehouse)
        est = engine.count("sales")
        assert abs(est.value - 100_000) / 100_000 < 0.10

    def test_count_where(self, warehouse):
        engine = ApproximateQueryEngine(warehouse)
        est = engine.count("sales", where=lambda v: v < 50_000)
        assert abs(est.value - 50_000) / 50_000 < 0.20

    def test_sum(self, warehouse):
        engine = ApproximateQueryEngine(warehouse)
        truth = sum(range(100_000))
        est = engine.sum("sales")
        assert abs(est.value - truth) / truth < 0.10

    def test_avg(self, warehouse):
        engine = ApproximateQueryEngine(warehouse)
        est = engine.avg("sales")
        assert abs(est.value - 49999.5) / 49999.5 < 0.10

    def test_quantile(self, warehouse):
        engine = ApproximateQueryEngine(warehouse)
        q = engine.quantile("sales", 0.25)
        assert abs(q - 25_000) < 10_000

    def test_exact_on_exhaustive_dataset(self, warehouse):
        """'days' has 7 distinct values: samples stay exhaustive and the
        engine answers exactly."""
        engine = ApproximateQueryEngine(warehouse)
        est = engine.count("days")
        assert est.value == 7_000.0
        assert est.exact


class TestGroupBy:
    def test_group_by_count(self, warehouse):
        engine = ApproximateQueryEngine(warehouse)
        groups = dict(engine.group_by_count("days", key_fn=lambda v: v))
        assert len(groups) == 7
        assert sum(groups.values()) == pytest.approx(7_000)

    def test_top_truncation(self, warehouse):
        engine = ApproximateQueryEngine(warehouse)
        groups = engine.group_by_count("sales",
                                       key_fn=lambda v: v % 10, top=3)
        assert len(groups) == 3
        # sorted descending
        assert groups[0][1] >= groups[1][1] >= groups[2][1]


class TestLabelsAndCache:
    def test_label_scoped_query(self, warehouse):
        engine = ApproximateQueryEngine(warehouse)
        est = engine.count("days", labels=["w1"])
        assert est.value == pytest.approx(3_500)

    def test_cache_reuse(self, warehouse):
        engine = ApproximateQueryEngine(warehouse)
        a = engine.count("sales")
        b = engine.count("sales")
        # No cache: the second query re-merges, and a merge is a pure
        # function of the selection and the warehouse seed.
        assert a.to_dict() == b.to_dict()

    def test_invalidate(self, warehouse):
        # The engine is stateless: a query after an ingest sees it
        # without any invalidation step.
        engine = ApproximateQueryEngine(warehouse)
        engine.count("sales")
        warehouse.ingest_batch("sales", list(range(100_000, 120_000)),
                               partitions=1)
        est = engine.count("sales")
        assert abs(est.value - 120_000) / 120_000 < 0.10


class TestSummary:
    def test_sampling_summary(self, warehouse):
        engine = ApproximateQueryEngine(warehouse)
        info = engine.sampling_summary("sales")
        assert info["population_size"] == 100_000
        assert 0 < info["sample_size"] <= 512
        assert info["kind"] in ("BERNOULLI", "RESERVOIR")
        assert not info["exact"]


#: Queries the property draws from: a small menu, so the same question
#: recurs across mutations (the case a stale cache would get wrong).
QUERIES = [
    ("count", None, None), ("sum", None, None), ("avg", None, None),
    ("count", "labels", None), ("avg", "labels", None),
    ("count", None, 0.05), ("sum", None, 0.05), ("avg", None, 0.05),
    ("sum", "labels", 0.2), ("quantile", None, None),
    ("quantile", "labels", None),
]
STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["ingest", "stream", "roll", "delete"]),
                  st.integers(0, 2 ** 16)),
        st.tuples(st.just("query"), st.integers(0, len(QUERIES) - 1))),
    min_size=1, max_size=14)


class TestMutationsNeverServeStale:
    """A long-lived engine answers exactly as a fresh one would, across
    every library-side mutation path: batch ingest, stream cuts,
    roll-out/roll-in, and maintenance deletes."""

    @staticmethod
    def _ask(engine, wh, query):
        agg, scope, target = query
        labels = None
        if scope == "labels":
            labels = sorted({m.label for m in wh.catalog.partitions("ds")
                             if m.label is not None})[:2]
        if agg == "quantile":
            return engine.quantile("ds", 0.5, labels=labels)
        return getattr(engine, agg)(
            "ds", labels=labels, target_half_width=target,
            relative_target=True).to_dict()

    @staticmethod
    def _mutate(wh, op, arg, rolled):
        active = wh.partition_keys("ds")
        if op == "ingest":
            first = len(wh.partition_keys("ds", only_active=False))
            values = [(arg + 7 * i) % 997 for i in range(40 + arg % 60)]
            wh.ingest_batch("ds", values, partitions=1 + arg % 2,
                            labels=[f"b{first + j}"
                                    for j in range(1 + arg % 2)])
        elif op == "stream":
            ingestor = wh.open_stream(
                "ds", policy=CountPolicy(30), stream=1,
                label_fn=lambda seq: f"s{seq}")
            ingestor.feed_many((arg + 3 * i) % 503
                               for i in range(45 + arg % 40))
            ingestor.close()
        elif op == "roll":
            if rolled and arg % 2:
                wh.roll_in(rolled.pop())
            elif len(active) > 1:
                key = active[arg % len(active)]
                wh.roll_out(key)
                rolled.append(key)
        else:
            key = active[arg % len(active)]
            pairs = list(wh.store.get(key).histogram.pairs())
            value, count = pairs[arg % len(pairs)]
            if wh.catalog.get(key).population_size > 1:
                warehouse_delete(wh, key, value, parent_count=count)

    @settings(max_examples=25, deadline=None)
    @given(steps=STEPS)
    def test_answers_match_a_fresh_engine(self, steps):
        wh = SampleWarehouse(bound_values=16, rng=SplittableRng(19))
        wh.ingest_batch("ds", [i % 211 for i in range(120)],
                        partitions=2, labels=["a", "b"])
        engine = ApproximateQueryEngine(wh)
        rolled, asked = [], {}
        for op, arg in steps:
            if op == "query":
                asked[arg] = QUERIES[arg]
            else:
                self._mutate(wh, op, arg, rolled)
            # Re-ask everything asked so far: each mutation must reach
            # every earlier answer.
            fresh = ApproximateQueryEngine(wh)
            for query in asked.values():
                assert self._ask(engine, wh, query) == \
                    self._ask(fresh, wh, query), (op, query)
