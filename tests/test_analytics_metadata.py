"""Tests for repro.analytics.metadata (metadata discovery)."""

from __future__ import annotations

import pytest

from repro.analytics.metadata import (column_profile, containment_estimate,
                                      containment_lower_bound,
                                      discover_candidates, jaccard_estimate)
from repro.errors import ConfigurationError
from repro.rng import SplittableRng
from repro.warehouse.warehouse import SampleWarehouse


@pytest.fixture()
def warehouse():
    """Three columns: orders.customer_id is a subset of customers.id;
    products.sku is unrelated."""
    wh = SampleWarehouse(bound_values=1024, rng=SplittableRng(31))
    rng = SplittableRng(99)
    customer_ids = list(range(10_000))
    order_customers = [rng.choice(customer_ids) for _ in range(30_000)]
    skus = [1_000_000 + i for i in range(5_000)]
    wh.ingest_batch("customers.id", customer_ids, partitions=2)
    wh.ingest_batch("orders.customer_id", order_customers, partitions=3)
    wh.ingest_batch("products.sku", skus, partitions=1)
    return wh


class TestColumnProfile:
    def test_key_column_high_uniqueness(self, warehouse):
        s = warehouse.sample_of("customers.id")
        profile = column_profile("customers.id", s)
        assert profile.uniqueness > 0.5
        assert profile.population_size == 10_000
        assert profile.distinct_in_sample == s.distinct

    def test_non_key_low_uniqueness(self, warehouse):
        s = warehouse.sample_of("orders.customer_id")
        profile = column_profile("orders.customer_id", s)
        assert not profile.looks_like_key()

    def test_top_values(self, warehouse):
        s = warehouse.sample_of("orders.customer_id")
        profile = column_profile("orders.customer_id", s, top=5)
        assert len(profile.top_values) <= 5


class TestOverlapEstimates:
    def test_jaccard_of_identical(self, warehouse):
        s = warehouse.sample_of("customers.id")
        assert jaccard_estimate(s, s) == 1.0

    def test_jaccard_of_disjoint(self, warehouse):
        a = warehouse.sample_of("customers.id")
        b = warehouse.sample_of("products.sku")
        assert jaccard_estimate(a, b) == 0.0

    def test_containment_direction(self, warehouse):
        orders = warehouse.sample_of("orders.customer_id")
        customers = warehouse.sample_of("customers.id")
        lr = containment_estimate(orders, customers)
        rl = containment_estimate(customers, orders)
        # Every order customer id exists among customers, so the sampled
        # overlap should be clearly positive and asymmetric-capable.
        assert lr > 0.1
        assert 0.0 <= rl <= 1.0


    def test_lower_bound_discounts_few_shared_values(self, warehouse):
        wh = SampleWarehouse(bound_values=1024, rng=SplittableRng(5))
        wh.ingest_batch("quantity", [1 + i % 10 for i in range(20_000)])
        quantity = wh.sample_of("quantity")
        customers = warehouse.sample_of("customers.id")
        orders = warehouse.sample_of("orders.customer_id")
        # Ten small ints sit inside the customer-id range, as do the
        # order customer ids; only the latter rest on many shared values.
        assert containment_estimate(quantity, customers) > 0.5
        fk = containment_lower_bound(orders, customers)
        assert fk <= containment_estimate(orders, customers)
        assert containment_lower_bound(quantity, customers) < fk


class TestDiscovery:
    def test_needs_two_datasets(self):
        wh = SampleWarehouse(bound_values=16, rng=SplittableRng(1))
        wh.ingest_batch("only", list(range(100)))
        with pytest.raises(ConfigurationError):
            discover_candidates(wh)

    def test_ranks_related_pair_first(self, warehouse):
        candidates = discover_candidates(warehouse)
        assert candidates, "no candidates found"
        top = candidates[0]
        pair = {top.left, top.right}
        assert pair == {"customers.id", "orders.customer_id"}

    def test_min_jaccard_filter(self, warehouse):
        candidates = discover_candidates(warehouse, min_jaccard=0.99)
        assert all(c.jaccard >= 0.99 for c in candidates)

    def test_top_truncation(self, warehouse):
        assert len(discover_candidates(warehouse, top=1)) == 1
