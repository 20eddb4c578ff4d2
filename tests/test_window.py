"""Tests for repro.warehouse.window (sliding-window sampling)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.rng import SplittableRng
from repro.warehouse.window import SlidingWindowSampler


def make_window(partition_size=1000, window_partitions=3, bound=32,
                seed=8, **kwargs):
    return SlidingWindowSampler(
        partition_size=partition_size,
        window_partitions=window_partitions,
        bound_values=bound,
        rng=SplittableRng(seed),
        **kwargs)


class TestConfiguration:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_window(partition_size=0)
        with pytest.raises(ConfigurationError):
            make_window(window_partitions=0)


class TestRolling:
    def test_partitions_roll(self):
        w = make_window()
        w.feed_many(range(2_500))
        assert w.live_partitions == 2
        assert w.evicted_partitions == 0

    def test_eviction_after_window_full(self):
        w = make_window()
        w.feed_many(range(5_000))  # 5 partitions; window holds 3
        assert w.live_partitions == 3
        assert w.evicted_partitions == 2

    def test_window_population(self):
        w = make_window()
        w.feed_many(range(4_200))
        # 4 finalized, newest 3 in window; 200 still open
        assert w.window_population() == 3_000

    def test_window_sample_covers_recent_data(self):
        w = make_window()
        w.feed_many(range(10_000))  # partitions 7, 8, 9 live
        s = w.window_sample()
        s.check_invariants()
        assert s.population_size == 3_000
        assert all(7_000 <= v < 10_000 for v in s.values())

    def test_window_sample_without_data(self):
        w = make_window()
        with pytest.raises(ProtocolError):
            w.window_sample()

    def test_include_open_cuts_early(self):
        w = make_window()
        w.feed_many(range(1_500))  # 1 full partition + 500 open
        s = w.window_sample(include_open=True)
        assert s.population_size == 1_500
        assert w.live_partitions == 2

    def test_close(self):
        w = make_window()
        w.feed_many(range(100))
        w.close()
        with pytest.raises(ProtocolError):
            w.feed(1)


class TestApproximation:
    def test_window_slides_in_hops(self):
        """The window advances partition-at-a-time: after 7 partitions
        with window=3, only values from the last 3 survive."""
        w = make_window(partition_size=500, window_partitions=3)
        w.feed_many(range(3_500))
        s = w.window_sample()
        cutoff = 3_500 - 3 * 500
        assert all(v >= cutoff for v in s.values())

    def test_hb_scheme_supported(self):
        w = make_window(scheme="hb")
        w.feed_many(range(5_000))
        s = w.window_sample()
        s.check_invariants()
        assert s.population_size == 3_000


class TestFeedMany:
    def test_feed_many_after_close(self):
        w = make_window()
        w.close()
        for values in ([1, 2], []):
            with pytest.raises(ProtocolError):
                w.feed_many(values)
