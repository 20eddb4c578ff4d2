"""Tests for repro.core.hybrid_reservoir (Algorithm HR, Figure 7)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ALPHA, feed_in_slices, feed_per_arrival, feed_shape,
                      sample_fingerprint, split_plans)
from repro.core.footprint import FootprintModel
from repro.core.histogram import CompactHistogram, count_values
from repro.core.hybrid_reservoir import AlgorithmHR
from repro.core.phases import SampleKind
from repro.errors import ConfigurationError, ProtocolError
from repro.kernels import available_backends, use_backend
from repro.rng import SplittableRng
from repro.stats.uniformity import (inclusion_frequency_test,
                                    subset_frequency_test)
from repro.testkit import sweep

MODEL = FootprintModel(value_bytes=8, count_bytes=4)


class TestConfiguration:
    def test_exactly_one_bound_spec(self, rng):
        with pytest.raises(ConfigurationError):
            AlgorithmHR(rng=rng)
        with pytest.raises(ConfigurationError):
            AlgorithmHR(10, footprint_bytes=80, rng=rng)

    def test_footprint_bytes_spec(self, rng):
        hr = AlgorithmHR(footprint_bytes=80, model=MODEL, rng=rng)
        assert hr.bound_values == 10

    def test_no_population_needed(self, rng):
        """HR's selling point: N unknown a priori is fine."""
        hr = AlgorithmHR(bound_values=32, rng=rng)
        hr.feed_many(list(range(10_000)))
        s = hr.finalize()
        assert s.size == 32


class TestPhases:
    def test_small_data_stays_exhaustive(self, rng):
        hr = AlgorithmHR(bound_values=1000, rng=rng)
        hr.feed_many(list(range(100)))
        s = hr.finalize()
        assert s.kind is SampleKind.EXHAUSTIVE
        assert sorted(s.values()) == list(range(100))

    def test_duplicates_keep_exhaustive_longer(self, rng):
        hr = AlgorithmHR(bound_values=64, rng=rng)
        hr.feed_many([i % 10 for i in range(10_000)])
        s = hr.finalize()
        assert s.kind is SampleKind.EXHAUSTIVE
        assert s.size == 10_000

    def test_distinct_data_enters_reservoir(self, rng):
        hr = AlgorithmHR(bound_values=64, rng=rng)
        hr.feed_many(list(range(10_000)))
        s = hr.finalize()
        assert s.kind is SampleKind.RESERVOIR
        assert s.size == 64

    def test_lazy_purge_at_finalize(self, rng):
        """Stream ends just after the phase switch, before any reservoir
        insertion: finalize still purges down to the bound."""
        bound = 64
        hr = AlgorithmHR(bound_values=bound, rng=rng, model=MODEL)
        # Exactly `bound` distinct singletons puts the footprint at F.
        hr.feed_many(list(range(bound)))
        assert hr.phase is SampleKind.RESERVOIR
        s = hr.finalize()
        assert s.kind is SampleKind.RESERVOIR
        assert s.size == bound  # all of them: purge is a no-op here

    def test_reservoir_size_pinned(self, rng):
        """Once past the switch, the sample size is exactly n_F."""
        for n in (500, 1_000, 5_000):
            hr = AlgorithmHR(bound_values=100, rng=rng.spawn(n))
            hr.feed_many(list(range(n)))
            s = hr.finalize()
            assert s.size == 100
            assert s.population_size == n


class TestBound:
    @given(st.integers(min_value=1, max_value=4000),
           st.integers(min_value=4, max_value=128),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_property_bound_and_population(self, n, bound, seed):
        rng = SplittableRng(seed)
        hr = AlgorithmHR(bound_values=bound, rng=rng)
        values = [rng.randrange(max(2, n // 3)) for _ in range(n)]
        hr.feed_many(values)
        s = hr.finalize()
        s.check_invariants()
        assert s.population_size == n
        assert s.size <= n


class TestStatistics:
    def test_uniformity_inclusion_frequencies(self, rng):
        def sample_fn(values, child):
            hr = AlgorithmHR(bound_values=8, rng=child)
            hr.feed_many(values)
            return hr.finalize().values()

        result = sweep(
            lambda child: inclusion_frequency_test(
                sample_fn, list(range(40)), trials=1_500, rng=child),
            rng=rng, seeds=3, alpha=ALPHA)
        assert result.accepted, result.describe()

    def test_subset_uniformity(self, rng):
        """HR produces a true simple random sample: all k-subsets of a
        distinct-valued population equally likely."""
        def sample_fn(values, child):
            hr = AlgorithmHR(bound_values=2, rng=child,
                             model=FootprintModel(8, 4))
            hr.feed_many(values)
            return hr.finalize().values()

        result = sweep(
            lambda child: subset_frequency_test(
                sample_fn, list(range(6)), size=2, trials=2_000,
                rng=child),
            rng=rng, seeds=3, alpha=ALPHA)
        assert result.accepted, result.describe()

    def test_feed_matches_feed_many_distribution(self, rng):
        n, bound, trials = 3_000, 64, 100
        inclusion_of_first = {"single": 0, "batch": 0}
        for mode in inclusion_of_first:
            for t in range(trials):
                hr = AlgorithmHR(bound_values=bound, rng=rng.spawn(mode, t))
                if mode == "single":
                    for v in range(n):
                        hr.feed(v)
                else:
                    hr.feed_many(list(range(n)))
                if 0 in hr.finalize().values():
                    inclusion_of_first[mode] += 1
        # Expected inclusion prob = bound/n ~ 2.1%; both modes comparable.
        assert abs(inclusion_of_first["single"]
                   - inclusion_of_first["batch"]) <= 10


class TestFeedManyExact:
    """``feed_many``, split anywhere, is byte-identical to per-arrival
    ``feed``: same kind, population and pairs in order."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("shape", ["lowcard", "distinct", "mixed"])
    @pytest.mark.parametrize("resumed", [False, True])
    def test_split_feed_many_equals_feed(self, backend, shape, resumed):
        values = feed_shape(shape, 3_000, 1)
        first = AlgorithmHR(bound_values=64, rng=SplittableRng(3))
        first.feed_many([v % 20 for v in feed_shape("lowcard", 400, 2)])
        sample = first.finalize()
        assert sample.kind is SampleKind.EXHAUSTIVE

        def make():
            if resumed:
                return AlgorithmHR.resume(sample, rng=SplittableRng(5))
            return AlgorithmHR(bound_values=64, rng=SplittableRng(5))

        with use_backend(backend):
            expected, exit_at = feed_per_arrival(make(), values)
            assert exit_at is not None
            for cuts in split_plans(exit_at, len(values), SplittableRng(9)):
                assert feed_in_slices(make(), values, cuts) == expected, cuts

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("shape", ["lowcard", "distinct", "mixed"])
    def test_resumed_reservoir(self, backend, shape):
        values = feed_shape(shape, 3_000, 1)
        with use_backend(backend):
            first = AlgorithmHR(bound_values=64, rng=SplittableRng(3))
            first.feed_many(list(range(10_000, 10_400)))
            sample = first.finalize()
            assert sample.kind is SampleKind.RESERVOIR

            def make():
                return AlgorithmHR.resume(sample, rng=SplittableRng(5))

            expected, _ = feed_per_arrival(make(), values)
            plans = split_plans(None, len(values), SplittableRng(9))
            for cuts in plans + [list(range(1, 64))]:
                assert feed_in_slices(make(), values, cuts) == expected, cuts


    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("shape", ["lowcard", "distinct", "mixed"])
    def test_slice_counts_stand_in_for_counting(self, backend, shape):
        # A caller's running count (the ingest paths' synopsis map),
        # which phase 1 shares while the partition is fresh, gives the
        # same bytes as counting the slices, and ends up holding the
        # first-seen count of the whole stream.
        values = feed_shape(shape, 3_000, 1)
        with use_backend(backend):
            expected, exit_at = feed_per_arrival(
                AlgorithmHR(bound_values=64, rng=SplittableRng(5)), values)
            for cuts in split_plans(exit_at, len(values), SplittableRng(9)):
                sampler = AlgorithmHR(bound_values=64, rng=SplittableRng(5))
                counts = {}
                prev = 0
                for cut in cuts + [len(values)]:
                    sampler.feed_many(values[prev:cut], counts=counts)
                    prev = cut
                assert sample_fingerprint(sampler.finalize()) == expected
                assert list(counts.items()) == list(
                    count_values(values).items())


@pytest.mark.usefixtures("small_grid")
class TestFeedManyExactSmallGrid(TestFeedManyExact):
    """The same on grids of 7 and 64 arrivals: partitions over many
    blocks, slices that straddle block ends, ``finalize`` mid-block."""


class TestFeedRun:
    """Runs of one value fed as exhaustive inputs (``feed_exhaustive``,
    one block step each), as the merges' exhaustive case feeds them."""

    def test_run_preserved_exhaustively(self, rng):
        hr = AlgorithmHR(bound_values=64, rng=rng)
        hr.feed_exhaustive(CompactHistogram.from_pairs([("x", 5_000)]))
        hr.feed_exhaustive(CompactHistogram.from_pairs([("y", 5_000)]))
        s = hr.finalize()
        assert s.kind is SampleKind.EXHAUSTIVE
        assert s.histogram.count("x") == 5_000

    def test_run_crossing_phase_boundary(self, rng):
        hr = AlgorithmHR(bound_values=64, rng=rng)
        for v in range(200):
            hr.feed_exhaustive(CompactHistogram.from_values([v]))
        hr.feed_exhaustive(CompactHistogram.from_pairs([("tail", 8_800)]))
        s = hr.finalize()
        s.check_invariants()
        assert s.population_size == 9_000
        assert s.size == 64
        # The tail makes up ~97.8% of the stream; the sample should be
        # dominated by it.
        assert s.histogram.count("tail") > 32


class TestProtocol:
    def test_finalize_twice(self, rng):
        hr = AlgorithmHR(bound_values=4, rng=rng)
        hr.finalize()
        with pytest.raises(ProtocolError):
            hr.finalize()

    def test_feed_after_finalize(self, rng):
        hr = AlgorithmHR(bound_values=4, rng=rng)
        hr.finalize()
        with pytest.raises(ProtocolError):
            hr.feed(1)


class TestResume:
    def test_resume_exhaustive(self, rng):
        hr = AlgorithmHR(bound_values=1000, rng=rng)
        hr.feed_many(list(range(50)))
        s = hr.finalize()
        resumed = AlgorithmHR.resume(s, rng=rng)
        resumed.feed_many(list(range(50, 100)))
        merged = resumed.finalize()
        assert merged.kind is SampleKind.EXHAUSTIVE
        assert sorted(merged.values()) == list(range(100))

    def test_resume_reservoir_continues_uniformly(self, rng):
        """Resume + more data = uniform sample of the whole stream."""
        def sample_fn(values, child):
            mid = len(values) // 2
            hr = AlgorithmHR(bound_values=4, rng=child)
            hr.feed_many(values[:mid])
            resumed = AlgorithmHR.resume(hr.finalize(), rng=child)
            resumed.feed_many(values[mid:])
            return resumed.finalize().values()

        result = sweep(
            lambda child: inclusion_frequency_test(
                sample_fn, list(range(24)), trials=1_500, rng=child),
            rng=rng, seeds=3, alpha=ALPHA)
        assert result.accepted, result.describe()

    def test_resume_rejects_bernoulli(self, rng):
        from repro.core.hybrid_bernoulli import AlgorithmHB

        hb = AlgorithmHB(20_000, bound_values=64, rng=rng)
        hb.feed_many(list(range(20_000)))
        s = hb.finalize()
        with pytest.raises(ConfigurationError):
            AlgorithmHR.resume(s, rng=rng)
