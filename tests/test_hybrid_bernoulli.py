"""Tests for repro.core.hybrid_bernoulli (Algorithm HB, Figure 2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ALPHA, feed_in_slices, feed_per_arrival, feed_shape,
                      sample_fingerprint, split_plans)
from repro.core import blocks
from repro.core.footprint import FootprintModel
from repro.core.histogram import CompactHistogram, count_values
from repro.core.hybrid_bernoulli import AlgorithmHB
from repro.core.phases import SampleKind
from repro.errors import ConfigurationError, ProtocolError
from repro.kernels import available_backends, use_backend
from repro.rng import SplittableRng
from repro.stats.uniformity import inclusion_frequency_test
from repro.testkit import sweep

MODEL = FootprintModel(value_bytes=8, count_bytes=4)


class TestConfiguration:
    def test_population_positive(self, rng):
        with pytest.raises(ConfigurationError):
            AlgorithmHB(0, bound_values=10, rng=rng)

    def test_exactly_one_bound_spec(self, rng):
        with pytest.raises(ConfigurationError):
            AlgorithmHB(100, rng=rng)
        with pytest.raises(ConfigurationError):
            AlgorithmHB(100, bound_values=10, footprint_bytes=80, rng=rng)

    def test_footprint_bytes_spec(self, rng):
        hb = AlgorithmHB(100, footprint_bytes=80, model=MODEL, rng=rng)
        assert hb.bound_values == 10

    def test_exceedance_validation(self, rng):
        with pytest.raises(ConfigurationError):
            AlgorithmHB(100, bound_values=10, exceedance_p=0.0, rng=rng)
        with pytest.raises(ConfigurationError):
            AlgorithmHB(100, bound_values=10, exceedance_p=1.0, rng=rng)


class TestPhases:
    def test_small_data_stays_exhaustive(self, rng):
        hb = AlgorithmHB(100, bound_values=1000, rng=rng)
        hb.feed_many(list(range(100)))
        s = hb.finalize()
        assert s.kind is SampleKind.EXHAUSTIVE
        assert sorted(s.values()) == list(range(100))
        assert s.population_size == 100

    def test_duplicates_keep_exhaustive_longer(self, rng):
        """Heavy duplication compresses: the whole partition fits."""
        hb = AlgorithmHB(10_000, bound_values=64, rng=rng)
        hb.feed_many([i % 10 for i in range(10_000)])
        s = hb.finalize()
        assert s.kind is SampleKind.EXHAUSTIVE
        assert s.size == 10_000
        assert s.distinct == 10

    def test_distinct_data_triggers_bernoulli(self, rng):
        hb = AlgorithmHB(50_000, bound_values=256, rng=rng)
        hb.feed_many(list(range(50_000)))
        s = hb.finalize()
        assert s.kind is SampleKind.BERNOULLI
        assert s.rate is not None and 0.0 < s.rate < 1.0
        assert s.size <= 256

    def test_phase3_reachable_with_underdeclared_population(self, rng):
        """Declaring a tiny N makes q huge; feeding much more data pushes
        the sample to the bound and hence into reservoir mode.  (The
        library forbids finalizing in that state, so we inspect the live
        phase.)"""
        hb = AlgorithmHB(600, bound_values=64, rng=rng)
        hb.feed_many(list(range(4_000)))
        assert hb.phase is SampleKind.RESERVOIR
        assert hb.sample_size <= 64

    def test_phase_progression_monotone(self, rng):
        hb = AlgorithmHB(5_000, bound_values=128, rng=rng)
        seen_phases = []
        for v in range(5_000):
            hb.feed(v)
            if not seen_phases or seen_phases[-1] != hb.phase:
                seen_phases.append(hb.phase)
        assert seen_phases == sorted(seen_phases)


class TestBound:
    @pytest.mark.parametrize("n,bound", [(1000, 16), (5000, 64),
                                         (20_000, 128)])
    def test_bound_holds(self, rng, n, bound):
        hb = AlgorithmHB(n, bound_values=bound, rng=rng,
                         model=MODEL)
        hb.feed_many(list(range(n)))
        s = hb.finalize()
        s.check_invariants()
        if s.kind is not SampleKind.EXHAUSTIVE:
            assert s.size <= bound

    @given(st.integers(min_value=1, max_value=4000),
           st.integers(min_value=4, max_value=128),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_property_bound_and_population(self, n, bound, seed):
        rng = SplittableRng(seed)
        hb = AlgorithmHB(n, bound_values=bound, rng=rng)
        values = [rng.randrange(max(2, n // 3)) for _ in range(n)]
        hb.feed_many(values)
        s = hb.finalize()
        s.check_invariants()
        assert s.population_size == n
        assert s.size <= n


class TestStatistics:
    def test_phase2_sample_size_near_expectation(self, rng):
        n, bound, trials = 8_192, 256, 60
        sizes = []
        for t in range(trials):
            hb = AlgorithmHB(n, bound_values=bound, rng=rng.spawn(t))
            hb.feed_many(list(range(n)))
            s = hb.finalize()
            assert s.kind is SampleKind.BERNOULLI
            sizes.append(s.size)
        mean = sum(sizes) / trials
        # Mean should be within a few percent of n*q (just below bound).
        assert 0.8 * bound < mean <= bound

    def test_uniformity_inclusion_frequencies(self, rng):
        """Every element equally likely to be sampled."""
        def sample_fn(values, child):
            hb = AlgorithmHB(len(values), bound_values=8, rng=child)
            hb.feed_many(values)
            return hb.finalize().values()

        result = sweep(
            lambda child: inclusion_frequency_test(
                sample_fn, list(range(40)), trials=1_500, rng=child),
            rng=rng, seeds=3, alpha=ALPHA)
        assert result.accepted, result.describe()

    def test_feed_matches_feed_many_distribution(self, rng):
        """Per-element and batched feeding produce samples with the same
        size statistics."""
        n, bound, trials = 2_000, 64, 120
        mean_sizes = []
        for mode in ("single", "batch"):
            sizes = []
            for t in range(trials):
                hb = AlgorithmHB(n, bound_values=bound,
                                 rng=rng.spawn(mode, t))
                if mode == "single":
                    for v in range(n):
                        hb.feed(v)
                else:
                    hb.feed_many(list(range(n)))
                sizes.append(hb.finalize().size)
            mean_sizes.append(sum(sizes) / trials)
        assert abs(mean_sizes[0] - mean_sizes[1]) < 4.0


class TestPhase3Law:
    """HB's phase-3 sample is an exact SRS: a Bernoulli sample that
    reaches ``n_F`` at a block end is purged to an SRS of ``n_F``, which
    reservoir steps over the thinned stream keep.  At ``n = 12``,
    ``n_F = 3``, ``p = 0.5`` about three runs in four end in phase 3."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("block", [None, 2, 5],
                             ids=["default", "block2", "block5"])
    def test_uniform_inclusion_given_reservoir(self, rng, monkeypatch,
                                               backend, block):
        if block is not None:
            monkeypatch.setattr(blocks, "BLOCK", block)

        def sample_fn(values, child):
            hb = AlgorithmHB(len(values), bound_values=3, exceedance_p=0.5,
                             rng=child)
            hb.feed_many(values)
            sample = hb.finalize()
            return (sample.values() if sample.kind is SampleKind.RESERVOIR
                    else [])

        with use_backend(backend):
            result = sweep(
                lambda child: inclusion_frequency_test(
                    sample_fn, list(range(12)), trials=4_000, rng=child),
                rng=rng, seeds=3, alpha=ALPHA)
        assert result.accepted, result.describe()


class TestFeedManyExact:
    """``feed_many``, split anywhere, is byte-identical to per-arrival
    ``feed``: same kind, rate, population and pairs in order."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("shape", ["lowcard", "distinct", "mixed"])
    @pytest.mark.parametrize("resumed", [False, True])
    def test_split_feed_many_equals_feed(self, backend, shape, resumed):
        values = feed_shape(shape, 3_000, 1)
        prefix = [v % 20 for v in feed_shape("lowcard", 400, 2)]
        first = AlgorithmHB(len(prefix), bound_values=64,
                            rng=SplittableRng(3))
        first.feed_many(prefix)
        sample = first.finalize()
        assert sample.kind is SampleKind.EXHAUSTIVE

        def make():
            if resumed:
                return AlgorithmHB.resume(sample, len(prefix) + len(values),
                                          rng=SplittableRng(5))
            return AlgorithmHB(len(values), bound_values=64,
                               rng=SplittableRng(5))

        with use_backend(backend):
            expected, exit_at = feed_per_arrival(make(), values)
            assert exit_at is not None
            for cuts in split_plans(exit_at, len(values), SplittableRng(9)):
                assert feed_in_slices(make(), values, cuts) == expected, cuts

    @staticmethod
    def bernoulli_then_reservoir(values):
        """A phase-2 sample of 400 distinct values, and the phase-3
        sample ``values`` drive it to once it is resumed."""
        prefix = list(range(10_000, 10_400))
        first = AlgorithmHB(len(prefix), bound_values=64,
                            rng=SplittableRng(3))
        first.feed_many(prefix)
        bernoulli = first.finalize()
        assert bernoulli.kind is SampleKind.BERNOULLI
        resumed = AlgorithmHB.resume(bernoulli, len(prefix) + len(values),
                                     rng=SplittableRng(5))
        resumed.feed_many(values)
        return bernoulli, resumed.finalize()

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("shape", ["lowcard", "distinct", "mixed"])
    def test_one_slice_crosses_phase3(self, backend, shape):
        # At the resumed sample's rate, 3 000 more arrivals overfill
        # the bag: the single-slice plan crosses the 2 -> 3 switch.
        values = feed_shape(shape, 3_000, 1)
        with use_backend(backend):
            bernoulli, reservoir = self.bernoulli_then_reservoir(values)
            assert reservoir.kind is SampleKind.RESERVOIR

            def make():
                return AlgorithmHB.resume(
                    bernoulli, bernoulli.population_size + len(values),
                    rng=SplittableRng(5))

            expected, _ = feed_per_arrival(make(), values)
            plans = split_plans(None, len(values), SplittableRng(9))
            for cuts in plans + [list(range(1, 64))]:
                assert feed_in_slices(make(), values, cuts) == expected, cuts

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("shape", ["lowcard", "distinct", "mixed"])
    def test_resumed_reservoir(self, backend, shape):
        values = feed_shape(shape, 3_000, 1)
        with use_backend(backend):
            _, reservoir = self.bernoulli_then_reservoir(
                feed_shape("distinct", 3_000, 2))

            def make():
                return AlgorithmHB.resume(
                    reservoir, reservoir.population_size + len(values),
                    rng=SplittableRng(7))

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
                AlgorithmHB(len(values), bound_values=64, rng=SplittableRng(5)), values)
            for cuts in split_plans(exit_at, len(values), SplittableRng(9)):
                sampler = AlgorithmHB(len(values), bound_values=64, rng=SplittableRng(5))
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

    def test_run_equals_repeated_feeds_size(self, rng):
        hb = AlgorithmHB(10_000, bound_values=64, rng=rng)
        hb.feed_exhaustive(CompactHistogram.from_pairs([("x", 6_000)]))
        hb.feed_exhaustive(CompactHistogram.from_pairs([("y", 4_000)]))
        s = hb.finalize()
        assert s.population_size == 10_000
        # Two distinct values fit exhaustively.
        assert s.kind is SampleKind.EXHAUSTIVE
        assert s.histogram.count("x") == 6_000

    def test_run_crossing_phase_boundary(self, rng):
        hb = AlgorithmHB(9_000, bound_values=64, rng=rng)
        for v in range(200):
            # distinct singletons -> trigger
            hb.feed_exhaustive(CompactHistogram.from_values([v]))
        hb.feed_exhaustive(CompactHistogram.from_pairs([("tail", 8_800)]))
        s = hb.finalize()
        s.check_invariants()
        assert s.population_size == 9_000
        assert s.size <= 9_000


class TestProtocol:
    def test_finalize_twice(self, rng):
        hb = AlgorithmHB(10, bound_values=4, rng=rng)
        hb.finalize()
        with pytest.raises(ProtocolError):
            hb.finalize()

    def test_feed_after_finalize(self, rng):
        hb = AlgorithmHB(10, bound_values=4, rng=rng)
        hb.finalize()
        with pytest.raises(ProtocolError):
            hb.feed(1)

    def test_overfeeding_declared_population(self, rng):
        hb = AlgorithmHB(10, bound_values=4, rng=rng)
        hb.feed_many(list(range(20)))
        with pytest.raises(ProtocolError):
            hb.finalize()

    def test_underfeeding_allowed(self, rng):
        hb = AlgorithmHB(1_000_000, bound_values=64, rng=rng)
        hb.feed_many(list(range(500)))
        s = hb.finalize()
        assert s.population_size == 500


class TestResume:
    def test_resume_exhaustive(self, rng):
        hb = AlgorithmHB(50, bound_values=1000, rng=rng)
        hb.feed_many(list(range(50)))
        s = hb.finalize()
        resumed = AlgorithmHB.resume(s, 100, rng=rng)
        resumed.feed_many(list(range(50, 100)))
        merged = resumed.finalize()
        assert merged.kind is SampleKind.EXHAUSTIVE
        assert merged.population_size == 100
        assert sorted(merged.values()) == list(range(100))

    def test_resume_bernoulli_keeps_rate(self, rng):
        hb = AlgorithmHB(20_000, bound_values=128, rng=rng)
        hb.feed_many(list(range(20_000)))
        s = hb.finalize()
        assert s.kind is SampleKind.BERNOULLI
        resumed = AlgorithmHB.resume(s, 40_000, rng=rng)
        assert resumed.rate == s.rate
        resumed.feed_many(list(range(20_000, 40_000)))
        merged = resumed.finalize()
        merged.check_invariants()
        assert merged.population_size == 40_000

    def test_resume_population_validation(self, rng):
        hb = AlgorithmHB(50, bound_values=1000, rng=rng)
        hb.feed_many(list(range(50)))
        s = hb.finalize()
        with pytest.raises(ConfigurationError):
            AlgorithmHB.resume(s, 10, rng=rng)
