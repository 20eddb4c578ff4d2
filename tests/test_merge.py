"""Tests for repro.core.merge (HBMerge, HRMerge, unions, merge trees)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.merge as merge_module
from conftest import (ALPHA, MIXED_KEYS, assert_same_state, counter_join,
                      histogram_state)
from repro.core.footprint import FootprintModel
from repro.core.histogram import CompactHistogram
from repro.core.hybrid_bernoulli import AlgorithmHB
from repro.core.hybrid_reservoir import AlgorithmHR
from repro.core.merge import (hb_merge, hr_merge, merge_samples, merge_tree,
                              sb_union)
from repro.core.phases import SampleKind
from repro.core.purge import purge_bernoulli, purge_reservoir
from repro.core.sample import WarehouseSample
from repro.core.stratified_bernoulli import AlgorithmSB
from repro.errors import ConfigurationError, IncompatibleSamplesError
from repro.kernels import available_backends, use_backend
from repro.rng import SplittableRng
from repro.sampling.exceedance import rate_for_bound
from repro.stats.uniformity import (inclusion_frequency_test,
                                    subset_frequency_test)
from repro.testkit import sweep
from repro.testkit.differential import left_deep_fold, serialize_exact
from repro.warehouse.parallel import SampleTask, sample_partition

MODEL = FootprintModel(8, 4)


def hb_sample(values, bound, rng, p=0.001):
    hb = AlgorithmHB(len(values), bound_values=bound, rng=rng,
                     exceedance_p=p, model=MODEL)
    hb.feed_many(values)
    return hb.finalize()


def hr_sample(values, bound, rng):
    hr = AlgorithmHR(bound_values=bound, rng=rng, model=MODEL)
    hr.feed_many(values)
    return hr.finalize()


def partition_samples(scheme, partitions, *, seed=7, values_per=60,
                      bound=8):
    """Deterministic per-partition samples for one scheme."""
    rng = SplittableRng(seed)
    data_rng = rng.spawn("data")
    samples = []
    for i in range(partitions):
        values = [data_rng.randrange(1_000) for _ in range(values_per)]
        samples.append(sample_partition(SampleTask(
            values=values, scheme=scheme, bound_values=bound,
            sb_rate=0.2 if scheme == "sb" else None,
            seed=rng.spawn("part", i).seed_value)))
    return samples


def sb_sample(values, rate, rng):
    sb = AlgorithmSB(rate, rng=rng, model=MODEL)
    sb.feed_many(values)
    return sb.finalize()


def srs_sample(values, size, population, rng, scheme="hr", bound=None):
    """Handcrafted reservoir-kind sample for merge unit tests."""
    return WarehouseSample(
        histogram=CompactHistogram.from_values(values[:size]),
        kind=SampleKind.RESERVOIR,
        population_size=population,
        bound_values=bound if bound is not None else max(size, 1),
        scheme=scheme,
        model=MODEL,
    )


class TestHbMergeKinds:
    def test_both_exhaustive_small(self, rng):
        s1 = hb_sample(list(range(50)), 1000, rng.spawn(1))
        s2 = hb_sample(list(range(50, 100)), 1000, rng.spawn(2))
        m = hb_merge(s1, s2, rng=rng)
        assert m.kind is SampleKind.EXHAUSTIVE
        assert sorted(m.values()) == list(range(100))
        assert m.population_size == 100
        assert m.scheme == "hb"

    def test_exhaustive_plus_bernoulli(self, rng):
        s1 = hb_sample([7] * 30_000, 64, rng.spawn(1))       # exhaustive
        s2 = hb_sample(list(range(30_000)), 64, rng.spawn(2))  # bernoulli
        assert s1.kind is SampleKind.EXHAUSTIVE
        assert s2.kind is SampleKind.BERNOULLI
        m = hb_merge(s1, s2, rng=rng)
        m.check_invariants()
        assert m.population_size == 60_000

    def test_both_bernoulli_fast_path(self, rng):
        s1 = hb_sample(list(range(20_000)), 256, rng.spawn(1))
        s2 = hb_sample(list(range(20_000, 40_000)), 256, rng.spawn(2))
        assert s1.kind is s2.kind is SampleKind.BERNOULLI
        m = hb_merge(s1, s2, rng=rng)
        m.check_invariants()
        assert m.kind in (SampleKind.BERNOULLI, SampleKind.RESERVOIR)
        assert m.population_size == 40_000
        if m.kind is SampleKind.BERNOULLI:
            # Rate was recomputed for the union: strictly smaller.
            assert m.rate < min(s1.rate, s2.rate) + 1e-12

    def test_union_rate_is_at_most_each_input_rate(self):
        # A partition fed fewer arrivals than its sampler declared keeps
        # a rate below the union's eq. (1) rate; it cannot be thinned up
        # to that rate, so the union is labelled with the lower one, as
        # merge_tree labels it.
        rng = SplittableRng(4)
        short = AlgorithmHB(10**6, bound_values=1024, rng=rng.spawn(1),
                            model=MODEL)
        short.feed_many(range(20_000))
        s1 = short.finalize()
        s2 = hb_sample(list(range(20_000, 40_000)), 1024, rng.spawn(2))
        assert s1.kind is s2.kind is SampleKind.BERNOULLI
        assert s1.rate < rate_for_bound(40_000, 0.001, 1024) < s2.rate
        m = hb_merge(s1, s2, rng=SplittableRng(5))
        assert m.kind is SampleKind.BERNOULLI
        assert m.rate == s1.rate
        assert m.rate == merge_tree([s1, s2], rng=SplittableRng(5)).rate
        # s1 is kept whole, so its Horvitz-Thompson count is unchanged.
        first = sum(n for v, n in m.histogram.pairs() if v < 20_000)
        assert first == s1.size

    @pytest.mark.parametrize("backend", available_backends())
    def test_overflow_purges_the_join_to_the_bound(self, backend):
        # Fewer arrivals than declared keep both rates below the union's
        # eq. (1) rate, so nothing is thinned and the join of 18 values
        # overflows n_F = 10 (Figure 6, lines 15-16).
        def short(values):
            return WarehouseSample(
                histogram=CompactHistogram.from_values(values),
                kind=SampleKind.BERNOULLI, population_size=100,
                bound_values=10, rate=0.001, scheme="hb", model=MODEL)

        s1, s2 = short(range(9)), short(range(100, 109))
        with use_backend(backend):
            m = hb_merge(s1, s2, rng=SplittableRng(4))
        m.check_invariants()
        assert m.kind is SampleKind.RESERVOIR
        assert m.scheme == "hb"
        assert m.size == 10
        assert m.population_size == 200
        assert set(m.values()) <= set(s1.values()) | set(s2.values())

    def test_reservoir_involved_routes_to_hypergeometric(self, rng):
        s1 = srs_sample(list(range(64)), 64, 1000, rng, scheme="hb",
                        bound=64)
        s2 = hb_sample(list(range(30_000)), 64, rng.spawn(2))
        m = hb_merge(s1, s2, rng=rng)
        assert m.kind is SampleKind.RESERVOIR
        assert m.size == min(64, s2.size)
        assert m.scheme == "hb"

    def test_incompatible_bounds_rejected(self, rng):
        s1 = hb_sample(list(range(1000)), 32, rng.spawn(1))
        s2 = hb_sample(list(range(1000)), 64, rng.spawn(2))
        with pytest.raises(IncompatibleSamplesError):
            hb_merge(s1, s2, rng=rng)

    def test_bound_preserved_after_merge(self, rng):
        samples = [hb_sample(list(range(i * 5000, (i + 1) * 5000)), 128,
                             rng.spawn(i)) for i in range(6)]
        merged = samples[0]
        for s in samples[1:]:
            merged = hb_merge(merged, s, rng=rng)
            merged.check_invariants()
        assert merged.population_size == 30_000


class TestHbMergeStatistics:
    def test_merged_uniformity(self, rng):
        """A merge of two HB samples includes every element of the union
        equally often."""
        def sample_fn(values, child):
            mid = len(values) // 2
            s1 = hb_sample(values[:mid], 8, child.spawn("a"))
            s2 = hb_sample(values[mid:], 8, child.spawn("b"))
            return hb_merge(s1, s2, rng=child.spawn("m")).values()

        result = sweep(
            lambda child: inclusion_frequency_test(
                sample_fn, list(range(40)), trials=1_000, rng=child),
            rng=rng, seeds=3, alpha=ALPHA)
        assert result.accepted, result.describe()

    def test_bernoulli_merge_subset_uniformity(self, rng):
        """The strong property on the both-Bernoulli fast path: merged
        samples, conditioned on their size, hit every k-subset of the
        union equally often — provided the inputs' size truncation is
        negligible (p small), which is the regime the paper's
        "treat as a Bernoulli sample" approximation assumes."""
        def sample_fn(values, child):
            mid = len(values) // 2
            s1 = hb_sample(values[:mid], 6, child.spawn("a"), p=1e-4)
            s2 = hb_sample(values[mid:], 6, child.spawn("b"), p=1e-4)
            merged = hb_merge(s1, s2, rng=child.spawn("m"))
            return merged.values()

        result = sweep(
            lambda child: subset_frequency_test(
                sample_fn, list(range(20)), size=2, trials=10_000,
                rng=child),
            rng=rng, seeds=3, alpha=ALPHA)
        assert result.accepted, result.describe()

    @pytest.mark.parametrize("backend", available_backends())
    def test_exhaustive_into_bernoulli_phase3_is_srs(self, rng, backend):
        """HBMerge's exhaustive case is one block step: the exhaustive
        input is thinned at the Bernoulli input's rate, and a sample
        that reaches ``n_F`` is purged to an SRS of all inclusions.  So
        with an untruncated ``Bern(q)`` input, a merge that ends in
        phase 3 is an exact SRS of the union; keeping the first ``n_F``
        inclusions (the inclusion that triggered the switch is always
        present) is rejected here."""
        def sample_fn(values, child):
            first, second = values[:5], values[5:]
            # Five values at q = 0.6 never reach n_F = 6: no truncation.
            bernoulli = WarehouseSample(
                histogram=purge_bernoulli(
                    CompactHistogram.from_values(first), 0.6,
                    child.spawn("a")),
                kind=SampleKind.BERNOULLI, population_size=len(first),
                bound_values=6, rate=0.6)
            exhaustive = WarehouseSample(
                histogram=CompactHistogram.from_values(second),
                kind=SampleKind.EXHAUSTIVE, population_size=len(second),
                bound_values=6)
            merged = hb_merge(exhaustive, bernoulli, rng=child.spawn("m"))
            return (merged.values() if merged.kind is SampleKind.RESERVOIR
                    else [])

        with use_backend(backend):
            result = sweep(
                lambda child: inclusion_frequency_test(
                    sample_fn, list(range(10)), trials=3_000, rng=child),
                rng=rng, seeds=3, alpha=ALPHA)
        assert result.accepted, result.describe()

    def test_truncation_approximation_is_real(self, rng):
        """Reproduction finding: HB's phase-2 output is Bern(q)
        *truncated* at |S| = n_F (the paper's "not quite a true
        Bernoulli sample").  At toy scale — where P(|S| >= n_F) is large
        — merging truncated inputs as if they were Bernoulli visibly
        under-represents within-partition pairs, and the strong subset
        test must reject.  Only the both-Bernoulli path merges them as
        Bernoulli, so the other runs are left out: the phase-3 inputs
        are exact SRSs, and their merges would only dilute the effect.
        At realistic scale (previous test) the deviation is O(p) and
        undetectable."""
        def sample_fn(values, child):
            mid = len(values) // 2
            # N=4, n_F=3, p=0.05: P(|S| >= n_F) ~ 0.27 per input.
            s1 = hb_sample(values[:mid], 3, child.spawn("a"), p=0.05)
            s2 = hb_sample(values[mid:], 3, child.spawn("b"), p=0.05)
            if not (s1.kind.is_bernoulli and s2.kind.is_bernoulli):
                return []
            merged = hb_merge(s1, s2, rng=child.spawn("m"))
            return merged.values()

        result = sweep(
            lambda child: subset_frequency_test(
                sample_fn, list(range(8)), size=2, trials=40_000,
                rng=child),
            rng=rng, seeds=3, alpha=1e-4)
        assert result.all_rejected, \
            "expected the toy-scale truncation bias to be detectable: " \
            + result.describe()


class TestHrMergeTheorem1:
    def test_merged_size_is_min(self, rng):
        s1 = hr_sample(list(range(5_000)), 64, rng.spawn(1))
        s2 = hr_sample(list(range(5_000, 15_000)), 64, rng.spawn(2))
        m = hr_merge(s1, s2, rng=rng)
        assert m.kind is SampleKind.RESERVOIR
        assert m.size == 64
        assert m.population_size == 15_000

    def test_target_size_zero_gives_empty_uniform(self):
        # A tiny Bernoulli sample may hold nothing; then k = min(|S1|,
        # |S2|) = 0 and the merge is empty, with no draw taken.
        empty = WarehouseSample(
            histogram=CompactHistogram(), kind=SampleKind.BERNOULLI,
            population_size=40, bound_values=64, rate=0.01, scheme="hb",
            model=MODEL)
        s2 = hr_sample(list(range(5_000, 10_000)), 64, SplittableRng(2))
        rng = SplittableRng(9)
        m = hb_merge(empty, s2, rng=rng)
        assert m.size == 0
        assert m.kind is SampleKind.RESERVOIR
        assert m.scheme == "hb"
        assert m.population_size == 5_040
        m.check_invariants()
        assert rng.random() == SplittableRng(9).random()

    def test_theorem1_subset_uniformity(self, rng):
        """The heart of the paper's Theorem 1: HRMerge of two simple
        random samples is a simple random sample of the union — verified
        by exhaustive subset-frequency chi-square on a small universe."""
        def sample_fn(values, child):
            mid = len(values) // 2
            r1 = child.spawn("r1")
            r2 = child.spawn("r2")
            from repro.sampling.reservoir import reservoir_subsample

            sub1 = reservoir_subsample(values[:mid], 2, r1)
            sub2 = reservoir_subsample(values[mid:], 2, r2)
            s1 = WarehouseSample(
                histogram=CompactHistogram.from_values(sub1),
                kind=SampleKind.RESERVOIR, population_size=mid,
                bound_values=2, scheme="hr", model=MODEL)
            s2 = WarehouseSample(
                histogram=CompactHistogram.from_values(sub2),
                kind=SampleKind.RESERVOIR, population_size=len(values) - mid,
                bound_values=2, scheme="hr", model=MODEL)
            return hr_merge(s1, s2, rng=child.spawn("m")).values()

        result = sweep(
            lambda child: subset_frequency_test(
                sample_fn, list(range(8)), size=2, trials=3_000,
                rng=child),
            rng=rng, seeds=3, alpha=ALPHA)
        assert result.accepted, result.describe()

    def test_exhaustive_case(self, rng):
        s1 = hr_sample(list(range(50)), 64, rng.spawn(1))
        s2 = hr_sample(list(range(50, 10_050)), 64, rng.spawn(2))
        assert s1.kind is SampleKind.EXHAUSTIVE
        m = hr_merge(s1, s2, rng=rng)
        m.check_invariants()
        assert m.population_size == 10_050

    def test_rejects_bernoulli_with_exhaustive(self, rng):
        s1 = hr_sample(list(range(50)), 64, rng.spawn(1))
        s2 = hb_sample(list(range(30_000)), 64, rng.spawn(2))
        with pytest.raises(IncompatibleSamplesError):
            hr_merge(s1, s2, rng=rng)


def reservoir_of(values, extra=0):
    """A reservoir-kind sample holding ``values``, of a population
    ``extra`` larger."""
    hist = CompactHistogram.from_values(values)
    return WarehouseSample(histogram=hist, kind=SampleKind.RESERVOIR,
                           population_size=hist.size + extra,
                           bound_values=1000, scheme="hr", model=MODEL)


def composed_hr_merge(s1, s2, rng, k, take_first=None):
    """Figure 8 as two histogram purges and a ``Counter`` join, in
    :func:`histogram_state` form (``take_first`` overrides the draw)."""
    if k == 0:
        return [], 0, 0
    if take_first is None:
        take_first = merge_module.draw_hypergeometric(
            s1.population_size, s2.population_size, k, rng)
    return counter_join(purge_reservoir(s1.histogram, take_first, rng),
                        purge_reservoir(s2.histogram, k - take_first, rng))


@pytest.mark.parametrize("backend", available_backends())
class TestFusedHrMergeNode:
    """The one-pass purge-and-join node equals the composition it
    replaced, pair for pair, with the same rng consumption after it.
    The input sizes set the merged size ``k = min(|S1|, |S2|)``."""

    @given(first=st.lists(MIXED_KEYS, max_size=40),
           second=st.lists(MIXED_KEYS, max_size=40),
           extra=st.tuples(st.integers(0, 50), st.integers(0, 50)),
           seed=st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_matches_composition(self, backend, first, second, extra,
                                 seed):
        s1, s2 = reservoir_of(first, extra[0]), reservoir_of(second, extra[1])
        k = min(s1.size, s2.size)
        ours, theirs = SplittableRng(seed), SplittableRng(seed)
        with use_backend(backend):
            merged = hr_merge(s1, s2, rng=ours)
            want = composed_hr_merge(s1, s2, theirs, k)
        assert_same_state(histogram_state(merged.histogram), want)
        assert merged.size == k
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("first, second, k, take_first", [
        ([1, 1, 2, 3, 4], [5, 6, 6, 7], 4, 0),        # L = 0
        ([1, 1, 2, 3, 4], [5, 6, 6, 7], 4, 4),        # L = k
        ([1, 2, 2, 3], [3, 4, 5, 5, 6], 4, 4),        # L = k = |S1|: copy
        ([1, 2, 2, 3], [3, 4, 5, 5, 6], 4, 2),
        ([1, 2, 3, 4, 5], [6], 1, 1),                 # single survivor
        ([1, 2, 3, 4, 5], [6, 7], 2, 1),              # one from each
        ([1, 1.0, True, "a"], [True, 1, 0.0], 3, 1),
        ([float("nan")] * 3 + [2], [2, float("nan")], 2, 1),
    ])
    def test_forced_draws(self, backend, monkeypatch, first, second, k,
                          take_first):
        s1, s2 = reservoir_of(first, 5), reservoir_of(second, 5)
        assert min(s1.size, s2.size) == k
        monkeypatch.setattr(merge_module, "draw_hypergeometric",
                            lambda *args, **kwargs: take_first)
        for seed in range(10):
            ours, theirs = SplittableRng(seed), SplittableRng(seed)
            with use_backend(backend):
                merged = hr_merge(s1, s2, rng=ours)
                want = composed_hr_merge(s1, s2, theirs, k, take_first)
            assert_same_state(histogram_state(merged.histogram), want)
            assert ours.random() == theirs.random()

    def test_inputs_untouched(self, backend):
        s1 = reservoir_of([1, 1, 2, 3], 4)
        s2 = reservoir_of([3, 4, 4, 5, 6, 7], 4)
        before = histogram_state(s1.histogram), histogram_state(s2.histogram)
        with use_backend(backend):
            for seed in range(20):
                merged = hr_merge(s1, s2, rng=SplittableRng(seed))
                merged.histogram.insert("new")
        assert (histogram_state(s1.histogram),
                histogram_state(s2.histogram)) == before


class TestSbUnion:
    def test_equal_rates_plain_union(self, rng):
        s1 = sb_sample(list(range(10_000)), 0.01, rng.spawn(1))
        s2 = sb_sample(list(range(10_000, 20_000)), 0.01, rng.spawn(2))
        m = sb_union([s1, s2], rng=rng)
        assert m.kind is SampleKind.BERNOULLI
        assert m.rate == 0.01
        assert m.size == s1.size + s2.size
        assert m.population_size == 20_000

    def test_rate_equalization(self, rng):
        s1 = sb_sample(list(range(20_000)), 0.02, rng.spawn(1))
        s2 = sb_sample(list(range(20_000, 40_000)), 0.01, rng.spawn(2))
        m = sb_union([s1, s2], rng=rng)
        assert m.rate == 0.01
        # s1 was thinned to half: merged size ~ 0.01 * 40000 = 400.
        assert 300 < m.size < 500

    def test_empty_input(self, rng):
        with pytest.raises(ConfigurationError):
            sb_union([], rng=rng)

    def test_requires_bernoulli(self, rng):
        s1 = hr_sample(list(range(5_000)), 64, rng.spawn(1))
        with pytest.raises(IncompatibleSamplesError):
            sb_union([s1], rng=rng)

    def test_footprint_models_must_match(self, rng):
        a = sb_sample(list(range(1_000)), 0.1, rng.spawn(1))
        sb = AlgorithmSB(0.1, rng=rng.spawn(2), model=FootprintModel(16, 8))
        sb.feed_many(range(1_000, 2_000))
        b = sb.finalize()
        with pytest.raises(IncompatibleSamplesError):
            sb_union([a, b], rng=rng)
        with pytest.raises(IncompatibleSamplesError):
            merge_tree([b, a], rng=rng)


class TestMergeSamplesDispatch:
    def test_sb_pair_unions(self, rng):
        s1 = sb_sample(list(range(1000)), 0.1, rng.spawn(1))
        s2 = sb_sample(list(range(1000, 2000)), 0.1, rng.spawn(2))
        m = merge_samples(s1, s2, rng=rng)
        assert m.scheme == "sb"

    def test_hr_pair_uses_hr_merge(self, rng):
        s1 = hr_sample(list(range(5_000)), 64, rng.spawn(1))
        s2 = hr_sample(list(range(5_000, 10_000)), 64, rng.spawn(2))
        m = merge_samples(s1, s2, rng=rng)
        assert m.scheme == "hr"
        assert m.size == 64

    def test_mixed_goes_through_hb(self, rng):
        s1 = hb_sample(list(range(30_000)), 64, rng.spawn(1))
        s2 = hr_sample(list(range(30_000, 60_000)), 64, rng.spawn(2))
        m = merge_samples(s1, s2, rng=rng)
        m.check_invariants()
        assert m.population_size == 60_000


class TestMergeTree:
    def test_empty(self, rng):
        with pytest.raises(ConfigurationError):
            merge_tree([], rng=rng)

    def test_single(self, rng):
        s = hr_sample(list(range(100)), 64, rng)
        assert merge_tree([s], rng=rng) is s

    @pytest.mark.parametrize("fold", [left_deep_fold, merge_tree],
                             ids=lambda fold: fold.__name__)
    def test_folds_cover_population(self, rng, fold):
        samples = [hr_sample(list(range(i * 2000, (i + 1) * 2000)), 64,
                             rng.spawn(i)) for i in range(7)]
        m = fold(samples, rng=rng)
        assert m.population_size == 14_000
        assert m.size == 64
        assert set(m.values()) <= set(range(14_000))

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("scheme", ["hb", "hr", "sb"])
    def test_same_seed_same_bytes_per_backend(self, backend, scheme):
        # Byte-identity is a per-backend contract: within one kernel
        # backend, the same inputs and seed always give the same bytes,
        # whatever merges ran in between.
        samples = partition_samples(scheme, 5)
        with use_backend(backend):
            first = serialize_exact(merge_tree(samples,
                                               rng=SplittableRng(42)))
            merge_tree(partition_samples(scheme, 8, seed=3),
                       rng=SplittableRng(1))
            again = serialize_exact(merge_tree(samples,
                                               rng=SplittableRng(42)))
            other = serialize_exact(merge_tree(samples,
                                               rng=SplittableRng(43)))
        assert first == again
        if scheme != "sb":
            assert first != other

    @pytest.mark.parametrize("backend", available_backends())
    def test_concurrent_trees_match_inline(self, backend):
        # Serve pool threads merge concurrently through sample_of;
        # every thread's bytes must equal an inline run's.
        import sys

        from repro.warehouse.parallel import ThreadExecutor

        samples = partition_samples("hr", 7, values_per=400, bound=32)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_backend(backend), \
                    ThreadExecutor(max_workers=4) as executor:
                want = serialize_exact(merge_tree(samples,
                                                  rng=SplittableRng(9)))
                got = executor.map(
                    lambda _: serialize_exact(
                        merge_tree(samples, rng=SplittableRng(9))),
                    range(8))
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 8

    def test_spawn_is_state_pure_across_runs(self):
        # Two consecutive runs off the same rng object must agree:
        # spawn derives, it does not consume.
        samples = partition_samples("hb", 4)
        rng = SplittableRng(5)
        first = serialize_exact(merge_tree(samples, rng=rng))
        second = serialize_exact(merge_tree(samples, rng=rng))
        assert first == second

    def test_input_order_changes_output_but_stays_deterministic(self):
        # Node seeds are positional, so permuting inputs is a different
        # plan — but the same permutation always maps to the same bytes.
        samples = partition_samples("hr", 4)
        rng = SplittableRng(5)
        forward = serialize_exact(merge_tree(samples, rng=rng))
        backward = serialize_exact(merge_tree(list(reversed(samples)),
                                              rng=rng))
        assert forward == serialize_exact(merge_tree(samples, rng=rng))
        assert backward == serialize_exact(
            merge_tree(list(reversed(samples)), rng=rng))
        assert forward != backward


def unequal_hr_samples(m, *, bound=16, seed=11):
    """m proper HR reservoirs over disjoint partitions of unequal sizes."""
    rng = SplittableRng(seed)
    samples, start = [], 0
    for i in range(m):
        size = 200 + 150 * i
        samples.append(hr_sample(list(range(start, start + size)), bound,
                                 rng.spawn("part", i)))
        start += size
    return samples


#: The purges a merge may call, by the name merge.py binds them to.
PURGES = ("purge_bernoulli", "purge_reservoir", "purge_reservoir_tally")


def count_work(monkeypatch):
    """Wrap merge.py's draws, pairwise merges and purges; returns the
    per-name call counts and the histograms each purge was given."""
    calls = dict.fromkeys(("draw_allocation", "draw_hypergeometric",
                           "merge_samples", "hb_merge", "hr_merge",
                           "sb_union", *PURGES), 0)
    purged = []
    for name in calls:
        original = getattr(merge_module, name)

        def counted(*args, __name=name, __original=original, **kwargs):
            calls[__name] += 1
            if __name in PURGES:
                purged.append(args[0])
            return __original(*args, **kwargs)

        monkeypatch.setattr(merge_module, name, counted)
    return calls, purged


class TestOneDrawMerge:
    """merge_tree merges m proper HR samples with one allocation draw."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_one_draw_and_at_most_m_purges(self, monkeypatch, backend, m):
        samples = unequal_hr_samples(m)
        calls, _ = count_work(monkeypatch)
        with use_backend(backend):
            merge_tree(samples, rng=SplittableRng(3))
        # The pairwise fold ran 2(m - 1) purges and m - 1 draws.
        assert calls["draw_allocation"] == 1
        assert calls["draw_hypergeometric"] == 0
        assert calls["merge_samples"] == 0
        assert calls["purge_reservoir_tally"] <= m

    @pytest.mark.parametrize("backend", available_backends())
    def test_pairwise_hr_merge_is_one_allocation(self, monkeypatch,
                                                  backend):
        """Pairwise HRMerge draws its ``L`` as the two-partition
        allocation: one draw over ``[N1, N2]``."""
        s1, s2 = unequal_hr_samples(2)
        calls, _ = count_work(monkeypatch)
        populations = []
        counted = merge_module.draw_allocation

        def recorded(sizes, k, rng):
            populations.append(list(sizes))
            return counted(sizes, k, rng)

        monkeypatch.setattr(merge_module, "draw_allocation", recorded)
        with use_backend(backend):
            merged = hr_merge(s1, s2, rng=SplittableRng(3))
        assert calls["draw_allocation"] == 1
        assert populations == [[s1.population_size, s2.population_size]]
        assert merged.size == min(s1.size, s2.size)

    @pytest.mark.parametrize("backend", available_backends())
    def test_same_seed_same_bytes_per_backend(self, backend):
        samples = unequal_hr_samples(5)
        with use_backend(backend):
            first = serialize_exact(merge_tree(samples,
                                               rng=SplittableRng(42)))
            merge_tree(unequal_hr_samples(4, seed=2), rng=SplittableRng(1))
            again = serialize_exact(merge_tree(samples,
                                               rng=SplittableRng(42)))
            other = serialize_exact(merge_tree(samples,
                                               rng=SplittableRng(43)))
        assert first == again
        assert first != other

    @pytest.mark.parametrize("backend", available_backends())
    def test_output_keeps_population_bound_and_size(self, backend):
        samples = unequal_hr_samples(4)
        ps = (0.02, 0.001, 0.05, 0.01)
        samples = [WarehouseSample(
            histogram=s.histogram, kind=s.kind,
            population_size=s.population_size,
            bound_values=s.bound_values, scheme=s.scheme,
            exceedance_p=p, model=s.model) for s, p in zip(samples, ps)]
        with use_backend(backend):
            merged = merge_tree(samples, rng=SplittableRng(5))
        merged.check_invariants()
        assert merged.kind is SampleKind.RESERVOIR
        assert merged.scheme == "hr"
        assert merged.population_size == sum(
            s.population_size for s in samples)
        assert merged.exceedance_p == min(ps)
        assert merged.bound_values == samples[0].bound_values
        assert merged.size == min(s.size for s in samples)
        union = set().union(*(s.values() for s in samples))
        assert set(merged.values()) <= union

    def test_incompatible_bounds_rejected(self, rng):
        samples = unequal_hr_samples(3)
        samples.append(hr_sample(list(range(10**5, 10**5 + 500)), 32,
                                 rng))
        with pytest.raises(IncompatibleSamplesError):
            merge_tree(samples, rng=rng)

    @pytest.mark.parametrize("case", ["bernoulli", "exhaustive", "mixed"])
    def test_other_inputs_take_the_tree(self, monkeypatch, case):
        """Bernoulli, exhaustive and mixed inputs merge in one step."""
        rng = SplittableRng(8)
        if case == "bernoulli":
            samples = [hb_sample(list(range(i * 30_000, (i + 1) * 30_000)),
                                 64, rng.spawn(i)) for i in range(3)]
            assert all(s.kind.is_bernoulli for s in samples)
        elif case == "exhaustive":
            samples = unequal_hr_samples(3)
            samples[1] = hr_sample([10**6, 10**6 + 1], 16, rng)
            assert samples[1].kind.is_exhaustive
        else:
            samples = unequal_hr_samples(3)
            samples[2] = hb_sample(list(range(10**6, 10**6 + 30_000)), 16,
                                   rng)
        calls, _ = count_work(monkeypatch)
        merge_tree(samples, rng=rng)
        assert calls["merge_samples"] == 0
        assert calls["draw_allocation"] <= 1


@pytest.mark.parametrize("backend", available_backends())
class TestRunIndexReuse:
    """Stored samples convert their runs once, not once per merge."""

    def test_one_index_build_per_stored_sample(self, monkeypatch, backend):
        import repro.kernels.numpy_backend as numpy_kernels
        import repro.kernels.python as python_kernels

        builds = [0]
        for module in (python_kernels, numpy_kernels):
            original = module.index_runs

            def counted(runs, __original=original):
                builds[0] += 1
                return __original(runs)

            monkeypatch.setattr(module, "index_runs", counted)
        m, rounds = 8, 20
        rng = SplittableRng(6)
        with use_backend(backend):
            samples = unequal_hr_samples(m)
            builds[0] = 0  # finalize purged the working reservoirs
            for r in range(rounds):
                merge_tree(samples, rng=rng.spawn(r))
            # Without the index every purge converted its input again.
            assert builds[0] == m
            samples[3].histogram.insert(-1)
            for r in range(rounds):
                merge_tree(samples, rng=rng.spawn("again", r))
        assert builds[0] == m + 1


class _OneStep:
    """The one-step merge contract, per input mix.

    Subclasses give ``inputs(seed)``.  Every mix takes at most one
    allocation draw and purges each input at most once; the union of
    the Bernoulli and exhaustive inputs takes at most one more purge
    (the fixtures keep it from overflowing, where it could take one
    purge to ``n_F`` and one to its share).  No pairwise merge runs.
    """

    scheme = ""

    @staticmethod
    def inputs(seed):  # pragma: no cover - abstract
        raise NotImplementedError

    @pytest.mark.parametrize("backend", available_backends())
    def test_work_count(self, monkeypatch, backend):
        samples = self.inputs(1)
        calls, purged = count_work(monkeypatch)
        with use_backend(backend):
            merged = merge_tree(samples, rng=SplittableRng(3))
        assert merged.scheme == self.scheme
        assert calls["draw_allocation"] <= 1
        for name in ("draw_hypergeometric", "merge_samples", "hb_merge",
                     "hr_merge"):
            assert calls[name] == 0, name
        for sample in samples:
            assert sum(h is sample.histogram for h in purged) <= 1
        inputs = {id(s.histogram) for s in samples}
        assert sum(id(h) not in inputs for h in purged) <= 1
        assert len(purged) <= len(samples) + 1

    @pytest.mark.parametrize("backend", available_backends())
    def test_same_seed_same_bytes_per_backend(self, backend):
        samples = self.inputs(1)
        with use_backend(backend):
            first = serialize_exact(merge_tree(samples,
                                               rng=SplittableRng(42)))
            merge_tree(self.inputs(2), rng=SplittableRng(1))
            again = serialize_exact(merge_tree(samples,
                                               rng=SplittableRng(42)))
            other = serialize_exact(merge_tree(samples,
                                               rng=SplittableRng(43)))
        assert first == again
        assert first != other

    @pytest.mark.parametrize("backend", available_backends())
    def test_output_is_a_sample_of_the_union(self, backend):
        samples = self.inputs(1)
        with use_backend(backend):
            merged = merge_tree(samples, rng=SplittableRng(5))
        merged.check_invariants()
        assert merged.population_size == sum(
            s.population_size for s in samples)
        union = set().union(*(s.values() for s in samples))
        assert set(merged.values()) <= union


def disjoint_values(seed, count, *, width=30_000):
    """``count`` disjoint ranges of unique values."""
    return [list(range((seed * count + i) * width,
                       (seed * count + i + 1) * width))
            for i in range(count)]


class TestOneStepSb(_OneStep):
    scheme = "sb"

    @staticmethod
    def inputs(seed):
        rng = SplittableRng(seed)
        return [sb_sample(values[:2_000], rate, rng.spawn(i))
                for i, (values, rate) in enumerate(zip(
                    disjoint_values(seed, 4), (0.3, 0.2, 0.25, 0.2)))]

    def test_one_union_at_the_least_rate(self, monkeypatch):
        samples = self.inputs(1)
        calls, _ = count_work(monkeypatch)
        merged = merge_tree(samples, rng=SplittableRng(3))
        assert calls["sb_union"] == 1
        assert merged.rate == 0.2
        assert merged.kind is SampleKind.BERNOULLI


class TestOneStepBernoulli(_OneStep):
    scheme = "hb"

    @staticmethod
    def inputs(seed):
        rng = SplittableRng(seed)
        samples = [hb_sample(values, 64, rng.spawn(i))
                   for i, values in enumerate(disjoint_values(seed, 4))]
        assert all(s.kind.is_bernoulli for s in samples)
        return samples

    def test_rate_is_the_pairwise_root_rate(self):
        """``q*`` is the rate a pairwise fold ends at when its root stays
        Bernoulli: the eq. (1) rate for the whole union."""
        samples = self.inputs(1)
        merged = merge_tree(samples, rng=SplittableRng(3))
        want = rate_for_bound(sum(s.population_size for s in samples),
                              0.001, 64)
        assert merged.kind is SampleKind.BERNOULLI
        assert merged.rate == want
        folded = left_deep_fold(samples, rng=SplittableRng(3))
        assert folded.kind is SampleKind.BERNOULLI
        assert folded.rate == want

    def test_overflow_purges_the_union_to_the_bound(self, monkeypatch):
        samples = self.inputs(1)
        # No rate bounds the union's size: every merge overflows.
        monkeypatch.setattr(merge_module, "rate_for_bound",
                            lambda *args: 1.0)
        merged = merge_tree(samples, rng=SplittableRng(3))
        assert merged.kind is SampleKind.RESERVOIR
        assert merged.size == 64
        assert merged.scheme == "hb"


class TestOneStepExhaustive(_OneStep):
    scheme = "hb"

    @staticmethod
    def inputs(seed):
        rng = SplittableRng(seed)
        values = disjoint_values(seed, 3)
        samples = [hb_sample(v, 64, rng.spawn(i))
                   for i, v in enumerate(values)]
        samples.append(hb_sample([seed] * 30_000, 64, rng.spawn("runs")))
        samples.append(hb_sample(list(range(-20 * seed - 20, -20 * seed)),
                                 64, rng.spawn("few")))
        assert [s.kind.is_exhaustive for s in samples] == [
            False, False, False, True, True]
        return samples

    @pytest.mark.parametrize("scheme", ["hb", "hr"])
    def test_exhaustive_join_under_the_bound_stays_exhaustive(self,
                                                              scheme):
        parts = [list(range(i * 10, i * 10 + 10)) for i in range(4)]
        rng = SplittableRng(2)
        make = hb_sample if scheme == "hb" else hr_sample
        samples = [make(p, 64, rng.spawn(i)) for i, p in enumerate(parts)]
        merged = merge_tree(samples, rng=rng)
        assert merged.kind is SampleKind.EXHAUSTIVE
        assert merged.scheme == scheme
        assert sorted(merged.values()) == list(range(40))

    @pytest.mark.parametrize("scheme", ["hb", "hr"])
    def test_exhaustive_join_over_the_bound(self, scheme):
        parts = [list(range(i * 30, i * 30 + 30)) for i in range(4)]
        rng = SplittableRng(2)
        make = hb_sample if scheme == "hb" else hr_sample
        samples = [make(p, 64, rng.spawn(i)) for i, p in enumerate(parts)]
        assert all(s.kind.is_exhaustive for s in samples)
        merged = merge_tree(samples, rng=rng)
        merged.check_invariants()
        if scheme == "hr":
            assert merged.kind is SampleKind.RESERVOIR
            assert merged.size == 64
        else:
            assert merged.kind in (SampleKind.BERNOULLI,
                                   SampleKind.RESERVOIR)
            assert merged.size <= 64


class TestOneStepReservoir(_OneStep):
    scheme = "hb"

    @staticmethod
    def inputs(seed):
        rng = SplittableRng(seed)
        values = disjoint_values(seed, 5)
        samples = [hb_sample(values[0], 64, rng.spawn(0)),
                   hr_sample(values[1][:5_000], 64, rng.spawn(1)),
                   hb_sample(values[2], 64, rng.spawn(2)),
                   hb_sample([-seed] * 30_000, 64, rng.spawn(3)),
                   hr_sample(values[4][:9_000], 64, rng.spawn(4))]
        assert [s.kind for s in samples] == [
            SampleKind.BERNOULLI, SampleKind.RESERVOIR,
            SampleKind.BERNOULLI, SampleKind.EXHAUSTIVE,
            SampleKind.RESERVOIR]
        return samples

    def test_merged_size_is_the_least_proper_size(self):
        samples = self.inputs(1)
        merged = merge_tree(samples, rng=SplittableRng(3))
        assert merged.kind is SampleKind.RESERVOIR
        # The pooled union of two Bernoulli samples and an exhaustive
        # one, thinned to q*, holds fewer than the reservoirs' 64.
        assert merged.size < 64


class TestOneStepHrExhaustive(_OneStep):
    scheme = "hr"

    @staticmethod
    def inputs(seed):
        samples = unequal_hr_samples(3, seed=seed)
        rng = SplittableRng(seed)
        samples.append(hr_sample([10**6 + seed] * 5_000, 16, rng))
        samples.insert(1, hr_sample([-1, -2, -3], 16, rng))
        assert sum(s.kind.is_exhaustive for s in samples) == 2
        return samples

    def test_exhaustive_inputs_do_not_cap_the_size(self):
        samples = self.inputs(1)
        merged = merge_tree(samples, rng=SplittableRng(3))
        assert merged.kind is SampleKind.RESERVOIR
        assert merged.size == 16


class TestMergeProperties:
    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=100, max_value=2000),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_random_merge_trees_keep_invariants(self, parts, per_part,
                                                seed):
        rng = SplittableRng(seed)
        samples = []
        for i in range(parts):
            values = [rng.randrange(500) for _ in range(per_part)]
            if i % 2 == 0:
                samples.append(hb_sample(values, 64, rng.spawn("s", i)))
            else:
                samples.append(hr_sample(values, 64, rng.spawn("s", i)))
        m = merge_tree(samples, rng=rng)
        m.check_invariants()
        assert m.population_size == parts * per_part
