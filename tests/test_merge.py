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
from repro.core.purge import purge_reservoir
from repro.core.sample import WarehouseSample
from repro.core.stratified_bernoulli import AlgorithmSB
from repro.errors import ConfigurationError, IncompatibleSamplesError
from repro.kernels import available_backends, draw_hypergeometric, use_backend
from repro.rng import SplittableRng
from repro.sampling.distributions import CachedHypergeometric
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

    def test_truncation_approximation_is_real(self, rng):
        """Reproduction finding: HB's phase-2 output is Bern(q)
        *truncated* at |S| = n_F (the paper's "not quite a true
        Bernoulli sample").  At toy scale — where P(|S| >= n_F) is large
        — merging truncated inputs as if they were Bernoulli visibly
        under-represents within-partition pairs, and the strong subset
        test must reject.  At realistic scale (previous test) the
        deviation is O(p) and undetectable."""
        def sample_fn(values, child):
            mid = len(values) // 2
            # N=4, n_F=3, p=0.05: P(|S| >= n_F) ~ 0.27 per input.
            s1 = hb_sample(values[:mid], 3, child.spawn("a"), p=0.05)
            s2 = hb_sample(values[mid:], 3, child.spawn("b"), p=0.05)
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

    def test_target_size(self, rng):
        s1 = hr_sample(list(range(5_000)), 64, rng.spawn(1))
        s2 = hr_sample(list(range(5_000, 10_000)), 64, rng.spawn(2))
        m = hr_merge(s1, s2, rng=rng, target_size=10)
        assert m.size == 10

    def test_target_size_validation(self, rng):
        s1 = hr_sample(list(range(5_000)), 64, rng.spawn(1))
        s2 = hr_sample(list(range(5_000, 10_000)), 64, rng.spawn(2))
        with pytest.raises(ConfigurationError):
            hr_merge(s1, s2, rng=rng, target_size=65)
        with pytest.raises(ConfigurationError):
            hr_merge(s1, s2, rng=rng, target_size=-1)

    def test_target_size_zero_gives_empty_uniform(self, rng):
        s1 = hr_sample(list(range(5_000)), 64, rng.spawn(1))
        s2 = hr_sample(list(range(5_000, 10_000)), 64, rng.spawn(2))
        m = hr_merge(s1, s2, rng=rng, target_size=0)
        assert m.size == 0
        assert m.kind is SampleKind.RESERVOIR
        assert m.population_size == 10_000
        m.check_invariants()

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

    def test_alias_cache_used(self, rng):
        # The alias-table cache backs the pure-Python kernel; the
        # numpy backend keeps its own cdf cache instead.
        cache = CachedHypergeometric()
        s1 = hr_sample(list(range(5_000)), 64, rng.spawn(1))
        s2 = hr_sample(list(range(5_000, 10_000)), 64, rng.spawn(2))
        with use_backend("python"):
            hr_merge(s1, s2, rng=rng, cache=cache)
        assert len(cache) == 1


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
        take_first = draw_hypergeometric(
            s1.population_size, s2.population_size, k, rng)
    return counter_join(purge_reservoir(s1.histogram, take_first, rng),
                        purge_reservoir(s2.histogram, k - take_first, rng))


@pytest.mark.parametrize("backend", available_backends())
class TestFusedHrMergeNode:
    """The one-pass purge-and-join node equals the composition it
    replaced, pair for pair, with the same rng consumption after it."""

    @given(first=st.lists(MIXED_KEYS, max_size=40),
           second=st.lists(MIXED_KEYS, max_size=40),
           extra=st.tuples(st.integers(0, 50), st.integers(0, 50)),
           data=st.data(), seed=st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_matches_composition(self, backend, first, second, extra,
                                 data, seed):
        s1, s2 = reservoir_of(first, extra[0]), reservoir_of(second, extra[1])
        k = data.draw(st.integers(0, min(s1.size, s2.size)))
        ours, theirs = SplittableRng(seed), SplittableRng(seed)
        with use_backend(backend):
            merged = hr_merge(s1, s2, rng=ours, target_size=k)
            want = composed_hr_merge(s1, s2, theirs, k)
        assert_same_state(histogram_state(merged.histogram), want)
        assert merged.size == k
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("first, second, k, take_first", [
        ([1, 1, 2, 3, 4], [5, 6, 6, 7], 4, 0),        # L = 0
        ([1, 1, 2, 3, 4], [5, 6, 6, 7], 4, 4),        # L = k
        ([1, 2, 2, 3], [3, 4, 5, 5, 6], 4, 4),        # L = k = |S1|: copy
        ([1, 2, 2, 3], [3, 4, 5, 5, 6], 4, 2),
        ([1, 2, 3, 4, 5], [6, 7, 8, 9], 1, 1),        # single survivor
        ([1, 2, 3, 4, 5], [6, 7, 8, 9], 2, 1),        # one from each
        ([1, 1.0, True, "a"], [True, 1, 0.0, False], 3, 1),
        ([float("nan")] * 3 + [2], [2, float("nan")], 2, 1),
    ])
    def test_forced_draws(self, backend, monkeypatch, first, second, k,
                          take_first):
        s1, s2 = reservoir_of(first, 5), reservoir_of(second, 5)
        monkeypatch.setattr(merge_module, "draw_hypergeometric",
                            lambda *args, **kwargs: take_first)
        for seed in range(10):
            ours, theirs = SplittableRng(seed), SplittableRng(seed)
            with use_backend(backend):
                merged = hr_merge(s1, s2, rng=ours, target_size=k)
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

    def test_custom_merger(self, rng):
        calls = []

        def merger(a, b):
            calls.append((a.size, b.size))
            return hr_merge(a, b, rng=rng)

        samples = [hr_sample(list(range(i * 2000, (i + 1) * 2000)), 32,
                             rng.spawn(i)) for i in range(4)]
        merge_tree(samples, rng=rng, merger=merger)
        assert len(calls) == 3

    def test_odd_carry_joins_next_level_front(self, rng):
        # Five single-value exhaustive samples of distinct population
        # sizes make each merge's operands readable off its output.
        # The unpaired fifth sample (pop 30) must be carried into the
        # NEXT level's first pairing — not ride the tail to the root:
        # level 0: (30,30) (30,30) carry 30
        # level 1: (30,60) carry 60 -> (60,90) at the root.
        calls = []

        def merger(a, b):
            calls.append((a.population_size, b.population_size))
            return hr_merge(a, b, rng=rng)

        pops = [30, 30, 30, 30, 30]
        samples = [hr_sample(list(range(sum(pops[:i]),
                                        sum(pops[:i + 1]))), 30,
                             rng.spawn(i)) for i in range(len(pops))]
        merged = merge_tree(samples, rng=rng, merger=merger)
        assert merged.population_size == 150
        assert calls == [(30, 30), (30, 30), (30, 60), (60, 90)]

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("scheme", ["hb", "hr", "sb"])
    def test_same_seed_same_bytes_per_backend(self, backend, scheme):
        # Byte-identity is a per-backend contract: within one kernel
        # backend, the same inputs and seed always give the same bytes,
        # whatever merges ran in between (alias tables cached in the
        # shared node cache consume the rng like fresh ones).
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
        # Serve pool threads merge concurrently through sample_of and
        # share the per-process hypergeometric caches; their locks must
        # keep every thread's bytes equal to an inline run's.
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
