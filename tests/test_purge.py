"""Tests for repro.core.purge (Figures 3 and 4) and the Fenwick tree."""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ALPHA, MIXED_KEYS, assert_same_state,
                      dense_binomial_counts, dense_purge_state,
                      dense_srs_counts, histogram_state)
from repro.core.histogram import CompactHistogram
from repro.core.purge import (FenwickTree, purge_bernoulli, purge_reservoir,
                              purge_reservoir_tally)
from repro.errors import ConfigurationError
from repro.kernels import available_backends, use_backend
from repro.rng import SplittableRng
from repro.stats.uniformity import (inclusion_frequency_test,
                                    subset_frequency_test)
from repro.testkit import sweep


class TestFenwickTree:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FenwickTree(-1)
        t = FenwickTree(3)
        with pytest.raises(ConfigurationError):
            t.add(3, 1)
        with pytest.raises(ConfigurationError):
            t.find_by_rank(1)  # empty

    def test_add_and_prefix_sum(self):
        t = FenwickTree(5)
        t.add(0, 3)
        t.add(2, 2)
        t.add(4, 1)
        assert t.total == 6
        assert t.prefix_sum(0) == 3
        assert t.prefix_sum(1) == 3
        assert t.prefix_sum(2) == 5
        assert t.prefix_sum(4) == 6

    def test_find_by_rank(self):
        t = FenwickTree(3)
        t.add(0, 3)
        t.add(2, 2)
        # counts = [3, 0, 2]; ranks 1..3 -> 0, ranks 4..5 -> 2
        assert [t.find_by_rank(r) for r in range(1, 6)] == [0, 0, 0, 2, 2]

    def test_counts_materialization(self):
        t = FenwickTree(4)
        t.add(1, 2)
        t.add(3, 5)
        assert t.counts() == [0, 2, 0, 5]

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=9),
                              st.integers(min_value=1, max_value=5)),
                    max_size=60))
    @settings(max_examples=80)
    def test_matches_linear_scan(self, updates):
        t = FenwickTree(10)
        shadow = [0] * 10
        for idx, delta in updates:
            t.add(idx, delta)
            shadow[idx] += delta
        assert t.counts() == shadow
        assert t.total == sum(shadow)
        for rank in range(1, sum(shadow) + 1):
            # linear-scan reference for find_by_rank
            acc = 0
            for i, c in enumerate(shadow):
                acc += c
                if acc >= rank:
                    expected = i
                    break
            assert t.find_by_rank(rank) == expected


class TestPurgeBernoulli:
    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            purge_bernoulli(CompactHistogram(), 1.5, rng)

    def test_rate_edges(self, rng):
        h = CompactHistogram.from_values([1, 1, 2])
        assert purge_bernoulli(h, 0.0, rng).size == 0
        full = purge_bernoulli(h, 1.0, rng)
        assert full == h
        assert full is not h  # a copy, input untouched

    def test_input_untouched(self, rng):
        h = CompactHistogram.from_values(list(range(100)) * 2)
        before = dict(h.pairs())
        purge_bernoulli(h, 0.3, rng)
        assert dict(h.pairs()) == before

    def test_counts_within_originals(self, rng):
        h = CompactHistogram.from_pairs([("a", 10), ("b", 1), ("c", 5)])
        out = purge_bernoulli(h, 0.5, rng)
        for v, n in out.pairs():
            assert n <= h.count(v)

    def test_expected_size(self, rng):
        h = CompactHistogram.from_pairs([(i, 7) for i in range(100)])
        q, trials = 0.3, 200
        sizes = [purge_bernoulli(h, q, rng.spawn(t)).size
                 for t in range(trials)]
        mean = sum(sizes) / trials
        n = h.size
        assert abs(mean - n * q) < 5 * math.sqrt(n * q * (1 - q) / trials)

    def test_per_element_uniformity(self, rng):
        """Every element (occurrence) survives equally often."""
        h = CompactHistogram.from_values(list("aabbbc"))

        def sample_fn(values, child):
            # use distinct-value histogram for attribution
            hist = CompactHistogram.from_values(values)
            return purge_bernoulli(hist, 0.4, child).expand()

        result = sweep(
            lambda child: inclusion_frequency_test(
                sample_fn, list(range(12)), trials=1_000, rng=child),
            rng=rng, seeds=3, alpha=ALPHA)
        assert result.accepted, result.describe()
        del h


class TestPurgeReservoir:
    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            purge_reservoir(CompactHistogram(), -1, rng)

    def test_size_zero(self, rng):
        h = CompactHistogram.from_values([1, 2])
        assert purge_reservoir(h, 0, rng).size == 0

    def test_oversize_returns_copy(self, rng):
        h = CompactHistogram.from_values([1, 1, 2])
        out = purge_reservoir(h, 10, rng)
        assert out == h
        assert out is not h

    def test_exact_size(self, rng):
        h = CompactHistogram.from_pairs([(i, 5) for i in range(50)])
        for m in (1, 10, 100, 249):
            assert purge_reservoir(h, m, rng).size == m

    def test_counts_within_originals(self, rng):
        h = CompactHistogram.from_pairs([("a", 10), ("b", 2)])
        out = purge_reservoir(h, 5, rng)
        assert out.size == 5
        for v, n in out.pairs():
            assert n <= h.count(v)

    def test_input_untouched(self, rng):
        h = CompactHistogram.from_pairs([("a", 10), ("b", 2)])
        before = dict(h.pairs())
        purge_reservoir(h, 3, rng)
        assert dict(h.pairs()) == before

    def test_subset_uniformity(self, rng):
        """purgeReservoir is an SRS of the bag: all k-subsets equally
        likely (distinct-valued bag, so subsets are identifiable)."""
        def sample_fn(values, child):
            hist = CompactHistogram.from_values(values)
            return purge_reservoir(hist, 2, child).expand()

        result = sweep(
            lambda child: subset_frequency_test(
                sample_fn, list(range(6)), size=2, trials=2_000,
                rng=child),
            rng=rng, seeds=3, alpha=ALPHA)
        assert result.accepted, result.describe()

    def test_duplicate_occurrences_uniform(self, rng):
        """With duplicated values, expected kept count per value is
        proportional to its multiplicity."""
        h = CompactHistogram.from_pairs([("a", 30), ("b", 10)])
        trials, m = 2_000, 4
        total_a = 0
        for t in range(trials):
            out = purge_reservoir(h, m, rng.spawn(t))
            total_a += out.count("a")
        mean_a = total_a / trials
        assert abs(mean_a - m * 30 / 40) < 0.1

    @given(st.lists(st.tuples(st.sampled_from("abcdef"),
                              st.integers(min_value=1, max_value=9)),
                    min_size=1, max_size=10),
           st.integers(min_value=0, max_value=60))
    @settings(max_examples=80)
    def test_property_size_and_containment(self, pairs, m):
        rng = SplittableRng(hash((tuple(pairs), m)) & 0xFFFFF)
        h = CompactHistogram.from_pairs(pairs)
        out = purge_reservoir(h, m, rng)
        assert out.size == min(m, h.size)
        for v, n in out.pairs():
            assert n <= h.count(v)


def purge_reservoir_concat(first, second, size, rng):
    """Figure 6, lines 15-16, as HBMerge runs it: a simple random
    subsample of ``expand(first) ++ expand(second)``, taken by purging
    their join."""
    return purge_reservoir(first.join(second), size, rng)


class TestPurgeReservoirConcat:
    def test_size_zero(self, rng):
        a = CompactHistogram.from_values([1])
        b = CompactHistogram.from_values([2])
        assert purge_reservoir_concat(a, b, 0, rng).size == 0

    def test_oversize_joins(self, rng):
        a = CompactHistogram.from_values([1, 2])
        b = CompactHistogram.from_values([2, 3])
        out = purge_reservoir_concat(a, b, 10, rng)
        assert out == a.join(b)

    def test_exact_size_and_coalescing(self, rng):
        a = CompactHistogram.from_pairs([("x", 10)])
        b = CompactHistogram.from_pairs([("x", 10), ("y", 5)])
        out = purge_reservoir_concat(a, b, 12, rng)
        assert out.size == 12
        assert out.count("x") <= 20
        assert out.count("y") <= 5

    def test_subset_uniformity_across_inputs(self, rng):
        """SRS over the concatenated bag: inclusion frequencies even out
        across both inputs."""
        def sample_fn(values, child):
            mid = len(values) // 2
            a = CompactHistogram.from_values(values[:mid])
            b = CompactHistogram.from_values(values[mid:])
            return purge_reservoir_concat(a, b, 4, child).expand()

        result = sweep(
            lambda child: inclusion_frequency_test(
                sample_fn, list(range(16)), trials=1_500, rng=child),
            rng=rng, seeds=3, alpha=ALPHA)
        assert result.accepted, result.describe()


def tally_state(tally):
    counts, size, singletons = tally
    return list(counts.items()), size, singletons


@pytest.mark.parametrize("backend", available_backends())
class TestSurvivorAssembly:
    """Purges assembled from the kernels' surviving runs equal the
    dense-vector assembly they replaced: same pairs in order, same key
    objects, same size and singletons, and the same rng consumption."""

    @given(values=st.lists(MIXED_KEYS, max_size=60), data=st.data(),
           seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_purge_reservoir(self, backend, values, data, seed):
        h = CompactHistogram.from_values(values)
        size = data.draw(st.integers(0, h.size + 2))
        ours, theirs, tallied = (SplittableRng(seed) for _ in range(3))
        with use_backend(backend):
            got = purge_reservoir(h, size, ours)
            tally = purge_reservoir_tally(h, size, tallied)
            if size == 0:
                want = [], 0, 0
            elif size >= h.size:
                want = histogram_state(h)
            else:
                want = dense_purge_state(
                    h, dense_srs_counts(h.run_lengths(), size, theirs))
        assert_same_state(histogram_state(got), want)
        assert_same_state(tally_state(tally), want)
        assert ours.random() == theirs.random() == tallied.random()

    @given(values=st.lists(MIXED_KEYS, max_size=60),
           q=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_purge_bernoulli(self, backend, values, q, seed):
        h = CompactHistogram.from_values(values)
        ours, theirs = SplittableRng(seed), SplittableRng(seed)
        with use_backend(backend):
            got = purge_bernoulli(h, q, ours)
            if q == 0.0:
                want = [], 0, 0
            elif q == 1.0:
                want = histogram_state(h)
            else:
                want = dense_purge_state(
                    h, dense_binomial_counts(h.run_lengths(), q, theirs))
        assert_same_state(histogram_state(got), want)
        assert ours.random() == theirs.random()

    def test_single_survivor(self, backend):
        # itemgetter with one index returns the value itself, not a tuple.
        h = CompactHistogram.from_values([(1, 2), (1, 2), "ab", 7])
        with use_backend(backend):
            for seed in range(20):
                got = purge_reservoir(h, 1, SplittableRng(seed))
                assert got.size == got.distinct == got.singletons == 1
                assert next(got.values()) in h

    def test_oversize_copy_does_not_share_the_input(self, backend):
        h = CompactHistogram.from_values([1, 1, 2])
        with use_backend(backend):
            for source in (h, CompactHistogram()):
                out = purge_reservoir(source, 5, SplittableRng(1))
                out.insert("new")
                assert "new" not in source


def _fresh(histogram):
    """An equal histogram, built from its pairs, with no run index."""
    return CompactHistogram.from_pairs(list(histogram.pairs()))


def _purge(op, histogram, arg, seed):
    """One purge as a comparable state: a tally's or a histogram's."""
    rng = SplittableRng(seed)
    if op == "reservoir":
        return tally_state(purge_reservoir_tally(histogram, arg, rng))
    return histogram_state(purge_bernoulli(histogram, arg, rng))


@pytest.mark.parametrize("backend", available_backends())
class TestRunIndex:
    """A histogram's run index is a memo of its value: a purge draws the
    same bytes whether or not the index is built, after any mutation and
    after a backend switch."""

    @given(values=st.lists(MIXED_KEYS, min_size=2, max_size=30),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_mutations_and_purges_match_a_fresh_copy(self, backend, values,
                                                     data):
        h = CompactHistogram.from_values(values)
        mutators = data.draw(st.lists(st.sampled_from(
            ["insert", "extend", "insert_count", "remove"]), max_size=8))

        def key():
            return data.draw(st.one_of(MIXED_KEYS,
                                       st.sampled_from(list(h.values()))))

        def purge_and_compare():
            # A size strictly inside (0, |S|), or a rate inside (0, 1),
            # makes the purge read the index.
            if data.draw(st.booleans()):
                op, arg = "reservoir", data.draw(st.integers(1, h.size - 1))
            else:
                op, arg = "bernoulli", data.draw(st.floats(0.05, 0.95))
            seed = data.draw(st.integers(0, 2**32))
            assert_same_state(_purge(op, h, arg, seed),
                              _purge(op, _fresh(h), arg, seed))

        with use_backend(backend):
            for step in mutators:
                purge_and_compare()
                if step == "insert":
                    h.insert(key())
                elif step == "extend":
                    h.extend(data.draw(st.lists(MIXED_KEYS, max_size=8)))
                elif step == "insert_count":
                    h.insert_count(key(), data.draw(st.integers(1, 5)))
                elif h.size > 2:
                    value = data.draw(st.sampled_from(list(h.values())))
                    h.remove(value, data.draw(st.integers(
                        1, min(h.count(value), h.size - 2))))
            purge_and_compare()

    def test_backend_switch_rebuilds_the_index(self, monkeypatch, backend):
        """Purging on one backend, then on another, gives the second
        backend's fresh-copy bytes; the python kernels never receive an
        ndarray and every kept count is a Python ``int``."""
        import repro.kernels.python as python_kernels

        for name in ("binomial_counts", "srs_counts"):
            original = getattr(python_kernels, name)

            def checked(runs, *args, __original=original):
                assert isinstance(runs, tuple), type(runs)
                return __original(runs, *args)

            monkeypatch.setattr(python_kernels, name, checked)
        rng = SplittableRng(4)
        h = CompactHistogram.from_values(
            [rng.randrange(300) for _ in range(1_000)])
        for first in available_backends():
            for op, arg in (("reservoir", 200), ("bernoulli", 0.3)):
                with use_backend(first):
                    _purge(op, h, arg, 9)
                with use_backend(backend):
                    got = _purge(op, h, arg, 11)
                    want = _purge(op, _fresh(h), arg, 11)
                assert_same_state(got, want)
                assert all(type(n) is int for _, n in got[0])

    def test_pickle_drops_the_index(self, backend):
        h = CompactHistogram.from_values([1, 1, 2, 3])
        with use_backend(backend):
            h.run_index()
            assert len(h.__getstate__()) == 3
            clone = pickle.loads(pickle.dumps(h))
            assert clone._index is None
            assert clone == h
            assert_same_state(_purge("reservoir", clone, 2, 5),
                              _purge("reservoir", h, 2, 5))

    def test_run_array_is_read_only(self, backend):
        h = CompactHistogram.from_values([1, 1, 2, 3])
        with use_backend(backend):
            keys, runs = h.run_index()
            assert keys == [1, 2, 3]
            assert list(runs) == [2, 1, 1]
            # numpy marks the array read-only; a tuple has no setitem.
            with pytest.raises(ValueError if backend == "numpy"
                               else TypeError):
                runs[0] = 7
            assert h.run_index()[1] is runs
        assert h.count(1) == 2
