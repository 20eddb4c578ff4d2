"""Tests for repro.warehouse.synopsis (partition summary statistics)."""

from __future__ import annotations

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.kernels import (available_backends, fold_moments,
                           numpy_available, use_backend)
from repro.rng import SplittableRng
from repro.warehouse.ingest import CountPolicy
from repro.warehouse.parallel import SampleTask, sample_partition
from repro.warehouse.rollup import temporal_rollup_with_synopses
from repro.warehouse.storage import sample_to_dict
from repro.warehouse.synopsis import (PartitionSynopsis,
                                      SynopsisAccumulator)
from repro.warehouse.warehouse import SampleWarehouse


def moments(values):
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, var


class TestFromValues:
    def test_exact_moments(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        s = PartitionSynopsis.from_values(values)
        assert s.exact and s.numeric
        assert s.count == 8 and s.basis == 8
        mean, var = moments(values)
        assert math.isclose(s.mean, mean)
        assert math.isclose(s.variance, var)
        assert s.minimum == 1.0 and s.maximum == 9.0

    def test_heavy_hitters_ranked(self):
        values = [1] * 5 + [2] * 3 + [3]
        s = PartitionSynopsis.from_values(values, top=2)
        assert [v for v, _ in s.top_k] == [1, 2]
        assert [c for _, c in s.top_k] == [5, 3]

    def test_non_numeric_values(self):
        s = PartitionSynopsis.from_values(["a", "b", "a"])
        assert s.count == 3 and not s.numeric
        assert s.top_k[0] == ("a", 2)
        with pytest.raises(ConfigurationError):
            s.mean

    def test_bool_is_not_numeric(self):
        assert not PartitionSynopsis.from_values([True, False]).numeric

    def test_accumulator_matches_batch(self):
        values = [float(i % 7) for i in range(100)]
        acc = SynopsisAccumulator()
        for v in values:
            acc.feed(v)
        assert acc.finalize() == PartitionSynopsis.from_values(values)


def _lognormal(seed, n):
    rng = SplittableRng(seed)
    return [rng.lognormvariate(0.0, 2.0) for _ in range(n)]


_VALUE_LISTS = st.one_of(
    st.lists(st.integers(-10**6, 10**6), max_size=80),
    st.builds(_lognormal, st.integers(0, 2**32), st.integers(0, 80)),
    st.lists(st.text(max_size=3), max_size=40),
    st.lists(st.booleans(), max_size=40),
    st.lists(st.one_of(st.integers(-3, 3), st.booleans(),
                       st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from(["a", "b"])), max_size=60),
)


class TestFeedMany:
    """``feed_many`` over any split equals per-element ``feed``, bit for
    bit (compared through ``repr``, which keeps NaN, -0.0 and the type
    of every top-k key)."""

    @settings(max_examples=200, deadline=None)
    @given(values=_VALUE_LISTS, data=st.data())
    def test_any_split_matches_feed(self, values, data):
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(values)), max_size=5)))
        one = SynopsisAccumulator(top=3)
        for v in values:
            one.feed(v)
        many = SynopsisAccumulator(top=3)
        for lo, hi in zip([0] + cuts, cuts + [len(values)]):
            many.feed_many(values[lo:hi])
        assert many.count == one.count
        assert repr(many.finalize()) == repr(one.finalize())

    def test_from_values_is_feed_many(self):
        values = _lognormal(7, 500)
        acc = SynopsisAccumulator()
        for v in values:
            acc.feed(v)
        assert repr(PartitionSynopsis.from_values(values)) \
            == repr(acc.finalize())

    def test_left_to_right_totals(self):
        # Compensated summation would give 2.0; left-to-right gives 0.0.
        s = PartitionSynopsis.from_values([1e16, 1.0, 1.0, -1e16])
        assert s.total == 0.0

    def test_nan_range_folds_from_running_extremes(self):
        nan = float("nan")
        one = SynopsisAccumulator()
        for v in [1.0, nan, 0.0, 3.0]:
            one.feed(v)
        many = SynopsisAccumulator()
        many.feed_many([1.0])
        many.feed_many([nan, 0.0, 3.0])
        assert repr(many.finalize()) == repr(one.finalize())
        assert (one.finalize().minimum, one.finalize().maximum) == (0.0, 3.0)

    @pytest.mark.parametrize("values", [[1, True], [True, 1]])
    def test_int_bool_mix_is_non_numeric(self, values):
        s = PartitionSynopsis.from_values(values)
        assert not s.numeric
        # 1 and True share one counter key: the first one seen.
        assert s.top_k == ((values[0], 2.0),)

    def test_empty_slice_is_a_no_op(self):
        acc = SynopsisAccumulator()
        acc.feed_many([])
        acc.feed_many(())
        assert acc.count == 0
        assert not acc.finalize().numeric


def _edge_slice(kind, seed, n):
    """``n`` values of one edge case of the moment fold."""
    rng = SplittableRng(seed)
    if kind == "zipf":
        return [int(rng.paretovariate(1.2)) for _ in range(n)]
    if kind == "unique":
        start = rng.randrange(-10**9, 10**9)
        return list(range(start, start + n))
    if kind == "lognormal":
        return _lognormal(seed, n)
    if kind == "huge":
        return [rng.choice([1e300, -1e300, 1.0, 2.5]) for _ in range(n)]
    if kind == "int70":
        return [2**70 + rng.randrange(2**40) for _ in range(n)]
    if kind == "int64":
        return [rng.randrange(-2**63, 2**63) for _ in range(n)]
    if kind == "zeros":
        return [rng.choice([0.0, -0.0, 0, 1.0, -1.0]) for _ in range(n)]
    if kind == "inf":
        return [rng.choice([math.inf, -math.inf, 1.0]) for _ in range(n)]
    if kind == "square_overflow":
        return [rng.choice([1e200, -1e200, 3.0]) for _ in range(n)]
    if kind == "nan":
        values = _lognormal(seed, n)
        for _ in range(rng.randrange(1, 4)):
            values[rng.randrange(n)] = math.nan
        return values
    import numpy as np
    if kind == "numpy_int32":
        return np.array([rng.randrange(-2**31, 2**31) for _ in range(n)],
                        dtype=np.int32)
    if kind == "numpy_float32":
        return np.array(_lognormal(seed, n), dtype=np.float32)
    assert kind == "numpy_scalars", kind
    return [rng.choice([np.int32(-7), np.float32(0.1), np.float64(-0.0),
                        np.int64(2**62), 3, 0.5]) for _ in range(n)]


_EDGE_KINDS = ("zipf", "unique", "lognormal", "huge", "int70", "int64",
               "zeros", "inf", "square_overflow", "nan", "numpy_int32",
               "numpy_float32", "numpy_scalars")

_LARGE_SLICES = st.builds(_edge_slice, st.sampled_from(_EDGE_KINDS),
                          st.integers(0, 2**32), st.integers(4096, 6000))


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestBackendsAgree:
    """Synopses do not depend on the kernel backend: the numpy moment
    fold is the python fold's IEEE operations in the same order, so the
    two give the same ``repr``, split anywhere."""

    @settings(max_examples=150, deadline=None)
    @given(values=st.one_of(_VALUE_LISTS, _LARGE_SLICES), data=st.data())
    def test_same_synopsis_on_both_backends(self, values, data):
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(values)), max_size=5)))
        reprs = []
        for backend in ("python", "numpy"):
            with use_backend(backend):
                acc = SynopsisAccumulator(top=3)
                for lo, hi in zip([0] + cuts, cuts + [len(values)]):
                    acc.feed_many(values[lo:hi])
                reprs.append(repr(acc.finalize()))
        assert reprs[0] == reprs[1]

    @pytest.mark.parametrize("kind", _EDGE_KINDS)
    def test_every_edge_case_in_large_slices(self, kind):
        values = _edge_slice(kind, 11, 5000)
        reprs = []
        for backend in ("python", "numpy"):
            with use_backend(backend):
                reprs.append(repr(PartitionSynopsis.from_values(values)))
        assert reprs[0] == reprs[1]


    def test_int64_conversion_rounds_like_float(self):
        # The all-int slice converts through int64; the cast must round
        # exactly as float() does, also past 2**53.
        rng = SplittableRng(5)
        values = [rng.randrange(-2**63, 2**63) for _ in range(200_000)]
        values += [2**53 + 1, 2**62 + 2**9 + 1, -2**63, 2**63 - 1]
        folds = []
        for backend in ("python", "numpy"):
            with use_backend(backend):
                folds.append(repr(fold_moments(values, 0.0, 0.0, None,
                                               None, ints=True)))
        assert folds[0] == folds[1]

    @pytest.mark.parametrize("values", [
        [1, 2**63, 3],              # past int64: the general path
        [2**53 + 1, 2**62 + 2**9 + 1, -5],
        [7] * 4097,
    ], ids=["past-int64", "rounding", "constant"])
    def test_int_slices_split_anywhere(self, values):
        reprs = []
        for backend in ("python", "numpy"):
            with use_backend(backend):
                acc = SynopsisAccumulator()
                acc.feed_many(values[:2])
                acc.feed_many(values[2:])
                reprs.append(repr(acc.finalize()))
        assert reprs[0] == reprs[1] == repr(
            PartitionSynopsis.from_values(values))


@pytest.mark.parametrize("backend", available_backends())
class TestOutOfRangeInts:
    """An int too large for a float is rejected before any state
    changes, on either backend."""

    def test_feed_many_leaves_accumulator_unchanged(self, backend):
        acc = SynopsisAccumulator()
        acc.feed_many([3, 4])
        before = repr(acc.finalize())
        with use_backend(backend):
            with pytest.raises(ConfigurationError, match="float range"):
                acc.feed_many([1, 10**400])
        assert acc.count == 2
        assert repr(acc.finalize()) == before

    def test_feed_leaves_accumulator_unchanged(self, backend):
        acc = SynopsisAccumulator()
        with use_backend(backend):
            with pytest.raises(ConfigurationError, match="float range"):
                acc.feed(-10**400)
        assert acc.count == 0
        assert acc.finalize().top_k == ()

    def test_non_numeric_slice_keeps_big_ints(self, backend):
        # No float is taken of a non-numeric partition's values.
        with use_backend(backend):
            s = PartitionSynopsis.from_values(["a", 10**400])
        assert s.count == 2 and not s.numeric

    def test_ingest_batch_registers_nothing(self, backend):
        wh = SampleWarehouse(bound_values=64, rng=SplittableRng(1))
        with use_backend(backend):
            with pytest.raises(ConfigurationError):
                wh.ingest_batch("d", list(range(100)) + [10**400],
                                partitions=4)
        assert wh.catalog.datasets() == []

    def test_stream_rejects_the_slice_only(self, backend):
        values = list(range(300))

        def run(bad):
            wh = SampleWarehouse(bound_values=16, rng=SplittableRng(2))
            with use_backend(backend):
                stream = wh.open_stream("d", policy=CountPolicy(128))
                stream.feed_many(values[:200])
                if bad:
                    with pytest.raises(ConfigurationError):
                        stream.feed_many([7, 10**400])
                    with pytest.raises(ConfigurationError):
                        stream.feed(10**400)
                stream.feed_many(values[200:])
                stream.close()
            return [(repr(m.synopsis), sample_to_dict(wh.sample_for(m.key)))
                    for m in wh.catalog.partitions("d")]

        assert run(bad=True) == run(bad=False)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestNumpyValues:
    def test_numpy_ints_are_numeric(self):
        import numpy as np
        s = PartitionSynopsis.from_values(np.arange(10))
        assert s.numeric
        assert s == PartitionSynopsis.from_values(list(range(10)))
        assert s == PartitionSynopsis.from_values(np.arange(10.0))

    def test_numpy_scalars_fed_one_by_one(self):
        import numpy as np
        acc = SynopsisAccumulator()
        for v in np.arange(5, dtype=np.int32):
            acc.feed(v)
        assert acc.finalize() == PartitionSynopsis.from_values(range(5))

    def test_numpy_bools_are_not_numeric(self):
        import numpy as np
        values = np.array([True, False, True])
        assert not PartitionSynopsis.from_values(values).numeric

    def test_empty_array(self):
        import numpy as np
        acc = SynopsisAccumulator()
        acc.feed_many(np.arange(0))
        assert acc.count == 0


class TestTopPairs:
    def test_ties_broken_by_first_seen(self):
        # Every count ties: the five values seen first win.
        s = PartitionSynopsis.from_values(list(range(20)), top=5)
        assert [v for v, _ in s.top_k] == [0, 1, 2, 3, 4]

    def test_partial_selection_matches_full_sort(self):
        rng = SplittableRng(3)
        values = [int(rng.paretovariate(1.2)) for _ in range(3000)]
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        # A stable count-descending sort keeps tied values in
        # first-seen order.
        ranked = sorted(counts.items(), key=lambda kv: kv[1], reverse=True)
        expected = tuple((v, float(c)) for v, c in ranked[:8])
        assert PartitionSynopsis.from_values(values).top_k == expected

    @staticmethod
    def oracle(values, top):
        """A stable count-descending sort of the first-seen count."""
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: kv[1], reverse=True)
        return tuple((v, float(c)) for v, c in ranked[:top])

    @staticmethod
    def spy_nlargest(monkeypatch):
        calls = []
        nlargest = heapq.nlargest
        monkeypatch.setattr(heapq, "nlargest", lambda *args: (
            calls.append(args[0]), nlargest(*args))[1])
        return calls

    @pytest.mark.parametrize("top", [1, 8, 299, 300, 301, 500])
    def test_all_distinct_reads_the_first_pairs(self, monkeypatch, top):
        values = list(range(300))
        SplittableRng(6).shuffle(values)
        calls = self.spy_nlargest(monkeypatch)
        acc = SynopsisAccumulator(top=top)
        acc.feed_many(values[:120])
        acc.feed_many(values[120:])
        assert acc.finalize().top_k == self.oracle(values, top)
        assert calls == []

    @pytest.mark.parametrize("top", [1, 2, 8])
    def test_equal_keys_are_not_all_distinct(self, monkeypatch, top):
        # 1 and True share a key: three arrivals, two keys, and the
        # value seen second leads.
        values = [2, 1, True]
        calls = self.spy_nlargest(monkeypatch)
        acc = SynopsisAccumulator(top=top)
        acc.feed_many(values)
        top_k = acc.finalize().top_k
        assert top_k == self.oracle(values, top)
        assert top_k[0] == (1, 2.0)
        assert len(calls) == (top < 2)

    def test_batch_and_stream_ingest_agree(self):
        values = list(range(5_000, 9_096))
        tops = []
        for path in ("batch", "stream"):
            wh = SampleWarehouse(bound_values=64, rng=SplittableRng(1))
            if path == "batch":
                wh.ingest_batch("d", values, partitions=1)
            else:
                stream = wh.open_stream("d", policy=CountPolicy(len(values)))
                stream.feed_many(values[:1000])
                for v in values[1000:1010]:
                    stream.feed(v)
                stream.feed_many(values[1010:])
                stream.close()
            (meta,) = wh.catalog.partitions("d")
            tops.append(meta.synopsis.top_k)
        assert tops[0] == tops[1]
        assert [v for v, _ in tops[0]] == values[:8]

    def test_merge_and_rollup_deterministic(self):
        members = [PartitionSynopsis.from_values(
            [i * 100 + j for j in range(50)] + [7] * (i % 3))
            for i in range(6)]
        first = PartitionSynopsis.merge(members)
        assert PartitionSynopsis.merge(list(members)) == first
        # 7 leads with a summed count of 5; the tied counts of 1 keep
        # the values seen first, in member order.
        assert first.top_k[0] == (7, 5.0)
        assert [v for v, _ in first.top_k[1:]] == list(range(7))

        def rolled():
            wh = SampleWarehouse(bound_values=32, rng=SplittableRng(4))
            for day in range(6):
                wh.ingest_batch("d", [day * 100 + j for j in range(40)],
                                labels=[f"day{day}"])
            return temporal_rollup_with_synopses(wh, "d", window=3,
                                                 rng=SplittableRng(5))

        one, two = rolled(), rolled()
        assert [s.top_k for _, s in one.values()] == \
            [s.top_k for _, s in two.values()]
        assert [v for v, _ in one["w0"][1].top_k] == list(range(8))


class TestFromSample:
    def sample(self, values, *, bound=32, seed=1, scheme="hr", sb_rate=None):
        return sample_partition(SampleTask(
            values=values, scheme=scheme, bound_values=bound, sb_rate=sb_rate,
            seed=SplittableRng(seed).spawn("s").seed_value))

    def test_exhaustive_is_exact(self):
        values = [1.0, 2.0, 3.0]
        s = PartitionSynopsis.from_sample(self.sample(values, bound=32))
        assert s.exact
        assert s.count == 3 and s.basis == 3
        assert math.isclose(s.total, 6.0)

    def test_scaled_up_is_estimated(self):
        values = [float(v) for v in range(2_000)]
        sample = self.sample(values)
        s = PartitionSynopsis.from_sample(sample)
        assert not s.exact
        assert s.count == 2_000
        assert s.basis == sample.size
        # HT scale-up: the estimated total is unbiased, so for a
        # 32-of-2000 uniform sample it lands well within a few sigma.
        truth = sum(values)
        assert abs(s.total - truth) < truth

    def test_empty_sample_of_nonempty_parent(self):
        values = list(range(100))
        for seed in range(20):
            sample = self.sample(values, bound=8, scheme="sb",
                                 sb_rate=0.001, seed=seed)
            if sample.size == 0:  # Bernoulli can keep nothing
                s = PartitionSynopsis.from_sample(sample)
                assert not s.numeric
                return
        pytest.skip("no seed produced an empty Bernoulli sample")


class TestMerge:
    def test_merge_equals_recompute(self):
        a = [float(i) for i in range(50)]
        b = [float(i) for i in range(50, 120)]
        merged = PartitionSynopsis.merge([
            PartitionSynopsis.from_values(a),
            PartitionSynopsis.from_values(b)])
        assert merged == PartitionSynopsis.from_values(a + b)

    def test_merge_mixed_exactness(self):
        exact = PartitionSynopsis.from_values([1.0, 2.0])
        est = PartitionSynopsis(count=10, total=30.0, total_sq=100.0,
                                minimum=1.0, maximum=5.0,
                                exact=False, basis=4)
        merged = PartitionSynopsis.merge([exact, est])
        assert not merged.exact
        assert merged.count == 12 and merged.basis == 6

    def test_merge_adds_totals_left_to_right(self):
        # Compensated summation (sum() on Python 3.12) would give 2.0.
        members = [PartitionSynopsis(count=1, total=t, total_sq=t * t,
                                     minimum=t, maximum=t)
                   for t in (1e16, 1.0, 1.0, -1e16)]
        merged = PartitionSynopsis.merge(members)
        assert merged.total == 0.0
        assert merged.total_sq == 2e32

    def test_merge_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitionSynopsis.merge([])


class TestWithout:
    def test_exact_decrement(self):
        values = [1.0, 2.0, 2.0, 5.0]
        s = PartitionSynopsis.from_values(values)
        shrunk = s.without(2.0)
        expected = PartitionSynopsis.from_values([1.0, 2.0, 5.0])
        assert shrunk.count == expected.count
        assert math.isclose(shrunk.total, expected.total)
        assert math.isclose(shrunk.total_sq, expected.total_sq)
        assert dict(shrunk.top_k)[2.0] == 1

    def test_empty_rejected(self):
        s = PartitionSynopsis.from_values([1.0])
        with pytest.raises(ConfigurationError):
            s.without(1.0).without(1.0)


class TestSerialization:
    def test_round_trip_numeric(self):
        s = PartitionSynopsis.from_values([1.0, 2.0, 2.0, 7.5])
        assert PartitionSynopsis.from_dict(s.to_dict()) == s

    def test_round_trip_non_numeric(self):
        s = PartitionSynopsis.from_values(["x", "y", "x"])
        back = PartitionSynopsis.from_dict(s.to_dict())
        assert back.count == 3 and not back.numeric
        assert back.top_k == s.top_k

    def test_defaults_for_sparse_dicts(self):
        # A minimal dict (e.g. written by an older producer) loads with
        # conservative defaults.
        s = PartitionSynopsis.from_dict({"count": 5})
        assert s.count == 5 and s.exact and s.basis == 0
        assert not s.numeric
