"""Tests for repro.warehouse.ingest (batch division, stream policies)."""

from __future__ import annotations

from collections import _count_elements

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.histogram as histogram_module
import repro.warehouse.synopsis as synopsis_module
from conftest import sample_fingerprint
from repro.core import blocks
from repro.core.phases import SampleKind
from repro.errors import ConfigurationError, ProtocolError
from repro.kernels import available_backends, numpy_available, use_backend
from repro.rng import SplittableRng
from repro.warehouse import SampleWarehouse
from repro.warehouse.dataset import PartitionKey
from repro.warehouse.ingest import (CountPolicy, FractionPolicy,
                                    StreamIngestor, split_batch)


class TestSplitBatch:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            split_batch([1, 2], 0)

    def test_even_split(self):
        chunks = split_batch(list(range(10)), 5)
        assert [len(c) for c in chunks] == [2] * 5

    def test_remainder_spread(self):
        chunks = split_batch(list(range(11)), 3)
        assert [len(c) for c in chunks] == [4, 4, 3]

    def test_more_partitions_than_values(self):
        chunks = split_batch([1, 2], 5)
        assert [len(c) for c in chunks] == [1, 1, 0, 0, 0]

    def test_order_preserved(self):
        chunks = split_batch(list(range(9)), 2)
        assert list(chunks[0]) + list(chunks[1]) == list(range(9))

    @given(st.lists(st.integers(), max_size=200),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=80)
    def test_property_lossless(self, values, k):
        chunks = split_batch(values, k)
        assert len(chunks) == k
        rejoined = [v for c in chunks for v in c]
        assert rejoined == values
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1


class TestPolicies:
    def test_count_policy(self):
        p = CountPolicy(100)
        assert p.expected_size() == 100
        with pytest.raises(ConfigurationError):
            CountPolicy(0)

    def test_fraction_policy_validation(self):
        with pytest.raises(ConfigurationError):
            FractionPolicy(0.0)
        with pytest.raises(ConfigurationError):
            FractionPolicy(1.5)

    def test_fraction_policy_has_no_expected_size(self):
        assert FractionPolicy(0.5).expected_size() is None


class _Collector:
    def __init__(self):
        self.items = []

    def __call__(self, key, sample):
        self.items.append((key, sample))


class TestStreamIngestor:
    def make(self, policy, scheme="hr", dataset="d", **kwargs):
        sink = _Collector()
        ing = StreamIngestor(dataset, scheme=scheme, bound_values=64,
                             policy=policy, sink=sink,
                             rng=SplittableRng(3), **kwargs)
        return ing, sink

    def test_count_policy_cuts(self):
        ing, sink = self.make(CountPolicy(1000))
        ing.feed_many(range(3_500))
        keys = ing.close()
        # 3 full partitions + 1 partial
        assert len(keys) == 4
        assert [k.seq for k in keys] == [0, 1, 2, 3]
        sizes = [s.population_size for _k, s in sink.items]
        assert sizes == [1000, 1000, 1000, 500]

    def test_exact_boundary_no_empty_partition(self):
        ing, sink = self.make(CountPolicy(500))
        ing.feed_many(range(1000))
        keys = ing.close()
        assert len(keys) == 2
        assert all(s.population_size == 500 for _k, s in sink.items)

    def test_hb_scheme_with_count_policy(self):
        ing, sink = self.make(CountPolicy(2000), scheme="hb")
        ing.feed_many(range(4000))
        ing.close()
        kinds = {s.kind for _k, s in sink.items}
        assert kinds <= {SampleKind.BERNOULLI, SampleKind.RESERVOIR,
                         SampleKind.EXHAUSTIVE}

    def test_hb_scheme_requires_count_policy(self):
        with pytest.raises(ConfigurationError):
            self.make(FractionPolicy(0.5), scheme="hb")

    def test_fraction_policy_adaptive_cuts(self):
        """Partitions close once the sample/parent ratio hits the floor:
        with n_F = 64 and floor 1/16, each partition has ~1024 elements."""
        ing, sink = self.make(FractionPolicy(1 / 16))
        ing.feed_many(range(5_000))
        ing.close()
        sizes = [s.population_size for _k, s in sink.items[:-1]]
        assert sizes, "no partitions finalized"
        for size in sizes:
            assert 900 <= size <= 1100

    def test_stream_index_in_keys(self):
        ing, _sink = self.make(CountPolicy(10), stream=7)
        ing.feed_many(range(25))
        keys = ing.close()
        assert all(k.stream == 7 for k in keys)

    def test_start_seq(self):
        ing, _sink = self.make(CountPolicy(10), start_seq=5)
        ing.feed_many(range(10))
        assert ing.close() == [PartitionKey("d", 0, 5)]

    def test_close_twice(self):
        ing, _sink = self.make(CountPolicy(10))
        ing.close()
        with pytest.raises(ProtocolError):
            ing.close()

    def test_feed_after_close(self):
        ing, _sink = self.make(CountPolicy(10))
        ing.close()
        with pytest.raises(ProtocolError):
            ing.feed(1)

    def test_emitted_property(self):
        ing, _sink = self.make(CountPolicy(10))
        ing.feed_many(range(20))
        assert len(ing.emitted) == 2
        assert ing.current_seen == 0


def _stream_values(kind, n):
    rng = SplittableRng(17)
    if kind == "zipf":
        return [int(rng.paretovariate(1.1)) % 400 for _ in range(n)]
    if kind == "distinct":
        values = list(range(n))
        rng.shuffle(values)
        return values
    if kind == "lognormal":
        return [rng.lognormvariate(0.0, 2.0) for _ in range(n)]
    return [rng.choice([True, False, 0, 1, 2, 7]) for _ in range(n)]


class _SynopsisCollector:
    def __init__(self):
        self.items = []

    def __call__(self, key, sample, synopsis):
        self.items.append((key, sample, list(sample.histogram.pairs()),
                           repr(synopsis)))


class TestFeedManySlicing:
    """``feed_many`` slices a list at partition cuts; the catalog,
    samples and synopses equal those of per-arrival ``feed``."""

    N = 3_700
    CUT = 500

    def run(self, scheme, values, chunks=None, policy=None):
        sink = _SynopsisCollector()
        ing = StreamIngestor("d", scheme=scheme, bound_values=32,
                             policy=policy or CountPolicy(self.CUT),
                             sink=sink, sb_rate=0.05, rng=SplittableRng(9))
        if chunks is None:
            for v in values:
                ing.feed(v)
        else:
            pos = 0
            for size in chunks:
                ing.feed_many(values[pos:pos + size])
                pos += size
        return ing.close(), sink.items

    @pytest.mark.parametrize("scheme", ["hr", "hb", "hb-mp", "sb"])
    @pytest.mark.parametrize("kind",
                             ["zipf", "distinct", "lognormal", "intbool"])
    @pytest.mark.parametrize("chunks", [
        (3_700,),                        # one list, many cuts
        (1, 499, 1, 998, 1, 2_200),      # ends on, just past and before cuts
        (250, 501, 749, 2_200),          # every slice straddles a cut
    ])
    def test_matches_per_element_feed(self, scheme, kind, chunks):
        values = _stream_values(kind, self.N)
        assert self.run(scheme, values, chunks) == self.run(scheme, values)

    def test_tuple_input(self):
        values = _stream_values("zipf", self.N)
        assert self.run("hr", tuple(values), (self.N,)) \
            == self.run("hr", values)

    def spy_feed(self, ing, monkeypatch):
        calls = []
        original = ing.feed
        monkeypatch.setattr(ing, "feed",
                            lambda v: (calls.append(v), original(v)))
        return calls

    def make(self, policy, scheme="hr"):
        return StreamIngestor("d", scheme=scheme, bound_values=32,
                              policy=policy, sink=_SynopsisCollector(),
                              rng=SplittableRng(9))

    def test_count_policy_list_skips_per_element_feed(self, monkeypatch):
        ing = self.make(CountPolicy(100))
        calls = self.spy_feed(ing, monkeypatch)
        ing.feed_many(list(range(250)))
        assert calls == []
        assert len(ing.emitted) == 2 and ing.current_seen == 50

    def test_fraction_policy_feeds_per_element(self, monkeypatch):
        ing = self.make(FractionPolicy(1 / 16))
        calls = self.spy_feed(ing, monkeypatch)
        ing.feed_many(list(range(2_000)))
        assert calls == list(range(2_000))

    def test_generator_feeds_per_element(self, monkeypatch):
        ing = self.make(CountPolicy(100))
        calls = self.spy_feed(ing, monkeypatch)
        ing.feed_many(v for v in range(250))
        assert calls == list(range(250))
        assert len(ing.emitted) == 2

    def test_count_policy_subclass_feeds_per_element(self, monkeypatch):
        class EarlyCut(CountPolicy):
            def should_cut(self, sampler):
                return sampler.seen >= 10

        ing = self.make(EarlyCut(100))
        calls = self.spy_feed(ing, monkeypatch)
        ing.feed_many(list(range(25)))
        assert len(calls) == 25 and len(ing.emitted) == 2

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    @pytest.mark.parametrize("kind", ["zipf", "distinct"])
    @pytest.mark.parametrize("block", [None, 7])
    def test_fraction_policy_cuts_where_per_arrival_rule_does(
            self, monkeypatch, kind, block):
        # HR reports the reservoir from the arrival that brings the
        # footprint to F, so the numpy block path cuts every partition
        # at the arrival the python backend's per-arrival switch does.
        if block is not None:
            monkeypatch.setattr(blocks, "BLOCK", block)
        values = _stream_values(kind, 20_000)
        populations = {}
        for backend in ("python", "numpy"):
            with use_backend(backend):
                _, items = self.run("hr", values,
                                    policy=FractionPolicy(1 / 16))
            populations[backend] = [s.population_size
                                    for _, s, _, _ in items]
        assert len(populations["numpy"]) > 10
        assert populations["numpy"] == populations["python"]

    @pytest.mark.parametrize("values", [[1, 2, 3], (), iter([1])])
    def test_feed_many_after_close(self, values):
        ing = self.make(CountPolicy(10))
        ing.close()
        with pytest.raises(ProtocolError):
            ing.feed_many(values)


def _catalog(wh):
    """Keys, samples in stored order, and synopses of dataset ``d``."""
    return [(meta.key, sample_fingerprint(wh.sample_for(meta.key)),
             repr(meta.synopsis)) for meta in wh.catalog.partitions("d")]


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("scheme", ["hr", "hb"])
@pytest.mark.parametrize("kind", ["zipf", "distinct", "intbool"])
class TestSlicesAcrossBlockEnds:
    """Partitions of ``2 * BLOCK + 300`` arrivals span two block ends:
    ``feed_many`` slices and ``ingest_batch``, which share one count
    between sampler and synopsis, equal per-arrival ``feed``."""

    PARTITIONS = 3

    def build(self, scheme, values, how, chunks=()):
        cut = len(values) // self.PARTITIONS
        wh = SampleWarehouse(bound_values=32, rng=SplittableRng(3))
        if how == "batch":
            wh.ingest_batch("d", values, partitions=self.PARTITIONS,
                            scheme=scheme)
            return _catalog(wh)
        stream = wh.open_stream("d", scheme=scheme, policy=CountPolicy(cut))
        if how == "feed":
            for v in values:
                stream.feed(v)
        else:
            pos = 0
            for size in chunks:
                stream.feed_many(values[pos:pos + size])
                pos += size
            stream.feed_many(values[pos:])
        stream.close()
        return _catalog(wh)

    def test_matches_per_element_feed(self, backend, scheme, kind):
        cut = 2 * blocks.BLOCK + 300
        values = _stream_values(kind, self.PARTITIONS * cut)
        with use_backend(backend):
            expected = self.build(scheme, values, "feed")
            assert len(expected) == self.PARTITIONS
            assert self.build(scheme, values, "batch") == expected
            for chunks in [(),                          # cut-aligned
                           (cut + 1, 2 * cut - 2),      # straddling cuts
                           (blocks.BLOCK - 1, 2, cut)]:  # straddling blocks
                assert self.build(scheme, values, "slices",
                                  chunks) == expected, chunks

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_array_input_matches_per_element_feed(self, backend, scheme,
                                                  kind):
        # An array is listed once, so the sampler and the synopsis's
        # count see the same scalar objects.
        import numpy as np
        cut = 2 * blocks.BLOCK + 300
        array = np.array(_stream_values(kind, self.PARTITIONS * cut),
                         dtype=object if kind == "intbool" else None)
        with use_backend(backend):
            expected = self.build(scheme, list(array), "feed")
            assert self.build(scheme, array, "batch") == expected


@pytest.mark.usefixtures("small_grid")
class TestSlicesAcrossBlockEndsSmallGrid(TestSlicesAcrossBlockEnds):
    """The same on grids of 7 and 64 arrivals."""


class TestCountOnce:
    """A slice that starts a fresh partition is hashed into a count map
    once per arrival, shared by the sampler's phase 1 and the synopsis."""

    SIZE = 4_096

    @staticmethod
    def hashed(monkeypatch):
        """Count the values hashed into count maps on the write path."""
        tally = [0]

        def counting(counts, values):
            tally[0] += len(values)
            _count_elements(counts, values)

        for module in (histogram_module, synopsis_module, blocks):
            monkeypatch.setattr(module, "_count_elements", counting,
                                raising=False)
        return tally

    @pytest.mark.parametrize("scheme", ["hr", "hb"])
    @pytest.mark.parametrize("path", ["batch", "stream"])
    def test_fresh_partition_hashes_each_arrival_once(self, monkeypatch,
                                                      scheme, path):
        # 300 distinct values stay in phase 1 at n_F = 1024, so no
        # reservoir is compacted at finalize.
        values = [i % 300 for i in range(self.SIZE)]
        wh = SampleWarehouse(bound_values=1024, rng=SplittableRng(1))
        tally = self.hashed(monkeypatch)
        if path == "batch":
            wh.ingest_batch("d", values, partitions=1, scheme=scheme)
        else:
            stream = wh.open_stream("d", scheme=scheme,
                                    policy=CountPolicy(self.SIZE))
            stream.feed_many(values)
            assert stream.emitted  # cut-aligned: the slice is one partition
        assert tally[0] == self.SIZE
        (meta,) = wh.catalog.partitions("d")
        assert wh.sample_for(meta.key).kind is SampleKind.EXHAUSTIVE
        assert meta.synopsis.top_k[0] == (0, 14.0)

    @pytest.mark.parametrize("scheme", ["hr", "hb"])
    def test_reservoir_is_counted_once_more(self, monkeypatch, scheme):
        # All distinct: phase 1 ends at the first block end, and
        # finalize compacts the sampler's bag, one more count of
        # |sample| values.
        wh = SampleWarehouse(bound_values=1024, rng=SplittableRng(1))
        tally = self.hashed(monkeypatch)
        wh.ingest_batch("d", list(range(self.SIZE)), partitions=1,
                        scheme=scheme)
        (meta,) = wh.catalog.partitions("d")
        sample = wh.sample_for(meta.key)
        assert not sample.kind.is_exhaustive
        assert tally[0] == self.SIZE + sample.size
