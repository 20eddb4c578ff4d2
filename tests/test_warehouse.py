"""Tests for repro.warehouse.warehouse (the SampleWarehouse facade)."""

from __future__ import annotations

import pytest

from repro.core.phases import SampleKind
from repro.errors import ConfigurationError, PartitionNotFoundError
from repro.rng import SplittableRng
from repro.warehouse.dataset import PartitionKey
from repro.warehouse.parallel import ProcessExecutor, ThreadExecutor
from repro.warehouse.storage import FileStore
from repro.warehouse.synopsis import PartitionSynopsis
from repro.warehouse.warehouse import SampleWarehouse


def make_warehouse(seed=11, **kwargs):
    kwargs.setdefault("bound_values", 128)
    return SampleWarehouse(rng=SplittableRng(seed), **kwargs)


class TestIngestBatch:
    def test_partitions_and_keys(self):
        wh = make_warehouse()
        keys = wh.ingest_batch("t.c", list(range(10_000)), partitions=4)
        assert keys == [PartitionKey("t.c", 0, i) for i in range(4)]
        assert wh.datasets() == ["t.c"]
        assert wh.catalog.total_population("t.c") == 10_000

    def test_sequential_loads_extend_seq(self):
        wh = make_warehouse()
        wh.ingest_batch("d", list(range(1000)), partitions=2)
        keys = wh.ingest_batch("d", list(range(1000)), partitions=2)
        assert [k.seq for k in keys] == [2, 3]

    def test_labels(self):
        wh = make_warehouse()
        wh.ingest_batch("d", list(range(200)), partitions=2,
                        labels=["mon", "tue"])
        metas = wh.catalog.partitions("d")
        assert [m.label for m in metas] == ["mon", "tue"]

    def test_label_count_mismatch(self):
        wh = make_warehouse()
        with pytest.raises(ConfigurationError):
            wh.ingest_batch("d", list(range(10)), partitions=2,
                            labels=["only-one"])

    def test_scheme_override(self):
        wh = make_warehouse(scheme="hr")
        keys = wh.ingest_batch("d", list(range(50_000)), partitions=1,
                               scheme="hb")
        assert wh.sample_for(keys[0]).scheme == "hb"

    def test_deterministic_given_seed(self):
        a = make_warehouse(seed=5)
        b = make_warehouse(seed=5)
        ka = a.ingest_batch("d", list(range(5000)), partitions=2)
        kb = b.ingest_batch("d", list(range(5000)), partitions=2)
        for x, y in zip(ka, kb):
            assert a.sample_for(x).histogram == b.sample_for(y).histogram

    def test_executors_equivalent_to_serial(self):
        results = {}
        for name, executor in (("serial", None),
                               ("thread", ThreadExecutor(4)),
                               ("process", ProcessExecutor(2))):
            wh = make_warehouse(seed=9)
            keys = wh.ingest_batch("d", list(range(8000)), partitions=4,
                                   executor=executor)
            results[name] = [dict(wh.sample_for(k).histogram.pairs())
                             for k in keys]
        assert results["serial"] == results["thread"] == results["process"]


    @pytest.mark.parametrize("scheme", ["hr", "hb", "hb-mp", "sb"])
    def test_more_partitions_than_values_rejected(self, scheme):
        # An empty partition would have no usable synopsis (and HB no
        # partition size); nothing is registered.
        wh = make_warehouse(sb_rate=0.5)
        with pytest.raises(ConfigurationError, match="partition empty"):
            wh.ingest_batch("d", [1, 2], partitions=4, scheme=scheme)
        assert wh.catalog.datasets() == []
        assert wh.catalog.next_seq("d", 0) == 0
        keys = wh.ingest_batch("d", [1, 2], partitions=2, scheme=scheme)
        assert [k.seq for k in keys] == [0, 1]

    def test_synopses_built_in_the_tasks(self):
        values = [v % 97 for v in range(6000)]
        chunks = [values[:3000], values[3000:]]
        expected = [repr(PartitionSynopsis.from_values(c)) for c in chunks]
        for executor in (None, ThreadExecutor(2), ProcessExecutor(2)):
            wh = make_warehouse(seed=3)
            keys = wh.ingest_batch("d", values, partitions=2,
                                   executor=executor)
            assert [repr(wh.catalog.get(k).synopsis)
                    for k in keys] == expected


class TestSampleOf:
    def test_merged_sample_covers_everything(self):
        wh = make_warehouse()
        wh.ingest_batch("d", list(range(20_000)), partitions=8)
        s = wh.sample_of("d")
        s.check_invariants()
        assert s.population_size == 20_000
        assert set(s.values()) <= set(range(20_000))

    def test_subset_by_keys(self):
        wh = make_warehouse()
        keys = wh.ingest_batch("d", list(range(8000)), partitions=4)
        s = wh.sample_of("d", keys=keys[:2])
        assert s.population_size == 4000

    def test_subset_by_labels(self):
        wh = make_warehouse()
        wh.ingest_batch("d", list(range(9000)), partitions=3,
                        labels=["a", "b", "a"])
        s = wh.sample_of("d", labels=["a"])
        assert s.population_size == 6000

    def test_keys_and_labels_mutually_exclusive(self):
        wh = make_warehouse()
        keys = wh.ingest_batch("d", list(range(100)))
        with pytest.raises(ConfigurationError):
            wh.sample_of("d", keys=keys, labels=["x"])

    def test_empty_selection(self):
        wh = make_warehouse()
        wh.ingest_batch("d", list(range(100)))
        with pytest.raises(ConfigurationError):
            wh.sample_of("d", keys=[])

    def test_merges_eight_partitions(self):
        wh = make_warehouse()
        wh.ingest_batch("d", list(range(16_000)), partitions=8)
        s = wh.sample_of("d")
        assert s.population_size == 16_000


class TestRollInOut:
    def test_roll_out_excludes_from_sample(self):
        wh = make_warehouse()
        keys = wh.ingest_batch("d", list(range(8000)), partitions=4)
        wh.roll_out(keys[0])
        s = wh.sample_of("d")
        assert s.population_size == 6000

    def test_roll_out_drop_then_roll_in_requires_sample(self):
        wh = make_warehouse()
        keys = wh.ingest_batch("d", list(range(4000)), partitions=2)
        sample = wh.sample_for(keys[0])
        wh.roll_out(keys[0], drop_sample=True)
        with pytest.raises(PartitionNotFoundError):
            wh.sample_for(keys[0])
        with pytest.raises(ConfigurationError):
            wh.roll_in(keys[0])
        wh.roll_in(keys[0], sample)
        assert wh.sample_of("d").population_size == 4000

    def test_roll_in_without_drop(self):
        wh = make_warehouse()
        keys = wh.ingest_batch("d", list(range(4000)), partitions=2)
        wh.roll_out(keys[1])
        wh.roll_in(keys[1])
        assert wh.sample_of("d").population_size == 4000


class TestIngestSample:
    def test_foreign_sample_rolls_in(self):
        """A sample produced elsewhere (another machine) can be added."""
        donor = make_warehouse(seed=77)
        keys = donor.ingest_batch("d", list(range(5000)), partitions=1)
        foreign = donor.sample_for(keys[0])

        wh = make_warehouse()
        wh.ingest_sample(PartitionKey("d", 3, 0), foreign, label="remote")
        assert wh.catalog.get(PartitionKey("d", 3, 0)).label == "remote"
        assert wh.sample_of("d").population_size == 5000


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        wh = make_warehouse()
        wh.ingest_batch("d", list(range(10_000)), partitions=4,
                        labels=["a", "b", "c", "d"])
        wh.roll_out(PartitionKey("d", 0, 3))
        wh.save(str(tmp_path))

        reopened = SampleWarehouse.load(str(tmp_path),
                                        rng=SplittableRng(1),
                                        bound_values=128)
        assert reopened.datasets() == ["d"]
        assert len(reopened.partition_keys("d")) == 3  # one rolled out
        s = reopened.sample_of("d")
        assert s.population_size == 7_500

    def test_save_with_file_store_in_place(self, tmp_path):
        wh = SampleWarehouse(bound_values=64, rng=SplittableRng(2),
                             store=FileStore(str(tmp_path)))
        wh.ingest_batch("d", list(range(1000)), partitions=2)
        wh.save(str(tmp_path))
        reopened = SampleWarehouse.load(str(tmp_path), bound_values=64)
        assert reopened.sample_of("d").population_size == 1000


class TestValidation:
    def test_bound_positive(self):
        with pytest.raises(ConfigurationError):
            SampleWarehouse(bound_values=0)
