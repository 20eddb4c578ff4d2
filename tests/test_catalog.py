"""Tests for repro.warehouse.catalog."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.phases import SampleKind
from repro.errors import (ConfigurationError, DatasetNotFoundError,
                          PartitionNotFoundError)
from repro.warehouse.catalog import Catalog, PartitionMeta
from repro.warehouse.dataset import PartitionKey


#: Labels a relabelling may pick; None is a record without one.
LABELS = st.sampled_from([None, "mon", "tue", "wed", "thu"])


def meta(ds="d", stream=0, seq=0, size=100, label=None):
    return PartitionMeta(
        key=PartitionKey(ds, stream, seq),
        population_size=size,
        sample_size=10,
        kind=SampleKind.RESERVOIR,
        scheme="hr",
        label=label,
    )


class TestRegistration:
    def test_register_and_get(self):
        c = Catalog()
        m = meta()
        c.register(m)
        assert c.get(m.key) is m

    def test_duplicate_rejected(self):
        c = Catalog()
        c.register(meta())
        with pytest.raises(ConfigurationError):
            c.register(meta())

    def test_replace(self):
        c = Catalog()
        c.register(meta(size=100))
        c.register(meta(size=200), replace=True)
        assert c.get(PartitionKey("d", 0, 0)).population_size == 200

    def test_unknown_lookups(self):
        c = Catalog()
        with pytest.raises(DatasetNotFoundError):
            c.get(PartitionKey("nope", 0, 0))
        c.register(meta())
        with pytest.raises(PartitionNotFoundError):
            c.get(PartitionKey("d", 0, 99))

    def test_forget(self):
        c = Catalog()
        m = meta()
        c.register(m)
        c.forget(m.key)
        with pytest.raises(PartitionNotFoundError):
            c.get(m.key)


class TestQueries:
    def test_datasets_sorted(self):
        c = Catalog()
        c.register(meta("zz"))
        c.register(meta("aa"))
        assert c.datasets() == ["aa", "zz"]

    def test_partitions_ordered(self):
        c = Catalog()
        c.register(meta(seq=2))
        c.register(meta(seq=0))
        c.register(meta(seq=1))
        assert [m.key.seq for m in c.partitions("d")] == [0, 1, 2]

    def test_partitions_unknown_dataset(self):
        with pytest.raises(DatasetNotFoundError):
            Catalog().partitions("ghost")

    def test_where_filter(self):
        c = Catalog()
        c.register(meta(seq=0, label="mon"))
        c.register(meta(seq=1, label="tue"))
        got = c.partitions("d", where=lambda m: m.label == "tue")
        assert [m.key.seq for m in got] == [1]

    def test_merge_labels(self):
        c = Catalog()
        c.register(meta(seq=0, label="mon"))
        c.register(meta(seq=1, label="tue"))
        c.register(meta(seq=2, label="wed"))
        got = c.merge_labels("d", ["mon", "wed"])
        assert [m.key.seq for m in got] == [0, 2]

    def test_merge_labels_unknown_dataset(self):
        with pytest.raises(DatasetNotFoundError):
            Catalog().merge_labels("missing", ["mon"])

    @given(steps=st.lists(st.tuples(
               st.sampled_from(["register", "relabel", "out", "in"]),
               st.integers(0, 2), st.integers(0, 11), LABELS),
           max_size=40),
           wanted=st.lists(LABELS, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_merge_labels_equals_the_label_filter(self, steps, wanted):
        """The same records, in the same order, as filtering the active
        partitions with ``m.label in set(labels)``, after any mix of
        registrations, relabellings, roll-outs and roll-ins."""
        c = Catalog()
        c.register(meta(seq=0, label="mon"))
        for op, stream, seq, label in steps:
            key = PartitionKey("d", stream, seq)
            known = any(m.key == key
                        for m in c.partitions("d", only_active=False))
            if op in ("register", "relabel"):
                if op == "relabel" and not known:
                    continue
                c.register(meta(stream=stream, seq=seq, label=label),
                           replace=True)
            elif known:
                (c.roll_out if op == "out" else c.roll_in)(key)
        labelled = set(wanted)
        old = c.partitions("d", where=lambda m: m.label in labelled)
        got = c.merge_labels("d", iter(wanted))
        assert [id(m) for m in got] == [id(m) for m in old]

    def test_next_seq(self):
        c = Catalog()
        assert c.next_seq("d") == 0
        c.register(meta(seq=0))
        c.register(meta(seq=5))
        assert c.next_seq("d") == 6
        assert c.next_seq("d", stream=1) == 0

    def test_total_population(self):
        c = Catalog()
        c.register(meta(seq=0, size=100))
        c.register(meta(seq=1, size=250))
        assert c.total_population("d") == 350


class TestRollInOut:
    def test_roll_out_hides_partition(self):
        c = Catalog()
        c.register(meta(seq=0))
        c.register(meta(seq=1))
        c.roll_out(PartitionKey("d", 0, 0))
        active = [m.key.seq for m in c.partitions("d")]
        assert active == [1]
        everything = [m.key.seq for m in c.partitions("d",
                                                      only_active=False)]
        assert everything == [0, 1]

    def test_roll_in_restores(self):
        c = Catalog()
        c.register(meta(seq=0))
        c.roll_out(PartitionKey("d", 0, 0))
        c.roll_in(PartitionKey("d", 0, 0))
        assert [m.key.seq for m in c.partitions("d")] == [0]

    def test_total_population_respects_activity(self):
        c = Catalog()
        c.register(meta(seq=0, size=100))
        c.register(meta(seq=1, size=250))
        c.roll_out(PartitionKey("d", 0, 1))
        assert c.total_population("d") == 100
        assert c.total_population("d", only_active=False) == 350


class WatchedMeta(PartitionMeta):
    """A record that counts the attribute reads made after roll-out."""

    retired_reads = [0]

    def __getattribute__(self, name):
        if not object.__getattribute__(self, "active"):
            WatchedMeta.retired_reads[0] += 1
        return object.__getattribute__(self, name)


class TestLookupCost:
    """Active lookups cost O(active): retired records are never read."""

    @pytest.mark.parametrize("history", [16, 400])
    def test_lookups_skip_retired_records(self, history):
        c = Catalog()
        window = 8
        for seq in range(history + window):
            c.register(WatchedMeta(
                key=PartitionKey("d", 0, seq), population_size=10,
                sample_size=5, kind=SampleKind.RESERVOIR, scheme="hr",
                label=f"day{seq}"))
            if seq >= window:
                c.roll_out(PartitionKey("d", 0, seq - window))
        WatchedMeta.retired_reads[0] = 0
        live = list(range(history, history + window))
        assert [m.key.seq for m in c.partitions("d")] == live
        wanted = [f"day{seq}" for seq in (0, history, history + 3)]
        assert [m.key.seq for m in c.merge_labels("d", wanted)] == [
            history, history + 3]
        assert c.total_population("d") == 10 * window
        assert WatchedMeta.retired_reads[0] == 0

    def test_writers_keep_key_order(self):
        c = Catalog()
        for seq in (5, 1, 3):
            c.register(meta(seq=seq))
        c.register(meta(stream=1, seq=0))
        c.roll_out(PartitionKey("d", 0, 3))
        assert [(m.key.stream, m.key.seq) for m in c.partitions("d")] == [
            (0, 1), (0, 5), (1, 0)]
        c.roll_in(PartitionKey("d", 0, 3))
        c.forget(PartitionKey("d", 0, 1))
        replacement = meta(seq=5, size=7)
        c.register(replacement, replace=True)
        got = c.partitions("d")
        assert [(m.key.stream, m.key.seq) for m in got] == [
            (0, 3), (0, 5), (1, 0)]
        assert got[1] is replacement
        retired = meta(seq=3)
        retired.active = False
        c.register(retired, replace=True)
        assert [m.key.seq for m in c.partitions("d")] == [5, 0]
        restored = Catalog.from_dict(c.to_dict())
        assert [m.key for m in restored.partitions("d")] == [
            m.key for m in c.partitions("d")]


class TestPersistence:
    def test_round_trip(self):
        c = Catalog()
        c.register(meta("a", seq=0, label="mon"))
        c.register(meta("a", seq=1))
        c.register(meta("b", stream=2, seq=7, size=999))
        c.roll_out(PartitionKey("a", 0, 1))
        restored = Catalog.from_dict(c.to_dict())
        assert restored.datasets() == ["a", "b"]
        assert restored.get(PartitionKey("a", 0, 0)).label == "mon"
        assert not restored.get(PartitionKey("a", 0, 1)).active
        assert restored.get(PartitionKey("b", 2, 7)).population_size == 999

    def test_meta_round_trip(self):
        m = meta(label="x")
        assert PartitionMeta.from_dict(m.to_dict()) == m


class TestSynopsisPersistence:
    def synopsis(self):
        from repro.warehouse.synopsis import PartitionSynopsis
        return PartitionSynopsis.from_values([1.0, 2.0, 2.0, 9.0])

    def test_meta_round_trip_with_synopsis(self):
        import dataclasses
        m = dataclasses.replace(meta(label="x"), synopsis=self.synopsis())
        data = m.to_dict()
        assert "synopsis" in data
        restored = PartitionMeta.from_dict(data)
        assert restored == m
        assert restored.synopsis.mean == m.synopsis.mean

    def test_meta_round_trip_without_synopsis(self):
        m = meta()
        data = m.to_dict()
        assert "synopsis" not in data
        assert PartitionMeta.from_dict(data) == m

    def test_old_records_load_without_synopsis_key(self):
        # A record persisted before synopses existed has no "synopsis"
        # key at all; it must load with synopsis=None, opting the
        # partition out of planner shortcuts without erroring.
        data = meta().to_dict()
        data.pop("synopsis", None)
        restored = PartitionMeta.from_dict(data)
        assert restored.synopsis is None

    def test_catalog_round_trip_preserves_synopses(self):
        import dataclasses
        c = Catalog()
        c.register(dataclasses.replace(meta("a", seq=0),
                                       synopsis=self.synopsis()))
        c.register(meta("a", seq=1))
        restored = Catalog.from_dict(c.to_dict())
        assert restored.get(PartitionKey("a", 0, 0)).synopsis is not None
        assert restored.get(PartitionKey("a", 0, 1)).synopsis is None
