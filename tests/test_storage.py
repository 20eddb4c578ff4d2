"""Tests for repro.warehouse.storage (stores + serialization)."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.core.footprint import FootprintModel
from repro.core.histogram import CompactHistogram
from repro.core.phases import SampleKind
from repro.core.sample import WarehouseSample
from repro.errors import PartitionNotFoundError, StorageError
from repro.warehouse.dataset import PartitionKey
from repro.warehouse.storage import (FileStore, InMemoryStore,
                                     sample_from_dict, sample_to_dict)

MODEL = FootprintModel(8, 4)


def make_sample(kind=SampleKind.RESERVOIR, rate=None):
    return WarehouseSample(
        histogram=CompactHistogram.from_pairs([("a", 3), ("b", 1)]),
        kind=kind,
        population_size=100,
        bound_values=10,
        rate=rate,
        scheme="hr",
        model=MODEL,
    )


class TestSerialization:
    def test_round_trip(self):
        s = make_sample()
        restored = sample_from_dict(sample_to_dict(s))
        assert restored.histogram == s.histogram
        assert restored.kind is s.kind
        assert restored.population_size == s.population_size
        assert restored.bound_values == s.bound_values
        assert restored.model == s.model

    def test_round_trip_bernoulli_rate(self):
        s = make_sample(SampleKind.BERNOULLI, rate=0.05)
        restored = sample_from_dict(sample_to_dict(s))
        assert restored.rate == 0.05

    def test_malformed_document(self):
        with pytest.raises(StorageError):
            sample_from_dict({"kind": "RESERVOIR"})

    def test_json_serializable(self):
        json.dumps(sample_to_dict(make_sample()))


class TestInMemoryStore:
    def test_put_get(self):
        store = InMemoryStore()
        key = PartitionKey("d", 0, 0)
        s = make_sample()
        store.put(key, s)
        assert store.get(key) is s
        assert key in store
        assert len(store) == 1
        assert list(store.keys()) == [key]

    def test_missing_key(self):
        store = InMemoryStore()
        with pytest.raises(PartitionNotFoundError):
            store.get(PartitionKey("d", 0, 0))
        with pytest.raises(PartitionNotFoundError):
            store.delete(PartitionKey("d", 0, 0))

    def test_delete(self):
        store = InMemoryStore()
        key = PartitionKey("d", 0, 0)
        store.put(key, make_sample())
        store.delete(key)
        assert key not in store

    def test_keys_races_concurrent_puts(self):
        # Regression: keys() listed self._samples without the lock, so
        # a reader racing concurrent ingest put()s could blow up with
        # "dictionary changed size during iteration" (RPR101).
        store = InMemoryStore()
        sample = make_sample()
        stop = threading.Event()
        errors = []

        def writer(tid):
            i = 0
            while not stop.is_set():
                store.put(PartitionKey("d", tid, i), sample)
                i += 1

        def reader():
            try:
                while not stop.is_set():
                    for _ in store.keys():
                        pass
            except RuntimeError as exc:  # pragma: no cover - bug path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(4)]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join()
        assert errors == []
        assert len(list(store.keys())) == len(store)


class TestFileStore:
    def test_put_get_round_trip(self, tmp_path):
        store = FileStore(str(tmp_path))
        key = PartitionKey("d", 1, 2)
        s = make_sample()
        store.put(key, s)
        restored = store.get(key)
        assert restored.histogram == s.histogram
        assert restored.population_size == s.population_size

    def test_reopen_rebuilds_index(self, tmp_path):
        store = FileStore(str(tmp_path))
        key = PartitionKey("d", 1, 2)
        store.put(key, make_sample())
        reopened = FileStore(str(tmp_path))
        assert key in reopened
        assert reopened.get(key).population_size == 100

    def test_replace(self, tmp_path):
        store = FileStore(str(tmp_path))
        key = PartitionKey("d", 0, 0)
        store.put(key, make_sample())
        s2 = make_sample(SampleKind.BERNOULLI, rate=0.5)
        store.put(key, s2)
        assert store.get(key).kind is SampleKind.BERNOULLI
        assert len(store) == 1

    def test_delete_removes_file(self, tmp_path):
        store = FileStore(str(tmp_path))
        key = PartitionKey("d", 0, 0)
        store.put(key, make_sample())
        store.delete(key)
        assert key not in store
        assert not any(n.endswith(".sample.json")
                       for n in os.listdir(tmp_path))

    def test_missing_key(self, tmp_path):
        store = FileStore(str(tmp_path))
        with pytest.raises(PartitionNotFoundError):
            store.get(PartitionKey("d", 0, 0))

    def test_corrupt_file_detected_on_reopen(self, tmp_path):
        store = FileStore(str(tmp_path))
        store.put(PartitionKey("d", 0, 0), make_sample())
        victim = next(tmp_path.glob("*.sample.json"))
        victim.write_text("{ not json")
        with pytest.raises(StorageError):
            FileStore(str(tmp_path))

    def test_no_temp_files_left(self, tmp_path):
        store = FileStore(str(tmp_path))
        for i in range(5):
            store.put(PartitionKey("d", 0, i), make_sample())
        assert not any(n.endswith(".tmp") for n in os.listdir(tmp_path))


class TestCompressedFileStore:
    def test_round_trip(self, tmp_path):
        store = FileStore(str(tmp_path), compress=True)
        key = PartitionKey("d", 0, 0)
        s = make_sample()
        store.put(key, s)
        assert store.get(key).histogram == s.histogram
        names = os.listdir(tmp_path)
        assert any(n.endswith(".sample.json.gz") for n in names)
        assert not any(n.endswith(".sample.json") and not n.endswith(".gz")
                       for n in names)

    def test_reopen_reads_compressed(self, tmp_path):
        store = FileStore(str(tmp_path), compress=True)
        key = PartitionKey("d", 0, 0)
        store.put(key, make_sample())
        reopened = FileStore(str(tmp_path))  # plain store reads .gz too
        assert reopened.get(key).population_size == 100

    def test_mixed_formats_coexist(self, tmp_path):
        plain = FileStore(str(tmp_path))
        plain.put(PartitionKey("d", 0, 0), make_sample())
        gz = FileStore(str(tmp_path), compress=True)
        gz.put(PartitionKey("d", 0, 1), make_sample())
        assert len(gz) == 2
        assert gz.get(PartitionKey("d", 0, 0)).population_size == 100
        assert gz.get(PartitionKey("d", 0, 1)).population_size == 100

    def test_compression_actually_shrinks(self, tmp_path):
        from repro.core.histogram import CompactHistogram as CH

        big = WarehouseSample(
            histogram=CH.from_pairs([(i, 1) for i in range(5000)]),
            kind=SampleKind.RESERVOIR, population_size=100_000,
            bound_values=5000, scheme="hr", model=MODEL)
        plain_dir = tmp_path / "plain"
        gz_dir = tmp_path / "gz"
        FileStore(str(plain_dir)).put(PartitionKey("d", 0, 0), big)
        FileStore(str(gz_dir), compress=True).put(
            PartitionKey("d", 0, 0), big)
        plain_size = sum(f.stat().st_size for f in plain_dir.iterdir())
        gz_size = sum(f.stat().st_size for f in gz_dir.iterdir())
        assert gz_size < plain_size / 2


class TestFileStoreDurability:
    """Every put fsyncs before its atomic rename."""

    def _count_fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (calls.append(fd), real(fd))[1])
        return calls

    def test_strict_fsyncs_every_put(self, tmp_path, monkeypatch):
        calls = self._count_fsyncs(monkeypatch)
        store = FileStore(str(tmp_path))
        store.put(PartitionKey("d", 0, 0), make_sample())
        store.put(PartitionKey("d", 0, 1), make_sample())
        assert len(calls) == 2
