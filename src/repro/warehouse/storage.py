"""Sample stores: where the sample warehouse keeps its samples.

Two implementations of the same small interface:

* :class:`InMemoryStore` — a dict; the default for library use and tests.
* :class:`FileStore` — one JSON document per sample in a directory,
  mirroring the paper's setup where per-partition samples are staged on
  disk before merging.  Values must be JSON-representable (ints, floats,
  strings, booleans); keys of the histogram are stored as a list of
  ``[value, count]`` pairs so duplicates survive the round trip exactly.

:func:`sample_to_dict` / :func:`sample_from_dict` are the serialization
functions, exposed because the analytics and bench layers also use them
for experiment logging.
"""

from __future__ import annotations

import gzip
import json
import os
import tempfile
import threading
from typing import Dict, Iterator

from repro.core.footprint import FootprintModel
from repro.core.histogram import CompactHistogram
from repro.core.phases import SampleKind
from repro.core.sample import WarehouseSample
from repro.errors import PartitionNotFoundError, StorageError
from repro.warehouse.dataset import PartitionKey

__all__ = ["InMemoryStore", "FileStore", "sample_to_dict",
           "sample_from_dict"]

_FORMAT_VERSION = 1


def sample_to_dict(sample: WarehouseSample) -> dict:
    """JSON-serializable representation of a sample."""
    return {
        "format": _FORMAT_VERSION,
        "kind": sample.kind.name,
        "population_size": sample.population_size,
        "bound_values": sample.bound_values,
        "rate": sample.rate,
        "scheme": sample.scheme,
        "exceedance_p": sample.exceedance_p,
        "model": {
            "value_bytes": sample.model.value_bytes,
            "count_bytes": sample.model.count_bytes,
        },
        "histogram": [[v, n] for v, n in sample.histogram.pairs()],
    }


def sample_from_dict(data: dict) -> WarehouseSample:
    """Inverse of :func:`sample_to_dict`."""
    try:
        model = FootprintModel(
            value_bytes=data["model"]["value_bytes"],
            count_bytes=data["model"]["count_bytes"],
        )
        histogram = CompactHistogram.from_pairs(
            (v, n) for v, n in data["histogram"])
        return WarehouseSample(
            histogram=histogram,
            kind=SampleKind[data["kind"]],
            population_size=data["population_size"],
            bound_values=data["bound_values"],
            rate=data["rate"],
            scheme=data["scheme"],
            exceedance_p=data["exceedance_p"],
            model=model,
        )
    except (KeyError, TypeError) as exc:
        raise StorageError(f"malformed sample document: {exc}") from exc


class InMemoryStore:
    """Dict-backed sample store (the default).

    Thread-safe: a ``ThreadExecutor`` ingest writes partitions
    concurrently, so every mutation takes ``self._lock`` (the lock
    discipline RPR041 enforces).  Reads stay lock-free — a dict read
    racing a ``put`` sees either the old or the new sample, both fine.
    """

    def __init__(self) -> None:
        self._samples: Dict[PartitionKey, WarehouseSample] = {}
        self._lock = threading.Lock()

    def put(self, key: PartitionKey, sample: WarehouseSample) -> None:
        """Store (or replace) the sample for ``key``."""
        with self._lock:
            self._samples[key] = sample

    def get(self, key: PartitionKey) -> WarehouseSample:
        """Fetch the sample for ``key``.

        Raises :class:`~repro.errors.PartitionNotFoundError` if absent.
        """
        try:
            return self._samples[key]
        except KeyError:
            raise PartitionNotFoundError(str(key)) from None

    def delete(self, key: PartitionKey) -> None:
        """Remove the sample for ``key`` (missing keys raise)."""
        with self._lock:
            try:
                del self._samples[key]
            except KeyError:
                raise PartitionNotFoundError(str(key)) from None

    def __contains__(self, key: PartitionKey) -> bool:
        return key in self._samples

    def __len__(self) -> int:
        return len(self._samples)

    def keys(self) -> Iterator[PartitionKey]:
        """Iterate stored keys (a locked snapshot, safe during puts)."""
        with self._lock:
            return iter(list(self._samples))


class FileStore:
    """Directory-backed sample store (one JSON file per sample).

    Writes are atomic and durable (write to a temp file, fsync, then
    rename): a crashed ingest never leaves a truncated sample behind,
    and an acknowledged ``put`` survives a machine crash.

    Parameters
    ----------
    directory:
        Where to keep the sample files; created if missing.
    compress:
        Store documents gzip-compressed (``*.sample.json.gz``).  The
        paper's Section 2 notes compression can further shrink sample
        storage at some processing cost; both plain and compressed files
        are always *readable* regardless of this flag (it only selects
        the write format).
    """

    def __init__(self, directory: str, *, compress: bool = False) -> None:
        self._dir = directory
        self._compress = compress
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise StorageError(
                f"cannot create store directory {directory!r}: {exc}"
            ) from exc
        # Map key -> filename; rebuilt from disk on construction.
        # Mutated under self._lock: concurrent ingests may put() into
        # the same store from several threads.
        self._index: Dict[PartitionKey, str] = {}
        self._lock = threading.Lock()
        self._load_index()

    @staticmethod
    def _read_document(path: str) -> dict:
        if path.endswith(".gz"):
            with gzip.open(path, "rt", encoding="utf-8") as f:
                return json.load(f)
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)

    def _load_index(self) -> None:
        # Called only from __init__, before the store is shared with
        # any other thread — no lock needed (and holding one across
        # the os.listdir/read loop would stall nothing but itself).
        for name in os.listdir(self._dir):
            if not (name.endswith(".sample.json")
                    or name.endswith(".sample.json.gz")):
                continue
            path = os.path.join(self._dir, name)
            try:
                data = self._read_document(path)
                key = PartitionKey.parse(data["key"])
            except (OSError, ValueError, KeyError, EOFError) as exc:
                raise StorageError(
                    f"corrupt sample file {path!r}: {exc}") from exc
            self._index[key] = name

    def _path(self, key: PartitionKey) -> str:
        name = self._index.get(key)
        if name is None:
            name = key.filename() + (".gz" if self._compress else "")
        return os.path.join(self._dir, name)

    def put(self, key: PartitionKey, sample: WarehouseSample) -> None:
        """Store (or replace) the sample for ``key``, atomically."""
        document = sample_to_dict(sample)
        document["key"] = str(key)
        payload = json.dumps(document, separators=(",", ":")) \
            .encode("utf-8")
        with self._lock:
            path = self._path(key)
            if path.endswith(".gz"):
                payload = gzip.compress(payload)
            # The write-fsync-rename MUST stay under the lock: it is
            # what makes concurrent put()s to the same key atomic.
            # That includes a blocking fsync per put — acceptable
            # because the lock scope is one sample file, and
            # correctness (acknowledged partitions surviving a crash)
            # beats put() concurrency here.
            fd, tmp = tempfile.mkstemp(  # repro: noqa[RPR103]
                dir=self._dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(payload)
                    f.flush()
                    os.fsync(f.fileno())  # repro: noqa[RPR103]
                os.replace(tmp, path)
            except OSError as exc:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise StorageError(
                    f"cannot write {path!r}: {exc}") from exc
            self._index[key] = os.path.basename(path)

    def get(self, key: PartitionKey) -> WarehouseSample:
        """Load the sample for ``key`` from disk."""
        if key not in self._index:
            raise PartitionNotFoundError(str(key))
        path = self._path(key)
        try:
            data = self._read_document(path)
        except (OSError, ValueError, EOFError) as exc:
            raise StorageError(f"cannot read {path!r}: {exc}") from exc
        return sample_from_dict(data)

    def delete(self, key: PartitionKey) -> None:
        """Remove the sample file for ``key``."""
        with self._lock:
            if key not in self._index:
                raise PartitionNotFoundError(str(key))
            path = self._path(key)
            try:
                # Unlink under the lock so a racing put() cannot
                # resurrect the file between unlink and index update.
                os.unlink(path)  # repro: noqa[RPR103]
            except OSError as exc:
                raise StorageError(
                    f"cannot delete {path!r}: {exc}") from exc
            del self._index[key]

    def __contains__(self, key: PartitionKey) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def keys(self) -> Iterator[PartitionKey]:
        """Iterate stored keys (a locked snapshot, safe during puts)."""
        with self._lock:
            return iter(list(self._index))
