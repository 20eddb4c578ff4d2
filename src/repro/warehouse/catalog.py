"""The warehouse catalog: which partitions exist, and their metadata.

The catalog is the control-plane companion of the sample store: for every
partition it records the parent size, the sample's kind and size, an
optional human label (e.g. ``"2026-07-04"`` for daily partitions), and
whether the partition is currently **rolled in** (active).  Roll-out
keeps the metadata (marked inactive) so a partition can be rolled back in
later — the mechanism the paper uses to approximate moving-window stream
sampling.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.phases import SampleKind
from repro.errors import (ConfigurationError, DatasetNotFoundError,
                          PartitionNotFoundError)
from repro.warehouse.dataset import PartitionKey
from repro.warehouse.synopsis import PartitionSynopsis

__all__ = ["PartitionMeta", "Catalog"]


@dataclass
class PartitionMeta:
    """Catalog record for one partition.

    ``synopsis`` carries the partition's summary statistics (moments,
    range, heavy hitters — see :mod:`repro.warehouse.synopsis`) when
    the ingest path could compute or estimate them; records persisted
    before synopses existed load with ``synopsis=None`` and simply
    opt the partition out of planner shortcuts.  Flip ``active`` of a
    registered record through :meth:`Catalog.roll_out` /
    :meth:`Catalog.roll_in` only: they keep the catalog's active index.
    """

    key: PartitionKey
    population_size: int
    sample_size: int
    kind: SampleKind
    scheme: str
    label: Optional[str] = None
    active: bool = True
    synopsis: Optional[PartitionSynopsis] = None

    def to_dict(self) -> dict:
        """JSON-serializable form (for catalog persistence)."""
        data = {
            "key": str(self.key),
            "population_size": self.population_size,
            "sample_size": self.sample_size,
            "kind": self.kind.name,
            "scheme": self.scheme,
            "label": self.label,
            "active": self.active,
        }
        if self.synopsis is not None:
            data["synopsis"] = self.synopsis.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PartitionMeta":
        """Inverse of :meth:`to_dict` (synopsis-less records still load)."""
        raw_synopsis = data.get("synopsis")
        return cls(
            key=PartitionKey.parse(data["key"]),
            population_size=data["population_size"],
            sample_size=data["sample_size"],
            kind=SampleKind[data["kind"]],
            scheme=data["scheme"],
            label=data.get("label"),
            active=data.get("active", True),
            synopsis=(PartitionSynopsis.from_dict(raw_synopsis)
                      if raw_synopsis is not None else None),
        )


def _key_order(meta: PartitionMeta) -> Tuple[int, int]:
    """Key order within one dataset (every key shares its ``dataset``)."""
    return meta.key.stream, meta.key.seq


@dataclass
class _DatasetEntry:
    partitions: Dict[PartitionKey, PartitionMeta] = field(
        default_factory=dict)
    #: The active records in key order.  Every writer replaces the
    #: tuple whole, so a reader sees a finished one, and a lookup costs
    #: O(active) however many retired records the history holds.
    active: Tuple[PartitionMeta, ...] = ()

    def _slot(self, key: PartitionKey) -> Tuple[int, int]:
        """Where ``key`` sits in the active tuple: ``(start, end)``,
        ``end = start + 1`` when its record is there."""
        active = self.active
        i = bisect_left(active, (key.stream, key.seq), key=_key_order)
        return i, i + (i < len(active) and active[i].key == key)

    def deactivate(self, key: PartitionKey) -> None:
        """Drop ``key``'s record from the active tuple (if it is there)."""
        i, end = self._slot(key)
        self.active = self.active[:i] + self.active[end:]

    def activate(self, meta: PartitionMeta) -> None:
        """Put ``meta`` in the active tuple, replacing its key's record."""
        i, end = self._slot(meta.key)
        self.active = self.active[:i] + (meta,) + self.active[end:]


class Catalog:
    """Metadata registry over datasets and their partitions.

    Examples
    --------
    >>> c = Catalog()
    >>> k = PartitionKey("orders", 0, 0)
    >>> c.register(PartitionMeta(k, 100, 10, SampleKind.RESERVOIR, "hr"))
    >>> [m.key for m in c.partitions("orders")] == [k]
    True
    """

    def __init__(self) -> None:
        self._datasets: Dict[str, _DatasetEntry] = {}

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def register(self, meta: PartitionMeta, *,
                 replace: bool = False) -> None:
        """Add a partition record; re-registering raises unless ``replace``."""
        entry = self._record(meta, replace)
        if meta.active:
            entry.activate(meta)
        else:
            entry.deactivate(meta.key)

    def _record(self, meta: PartitionMeta, replace: bool) -> _DatasetEntry:
        """File ``meta`` under its key; the caller updates the active tuple."""
        entry = self._datasets.setdefault(meta.key.dataset, _DatasetEntry())
        if meta.key in entry.partitions and not replace:
            raise ConfigurationError(
                f"partition {meta.key} already registered")
        entry.partitions[meta.key] = meta
        return entry

    def get(self, key: PartitionKey) -> PartitionMeta:
        """The record for ``key`` (raises if unknown)."""
        entry = self._datasets.get(key.dataset)
        if entry is None:
            raise DatasetNotFoundError(key.dataset)
        meta = entry.partitions.get(key)
        if meta is None:
            raise PartitionNotFoundError(str(key))
        return meta

    def forget(self, key: PartitionKey) -> None:
        """Drop a partition record entirely."""
        self.get(key)
        entry = self._datasets[key.dataset]
        del entry.partitions[key]
        entry.deactivate(key)

    def datasets(self) -> List[str]:
        """Names of all known datasets, sorted."""
        return sorted(self._datasets)

    def partitions(self, dataset: str, *,
                   only_active: bool = True,
                   where: Optional[Callable[[PartitionMeta], bool]] = None
                   ) -> List[PartitionMeta]:
        """Partition records of a dataset, in key order.

        ``only_active`` filters out rolled-out partitions; ``where`` is an
        arbitrary extra predicate (e.g. on labels for temporal selection).
        Active lookups read the key-ordered tuple the writers keep, so
        they never touch a rolled-out record.
        """
        entry = self._datasets.get(dataset)
        if entry is None:
            raise DatasetNotFoundError(dataset)
        metas = (entry.active if only_active
                 else sorted(entry.partitions.values(), key=_key_order))
        if where is not None:
            return [m for m in metas if where(m)]
        return list(metas)

    def next_seq(self, dataset: str, stream: int = 0) -> int:
        """The next unused temporal sequence number for a stream."""
        entry = self._datasets.get(dataset)
        if entry is None:
            return 0
        seqs = [k.seq for k in entry.partitions if k.stream == stream]
        return max(seqs) + 1 if seqs else 0

    # ------------------------------------------------------------------
    # Roll-in / roll-out
    # ------------------------------------------------------------------
    def roll_out(self, key: PartitionKey) -> None:
        """Mark a partition inactive (its sample leaves the working set)."""
        self.get(key).active = False
        self._datasets[key.dataset].deactivate(key)

    def roll_in(self, key: PartitionKey) -> None:
        """Mark a partition active again."""
        meta = self.get(key)
        meta.active = True
        self._datasets[key.dataset].activate(meta)

    # ------------------------------------------------------------------
    # Aggregates and persistence
    # ------------------------------------------------------------------
    def total_population(self, dataset: str, *,
                         only_active: bool = True) -> int:
        """Sum of parent-partition sizes for a dataset."""
        return sum(m.population_size
                   for m in self.partitions(dataset,
                                            only_active=only_active))

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of the whole catalog."""
        return {
            "datasets": {
                name: [m.to_dict()
                       for m in sorted(entry.partitions.values(),
                                       key=_key_order)]
                for name, entry in self._datasets.items()
            }
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Catalog":
        """Inverse of :meth:`to_dict`."""
        catalog = cls()
        for metas in data.get("datasets", {}).values():
            for meta in metas:
                catalog._record(PartitionMeta.from_dict(meta), False)
        # One sort per dataset, not one tuple copy per record.
        for entry in catalog._datasets.values():
            entry.active = tuple(sorted(
                (m for m in entry.partitions.values() if m.active),
                key=_key_order))
        return catalog

    def merge_labels(self, dataset: str,
                     labels: Iterable[str]) -> List[PartitionMeta]:
        """Active partitions of a dataset whose label is in ``labels``.

        The records come in key order, as :meth:`partitions` gives them.
        One comprehension tests each record's label, with no function
        call per record: a planned query and every
        ``sample_of(labels=...)`` run this.
        """
        wanted = set(labels)
        return [m for m in self.partitions(dataset) if m.label in wanted]
