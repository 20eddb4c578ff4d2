"""Materialized sample views: named, cached partition-union samples.

Interactive analytics repeatedly query the same partition unions ("all of
June", "the active working set").  Re-merging per query is cheap but not
free, so :class:`ViewManager` materializes named views — a merged
:class:`~repro.core.sample.WarehouseSample` plus the partition set it was
built from — and tracks **staleness**: a view goes stale when its
dataset's active partition set no longer matches the set it was built
from (new partitions ingested, old ones rolled in/out) or when a stored
partition sample was replaced (e.g. by deletion maintenance).

Refreshing re-merges from the current partitions; the manager never
refreshes behind the caller's back (queries on stale views are allowed —
they answer over the snapshot — but the flag tells callers the answer
lags the warehouse).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError
from repro.warehouse.dataset import PartitionKey

__all__ = ["MaterializedView", "ViewManager"]


@dataclass
class MaterializedView:
    """A named merged sample with provenance."""

    name: str
    dataset: str
    sample: WarehouseSample
    #: The exact (key, population_size) snapshot the view was built from.
    built_from: Tuple[Tuple[PartitionKey, int], ...]
    labels: Optional[Tuple[str, ...]] = None
    refresh_count: int = field(default=0)

    @property
    def partition_keys(self) -> List[PartitionKey]:
        """Keys the view covers."""
        return [k for k, _n in self.built_from]


class ViewManager:
    """Create, query, and refresh materialized sample views.

    Examples
    --------
    >>> from repro import SampleWarehouse, SplittableRng
    >>> wh = SampleWarehouse(bound_values=64, rng=SplittableRng(3))
    >>> _ = wh.ingest_batch("d", list(range(5000)), partitions=2)
    >>> views = ViewManager(wh)
    >>> v = views.materialize("all-of-d", "d")
    >>> views.is_stale("all-of-d")
    False
    """

    def __init__(self, warehouse) -> None:
        self._warehouse = warehouse
        self._views: Dict[str, MaterializedView] = {}

    def _snapshot(self, dataset: str,
                  labels: Optional[Iterable[str]]
                  ) -> Tuple[Tuple[PartitionKey, int], ...]:
        catalog = self._warehouse.catalog
        if labels is not None:
            metas = catalog.merge_labels(dataset, labels)
        else:
            metas = catalog.partitions(dataset)
        return tuple((m.key, m.population_size) for m in metas)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def materialize(self, name: str, dataset: str, *,
                    labels: Optional[Iterable[str]] = None,
                    replace: bool = False) -> MaterializedView:
        """Build (and cache) a view over a dataset's current partitions."""
        if name in self._views and not replace:
            raise ConfigurationError(
                f"view {name!r} already exists (pass replace=True)")
        labels_t = tuple(labels) if labels is not None else None
        snapshot = self._snapshot(dataset, labels_t)
        if not snapshot:
            raise ConfigurationError(
                f"no partitions selected for view {name!r}")
        sample = self._warehouse.sample_of(
            dataset, keys=[k for k, _n in snapshot])
        view = MaterializedView(name=name, dataset=dataset, sample=sample,
                                built_from=snapshot, labels=labels_t)
        self._views[name] = view
        return view

    def get(self, name: str) -> MaterializedView:
        """Fetch a view by name."""
        view = self._views.get(name)
        if view is None:
            raise ConfigurationError(f"no view named {name!r}")
        return view

    def drop(self, name: str) -> None:
        """Delete a view."""
        if name not in self._views:
            raise ConfigurationError(f"no view named {name!r}")
        del self._views[name]

    def names(self) -> List[str]:
        """All view names, sorted."""
        return sorted(self._views)

    # ------------------------------------------------------------------
    # Staleness
    # ------------------------------------------------------------------
    def is_stale(self, name: str) -> bool:
        """Does the view's snapshot still match the live catalog?

        Stale when the selected partition set changed (ingest, roll-in,
        roll-out) or any covered partition's population size changed
        (deletion maintenance rewrote its sample).
        """
        view = self.get(name)
        current = self._snapshot(view.dataset, view.labels)
        return current != view.built_from

    def stale_views(self) -> List[str]:
        """Names of all currently stale views."""
        return [name for name in self.names() if self.is_stale(name)]

    def refresh(self, name: str) -> MaterializedView:
        """Re-merge a view from the live partition set."""
        old = self.get(name)
        snapshot = self._snapshot(old.dataset, old.labels)
        if not snapshot:
            raise ConfigurationError(
                f"view {name!r} selects no partitions anymore; drop it")
        sample = self._warehouse.sample_of(
            old.dataset, keys=[k for k, _n in snapshot])
        view = MaterializedView(name=name, dataset=old.dataset,
                                sample=sample, built_from=snapshot,
                                labels=old.labels,
                                refresh_count=old.refresh_count + 1)
        self._views[name] = view
        return view

    def refresh_stale(self) -> List[str]:
        """Refresh every stale view; returns the refreshed names."""
        refreshed = []
        for name in self.stale_views():
            self.refresh(name)
            refreshed.append(name)
        return refreshed
