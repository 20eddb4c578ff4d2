"""The versioned merge-result cache.

Merge-on-demand is the expensive step of a query (Figure 8's tree over
every selected partition), and most serving workloads ask the same
question repeatedly between ingests.  The cache keys each merged
sample on ``(dataset, selector, version)`` where *version* is the
dataset's :class:`~repro.serve.occ.VersionedCatalog` tag:

* a **hit** requires the caller's current version to equal the tag the
  entry was computed under — an entry can never outlive the catalog
  state it summarizes, which is the no-stale-serves contract the
  hypothesis property test hammers;
* any catalog mutation bumps the tag, so every older entry is
  unreachable immediately; :meth:`invalidate` additionally garbage-
  collects them.

Capacity is LRU-bounded: an evicted entry is simply dropped and
recomputed on its next miss.

Thread-safety: the service calls into the cache from pool threads (the
query op runs lookup → merge → store as one blocking unit, and each
mutation op ends with :meth:`invalidate`), so all index state is
mutated under ``self._lock``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError
from repro.obs.runtime import OBS

__all__ = ["MergeCache"]

_CacheKey = Tuple[str, str]          # (dataset, selector)
_Entry = Tuple[int, WarehouseSample]  # (version, merged sample)


class MergeCache:
    """LRU cache of merged samples, keyed on dataset version tags."""

    def __init__(self, *, max_entries: int = 128) -> None:
        if max_entries <= 0:
            raise ConfigurationError(
                f"max_entries must be positive, got {max_entries}")
        self._max = max_entries
        self._entries: "OrderedDict[_CacheKey, _Entry]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, dataset: str, selector: str,
            version: int) -> Optional[WarehouseSample]:
        """The cached merge for this selector **at this version**.

        Returns ``None`` (a miss) when there is no entry or the entry
        was computed under a different version; a stale entry found on
        the way is dropped.
        """
        cache_key = (dataset, selector)
        with self._lock:
            entry = self._entries.get(cache_key)
            if entry is not None:
                if entry[0] == version:
                    self._entries.move_to_end(cache_key)
                    if OBS.enabled:
                        OBS.registry.counter("serve.cache.hit").inc()
                    return entry[1]
                del self._entries[cache_key]  # stale: unreachable anyway
        if OBS.enabled:
            OBS.registry.counter("serve.cache.miss").inc()
        return None

    def put(self, dataset: str, selector: str, version: int,
            sample: WarehouseSample) -> None:
        """Store a merge computed under ``version``; evict LRU excess."""
        cache_key = (dataset, selector)
        with self._lock:
            self._entries[cache_key] = (version, sample)
            self._entries.move_to_end(cache_key)
            if len(self._entries) > self._max:
                self._entries.popitem(last=False)

    def invalidate(self, dataset: str) -> int:
        """Garbage-collect every entry of a mutated dataset.

        Correctness never depends on this — version-tag mismatches
        already make stale entries unhittable — but dropping them
        promptly frees their memory.  Returns how many entries were
        dropped.
        """
        with self._lock:
            dead = [k for k in self._entries if k[0] == dataset]
            for k in dead:
                del self._entries[k]
        return len(dead)
