"""Optimistic concurrency control over catalog mutations.

The service runs catalog mutations (ingest, roll-out, roll-in) on pool
threads, so two clients can race.  Instead of exposing long-held locks
to clients, every dataset carries a monotonically increasing **version
tag**; a mutation is a compare-and-swap: the client states the version
it based its decision on (``If-Match`` / ``expected_version``), the
swap applies only if that is still current, and a mismatch fails fast
with HTTP 409 (:class:`~repro.errors.VersionConflictError`) so the
client re-reads and retries.  Reads are versioned snapshots: the
merge-result cache (:mod:`repro.serve.cache`) keys on the tag, which is
what makes "never serve a stale merge" checkable.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple, TypeVar

from repro.errors import VersionConflictError
from repro.obs.runtime import OBS

__all__ = ["VersionedCatalog"]

T = TypeVar("T")


class VersionedCatalog:
    """Per-dataset version tags with compare-and-swap mutation.

    The wrapped mutation function runs *inside* the version lock: the
    version check, the catalog/store mutation, and the version bump
    must be one atomic step, or a concurrent reader could observe the
    new catalog under the old tag (exactly the staleness the tag
    exists to rule out).  Rollout and rollin are short in-memory
    catalog updates.  Ingest is not: serve runs the whole
    ``ingest_batch`` inside :meth:`mutate` — ``next_seq`` allocation,
    sampling every partition, and registering the samples — because
    the partition keys and sampler seeds both derive from the
    allocated sequence numbers, so allocation must not race (see
    docs/serving.md, "Why ingest samples inside the lock").  One lock
    covers every dataset, so a long ingest also delays other
    datasets' reads and tag lookups.
    """

    def __init__(self) -> None:
        self._versions: Dict[str, int] = {}
        self._lock = threading.Lock()

    def version(self, dataset: str) -> int:
        """The current tag for ``dataset`` (0 before any mutation)."""
        with self._lock:
            return self._versions.get(dataset, 0)

    def versions(self) -> Dict[str, int]:
        """A snapshot of every dataset's tag."""
        with self._lock:
            return dict(self._versions)

    def read(self, fn: Callable[[], T]) -> T:
        """Run an in-memory catalog read atomically w.r.t. mutations.

        For cheap snapshot reads only (listing partitions, catalog
        metadata) — never wrap storage I/O or merges in this; those
        belong in the optimistic read-validate loop of the query path.
        """
        with self._lock:
            return fn()

    def mutate(self, dataset: str, fn: Callable[[], T], *,
               expected: Optional[int] = None) -> Tuple[T, int]:
        """Compare-and-swap: run ``fn`` iff ``expected`` is current.

        Returns ``(fn(), new_version)``.  With ``expected=None`` the
        mutation is unconditional (still atomic, still bumps the tag).
        Raises :class:`~repro.errors.VersionConflictError` — and leaves
        the catalog untouched — when the tag has moved.
        """
        with self._lock:
            actual = self._versions.get(dataset, 0)
            if expected is not None and expected != actual:
                if OBS.enabled:
                    OBS.registry.counter("serve.occ.conflicts").inc()
                raise VersionConflictError(
                    f"dataset {dataset!r} is at version {actual}, "
                    f"not {expected}; re-read and retry",
                    expected=expected, actual=actual)
            # CAS critical section: the mutation must commit atomically
            # with the version check above and the bump below, even
            # though it may block — a serve ingest samples its values
            # and writes one store entry per partition in here (see
            # the class docstring for why sampling cannot move out).
            result = fn()  # repro: noqa[RPR103]
            self._versions[dataset] = actual + 1
            return result, actual + 1
