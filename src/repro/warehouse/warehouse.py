"""The sample warehouse facade (Figure 1).

:class:`SampleWarehouse` wires together the catalog, a sample store, the
samplers and the merge machinery behind the API a downstream system uses:

* ``ingest_batch`` — divide a bulk load into partitions, sample each
  (optionally in parallel), store the per-partition samples;
* ``open_stream`` — attach a :class:`~repro.warehouse.ingest.StreamIngestor`
  that splits an arriving stream into temporal partitions;
* ``sample_of`` — retrieve and merge the samples of an arbitrary set of
  partitions into one uniform sample of their union (``S_K``);
* ``roll_out`` / ``roll_in`` — move partitions out of and back into the
  active working set, mirroring partitions rolling through the full-scale
  warehouse;
* ``save`` / ``load`` — persist the catalog next to a file-backed store.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Iterable, List, Optional, Sequence

from repro.core.footprint import DEFAULT_MODEL, FootprintModel
from repro.core.merge import merge_tree
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError, StorageError
from repro.obs.runtime import OBS
from repro.obs.tracing import traced
from repro.rng import SplittableRng
from repro.warehouse.catalog import Catalog, PartitionMeta
from repro.warehouse.dataset import PartitionKey
from repro.warehouse.ingest import (CountPolicy, PartitionPolicy,
                                    StreamIngestor, split_batch)
from repro.warehouse.parallel import (SampleTask, SerialExecutor,
                                      sample_partition)
from repro.warehouse.storage import FileStore, InMemoryStore
from repro.warehouse.synopsis import PartitionSynopsis

__all__ = ["SampleWarehouse"]

_CATALOG_FILE = "catalog.json"


class SampleWarehouse:
    """A warehouse of samples shadowing a full-scale data warehouse.

    Parameters
    ----------
    bound_values:
        Default per-partition sample bound ``n_F``.
    scheme:
        Default sampling scheme: ``"hr"`` (default — needs no a-priori
        sizes), ``"hb"``, ``"hb-mp"``, or ``"sb"``.
    exceedance_p:
        Default exceedance probability for HB-family schemes.
    sb_rate:
        Fixed rate for the SB scheme.
    rng:
        Master randomness source; per-partition substreams are derived
        deterministically from it.
    store:
        Sample store; defaults to in-memory.  Pass a
        :class:`~repro.warehouse.storage.FileStore` for persistence.
    model:
        Footprint model shared by all samples.

    Examples
    --------
    >>> from repro.rng import SplittableRng
    >>> wh = SampleWarehouse(bound_values=128, rng=SplittableRng(1))
    >>> keys = wh.ingest_batch("t.col", list(range(10_000)), partitions=4)
    >>> s = wh.sample_of("t.col")
    >>> s.population_size
    10000
    """

    def __init__(self, *, bound_values: int = 8192, scheme: str = "hr",
                 exceedance_p: float = 0.001,
                 sb_rate: Optional[float] = None,
                 rng: Optional[SplittableRng] = None,
                 store=None,
                 model: FootprintModel = DEFAULT_MODEL) -> None:
        if bound_values <= 0:
            raise ConfigurationError(
                f"bound_values must be positive, got {bound_values}")
        self._bound = bound_values
        self._scheme = scheme
        self._p = exceedance_p
        self._sb_rate = sb_rate
        self._rng = rng if rng is not None else SplittableRng()
        self._store = store if store is not None else InMemoryStore()
        self._model = model
        self._catalog = Catalog()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def catalog(self) -> Catalog:
        """The warehouse catalog (read it; mutate through the facade)."""
        return self._catalog

    @property
    def store(self):
        """The underlying sample store."""
        return self._store

    @property
    def bound_values(self) -> int:
        """Default sample bound ``n_F``."""
        return self._bound

    def datasets(self) -> List[str]:
        """Names of datasets with at least one partition."""
        return self._catalog.datasets()

    def partition_keys(self, dataset: str, *,
                       only_active: bool = True) -> List[PartitionKey]:
        """Keys of a dataset's partitions, in key order."""
        return [m.key for m in self._catalog.partitions(
            dataset, only_active=only_active)]

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _register(self, key: PartitionKey, sample: WarehouseSample,
                  label: Optional[str] = None,
                  synopsis: Optional[PartitionSynopsis] = None) -> None:
        self._store.put(key, sample)
        if synopsis is None:
            # No raw data in sight: estimate the synopsis from the
            # sample itself (marked non-exact unless exhaustive).
            synopsis = PartitionSynopsis.from_sample(sample)
        self._catalog.register(PartitionMeta(
            key=key,
            population_size=sample.population_size,
            sample_size=sample.size,
            kind=sample.kind,
            scheme=sample.scheme,
            label=label,
            synopsis=synopsis,
        ))

    @traced("ingest.batch", timer="ingest.batch.seconds")
    def ingest_batch(self, dataset: str, values: Sequence, *,
                     partitions: int = 1,
                     scheme: Optional[str] = None,
                     executor=None,
                     labels: Optional[Sequence[str]] = None,
                     stream: int = 0) -> List[PartitionKey]:
        """Divide a batch into partitions, sample each, store the samples.

        Parameters
        ----------
        values:
            The batch (an indexable sequence).
        partitions:
            How many partitions to divide it into.
        scheme:
            Override the warehouse default scheme for this load.
        executor:
            A :class:`SerialExecutor` (default), ``ThreadExecutor``, or
            ``ProcessExecutor`` mapping sampling tasks.
        labels:
            Optional per-partition labels (len must equal ``partitions``).
        stream:
            Stream index for the produced keys.

        Returns the keys of the created partitions.
        """
        scheme = scheme or self._scheme
        if labels is not None and len(labels) != partitions:
            raise ConfigurationError(
                f"{len(labels)} labels for {partitions} partitions")
        executor = executor or SerialExecutor()
        chunks = split_batch(values, partitions)
        # The raw chunks are still in hand, so the catalog gets each
        # partition's *exact* summary statistics (docs/aqp.md).  They
        # are built before anything is stored: a value the synopsis
        # rejects (an int too large for a float) leaves no partition.
        synopses = [PartitionSynopsis.from_values(c) for c in chunks]
        seq0 = self._catalog.next_seq(dataset, stream)
        tasks = [
            SampleTask(
                values=chunk,
                scheme=scheme,
                bound_values=self._bound,
                exceedance_p=self._p,
                sb_rate=self._sb_rate,
                seed=self._rng.spawn(dataset, stream, seq0 + i).seed_value,
            )
            for i, chunk in enumerate(chunks)
        ]
        samples = executor.map(sample_partition, tasks)
        keys: List[PartitionKey] = []
        for i, sample in enumerate(samples):
            key = PartitionKey(dataset, stream, seq0 + i)
            label = labels[i] if labels is not None else None
            self._register(key, sample, label, synopsis=synopses[i])
            keys.append(key)
        if OBS.enabled:
            OBS.registry.counter("ingest.batch.partitions").add(len(keys))
        return keys

    def ingest_sample(self, key: PartitionKey, sample: WarehouseSample, *,
                      label: Optional[str] = None,
                      synopsis: Optional[PartitionSynopsis] = None) -> None:
        """Roll in a pre-built sample (e.g. produced on another machine).

        Pass the partition's ``synopsis`` if the producing side computed
        one (rollups do); otherwise an estimated synopsis is derived
        from the sample.
        """
        self._register(key, sample, label, synopsis=synopsis)

    def open_stream(self, dataset: str, *,
                    policy: Optional[PartitionPolicy] = None,
                    scheme: Optional[str] = None,
                    stream: int = 0,
                    label_fn: Optional[Callable[[int], str]] = None
                    ) -> StreamIngestor:
        """Attach a stream ingestor that emits partitions into this
        warehouse.

        ``policy`` defaults to cutting every ``32 * bound_values``
        arrivals.  ``label_fn`` maps the partition sequence number to a
        label (e.g. a date string).
        """
        scheme = scheme or self._scheme
        policy = policy or CountPolicy(32 * self._bound)

        def sink(key: PartitionKey, sample: WarehouseSample,
                 synopsis: Optional[PartitionSynopsis] = None) -> None:
            label = label_fn(key.seq) if label_fn is not None else None
            self._register(key, sample, label, synopsis=synopsis)

        return StreamIngestor(
            dataset,
            scheme=scheme,
            bound_values=self._bound,
            policy=policy,
            sink=sink,
            rng=self._rng,
            exceedance_p=self._p,
            sb_rate=self._sb_rate,
            stream=stream,
            start_seq=self._catalog.next_seq(dataset, stream),
        )

    # ------------------------------------------------------------------
    # Retrieval and merging
    # ------------------------------------------------------------------
    def sample_for(self, key: PartitionKey) -> WarehouseSample:
        """The stored sample of one partition."""
        return self._store.get(key)

    @traced("warehouse.sample_of", timer="warehouse.sample_of.seconds")
    def sample_of(self, dataset: str, *,
                  keys: Optional[Iterable[PartitionKey]] = None,
                  labels: Optional[Iterable[str]] = None
                  ) -> WarehouseSample:
        """A uniform sample of the union of the selected partitions.

        Selection: explicit ``keys``, or all active partitions carrying
        one of ``labels``, or (default) every active partition of the
        dataset.  The selected samples fold through
        :func:`~repro.core.merge.merge_tree`, so the result is a pure
        function of the selection and the warehouse seed (see
        docs/determinism.md).
        """
        if keys is not None and labels is not None:
            raise ConfigurationError("give keys or labels, not both")
        if keys is None:
            if labels is not None:
                metas = self._catalog.merge_labels(dataset, labels)
            else:
                metas = self._catalog.partitions(dataset)
            keys = [m.key for m in metas]
        keys = list(keys)
        if not keys:
            raise ConfigurationError(
                f"no partitions selected for dataset {dataset!r}")
        samples = [self._store.get(k) for k in keys]
        return merge_tree(samples, rng=self._rng.spawn("merge", dataset))

    def stratified_sample_of(self, dataset: str, *,
                             keys: Optional[Iterable[PartitionKey]] = None,
                             labels: Optional[Iterable[str]] = None):
        """The selected partitions as a stratified sample.

        Instead of merging into one uniform sample, keeps each
        partition's sample as a stratum with its known parent size —
        Section 4.1's "simply concatenated" design.  Stratified
        estimators (on the returned object) remove between-partition
        variance, which pays off when partition means differ.
        """
        from repro.core.stratified import StratifiedSample

        if keys is not None and labels is not None:
            raise ConfigurationError("give keys or labels, not both")
        if keys is None:
            if labels is not None:
                metas = self._catalog.merge_labels(dataset, labels)
            else:
                metas = self._catalog.partitions(dataset)
            keys = [m.key for m in metas]
        keys = list(keys)
        if not keys:
            raise ConfigurationError(
                f"no partitions selected for dataset {dataset!r}")
        return StratifiedSample([self._store.get(k) for k in keys])

    # ------------------------------------------------------------------
    # Roll-in / roll-out
    # ------------------------------------------------------------------
    def roll_out(self, key: PartitionKey, *, drop_sample: bool = False
                 ) -> None:
        """Deactivate a partition; optionally delete its stored sample."""
        self._catalog.roll_out(key)
        if drop_sample and key in self._store:
            self._store.delete(key)

    def roll_in(self, key: PartitionKey,
                sample: Optional[WarehouseSample] = None) -> None:
        """Reactivate a partition (re-supplying the sample if dropped)."""
        self._catalog.roll_in(key)
        if sample is not None:
            self._store.put(key, sample)
        elif key not in self._store:
            raise ConfigurationError(
                f"partition {key} has no stored sample; pass one to roll_in")

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str) -> None:
        """Persist catalog + samples into a directory.

        Uses a :class:`FileStore` in ``directory`` (copying samples over
        if the current store is in-memory) and writes ``catalog.json``.
        """
        os.makedirs(directory, exist_ok=True)
        if isinstance(self._store, FileStore):
            file_store = self._store
        else:
            file_store = FileStore(directory)
            for key in self._store.keys():
                file_store.put(key, self._store.get(key))
        path = os.path.join(directory, _CATALOG_FILE)
        try:
            with open(path, "w", encoding="utf-8") as f:
                json.dump(self._catalog.to_dict(), f, indent=1)
        except OSError as exc:
            raise StorageError(f"cannot write catalog: {exc}") from exc

    @classmethod
    def load(cls, directory: str, *,
             rng: Optional[SplittableRng] = None,
             **kwargs) -> "SampleWarehouse":
        """Reopen a warehouse persisted with :meth:`save`."""
        path = os.path.join(directory, _CATALOG_FILE)
        try:
            with open(path, "r", encoding="utf-8") as f:
                catalog_data = json.load(f)
        except (OSError, ValueError) as exc:
            raise StorageError(f"cannot read catalog: {exc}") from exc
        warehouse = cls(store=FileStore(directory), rng=rng, **kwargs)
        warehouse._catalog = Catalog.from_dict(catalog_data)
        return warehouse
