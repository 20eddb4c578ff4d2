"""The sample warehouse: catalog, storage, ingest paths, parallel
sampling, temporal rollups, and the sliding-window approximation."""

from repro.warehouse.audit import AuditReport, audit_warehouse
from repro.warehouse.catalog import Catalog, PartitionMeta
from repro.warehouse.dataset import PartitionKey
from repro.warehouse.ingest import StreamIngestor, split_batch
from repro.warehouse.maintenance import (PartitionMaintainer,
                                         apply_deletion, warehouse_delete)
from repro.warehouse.parallel import (ProcessExecutor, SerialExecutor,
                                      ThreadExecutor, sample_partition)
from repro.warehouse.rollup import temporal_rollup
from repro.warehouse.storage import (FileStore, InMemoryStore,
                                     sample_from_dict, sample_to_dict)
from repro.warehouse.warehouse import SampleWarehouse
from repro.warehouse.window import SlidingWindowSampler

__all__ = [
    "SampleWarehouse",
    "PartitionKey",
    "PartitionMeta",
    "Catalog",
    "InMemoryStore",
    "FileStore",
    "sample_to_dict",
    "sample_from_dict",
    "StreamIngestor",
    "split_batch",
    "PartitionMaintainer",
    "apply_deletion",
    "warehouse_delete",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "sample_partition",
    "temporal_rollup",
    "SlidingWindowSampler",
    "audit_warehouse",
    "AuditReport",
]
