"""The serving layer: the warehouse behind an asyncio HTTP front.

The paper frames the sample warehouse as infrastructure that answers
approximate queries *on demand*; this package is that service front
(ROADMAP item 2).  ``repro serve`` exposes ingest, merge-on-demand
sample retrieval, estimates, and roll-in/roll-out over HTTP
(stdlib-only transport), hardened with the standard serving patterns:

* versioned merge-result **cache** (:mod:`repro.serve.cache`),
* **admission control** with queue-depth shedding
  (:mod:`repro.serve.admission`),
* **circuit breaker** + jittered-backoff **retry** around storage
  (:mod:`repro.serve.resilience`),
* **optimistic concurrency** on catalog mutations
  (:mod:`repro.serve.occ`).

The repository benchmark's ``serve`` workload (``perfbench/run.py``)
measures the result.  Endpoint and semantics reference:
``docs/serving.md``.
"""

from repro.serve.admission import AdmissionController
from repro.serve.app import (DEFAULT_HOST, DEFAULT_PORT, ServeConfig,
                             WarehouseService)
from repro.serve.cache import MergeCache
from repro.serve.http import Request, Response
from repro.serve.occ import VersionedCatalog
from repro.serve.resilience import (CLOSED, HALF_OPEN, OPEN,
                                    CircuitBreaker, RetryPolicy,
                                    backoff_delays)

__all__ = [
    "WarehouseService",
    "ServeConfig",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "AdmissionController",
    "MergeCache",
    "VersionedCatalog",
    "CircuitBreaker",
    "RetryPolicy",
    "backoff_delays",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "Request",
    "Response",
]
