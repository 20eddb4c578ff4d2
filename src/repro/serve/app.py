"""The warehouse service: endpoints, wiring, and the asyncio server.

:class:`WarehouseService` puts the pieces together over one
:class:`~repro.warehouse.warehouse.SampleWarehouse`:

* **transport** — :mod:`repro.serve.http` over ``asyncio.start_server``
  (one request per connection);
* **admission** — every warehouse endpoint passes the
  :class:`~repro.serve.admission.AdmissionController` (``/healthz``
  and ``/metrics`` bypass it: health checks must answer precisely when
  the service is saturated);
* **dispatch** — blocking warehouse/storage work runs on a persistent
  :class:`~repro.warehouse.parallel.ThreadExecutor` behind the
  :class:`~repro.serve.resilience.CircuitBreaker` and
  :class:`~repro.serve.resilience.RetryPolicy`;
* **consistency** — mutations are compare-and-swap through the
  :class:`~repro.serve.occ.VersionedCatalog`; queries run an
  optimistic read-validate loop (read tag → merge → re-check tag),
  so every response is labeled with a version at which it was exact,
  and every :class:`~repro.serve.cache.MergeCache` entry carries the
  tag it was computed under.

Endpoints, status codes, and the cache-invalidation contract are
documented in ``docs/serving.md``; metric names in
``docs/observability.md``.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.analytics.estimators import (estimate_avg, estimate_count,
                                        estimate_quantile, estimate_sum)
from repro.analytics.planner import QueryPlanner
from repro.errors import (CatalogError, CircuitOpenError,
                          ConfigurationError, OverloadedError, ReproError,
                          ServiceError, StorageError,
                          VersionConflictError)
from repro.obs.clock import monotonic
from repro.obs.runtime import OBS
from repro.rng import SplittableRng
from repro.serve.admission import AdmissionController
from repro.serve.cache import MergeCache
from repro.serve.http import (Request, Response, read_request,
                              render_response)
from repro.serve.occ import VersionedCatalog
from repro.serve.resilience import CircuitBreaker, RetryPolicy
from repro.warehouse.dataset import PartitionKey
from repro.warehouse.parallel import ThreadExecutor
from repro.warehouse.storage import sample_to_dict

__all__ = ["ServeConfig", "WarehouseService", "DEFAULT_HOST",
           "DEFAULT_PORT"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8787


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one service instance (defaults suit tests/demos)."""

    max_concurrent: int = 64
    max_queue: int = 256
    shed_retry_after: float = 0.5
    breaker_failure_threshold: int = 5
    breaker_recovery_seconds: float = 2.0
    breaker_half_open_max: int = 1
    retry_attempts: int = 3
    retry_base_delay: float = 0.02
    retry_max_delay: float = 0.5
    cache_entries: int = 128
    max_workers: Optional[int] = None


class WarehouseService:
    """HTTP facade over one sample warehouse.

    Parameters
    ----------
    warehouse:
        The warehouse to serve.  The service assumes exclusive
        ownership of mutations: all writes must come through it, or
        version tags would drift from catalog state.
    config:
        A :class:`ServeConfig`.
    clock / retry_rng / sleep:
        Injection points for the failure-injection tests: the breaker
        clock, the retry-jitter rng, and the backoff sleep.
    """

    def __init__(self, warehouse, *, config: Optional[ServeConfig] = None,
                 clock: Callable[[], float] = monotonic,
                 retry_rng: Optional[SplittableRng] = None,
                 sleep=None) -> None:
        config = config if config is not None else ServeConfig()
        self._wh = warehouse
        self._config = config
        self._clock = clock
        self._occ = VersionedCatalog()
        self._cache = MergeCache(max_entries=config.cache_entries)
        self._admission = AdmissionController(
            max_concurrent=config.max_concurrent,
            max_queue=config.max_queue,
            retry_after=config.shed_retry_after)
        self._breaker = CircuitBreaker(
            failure_threshold=config.breaker_failure_threshold,
            recovery_seconds=config.breaker_recovery_seconds,
            half_open_max=config.breaker_half_open_max,
            clock=clock)
        retry_kwargs = {} if sleep is None else {"sleep": sleep}
        self._retry = RetryPolicy(
            attempts=config.retry_attempts,
            base_delay=config.retry_base_delay,
            max_delay=config.retry_max_delay,
            rng=retry_rng, **retry_kwargs)
        # Mutations are not idempotent: ingest_batch registers
        # partitions one by one, so a StorageError mid-batch leaves a
        # committed prefix behind (the version tag only moves at the
        # end).  A retry would pass the CAS check and re-run the whole
        # batch, silently duplicating that prefix — so mutations get
        # exactly one attempt, keeping only the breaker accounting.
        self._mutate_once = RetryPolicy(attempts=1, **retry_kwargs)
        self._executor = ThreadExecutor(config.max_workers)
        self._planner = QueryPlanner(warehouse)
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Introspection (for tests)
    # ------------------------------------------------------------------
    @property
    def breaker(self) -> CircuitBreaker:
        """The storage-path circuit breaker."""
        return self._breaker

    @property
    def cache(self) -> MergeCache:
        """The merge-result cache."""
        return self._cache

    @property
    def occ(self) -> VersionedCatalog:
        """The version-tag table."""
        return self._occ

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = DEFAULT_HOST,
                    port: int = DEFAULT_PORT) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port).

        Pass ``port=0`` to bind an ephemeral port (tests).
        """
        self._server = await asyncio.start_server(
            self._on_connection, host, port)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        """Block serving until cancelled (the CLI entry point)."""
        if self._server is None:
            raise ConfigurationError("call start() before serve_forever()")
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting and drain the worker pool without blocking
        the event loop (satellite fix: ``ThreadExecutor.aclose``)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._executor.aclose()

    # ------------------------------------------------------------------
    # Connection + request plumbing
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        try:
            try:
                request = await read_request(reader)
            except ConfigurationError as exc:
                response = Response(400, {"error": "bad-request",
                                          "detail": str(exc)})
            else:
                if request is None:
                    return
                response = await self.handle(request)
            writer.write(render_response(response))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def handle(self, request: Request) -> Response:
        """Route one request; never raises (errors become responses)."""
        t0 = self._clock()
        if OBS.enabled:
            OBS.registry.counter("serve.requests").inc()
        try:
            response = await self._route(request)
        except ReproError as exc:
            response = self._error_response(exc)
        except Exception as exc:  # noqa: BLE001 - the transport boundary
            response = Response(500, {"error": "internal",
                                      "detail": str(exc)})
        if OBS.enabled:
            reg = OBS.registry
            reg.histogram("serve.request.seconds").observe(
                self._clock() - t0)
            if response.status >= 500:
                reg.counter("serve.errors").inc()
        return response

    @staticmethod
    def _error_response(exc: ReproError) -> Response:
        if isinstance(exc, OverloadedError):
            return Response(503, {"error": "overloaded",
                                  "detail": str(exc)},
                            headers={"Retry-After":
                                     f"{exc.retry_after:.3f}"})
        if isinstance(exc, CircuitOpenError):
            return Response(503, {"error": "circuit-open",
                                  "detail": str(exc)},
                            headers={"Retry-After":
                                     f"{max(exc.retry_after, 0.0):.3f}"})
        if isinstance(exc, VersionConflictError):
            return Response(409, {"error": "version-conflict",
                                  "detail": str(exc),
                                  "expected": exc.expected,
                                  "actual": exc.actual})
        if isinstance(exc, CatalogError):
            return Response(404, {"error": "not-found",
                                  "detail": str(exc)})
        if isinstance(exc, ConfigurationError):
            return Response(400, {"error": "bad-request",
                                  "detail": str(exc)})
        if isinstance(exc, StorageError):
            return Response(500, {"error": "storage",
                                  "detail": str(exc)})
        if isinstance(exc, ServiceError):
            return Response(503, {"error": "service",
                                  "detail": str(exc)})
        return Response(500, {"error": "internal", "detail": str(exc)})

    async def _route(self, request: Request) -> Response:
        if request.path == "/healthz":
            return Response(200, {"status": "ok",
                                  "breaker": self._breaker.state})
        if request.path == "/metrics":
            if not OBS.enabled:
                return Response(200, {"enabled": False})
            return Response(200, {"enabled": True,
                                  "metrics": OBS.registry.snapshot()})
        async with self._admission:
            return await self._route_warehouse(request)

    async def _route_warehouse(self, request: Request) -> Response:
        parts = [p for p in request.path.split("/") if p]
        if parts == ["datasets"]:
            if request.method != "GET":
                return self._method_not_allowed(request)
            return await self._handle_datasets()
        if len(parts) >= 2 and parts[0] == "datasets":
            dataset = parts[1]
            action = parts[2] if len(parts) == 3 else None
            if len(parts) > 3:
                return self._not_found(request)
            if action is None and request.method == "GET":
                return await self._handle_dataset_info(dataset)
            if action == "ingest" and request.method == "POST":
                return await self._handle_ingest(dataset, request)
            if action == "sample" and request.method == "GET":
                return await self._handle_sample(dataset, request)
            if action == "estimate" and request.method == "GET":
                return await self._handle_estimate(dataset, request)
            if action in ("rollout", "rollin") \
                    and request.method == "POST":
                return await self._handle_roll(dataset, action, request)
            if action in (None, "ingest", "sample", "estimate",
                          "rollout", "rollin"):
                return self._method_not_allowed(request)
        return self._not_found(request)

    @staticmethod
    def _not_found(request: Request) -> Response:
        return Response(404, {"error": "not-found",
                              "detail": f"no route for {request.path!r}"})

    @staticmethod
    def _method_not_allowed(request: Request) -> Response:
        return Response(405, {"error": "method-not-allowed",
                              "detail": f"{request.method} "
                                        f"{request.path!r}"})

    # ------------------------------------------------------------------
    # Guarded dispatch to the pool
    # ------------------------------------------------------------------
    async def _guarded(self, fn: Callable[[], object], *,
                       idempotent: bool = True):
        """Run blocking work on the pool behind breaker + retry.

        Only idempotent (read-path) work is retried; pass
        ``idempotent=False`` for mutations, which run through the
        breaker exactly once (see ``_mutate_once``).
        """
        async def attempt():
            return await asyncio.wrap_future(self._executor.submit(fn))

        policy = self._retry if idempotent else self._mutate_once
        return await policy.call(attempt, breaker=self._breaker)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    async def _handle_datasets(self) -> Response:
        def op() -> List[dict]:
            catalog = self._wh.catalog
            names = self._occ.read(catalog.datasets)
            rows = []
            for name in names:
                metas = self._occ.read(
                    lambda n=name: list(catalog.partitions(n)))
                rows.append({
                    "dataset": name,
                    "version": self._occ.version(name),
                    "partitions": len(metas),
                    "population": sum(m.population_size for m in metas),
                })
            return rows

        rows = await self._guarded(op)
        return Response(200, {"datasets": rows})

    async def _handle_dataset_info(self, dataset: str) -> Response:
        def op() -> dict:
            catalog = self._wh.catalog
            metas = self._occ.read(
                lambda: list(catalog.partitions(dataset,
                                                only_active=False)))
            return {
                "dataset": dataset,
                "version": self._occ.version(dataset),
                "partitions": [{
                    "key": str(m.key),
                    "population_size": m.population_size,
                    "sample_size": m.sample_size,
                    "kind": m.kind.name,
                    "scheme": m.scheme,
                    "label": m.label,
                    "active": m.active,
                } for m in metas],
            }

        return Response(200, await self._guarded(op))

    @staticmethod
    def _expected_version(request: Request,
                          body: dict) -> Optional[int]:
        raw = request.headers.get("if-match",
                                  body.get("expected_version"))
        if raw is None:
            return None
        try:
            return int(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"expected_version must be an integer, "
                f"got {raw!r}") from exc

    async def _handle_ingest(self, dataset: str,
                             request: Request) -> Response:
        body = request.json()
        values = body.get("values")
        if not isinstance(values, list) or not values:
            raise ConfigurationError(
                "ingest body needs a non-empty 'values' array")
        partitions = body.get("partitions", 1)
        # bool is an int subclass: ``true`` is not a partition count.
        if (isinstance(partitions, bool) or not isinstance(partitions, int)
                or partitions <= 0):
            raise ConfigurationError(
                f"partitions must be a positive integer, "
                f"got {partitions!r}")
        scheme = body.get("scheme")
        stream = body.get("stream", 0)
        labels = body.get("labels")
        expected = self._expected_version(request, body)

        def op() -> Tuple[List[PartitionKey], int]:
            # The CAS section covers seq allocation, sampling, and
            # registration as one atomic mutation; see docs/serving.md
            # ("Why ingest samples inside the lock"): seq numbers must
            # not race.
            committed = self._occ.mutate(
                dataset,
                lambda: self._wh.ingest_batch(
                    dataset, values, partitions=partitions,
                    scheme=scheme, labels=labels, stream=stream),
                expected=expected)
            # Drop the dataset's now-unhittable entries here, on the
            # pool thread: the cache takes a threading.Lock (RPR111).
            self._cache.invalidate(dataset)
            return committed

        keys, version = await self._guarded(op, idempotent=False)
        return Response(200, {"dataset": dataset,
                              "keys": [str(k) for k in keys],
                              "version": version})

    def _selection(self, dataset: str,
                   request: Request) -> Tuple[str, Optional[List[str]]]:
        """Canonical selector string + parsed labels for a query."""
        labels = None
        if "labels" in request.query:
            labels = [p for p in request.query["labels"].split(",") if p]
            if not labels:
                raise ConfigurationError("empty labels selection")
        selector = json.dumps({"labels": labels}, sort_keys=True)
        return selector, labels

    def _merge_versioned(self, dataset: str, selector: str,
                         labels: Optional[List[str]]):
        """Optimistic read-validate loop (runs on a pool thread).

        Read the tag, merge, re-check the tag; a moved tag means a
        mutation committed mid-merge, so the result may mix catalog
        states — discard and redo against the new tag.  Every retry
        implies a completed mutation, so this starves only under a
        continuous mutation stream.
        """
        catalog = self._wh.catalog
        while True:
            version = self._occ.version(dataset)
            cached = self._cache.get(dataset, selector, version)
            if cached is not None:
                return version, cached, True
            if labels is not None:
                metas = self._occ.read(
                    lambda: catalog.merge_labels(dataset, labels))
            else:
                metas = self._occ.read(
                    lambda: list(catalog.partitions(dataset)))
            keys = [m.key for m in metas]
            sample = self._wh.sample_of(dataset, keys=keys)
            if self._occ.version(dataset) == version:
                self._cache.put(dataset, selector, version, sample)
                return version, sample, False

    async def _handle_sample(self, dataset: str,
                             request: Request) -> Response:
        selector, labels = self._selection(dataset, request)
        version, sample, cached = await self._guarded(
            lambda: self._merge_versioned(dataset, selector, labels))
        return Response(200, {"dataset": dataset, "version": version,
                              "cached": cached,
                              "sample": sample_to_dict(sample)})

    def _plan_versioned(self, dataset: str, stat: str, target: float,
                        relative: bool, labels: Optional[List[str]]):
        """Plan + execute under the optimistic read-validate loop.

        Same discipline as :meth:`_merge_versioned`: a version tag that
        moved between planning and execution means the read set may mix
        catalog states, so redo against the new tag.  Returns
        ``(version, estimate_or_None, plan)`` — the estimate is ``None``
        when the plan fell back (the caller then runs merge-all).
        """
        while True:
            version = self._occ.version(dataset)
            plan = self._occ.read(
                lambda: self._planner.plan(
                    dataset, stat, target_half_width=target,
                    labels=labels, relative=relative))
            if plan.fallback:
                return version, None, plan
            estimate = self._planner.execute(plan)
            if self._occ.version(dataset) == version:
                return version, estimate, plan

    async def _handle_estimate(self, dataset: str,
                               request: Request) -> Response:
        stat = request.query.get("stat", "avg")
        if stat not in ("count", "sum", "avg", "quantile"):
            raise ConfigurationError(
                f"unknown stat {stat!r}; expected count, sum, avg, "
                "or quantile")
        selector, labels = self._selection(dataset, request)
        payload = {"dataset": dataset, "stat": stat}

        target = None
        raw_target = request.query.get("target_half_width")
        if raw_target is not None:
            try:
                target = float(raw_target)
            except ValueError as exc:
                raise ConfigurationError(
                    f"target_half_width must be a number, "
                    f"got {raw_target!r}") from exc
        relative = request.query.get("relative", "0") not in ("0", "")

        if target is not None and stat != "quantile":
            version, est, plan = await self._guarded(
                lambda: self._plan_versioned(dataset, stat, target,
                                             relative, labels))
            payload["plan"] = {
                "planned": True,
                "certified": plan.certified,
                "fallback": plan.fallback,
                "reason": plan.reason,
                "selected": len(plan.selected),
                "total_partitions": plan.total_partitions,
                # A fallback plan predicts an infinite half-width,
                # which JSON cannot carry: it renders as null.
                "predicted_half_width": (
                    plan.predicted_half_width
                    if math.isfinite(plan.predicted_half_width) else None),
                "target_half_width": plan.target_half_width,
            }
            if est is not None:
                payload.update(est.to_dict())
                payload.update({"version": version, "cached": False})
                return Response(200, payload)

        version, sample, cached = await self._guarded(
            lambda: self._merge_versioned(dataset, selector, labels))
        payload.update({"version": version, "cached": cached})
        if stat == "quantile":
            raw_fraction = request.query.get("fraction", "0.5")
            try:
                fraction = float(raw_fraction)
            except ValueError as exc:
                raise ConfigurationError(
                    f"fraction must be a number, "
                    f"got {raw_fraction!r}") from exc
            payload["fraction"] = fraction
            payload["value"] = estimate_quantile(sample, fraction)
        else:
            fn = {"count": estimate_count, "sum": estimate_sum,
                  "avg": estimate_avg}[stat]
            payload.update(fn(sample).to_dict())
        return Response(200, payload)

    async def _handle_roll(self, dataset: str, action: str,
                           request: Request) -> Response:
        body = request.json()
        raw_key = body.get("key")
        if not isinstance(raw_key, str):
            raise ConfigurationError(
                f"{action} body needs a 'key' string")
        key = PartitionKey.parse(raw_key)
        if key.dataset != dataset:
            raise ConfigurationError(
                f"key {raw_key!r} does not belong to dataset "
                f"{dataset!r}")
        expected = self._expected_version(request, body)

        def op() -> Tuple[None, int]:
            mutation = (self._wh.roll_out if action == "rollout"
                        else self._wh.roll_in)
            committed = self._occ.mutate(dataset, lambda: mutation(key),
                                         expected=expected)
            self._cache.invalidate(dataset)
            return committed

        _, version = await self._guarded(op, idempotent=False)
        return Response(200, {"dataset": dataset, "key": raw_key,
                              "action": action, "version": version})
