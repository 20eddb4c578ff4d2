"""In-memory span tracer and the wrappers that put spans on layer calls.

A traced run installs wrappers, from the benchmark's own files, around
the public entry points of each layer of ``repro`` (see
:data:`LAYER_PATCHES`); the program itself is not modified.  Every
wrapped call becomes a span carrying a name, start, end, parent and
request id.  A span's **self time** is its duration minus the durations
of its child spans.  Children of one span run one after another in all
three workloads (a pool task is awaited before the next one starts), so
the self times of one request's spans add up to the duration of its
root span.  Each root sums its tree by span name, which is what lets the
``serve`` workload report exactly the requests it timed.

Spans follow the request across threads through a
:class:`contextvars.ContextVar`: asyncio tasks copy it on creation, and
the ``ThreadExecutor.submit`` wrapper copies it into the pool task, so
work done on a pool thread joins the request that submitted it.

Per-arrival entry points (a sampler's ``feed``, the synopsis
accumulator) are timed inline, without a span object or a context
switch, to keep the tracer's own cost out of the figures; the wrapper's
few remaining instructions land in the caller's self time.  Per-name
totals are kept exactly; raw span records are kept up to a cap and
written out when the benchmark ends (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "Tracer", "Instrumentation", "LAYER_PATCHES",
           "requests_total"]

perf_counter = time.perf_counter


class Span:
    """One open or finished span."""

    __slots__ = ("sid", "name", "start", "parent", "root", "rid", "child",
                 "rows", "counts")

    def __init__(self, sid: int, name: str, start: float,
                 parent: Optional["Span"]) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.rid = None
        self.child = 0.0        # seconds of finished child spans
        if parent is None:      # a root sums its tree by span name
            self.rows: Dict[str, List[float]] = {}
            self.counts: Dict[str, float] = {}


def _add_row(rows: Dict[str, List[float]], name: str, duration: float,
             own: float) -> None:
    row = rows.get(name)
    if row is None:
        row = rows[name] = [0, 0.0, 0.0]
    row[0] += 1
    row[1] += duration
    row[2] += own


def _merge(into: dict, rows: Dict[str, List[float]],
           counts: Dict[str, float]) -> None:
    for name, (calls, total, own) in rows.items():
        row = into["layers"].setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += total
        row[2] += own
    for name, amount in counts.items():
        into["counts"][name] = into["counts"].get(name, 0.0) + amount


class Tracer:
    """Collects spans into per-name totals and per-request sums."""

    def __init__(self, keep: int = 20000) -> None:
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._keep = keep
        #: name -> [calls, total seconds, self seconds], over every span
        self.layers: Dict[str, List[float]] = {}
        #: free-form counters (cache hits, plan selections, ...)
        self.counts: Dict[str, float] = {}
        #: request id -> {"s": root seconds, "layers": rows, "counts": ...}
        #: for every root span that carries a request id
        self.requests: Dict[str, dict] = {}
        #: the same sums over root spans without a request id
        self.orphans: dict = {"layers": {}, "counts": {}}
        #: raw (sid, parent sid, request id, name, start, end) records
        self.records: List[tuple] = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str, rid: Optional[str] = None):
        """Open a span as a child of the current one; returns
        ``(span, token)`` for :meth:`close`.  ``rid`` labels a root."""
        span = Span(next(self._ids), name, perf_counter(),
                    self.current.get())
        if rid is not None:
            span.rid = rid
        return span, self.current.set(span)

    def close(self, span: Span, token) -> None:
        """Close a span opened with :meth:`open`."""
        end = perf_counter()
        self.current.reset(token)
        self.finish(span, end)

    @contextlib.contextmanager
    def span(self, name: str, rid: Optional[str] = None):
        """``with tracer.span(name, rid):`` -- open and close a span."""
        span, token = self.open(name, rid)
        try:
            yield span
        finally:
            self.close(span, token)

    def record(self, name: str, start: float, end: float) -> None:
        """Add an already-finished leaf span under the current span."""
        self.finish(Span(next(self._ids), name, start, self.current.get()),
                    end)

    def finish(self, span: Span, end: float) -> None:
        """Account a span that ended at ``end``."""
        duration = end - span.start
        own = duration - span.child
        parent = span.parent
        if parent is not None:
            parent.child += duration
        root = span.root
        with self._lock:
            _add_row(self.layers, span.name, duration, own)
            _add_row(root.rows, span.name, duration, own)
            if parent is None:
                if span.rid is not None:
                    self.requests[str(span.rid)] = {
                        "s": duration, "layers": span.rows,
                        "counts": span.counts}
                else:
                    _merge(self.orphans, span.rows, span.counts)
            if len(self.records) < self._keep:
                self.records.append((
                    span.sid, parent.sid if parent is not None else 0,
                    root.rid, span.name, span.start, end))

    def account(self, name: str, parent: Span, duration: float,
                own: float) -> None:
        """Account a leaf call timed inline under ``parent`` (no span
        object; see :func:`_inline_wrapper`)."""
        with self._lock:
            _add_row(self.layers, name, duration, own)
            _add_row(parent.root.rows, name, duration, own)

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a free-form counter (and to the current request's)."""
        span = self.current.get()
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount
            if span is not None:
                counts = span.root.counts
                counts[name] = counts.get(name, 0.0) + amount

    def peak(self, name: str, value: float) -> None:
        """Keep the largest ``value`` seen under ``name``."""
        with self._lock:
            self.counts[name] = max(self.counts.get(name, value), value)

    def calls(self, name: str) -> int:
        """How many spans called ``name`` have finished."""
        row = self.layers.get(name)
        return int(row[0]) if row is not None else 0

    # -- reading -------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data totals (what the server process reports back)."""
        with self._lock:
            return json.loads(json.dumps({
                "layers": self.layers, "counts": self.counts,
                "requests": self.requests, "orphans": self.orphans}))

    def dump(self, path: str) -> None:
        """Write the kept raw span records as JSON lines."""
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.records:
                f.write(json.dumps(rec) + "\n")


def requests_total(snapshot: dict, rids: Iterable[str]) -> dict:
    """Layer and counter sums over the requests ``rids`` plus the work
    no request claimed (the orphans), in the shape of a snapshot."""
    total: dict = {"layers": {}, "counts": {}}
    for rid in rids:
        request = snapshot["requests"][rid]
        _merge(total, request["layers"], request["counts"])
    _merge(total, snapshot["orphans"]["layers"],
           snapshot["orphans"]["counts"])
    return total


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _span_wrapper(tracer: Tracer, fn: Callable, name: str,
                  after: Optional[Callable] = None,
                  skip_under: Optional[str] = None) -> Callable:
    """A wrapper running ``fn`` inside a span called ``name``.

    ``after(tracer, args, result)`` sees each successful call;
    ``skip_under`` names a parent span under which ``fn`` runs unwrapped
    (its time then stays in that parent's self time).
    """
    current = tracer.current
    if inspect.iscoroutinefunction(fn):
        async def awrapper(*args, **kwargs):
            span, token = tracer.open(name)
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.close(span, token)
            if after is not None:
                after(tracer, args, result)
            return result
        return functools.wraps(fn)(awrapper)

    def wrapper(*args, **kwargs):
        if skip_under is not None:
            parent = current.get()
            if parent is not None and parent.name == skip_under:
                return fn(*args, **kwargs)
        span, token = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span, token)
        if after is not None:
            after(tracer, args, result)
        return result
    return functools.wraps(fn)(wrapper)


def _inline_wrapper(tracer: Tracer, fn: Callable, name: str,
                    skip_under: Optional[str] = None) -> Callable:
    """A cheaper wrapper for per-arrival calls: no span object and no
    context switch.  Spans opened inside ``fn`` (a purge kernel) become
    children of the caller's span; their time is taken back out of
    ``fn``'s self time and the caller is charged ``fn``'s whole
    duration, so the sums are what a real span would give."""
    current = tracer.current

    def wrapper(*args, **kwargs):
        parent = current.get()
        if parent is None:
            with tracer.span(name):
                return fn(*args, **kwargs)
        if parent.name == skip_under:
            return fn(*args, **kwargs)
        before = parent.child
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            tracer.account(name, parent, duration,
                           duration - (parent.child - before))
            parent.child = before + duration
    return functools.wraps(fn)(wrapper)


def _count_inputs(tracer, args, result):
    tracer.count("core.merge_tree.inputs", len(args[0]))


def _count_plan(tracer, args, plan):
    tracer.count("analytics.plans")
    tracer.count("analytics.partitions.total", plan.total_partitions)
    tracer.count("analytics.partitions.selected", len(plan.selected))
    if plan.fallback:
        tracer.count("analytics.fallbacks")


def _count_cache(tracer, args, result):
    tracer.count("serve.cache.hits" if result is not None
                 else "serve.cache.misses")


def _tag_request(tracer, args, request):
    """After parsing, label the request's root span with its id."""
    span = tracer.current.get()
    if request is not None and span is not None:
        rid = request.headers.get("x-request-id")
        if rid is not None:
            span.root.rid = rid


def _cache_put_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """``MergeCache.put``: count LRU evictions and the peak entry count."""

    def put(self, dataset, selector, version, sample):
        fresh = (dataset, selector) not in self._entries
        size = len(self)
        result = fn(self, dataset, selector, version, sample)
        if fresh and len(self) == size:
            tracer.count("serve.cache.evictions")
        tracer.peak("serve.cache.peak_entries", len(self))
        return result
    return functools.wraps(fn)(put)


def _kernel_counter(kind: str):
    def after(tracer, args, result):
        tracer.count("kernels.calls")
        tracer.count(f"kernels.{kind}.calls")
    return after


#: Per-arrival entry points, timed by :func:`_inline_wrapper`.
INLINE = {"core.sampler.feed", "warehouse.synopsis.accumulate"}

#: (module, attribute path, span name, after-hook, skip_under) for every
#: layer entry point a traced run wraps.  Module attributes are patched
#: where the *caller* looks them up (``from x import f`` binds a copy).
LAYER_PATCHES = [
    # core: samplers and the merge tree
    ("repro.warehouse.warehouse", "sample_partition",
     "core.sample_partition", None, None),
    ("repro.core.hybrid_reservoir", "AlgorithmHR.feed",
     "core.sampler.feed", None, None),
    ("repro.core.hybrid_bernoulli", "AlgorithmHB.feed",
     "core.sampler.feed", None, None),
    ("repro.warehouse.warehouse", "merge_tree", "core.merge_tree",
     _count_inputs, None),
    # kernels: eq. (2) draws and the Fig. 3/4 purges
    ("repro.core.merge", "draw_hypergeometric", "kernels",
     _kernel_counter("hypergeometric"), None),
    ("repro.core.purge", "binomial_counts", "kernels",
     _kernel_counter("binomial"), None),
    ("repro.core.purge", "srs_counts", "kernels",
     _kernel_counter("srs"), None),
    # warehouse: ingest, synopses, retrieval, store, catalog
    ("repro.warehouse.warehouse", "SampleWarehouse.ingest_batch",
     "warehouse.ingest_batch", None, None),
    ("repro.warehouse.ingest", "StreamIngestor.feed_many",
     "warehouse.stream.feed_many", None, None),
    ("repro.warehouse.synopsis", "PartitionSynopsis.from_values",
     "warehouse.synopsis.from_values", None, None),
    # The stream path's per-arrival synopsis upkeep; inside from_values
    # the same method is the batch path's cost and stays there.
    ("repro.warehouse.synopsis", "SynopsisAccumulator.feed",
     "warehouse.synopsis.accumulate", None,
     "warehouse.synopsis.from_values"),
    ("repro.warehouse.warehouse", "SampleWarehouse.sample_of",
     "warehouse.sample_of", None, None),
    ("repro.warehouse.storage", "InMemoryStore.get",
     "warehouse.store.get", None, None),
] + [
    ("repro.warehouse.catalog", f"Catalog.{method}", "warehouse.catalog",
     None, None)
    for method in ("get", "partitions", "merge_labels", "register",
                   "next_seq")
] + [
    # analytics: planner and estimators
    ("repro.analytics.planner", "QueryPlanner.plan", "analytics.plan",
     _count_plan, None),
    ("repro.analytics.planner", "QueryPlanner.execute",
     "analytics.execute", None, None),
    ("repro.analytics.planner", "stratified_partition_estimate",
     "analytics.estimators", None, None),
] + [
    (module, fn, "analytics.estimators", None, None)
    for module in ("repro.analytics.estimators", "repro.analytics.aqp",
                   "repro.serve.app")
    for fn in ("estimate_count", "estimate_sum", "estimate_avg",
               "estimate_quantile")
] + [
    # serve: transport, dispatch, OCC, cache
    ("repro.serve.app", "WarehouseService._on_connection",
     "serve.request", None, None),
    ("repro.serve.app", "read_request", "serve.parse", _tag_request, None),
    ("repro.serve.app", "render_response", "serve.encode", None, None),
    ("repro.serve.app", "WarehouseService.handle", "serve.handle",
     None, None),
    ("repro.serve.occ", "VersionedCatalog.version", "serve.occ.version",
     None, None),
    ("repro.serve.occ", "VersionedCatalog.read", "serve.occ.read",
     None, None),
    ("repro.serve.occ", "VersionedCatalog.mutate", "serve.occ.mutate",
     None, None),
    ("repro.serve.cache", "MergeCache.get", "serve.cache.get",
     _count_cache, None),
]


def _admission_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """``AdmissionController.__aenter__``: time the wait, count sheds."""
    from repro.errors import OverloadedError

    async def aenter(self):
        tracer.count("serve.admission.calls")
        span, token = tracer.open("serve.admission.wait")
        try:
            return await fn(self)
        except OverloadedError:
            tracer.count("serve.admission.shed")
            raise
        finally:
            tracer.close(span, token)
    return functools.wraps(fn)(aenter)


def _submit_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """``ThreadExecutor.submit``: carry the request's span context into
    the pool task and record ``serve.pool.wait`` (submit to start)."""

    def submit(self, task, *args, **kwargs):
        context = contextvars.copy_context()
        submitted = perf_counter()

        def run():
            tracer.record("serve.pool.wait", submitted, perf_counter())
            return task(*args, **kwargs)
        return fn(self, context.run, run)
    return functools.wraps(fn)(submit)


class Instrumentation:
    """Installs the layer wrappers and restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, make: Callable) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> "Instrumentation":
        """Wrap every entry point in :data:`LAYER_PATCHES`."""
        tracer = self.tracer
        for module_name, path, name, after, skip in LAYER_PATCHES:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            if name in INLINE:
                self._patch(owner, attr, lambda fn, n=name, s=skip:
                            _inline_wrapper(tracer, fn, n, s))
            else:
                self._patch(owner, attr,
                            lambda fn, n=name, a=after, s=skip:
                            _span_wrapper(tracer, fn, n, a, s))
        from repro.serve.admission import AdmissionController
        from repro.serve.cache import MergeCache
        from repro.warehouse.parallel import ThreadExecutor
        self._patch(AdmissionController, "__aenter__",
                    lambda fn: _admission_wrapper(tracer, fn))
        self._patch(ThreadExecutor, "submit",
                    lambda fn: _submit_wrapper(tracer, fn))
        self._patch(MergeCache, "put",
                    lambda fn: _cache_put_wrapper(tracer, fn))
        return self

    def uninstall(self) -> None:
        """Restore every original, last patched first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
