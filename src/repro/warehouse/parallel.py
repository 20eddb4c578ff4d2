"""Parallel per-partition sampling.

Each partition is sampled independently — that is what makes the paper's
architecture parallel-friendly — so the warehouse only needs a ``map``
over partitions.  Three interchangeable executors are provided:

* :class:`SerialExecutor` — plain loop; deterministic, zero overhead, and
  the right choice for CPU-time benchmarks (the paper reports total CPU
  cost, which parallelism does not reduce).
* :class:`ThreadExecutor` — thread pool; useful when values come from
  I/O-bound sources (the GIL serializes the pure-Python sampling itself).
* :class:`ProcessExecutor` — process pool; true parallel sampling for
  wall-clock speedups.  Work units must be picklable, which is why the
  unit of work is the module-level :func:`sample_partition` driven by a
  plain-data :class:`SampleTask`.

A task may also ask for its partition's exact synopsis
(``SampleTask.summarize``): the synopsis is built in the same worker
from the same first-seen count as the sample (:func:`feed_counted`), so
the executors parallelize it too.

Determinism: every task carries its own derived seed, so results are
identical whichever executor runs them, in whatever order.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import pickle
import threading
from dataclasses import dataclass
from typing import (Callable, List, Optional, Sequence, Tuple, TypeVar,
                    Union)

from repro.core.hybrid_bernoulli import AlgorithmHB
from repro.core.hybrid_reservoir import AlgorithmHR
from repro.core.multi_purge import MultiPurgeBernoulli
from repro.core.sample import WarehouseSample
from repro.core.stratified_bernoulli import AlgorithmSB
from repro.errors import ConfigurationError
from repro.obs.clock import monotonic
from repro.obs.runtime import OBS
from repro.rng import SplittableRng
from repro.warehouse.synopsis import PartitionSynopsis, SynopsisAccumulator

__all__ = ["SampleTask", "sample_partition", "SerialExecutor",
           "ThreadExecutor", "ProcessExecutor", "make_sampler",
           "feed_counted"]

T = TypeVar("T")
R = TypeVar("R")

SCHEMES = ("hb", "hr", "sb", "hb-mp")


def make_sampler(scheme: str, *, population_size: Optional[int],
                 bound_values: int, exceedance_p: float,
                 sb_rate: Optional[float], rng: SplittableRng):
    """Instantiate the sampler for a scheme string.

    ``population_size`` is required for "hb" and "hb-mp"; ``sb_rate`` is
    required for "sb".
    """
    if scheme == "hb":
        if population_size is None:
            raise ConfigurationError(
                "Algorithm HB needs the partition size a priori; "
                "use scheme='hr' when it is unknown")
        return AlgorithmHB(population_size, bound_values,
                           exceedance_p=exceedance_p, rng=rng)
    if scheme == "hb-mp":
        if population_size is None:
            raise ConfigurationError(
                "the multiple-purge variant needs the partition size "
                "a priori")
        return MultiPurgeBernoulli(population_size, bound_values,
                                   exceedance_p=exceedance_p, rng=rng)
    if scheme == "hr":
        return AlgorithmHR(bound_values, rng=rng)
    if scheme == "sb":
        if sb_rate is None:
            raise ConfigurationError("Algorithm SB needs an explicit rate")
        return AlgorithmSB(sb_rate, rng=rng)
    raise ConfigurationError(
        f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def feed_counted(sampler, synopsis: SynopsisAccumulator,
                 values: Sequence) -> None:
    """Feed one slice to a sampler and its synopsis, counted once.

    The synopsis goes first, so a value it rejects (an int too large
    for a float) leaves both unchanged.  HB and HR then count the slice
    into the synopsis's first-seen count map on their block grid: on a
    fresh partition their phase-1 histogram is a copy of that map
    (:mod:`repro.core.blocks`), so each arrival is hashed once.
    """
    if isinstance(sampler, (AlgorithmHB, AlgorithmHR)):
        synopsis.feed_many(values, count=False)
        sampler.feed_many(values, counts=synopsis.counts)
    else:
        synopsis.feed_many(values)
        sampler.feed_many(values)


@dataclass(frozen=True)
class SampleTask:
    """One picklable unit of work: sample these values with this scheme.

    With ``summarize`` set, the task also builds the partition's exact
    synopsis from the same count.
    """

    values: Sequence
    scheme: str
    bound_values: int
    exceedance_p: float = 0.001
    sb_rate: Optional[float] = None
    seed: int = 0
    summarize: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")


def sample_partition(task: SampleTask) -> Union[
        WarehouseSample, Tuple[WarehouseSample, PartitionSynopsis]]:
    """Sample one partition (module-level so process pools can run it).

    Returns the sample, or ``(sample, synopsis)`` when the task asks
    for the exact synopsis too.
    """
    rng = SplittableRng(task.seed)
    sampler = make_sampler(
        task.scheme,
        population_size=len(task.values),
        bound_values=task.bound_values,
        exceedance_p=task.exceedance_p,
        sb_rate=task.sb_rate,
        rng=rng,
    )
    if not task.summarize:
        sampler.feed_many(task.values)
        return sampler.finalize()
    synopsis = SynopsisAccumulator()
    feed_counted(sampler, synopsis, task.values)
    return sampler.finalize(), synopsis.finalize()


class _TimedTask:
    """Picklable wrapper: run the task, return ``(seconds, result)``.

    Timing happens inside the worker (thread *or* process), so the
    recorded wall time is the task's own, not queueing overhead.  The
    wrapper pickles whenever ``fn`` does, which keeps the process pool
    working; the measured seconds travel back with the result, so
    worker-process timings land in the parent's registry.
    """

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[T], R]) -> None:
        self._fn = fn

    def __call__(self, item: T) -> Tuple[float, R]:
        t0 = monotonic()
        result = self._fn(item)
        return monotonic() - t0, result


def _record_tasks(metric: str,
                  timed: Sequence[Tuple[float, R]]) -> List[R]:
    """Record per-task wall times and unwrap the results."""
    reg = OBS.registry
    # The literal name is bound at the _record_tasks call sites, which
    # the obs-contract lint resolves; this is the one pass-through.
    seconds = reg.histogram(metric)  # repro: noqa[RPR021]
    tasks = reg.counter("parallel.tasks")
    results: List[R] = []
    for elapsed, result in timed:
        seconds.observe(elapsed)
        tasks.inc()
        results.append(result)
    return results


class SerialExecutor:
    """Run tasks one after another in the calling thread."""

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, preserving order."""
        if not OBS.enabled:
            return [fn(item) for item in items]
        timed = _TimedTask(fn)
        return _record_tasks("parallel.task.seconds.serial",
                             [timed(item) for item in items])


class ThreadExecutor:
    """Run tasks on a thread pool (I/O-bound or GIL-releasing workloads).

    The pool is created on first use and **persists across ``map``
    calls**, so repeated ingests do not respawn worker threads.  Call
    :meth:`close` (or use the executor as a context manager) to release
    the threads; a closed executor re-creates its pool if mapped again.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._max_workers = max_workers
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        pool = self._pool
        if pool is None:
            with self._lock:
                pool = self._pool
                if pool is None:
                    pool = concurrent.futures.ThreadPoolExecutor(
                        max_workers=self._max_workers)
                    self._pool = pool
        return pool

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item concurrently, preserving order."""
        pool = self._ensure_pool()
        if not OBS.enabled:
            return list(pool.map(fn, items))
        return _record_tasks("parallel.task.seconds.thread",
                             list(pool.map(_TimedTask(fn), items)))

    def submit(self, fn: Callable[..., R], *args,
               **kwargs) -> "concurrent.futures.Future[R]":
        """Submit one call to the pool and return its future.

        The serving layer uses this to push blocking warehouse/storage
        work off the event loop (wrap the returned future with
        :func:`asyncio.wrap_future` to await it).
        """
        return self._ensure_pool().submit(fn, *args, **kwargs)

    def close(self) -> None:
        """Shut the pool down, waiting for in-flight tasks.

        This **blocks** the calling thread until every in-flight task
        finishes.  From a coroutine, use :meth:`aclose` instead — the
        blocking wait here would stall the entire event loop, including
        the callbacks the pool's own futures need to complete.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    async def aclose(self) -> None:
        """Awaitable shutdown: like :meth:`close`, off the event loop.

        Swaps the pool out immediately (so new ``map``/``submit`` calls
        build a fresh one) and performs the blocking ``shutdown(wait=
        True)`` on the loop's default executor, keeping the event loop
        responsive while worker threads drain.

        The lock below guards only the pointer swap — a few
        instructions, never held across the shutdown wait or any await
        — so the worst case is a micro-stall behind ``_ensure_pool``,
        not an event-loop park.
        """
        with self._lock:  # repro: noqa[RPR111]
            pool, self._pool = self._pool, None
        if pool is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, lambda: pool.shutdown(wait=True))

    def __enter__(self) -> "ThreadExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _record_pickle_times(items: Sequence[T]) -> None:
    """Record the parent-side pickling cost of each submitted task.

    ``ProcessPoolExecutor`` pickles every task on submission; that cost
    is otherwise invisible in ``repro obs`` because it lands in the
    parent, not the worker.  Measuring means pickling each item once
    more here — acceptable because this only runs while metrics are
    enabled, and the extra dumps never reaches a worker.
    """
    seconds = OBS.registry.histogram("parallel.task.pickle.seconds")
    for item in items:
        t0 = monotonic()
        pickle.dumps(item)
        seconds.observe(monotonic() - t0)


class ProcessExecutor:
    """Run tasks on a process pool (CPU-bound sampling).

    ``fn`` and items must be picklable — pair this executor with
    :func:`sample_partition` and :class:`SampleTask`.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._max_workers = max_workers

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item across processes, preserving order.

        Tasks are submitted with an explicit chunksize of roughly four
        chunks per worker — enough batching to amortize per-task pickle
        round-trips, small enough that the pool still load-balances.
        The default (chunksize 1) pickles every task's full value list
        as its own IPC message, which dominates wall time for many
        small partitions.
        """
        workers = self._max_workers or os.cpu_count() or 1
        chunksize = max(1, -(-len(items) // (workers * 4)))
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=self._max_workers) as pool:
            if not OBS.enabled:
                return list(pool.map(fn, items, chunksize=chunksize))
            _record_pickle_times(items)
            return _record_tasks(
                "parallel.task.seconds.process",
                list(pool.map(_TimedTask(fn), items, chunksize=chunksize)))
