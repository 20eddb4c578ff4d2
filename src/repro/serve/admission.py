"""Admission control: bounded concurrency with queue-depth shedding.

The service bounds the work it accepts rather than the work it is
offered.  A semaphore caps requests actually executing; arrivals
beyond that wait in a bounded queue; arrivals beyond *that* are shed
immediately with :class:`~repro.errors.OverloadedError` (HTTP 503 +
``Retry-After``), which is both cheaper and more honest than letting
latency grow without bound.  Shedding at the door keeps the p99 of
admitted requests flat under overload; the ``serve.shed`` counter
records every refusal.

Event-loop confined: all counters and the semaphore are touched only
from coroutines, so no lock is needed (and none is taken).
"""

from __future__ import annotations

import asyncio

from repro.errors import ConfigurationError, OverloadedError
from repro.obs.runtime import OBS

__all__ = ["AdmissionController"]


class AdmissionController:
    """``async with`` gate: admit, queue, or shed each request."""

    def __init__(self, *, max_concurrent: int = 64, max_queue: int = 256,
                 retry_after: float = 0.5) -> None:
        if max_concurrent <= 0:
            raise ConfigurationError(
                f"max_concurrent must be positive, got {max_concurrent}")
        if max_queue < 0:
            raise ConfigurationError(
                f"max_queue must be >= 0, got {max_queue}")
        if retry_after <= 0:
            raise ConfigurationError(
                f"retry_after must be positive, got {retry_after}")
        self._max_queue = max_queue
        self._retry_after = retry_after
        self._semaphore = asyncio.Semaphore(max_concurrent)
        self._waiting = 0
        self._inflight = 0

    @property
    def inflight(self) -> int:
        """Requests currently admitted and executing."""
        return self._inflight

    @property
    def waiting(self) -> int:
        """Requests queued for a slot."""
        return self._waiting

    async def __aenter__(self) -> "AdmissionController":
        # Shed only requests that would actually have to queue: a free
        # semaphore slot admits immediately even with max_queue=0.
        if self._semaphore.locked() and self._waiting >= self._max_queue:
            if OBS.enabled:
                OBS.registry.counter("serve.shed").inc()
            raise OverloadedError(
                f"queue full ({self._waiting} waiting); "
                f"retry in {self._retry_after}s",
                retry_after=self._retry_after)
        self._waiting += 1
        try:
            await self._semaphore.acquire()
        finally:
            # Balanced counter, loop-confined: the increment above and
            # this decrement bracket the await, but every mutation runs
            # on the single loop thread and interleaved tasks only ever
            # read a conservative (momentarily higher) queue depth for
            # the shed heuristic — an asyncio.Lock here would serialize
            # admission itself.
            self._waiting -= 1  # repro: noqa[RPR113]
        self._inflight += 1
        if OBS.enabled:
            OBS.registry.gauge("serve.inflight").set(self._inflight)
        return self

    async def __aexit__(self, *exc_info) -> None:
        self._inflight -= 1
        self._semaphore.release()
        if OBS.enabled:
            OBS.registry.gauge("serve.inflight").set(self._inflight)
