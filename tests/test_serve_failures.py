"""Failure injection for the serving layer.

Drives the resilience machinery through its unhappy paths with
deterministic shims — no real sleeping, no real time:

* breaker FSM: closed → open → half-open → closed (and half-open →
  open on a failed probe), clocked by ``ManualClock``;
* retry backoff: the schedule a seeded policy issues is *exactly*
  ``backoff_delays`` of an identically seeded rng;
* end-to-end: a fault shim on the warehouse makes storage fail, the
  served responses walk 500 → 503 circuit-open → recovery;
* OCC: racing compare-and-swap mutations admit exactly one winner;
* hypothesis property: no interleaving of ingests and queries ever
  serves a merge that is stale w.r.t. the version it claims.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (CircuitOpenError, ConfigurationError,
                          StorageError, VersionConflictError)
from repro.obs import ManualClock, capture
from repro.rng import SplittableRng
from repro.serve import (CLOSED, HALF_OPEN, OPEN, CircuitBreaker,
                         RetryPolicy, ServeConfig, WarehouseService,
                         backoff_delays)
from repro.serve.http import Request
from repro.serve.resilience import BREAKER_STATE_GAUGE
from repro.warehouse.storage import sample_to_dict
from repro.warehouse.warehouse import SampleWarehouse


def make_warehouse(seed=42, bound=64):
    return SampleWarehouse(bound_values=bound, scheme="hr",
                           rng=SplittableRng(seed))


class TestCircuitBreakerFSM:
    def _breaker(self, clock, threshold=3, recovery=5.0, probes=1):
        return CircuitBreaker(failure_threshold=threshold,
                              recovery_seconds=recovery,
                              half_open_max=probes, clock=clock)

    def test_parameter_validation(self):
        for kwargs in ({"failure_threshold": 0},
                       {"recovery_seconds": 0.0},
                       {"half_open_max": 0}):
            with pytest.raises(ConfigurationError):
                CircuitBreaker(**kwargs)

    def test_closed_to_open_after_threshold(self):
        clock = ManualClock()
        breaker = self._breaker(clock)
        for _ in range(2):
            breaker.allow()
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.allow()
        breaker.record_failure()            # third consecutive failure
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.allow()
        assert excinfo.value.retry_after == pytest.approx(5.0)

    def test_success_resets_the_failure_streak(self):
        breaker = self._breaker(ManualClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()            # streak broken
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_open_to_half_open_after_recovery(self):
        clock = ManualClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(4.999)
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        clock.advance(0.001)
        breaker.allow()                     # admitted as a probe
        assert breaker.state == HALF_OPEN

    def test_half_open_probe_quota(self):
        clock = ManualClock()
        breaker = self._breaker(clock, probes=1)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        breaker.allow()
        with pytest.raises(CircuitOpenError):
            breaker.allow()                 # quota of 1 in use

    def test_half_open_success_closes(self):
        clock = ManualClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        breaker.allow()                     # and traffic flows again

    def test_half_open_failure_reopens_with_fresh_recovery(self):
        clock = ManualClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        breaker.allow()
        breaker.record_failure()            # failed probe
        assert breaker.state == OPEN
        clock.advance(4.0)                  # recovery restarted: not yet
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        clock.advance(1.0)
        breaker.allow()
        assert breaker.state == HALF_OPEN

    def test_neutral_outcome_releases_the_half_open_probe(self):
        """A client-caused error through an admitted probe is neither
        success nor failure — the slot must come back, because
        half-open has no time-based escape: a leaked probe would make
        the breaker reject every later call forever."""
        clock = ManualClock()
        breaker = self._breaker(clock, probes=1)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        breaker.allow()                     # the one probe slot
        breaker.record_neutral()            # e.g. a 409 outcome
        assert breaker.state == HALF_OPEN
        breaker.allow()                     # slot came back
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_transitions_emit_counter_and_gauge(self):
        clock = ManualClock()
        breaker = self._breaker(clock)
        with capture() as (reg, _):
            for _ in range(3):
                breaker.record_failure()    # -> open
            clock.advance(5.0)
            breaker.allow()                 # -> half-open
            breaker.record_success()        # -> closed
            assert reg.counter("serve.breaker.transitions").value == 3
            assert reg.gauge("serve.breaker.state").value == \
                BREAKER_STATE_GAUGE[CLOSED]


class RecordingSleep:
    """An async sleep shim that records instead of waiting."""

    def __init__(self):
        self.delays = []

    async def __call__(self, seconds):
        self.delays.append(seconds)


class TestRetryPolicy:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)

    def test_backoff_schedule_is_the_seeded_rng_schedule(self):
        """The sleeps the policy issues are exactly backoff_delays of
        an identically seeded rng — fully deterministic backoff."""
        shape = dict(attempts=4, base_delay=0.1, multiplier=3.0,
                     max_delay=0.5)
        expected = list(backoff_delays(rng=SplittableRng(1234), **shape))
        assert len(expected) == 3
        # Caps apply: ceilings are 0.1, 0.3, 0.5 (0.9 capped).
        assert all(d <= c for d, c in zip(expected, (0.1, 0.3, 0.5)))
        sleep = RecordingSleep()
        policy = RetryPolicy(rng=SplittableRng(1234), sleep=sleep,
                             **shape)
        calls = []

        async def flaky():
            calls.append(1)
            if len(calls) < 4:
                raise StorageError("transient")
            return "recovered"

        assert asyncio.run(policy.call(flaky)) == "recovered"
        assert sleep.delays == expected

    def test_exhausted_attempts_reraise_the_last_error(self):
        sleep = RecordingSleep()
        policy = RetryPolicy(attempts=3, rng=SplittableRng(1),
                             sleep=sleep)

        async def always_down():
            raise StorageError("still down")

        with pytest.raises(StorageError):
            asyncio.run(policy.call(always_down))
        assert len(sleep.delays) == 2       # no sleep after the last try

    def test_non_retryable_errors_propagate_immediately(self):
        sleep = RecordingSleep()
        policy = RetryPolicy(attempts=5, rng=SplittableRng(1),
                             sleep=sleep)
        calls = []

        async def client_error():
            calls.append(1)
            raise ConfigurationError("your fault")

        with pytest.raises(ConfigurationError):
            asyncio.run(policy.call(client_error))
        assert (len(calls), sleep.delays) == (1, [])

    def test_retry_reports_to_breaker_and_open_aborts_retry(self):
        """Each failed attempt feeds the breaker; once it trips, the
        retry loop aborts with CircuitOpenError instead of burning the
        remaining attempts against a dead store."""
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=2,
                                 recovery_seconds=10.0, clock=clock)
        sleep = RecordingSleep()
        policy = RetryPolicy(attempts=5, rng=SplittableRng(1),
                             sleep=sleep)
        calls = []

        async def always_down():
            calls.append(1)
            raise StorageError("down")

        with pytest.raises(CircuitOpenError):
            asyncio.run(policy.call(always_down, breaker=breaker))
        assert len(calls) == 2              # third allow() was refused
        assert breaker.state == OPEN

    def test_non_retryable_error_frees_the_breaker_probe(self):
        """Regression: a non-retry_on exception (here a 409) through a
        half-open probe used to report nothing to the breaker, leaking
        the probe slot and wedging the service at 503 forever."""
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=1,
                                 recovery_seconds=1.0, clock=clock)
        breaker.record_failure()            # -> open
        clock.advance(1.0)
        policy = RetryPolicy(attempts=3, rng=SplittableRng(1),
                             sleep=RecordingSleep())

        async def conflict():
            raise VersionConflictError("tag moved",
                                       expected=0, actual=1)

        with pytest.raises(VersionConflictError):
            asyncio.run(policy.call(conflict, breaker=breaker))
        assert breaker.state == HALF_OPEN
        breaker.allow()                     # probe quota not leaked

    def test_retry_counter_emitted(self):
        sleep = RecordingSleep()
        policy = RetryPolicy(attempts=3, rng=SplittableRng(1),
                             sleep=sleep)
        calls = []

        async def once_flaky():
            calls.append(1)
            if len(calls) < 2:
                raise StorageError("blip")
            return "ok"

        with capture() as (reg, _):
            assert asyncio.run(policy.call(once_flaky)) == "ok"
        assert reg.counter("serve.retry.attempts").value == 1


class TestServiceUnderFaults:
    """End-to-end breaker recovery through served responses.

    The shim replaces the warehouse's merge entry point; the service's
    clock is a ManualClock, so the open → half-open wait is driven by
    ``advance`` instead of wall time.  retry_attempts=1 keeps the
    arithmetic one-request-one-breaker-event.
    """

    def _service(self, clock):
        warehouse = make_warehouse()
        config = ServeConfig(retry_attempts=1,
                             breaker_failure_threshold=3,
                             breaker_recovery_seconds=60.0)
        service = WarehouseService(warehouse, config=config, clock=clock,
                                   retry_rng=SplittableRng(7),
                                   sleep=RecordingSleep())
        return warehouse, service

    @staticmethod
    def _get(service, path):
        request = Request(method="GET", path=path)
        response = asyncio.run(service.handle(request))
        return response.status, response.payload

    @staticmethod
    def _ingest(service, values):
        request = Request(
            method="POST", path="/datasets/d/ingest",
            body=json.dumps({"values": values,
                             "partitions": 1}).encode())
        response = asyncio.run(service.handle(request))
        return response.status, response.payload

    def test_breaker_opens_under_storage_faults_and_recovers(self):
        clock = ManualClock()
        warehouse, service = self._service(clock)
        assert self._ingest(service, [1, 2, 3])[0] == 200
        healthy = self._get(service, "/datasets/d/sample")
        assert healthy[0] == 200

        real_sample_of = warehouse.sample_of

        def broken(*args, **kwargs):
            raise StorageError("disk on fire")

        warehouse.sample_of = broken
        # Cache is version-keyed, so the cached merge still serves.
        assert self._get(service, "/datasets/d/sample")[0] == 200
        # Force merges past the cache: every estimate selector differs
        # only in stat, but the cache key ignores stat — so invalidate
        # by mutating, which also moves the version tag.
        service.cache.invalidate("d")

        for i in range(3):
            status, payload = self._get(service, "/datasets/d/sample")
            assert (status, payload["error"]) == (500, "storage")
        assert service.breaker.state == OPEN

        status, payload = self._get(service, "/datasets/d/sample")
        assert (status, payload["error"]) == (503, "circuit-open")
        assert self._get(service, "/healthz")[1]["breaker"] == "open"

        warehouse.sample_of = real_sample_of    # storage healed
        # Still open until the recovery clock runs down.
        assert self._get(service, "/datasets/d/sample")[0] == 503
        clock.advance(60.0)
        status, payload = self._get(service, "/datasets/d/sample")
        assert status == 200                    # the half-open probe
        assert service.breaker.state == CLOSED
        assert self._get(service, "/healthz")[1]["breaker"] == "closed"

    def test_failed_probe_reopens_the_breaker(self):
        clock = ManualClock()
        warehouse, service = self._service(clock)
        assert self._ingest(service, [1, 2, 3])[0] == 200

        def broken(*args, **kwargs):
            raise StorageError("still broken")

        warehouse.sample_of = broken
        for _ in range(3):
            self._get(service, "/datasets/d/sample")
        assert service.breaker.state == OPEN
        clock.advance(60.0)
        status, _ = self._get(service, "/datasets/d/sample")
        assert status == 500                    # the probe itself failed
        assert service.breaker.state == OPEN    # and re-opened at once
        assert self._get(service, "/datasets/d/sample")[0] == 503


class TestMutationRetrySafety:
    """Mutations run through the breaker exactly once.

    ``ingest_batch`` registers partitions one by one and the version
    tag only moves when the whole mutation commits, so a retry after a
    mid-batch StorageError would pass the CAS check again and silently
    duplicate the already-committed prefix.  Reads are idempotent and
    keep their retries.
    """

    def _service(self, clock=None, retry_attempts=3, **config_kwargs):
        warehouse = make_warehouse()
        config = ServeConfig(retry_attempts=retry_attempts,
                             **config_kwargs)
        service = WarehouseService(
            warehouse, config=config,
            clock=clock if clock is not None else ManualClock(),
            retry_rng=SplittableRng(7), sleep=RecordingSleep())
        return warehouse, service

    @staticmethod
    def _ingest(service, values, expected_version=None):
        body = {"values": values, "partitions": 1}
        if expected_version is not None:
            body["expected_version"] = expected_version
        request = Request(method="POST", path="/datasets/d/ingest",
                          body=json.dumps(body).encode())
        response = asyncio.run(service.handle(request))
        return response.status, response.payload

    @staticmethod
    def _sample(service):
        request = Request(method="GET", path="/datasets/d/sample")
        response = asyncio.run(service.handle(request))
        return response.status, response.payload

    def test_failed_ingest_is_not_retried(self):
        warehouse, service = self._service()
        calls = []

        def dying_ingest(*args, **kwargs):
            calls.append(1)
            raise StorageError("disk died mid-batch")

        warehouse.ingest_batch = dying_ingest
        status, payload = self._ingest(service, [1, 2, 3])
        assert (status, payload["error"]) == (500, "storage")
        assert len(calls) == 1              # one attempt, no replay
        assert service.occ.version("d") == 0

    def test_failed_roll_is_not_retried(self):
        warehouse, service = self._service()
        assert self._ingest(service, [1, 2, 3])[0] == 200
        key = next(iter(warehouse.catalog.partitions("d"))).key
        calls = []

        def dying_roll(*args, **kwargs):
            calls.append(1)
            raise StorageError("catalog store down")

        warehouse.roll_out = dying_roll
        request = Request(method="POST", path="/datasets/d/rollout",
                          body=json.dumps({"key": str(key)}).encode())
        response = asyncio.run(service.handle(request))
        assert response.status == 500
        assert len(calls) == 1

    def test_reads_are_still_retried(self):
        warehouse, service = self._service()
        assert self._ingest(service, [1, 2, 3])[0] == 200
        real_sample_of = warehouse.sample_of
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise StorageError("blip")
            return real_sample_of(*args, **kwargs)

        warehouse.sample_of = flaky
        status, _ = self._sample(service)
        assert status == 200
        assert len(calls) == 2              # the retry healed the read

    def test_conflict_during_half_open_does_not_wedge_the_breaker(self):
        """End-to-end regression: a 409 consuming the half-open probe
        must hand the slot back — before the fix every later request
        got 'probe quota in use' 503s until a restart."""
        clock = ManualClock()
        warehouse, service = self._service(
            clock=clock, retry_attempts=1,
            breaker_failure_threshold=1,
            breaker_recovery_seconds=60.0)
        assert self._ingest(service, [1, 2, 3])[0] == 200

        real_sample_of = warehouse.sample_of

        def broken(*args, **kwargs):
            raise StorageError("disk on fire")

        warehouse.sample_of = broken
        assert self._sample(service)[0] == 500  # trips at threshold 1
        assert service.breaker.state == OPEN
        clock.advance(60.0)
        # The half-open probe is a CAS ingest with a stale tag: 409.
        status, _ = self._ingest(service, [4, 5], expected_version=0)
        assert status == 409
        assert service.breaker.state == HALF_OPEN
        warehouse.sample_of = real_sample_of
        status, _ = self._sample(service)       # probe slot was free
        assert status == 200
        assert service.breaker.state == CLOSED


class TestOccUnderConcurrency:
    def test_racing_cas_admits_exactly_one_winner(self):
        from repro.serve import VersionedCatalog

        occ = VersionedCatalog()
        barrier = threading.Barrier(2)
        outcomes = []

        def contender(tag):
            barrier.wait()
            try:
                occ.mutate("d", lambda: tag, expected=0)
                outcomes.append(("win", tag))
            except VersionConflictError as exc:
                outcomes.append(("conflict", exc.actual))

        threads = [threading.Thread(target=contender, args=(t,))
                   for t in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(kind for kind, _ in outcomes) == \
            ["conflict", "win"]
        assert occ.version("d") == 1
        conflict = next(o for o in outcomes if o[0] == "conflict")
        assert conflict[1] == 1             # loser saw the winner's tag

    def test_unconditional_mutations_serialize(self):
        from repro.serve import VersionedCatalog

        occ = VersionedCatalog()
        threads = [threading.Thread(
            target=lambda: occ.mutate("d", lambda: None))
            for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert occ.version("d") == 16

    def test_conflicting_ingests_through_the_service(self):
        """Two clients CAS-ingest against the same observed version:
        one 200, one 409, and the 409 names the winner's version."""
        warehouse = make_warehouse()
        service = WarehouseService(warehouse)

        async def run():
            host, port = await service.start(port=0)
            try:
                async def ingest(values):
                    reader, writer = await asyncio.open_connection(
                        host, port)
                    try:
                        body = json.dumps({
                            "values": values, "partitions": 1,
                            "expected_version": 0}).encode()
                        writer.write(
                            (f"POST /datasets/d/ingest HTTP/1.1\r\n"
                             f"Content-Length: {len(body)}\r\n"
                             f"Connection: close\r\n\r\n"
                             ).encode() + body)
                        await writer.drain()
                        raw = await reader.read(-1)
                    finally:
                        writer.close()
                        await writer.wait_closed()
                    return int(raw.split(b" ", 2)[1])

                return await asyncio.gather(ingest([1, 2]),
                                            ingest([3, 4]))
            finally:
                await service.aclose()

        statuses = sorted(asyncio.run(run()))
        assert statuses == [200, 409]
        assert service.occ.version("d") == 1


# Ops: ingest some values (dataset mutates, version must move) or
# query (served merge must be exact at its claimed version).
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"),
                  st.lists(st.integers(min_value=0, max_value=999),
                           min_size=1, max_size=40)),
        st.tuples(st.just("query"), st.none()),
    ),
    min_size=2, max_size=12)


class TestNoStaleServes:
    @given(ops=_ops, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_every_served_merge_is_exact_at_its_version(self, ops, seed):
        """The no-stale-serves contract: whatever the interleaving of
        ingests and queries, a query response reflects the *current*
        catalog — its version tag matches the version counter, and its
        sample is byte-identical to a fresh library merge (repeated
        merges are deterministic, so any stale cache hit would show up
        as a mismatch)."""
        warehouse = make_warehouse(seed=seed)
        service = WarehouseService(warehouse)

        async def run():
            ingested = 0
            for kind, payload in ops:
                if kind == "ingest":
                    request = Request(
                        method="POST", path="/datasets/d/ingest",
                        body=json.dumps({"values": payload,
                                         "partitions": 1}).encode())
                    response = await service.handle(request)
                    assert response.status == 200
                    ingested += 1
                    assert response.payload["version"] == ingested
                else:
                    request = Request(method="GET",
                                      path="/datasets/d/sample")
                    response = await service.handle(request)
                    if ingested == 0:
                        assert response.status == 404
                        continue
                    assert response.status == 200
                    assert response.payload["version"] == ingested
                    expected = sample_to_dict(warehouse.sample_of("d"))
                    assert response.payload["sample"] == \
                        json.loads(json.dumps(expected))
            await service.aclose()

        asyncio.run(run())


class TestMutationHousekeepingOffLoop:
    """Regression for the RPR111 true positives on the mutation path.

    ``_handle_ingest`` and ``_handle_roll`` used to call
    ``MergeCache.invalidate`` directly from the handler coroutine.
    The cache takes a ``threading.Lock``, so the invalidation ran lock
    contention on the event-loop thread, stalling every in-flight
    request behind a committed mutation's housekeeping.  The fix runs
    it at the end of the mutation's own guarded pool op; before the
    fix this test fails because the recorded invalidation thread *is*
    the loop thread.
    """

    def test_cache_invalidation_runs_off_the_loop_thread(self):
        warehouse = make_warehouse()
        service = WarehouseService(warehouse)
        cache = service.cache
        seen = []
        real_invalidate = cache.invalidate

        def recording_invalidate(dataset):
            seen.append((dataset, threading.current_thread(),
                         service.occ.version(dataset)))
            return real_invalidate(dataset)

        cache.invalidate = recording_invalidate

        async def drive():
            loop_thread = threading.current_thread()
            ingest = Request(
                method="POST", path="/datasets/d/ingest",
                body=json.dumps({"values": [1, 2, 3],
                                 "partitions": 1}).encode())
            response = await service.handle(ingest)
            assert response.status == 200
            key = response.payload["keys"][0]
            roll = Request(
                method="POST", path="/datasets/d/rollout",
                body=json.dumps({"key": key}).encode())
            response = await service.handle(roll)
            assert response.status == 200
            await service.aclose()
            return loop_thread

        loop_thread = asyncio.run(drive())
        assert [dataset for dataset, _, _ in seen] == ["d", "d"]
        for _, thread, _ in seen:
            assert thread is not loop_thread, (
                "cache invalidation ran on the event-loop thread")
        # Each invalidation follows its mutation's committed tag bump.
        assert [version for _, _, version in seen] == [1, 2]
