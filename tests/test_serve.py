"""Tests for the serving layer (repro.serve): transport, cache, OCC,
admission, and end-to-end request flows against an in-process server.

Failure injection (breaker, retry, conflict storms, stale-cache
property) lives in tests/test_serve_failures.py.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import (ConfigurationError, OverloadedError,
                          VersionConflictError)
from repro.obs import capture
from repro.rng import SplittableRng
from repro.serve import (AdmissionController, MergeCache, ServeConfig,
                         VersionedCatalog, WarehouseService)
from repro.serve.http import (Request, Response, read_request,
                              render_response)
from repro.warehouse.storage import sample_to_dict
from repro.warehouse.warehouse import SampleWarehouse


def make_warehouse(seed=42, bound=64):
    return SampleWarehouse(bound_values=bound, scheme="hr",
                           rng=SplittableRng(seed))


def serve(coro_fn, *, warehouse=None, config=None):
    """Run ``coro_fn(host, port, service)`` against a live service."""
    warehouse = warehouse if warehouse is not None else make_warehouse()
    service = WarehouseService(warehouse, config=config)

    async def run():
        host, port = await service.start(port=0)
        try:
            return await coro_fn(host, port, service)
        finally:
            await service.aclose()

    return asyncio.run(run())


async def http(host, port, method, path, body=None, headers=None):
    """One client request; returns (status, payload, raw headers)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = b"" if body is None else \
            json.dumps(body).encode("utf-8")
        lines = [f"{method} {path} HTTP/1.1",
                 f"Host: {host}:{port}",
                 f"Content-Length: {len(payload)}",
                 "Connection: close"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                     + payload)
        await writer.drain()
        raw = await reader.read(-1)
    finally:
        writer.close()
        await writer.wait_closed()
    head, body_bytes = raw.split(b"\r\n\r\n", 1)
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split(" ")[1])
    raw_headers = {}
    for line in head_lines[1:]:
        name, _, value = line.partition(":")
        raw_headers[name.strip().lower()] = value.strip()
    return status, json.loads(body_bytes.decode("utf-8")), raw_headers


class TestHttpLayer:
    def _parse(self, data: bytes):
        async def run():
            reader = asyncio.StreamReader()
            if data:
                reader.feed_data(data)
            reader.feed_eof()
            return await read_request(reader)

        return asyncio.run(run())

    def test_parse_request(self):
        raw = (b"POST /datasets/d/ingest?x=1&y=two HTTP/1.1\r\n"
               b"Host: h\r\nContent-Length: 7\r\n"
               b"X-Custom: V\r\n\r\n{\"a\":1}")
        request = self._parse(raw)
        assert request.method == "POST"
        assert request.path == "/datasets/d/ingest"
        assert request.query == {"x": "1", "y": "two"}
        assert request.headers["x-custom"] == "V"
        assert request.json() == {"a": 1}

    def test_clean_eof_returns_none(self):
        assert self._parse(b"") is None

    def test_truncated_head_rejected(self):
        with pytest.raises(ConfigurationError):
            self._parse(b"GET / HTT")

    def test_malformed_request_line_rejected(self):
        with pytest.raises(ConfigurationError):
            self._parse(b"NONSENSE\r\n\r\n")

    def test_bad_content_length_rejected(self):
        raw = b"GET / HTTP/1.1\r\nContent-Length: frog\r\n\r\n"
        with pytest.raises(ConfigurationError):
            self._parse(raw)

    def test_oversized_body_rejected(self):
        raw = (b"GET / HTTP/1.1\r\n"
               b"Content-Length: 999999999999\r\n\r\n")
        with pytest.raises(ConfigurationError):
            self._parse(raw)

    def test_body_json_object_required(self):
        request = Request(method="POST", path="/", body=b"[1, 2]")
        with pytest.raises(ConfigurationError):
            request.json()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_body_non_finite_constants_rejected(self, token):
        # json.loads accepts these tokens by default; they are not JSON.
        body = f'{{"values": [1, {token}]}}'.encode()
        request = Request(method="POST", path="/", body=body)
        with pytest.raises(ConfigurationError, match=token):
            request.json()

    @pytest.mark.parametrize("number", ["1e400", "-1e400"])
    def test_body_number_overflowing_a_float_rejected(self, number):
        body = f'{{"values": [1, {number}]}}'.encode()
        request = Request(method="POST", path="/", body=body)
        with pytest.raises(ConfigurationError, match="finite"):
            request.json()

    def test_render_response_is_strict_json(self):
        # A non-finite number in a payload is a server defect: a 500,
        # never the non-JSON NaN/Infinity tokens.
        raw = render_response(Response(200, {"x": float("inf")}))
        head, body = raw.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 500 ")
        assert json.loads(body, parse_constant=pytest.fail)["error"] \
            == "internal"

    def test_render_response(self):
        raw = render_response(Response(
            503, {"b": 2, "a": 1}, headers={"Retry-After": "0.5"}))
        head, body = raw.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 503 Service Unavailable")
        assert b"Connection: close" in head
        assert b"Retry-After: 0.5" in head
        assert f"Content-Length: {len(body)}".encode() in head
        # Deterministic serialization: keys sorted, no whitespace.
        assert body == b'{"a":1,"b":2}'


class TestVersionedCatalog:
    def test_versions_start_at_zero_and_bump(self):
        occ = VersionedCatalog()
        assert occ.version("d") == 0
        result, version = occ.mutate("d", lambda: "done")
        assert (result, version) == ("done", 1)
        assert occ.version("d") == 1
        assert occ.versions() == {"d": 1}

    def test_cas_succeeds_on_current_version(self):
        occ = VersionedCatalog()
        occ.mutate("d", lambda: None)
        _, version = occ.mutate("d", lambda: None, expected=1)
        assert version == 2

    def test_cas_conflict_leaves_catalog_untouched(self):
        occ = VersionedCatalog()
        occ.mutate("d", lambda: None)
        ran = []
        with pytest.raises(VersionConflictError) as excinfo:
            occ.mutate("d", lambda: ran.append(1), expected=0)
        assert ran == []
        assert excinfo.value.expected == 0
        assert excinfo.value.actual == 1
        assert occ.version("d") == 1

    def test_conflict_counter_emitted(self):
        occ = VersionedCatalog()
        occ.mutate("d", lambda: None)
        with capture() as (reg, _):
            with pytest.raises(VersionConflictError):
                occ.mutate("d", lambda: None, expected=7)
        assert reg.counter("serve.occ.conflicts").value == 1

    def test_mutation_exception_does_not_bump(self):
        occ = VersionedCatalog()

        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            occ.mutate("d", boom)
        assert occ.version("d") == 0


def merged_sample(dataset="d", seed=7, values=2000, partitions=4):
    wh = make_warehouse(seed=seed)
    wh.ingest_batch(dataset, list(range(values)), partitions=partitions)
    return wh.sample_of(dataset)


class TestMergeCache:
    def test_hit_requires_exact_version(self):
        cache = MergeCache()
        sample = merged_sample()
        cache.put("d", "sel", 3, sample)
        assert cache.get("d", "sel", 3) is sample
        assert cache.get("d", "sel", 4) is None      # newer tag: stale
        assert cache.get("d", "sel", 2) is None      # older tag: stale
        # The stale probe dropped the entry entirely.
        assert len(cache) == 0

    def test_invalidate_counts_and_clears(self):
        cache = MergeCache()
        sample = merged_sample()
        cache.put("d", "s1", 1, sample)
        cache.put("d", "s2", 1, sample)
        cache.put("other", "s1", 1, sample)
        assert cache.invalidate("d") == 2
        assert cache.get("d", "s1", 1) is None
        assert cache.get("other", "s1", 1) is sample

    def test_hit_miss_counters(self):
        cache = MergeCache()
        sample = merged_sample()
        cache.put("d", "sel", 1, sample)
        with capture() as (reg, _):
            cache.get("d", "sel", 1)
            cache.get("d", "sel", 2)
        assert reg.counter("serve.cache.hit").value == 1
        assert reg.counter("serve.cache.miss").value == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            MergeCache(max_entries=0)

    def test_lru_eviction_without_spill_store(self):
        cache = MergeCache(max_entries=2)
        sample = merged_sample()
        cache.put("d", "s1", 1, sample)
        cache.put("d", "s2", 1, sample)
        cache.get("d", "s1", 1)            # s1 now most recent
        cache.put("d", "s3", 1, sample)    # evicts s2
        assert cache.get("d", "s2", 1) is None
        assert cache.get("d", "s1", 1) is sample
        assert cache.get("d", "s3", 1) is sample


class TestAdmissionController:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(max_concurrent=0)
        with pytest.raises(ConfigurationError):
            AdmissionController(max_queue=-1)
        with pytest.raises(ConfigurationError):
            AdmissionController(retry_after=0)

    def test_sheds_when_queue_full(self):
        async def run():
            gate = AdmissionController(max_concurrent=1, max_queue=0,
                                       retry_after=0.25)
            release = asyncio.Event()

            async def holder():
                async with gate:
                    await release.wait()

            task = asyncio.ensure_future(holder())
            await asyncio.sleep(0.01)      # holder occupies the slot
            assert gate.inflight == 1
            with capture() as (reg, _):
                try:
                    async with gate:
                        raise AssertionError("should have shed")
                except OverloadedError as exc:
                    assert exc.retry_after == 0.25
                assert reg.counter("serve.shed").value == 1
            release.set()
            await task
            assert gate.inflight == 0

        asyncio.run(run())

    def test_queued_request_admitted_after_release(self):
        async def run():
            gate = AdmissionController(max_concurrent=1, max_queue=4)
            release = asyncio.Event()
            order = []

            async def holder():
                async with gate:
                    order.append("holder")
                    await release.wait()

            async def waiter():
                async with gate:
                    order.append("waiter")

            tasks = [asyncio.ensure_future(holder()),
                     asyncio.ensure_future(waiter())]
            await asyncio.sleep(0.01)
            assert gate.waiting == 1
            release.set()
            await asyncio.gather(*tasks)
            assert order == ["holder", "waiter"]

        asyncio.run(run())


class TestEndToEnd:
    def test_healthz_and_unknown_route(self):
        async def check(host, port, service):
            status, payload, _ = await http(host, port, "GET", "/healthz")
            assert (status, payload) == (
                200, {"status": "ok", "breaker": "closed"})
            status, payload, _ = await http(host, port, "GET", "/nope")
            assert status == 404
            status, payload, _ = await http(
                host, port, "DELETE", "/datasets/d/sample")
            assert status == 405

        serve(check)

    def test_ingest_then_query_matches_library_exactly(self):
        """The served answer is byte-identical to the library path:
        same seed + same values ⇒ same merged sample, canonical JSON
        compared (the tentpole equivalence contract; the battery check
        serve.query.equivalence sweeps this across seeds)."""
        values = [v % 701 for v in range(5000)]
        library = make_warehouse(seed=99)
        library.ingest_batch("t.v", values, partitions=4)
        expected = json.dumps(sample_to_dict(library.sample_of("t.v")),
                              sort_keys=True)

        async def check(host, port, service):
            status, payload, _ = await http(
                host, port, "POST", "/datasets/t.v/ingest",
                body={"values": values, "partitions": 4})
            assert status == 200
            assert payload["version"] == 1
            assert len(payload["keys"]) == 4
            status, payload, _ = await http(
                host, port, "GET", "/datasets/t.v/sample")
            assert status == 200
            assert payload["version"] == 1
            assert payload["cached"] is False
            assert json.dumps(payload["sample"],
                              sort_keys=True) == expected
            # Same question again: served from cache, same answer.
            status, again, _ = await http(
                host, port, "GET", "/datasets/t.v/sample")
            assert again["cached"] is True
            assert again["sample"] == payload["sample"]

        serve(check, warehouse=make_warehouse(seed=99))

    def test_ingest_invalidates_cache(self):
        async def check(host, port, service):
            await http(host, port, "POST", "/datasets/d/ingest",
                       body={"values": [1, 2, 3, 4], "partitions": 1})
            _, first, _ = await http(host, port, "GET",
                                     "/datasets/d/sample")
            await http(host, port, "POST", "/datasets/d/ingest",
                       body={"values": [5, 6, 7, 8], "partitions": 1})
            _, second, _ = await http(host, port, "GET",
                                      "/datasets/d/sample")
            assert second["version"] == 2
            assert second["cached"] is False
            assert second["sample"]["population_size"] == 8
            assert first["sample"]["population_size"] == 4

        serve(check)

    def test_estimate_endpoint(self):
        async def check(host, port, service):
            await http(host, port, "POST", "/datasets/d/ingest",
                       body={"values": [1, 2, 3, 5], "partitions": 1})
            status, payload, _ = await http(
                host, port, "GET", "/datasets/d/estimate?stat=sum")
            assert status == 200
            # Four values against bound 64: the sample is exhaustive,
            # so the estimate is exact.
            assert payload["exact"] is True
            assert payload["value"] == 11.0
            status, payload, _ = await http(
                host, port, "GET", "/datasets/d/estimate?stat=bogus")
            assert status == 400
            # A malformed fraction is the client's fault, not a 500.
            status, payload, _ = await http(
                host, port, "GET",
                "/datasets/d/estimate?stat=quantile&fraction=abc")
            assert status == 400
            assert payload["error"] == "bad-request"

        serve(check)

    def test_estimate_endpoint_planned(self):
        async def check(host, port, service):
            await http(host, port, "POST", "/datasets/d/ingest",
                       body={"values": list(range(100)), "partitions": 4})
            # Ingest attaches exact synopses, so a planned sum at any
            # bound certifies with zero partition reads.
            status, payload, _ = await http(
                host, port, "GET",
                "/datasets/d/estimate?stat=sum&target_half_width=1.0")
            assert status == 200
            plan = payload["plan"]
            assert plan["planned"] and plan["certified"]
            assert not plan["fallback"]
            assert plan["selected"] == 0
            assert plan["total_partitions"] == 4
            assert plan["target_half_width"] == 1.0
            # The body is Estimate.to_dict() plus the version tag.
            for field in ("value", "ci_low", "ci_high", "confidence",
                          "exact", "sample_size", "population_size"):
                assert field in payload
            assert payload["value"] == float(sum(range(100)))
            assert payload["version"] == 1
            # A relative target goes through the same path.
            status, payload, _ = await http(
                host, port, "GET", "/datasets/d/estimate"
                "?stat=avg&target_half_width=0.05&relative=1")
            assert status == 200
            assert payload["plan"]["certified"]
            # A malformed target is the client's fault.
            status, payload, _ = await http(
                host, port, "GET",
                "/datasets/d/estimate?stat=sum&target_half_width=abc")
            assert status == 400
            assert payload["error"] == "bad-request"

        serve(check)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_target_half_width_is_400(self, raw):
        async def check(host, port, service):
            await http(host, port, "POST", "/datasets/d/ingest",
                       body={"values": list(range(100))})
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(
                    f"GET /datasets/d/estimate?stat=sum&"
                    f"target_half_width={raw} HTTP/1.1\r\n\r\n"
                    .encode())
                await writer.drain()
                wire = await reader.read(-1)
            finally:
                writer.close()
                await writer.wait_closed()
            head, body = wire.split(b"\r\n\r\n", 1)
            assert head.startswith(b"HTTP/1.1 400 ")
            # The answer is strict JSON: no NaN/Infinity tokens.
            payload = Request(method="POST", path="/", body=body).json()
            assert payload["error"] == "bad-request"
            assert "finite" in payload["detail"]

        serve(check)

    def test_non_finite_ingest_value_is_400(self):
        async def check(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                body = b'{"values": [1, 2, NaN]}'
                writer.write(b"POST /datasets/d/ingest HTTP/1.1\r\n"
                             + f"Content-Length: {len(body)}\r\n\r\n"
                             .encode() + body)
                await writer.drain()
                wire = await reader.read(-1)
            finally:
                writer.close()
                await writer.wait_closed()
            assert wire.startswith(b"HTTP/1.1 400 ")
            assert service.occ.version("d") == 0

        serve(check)

    @pytest.mark.parametrize("number", ["1e400", "1" + "0" * 400],
                             ids=["1e400", "10**400"])
    def test_ingest_number_out_of_float_range_is_400(self, number):
        warehouse = make_warehouse()

        async def check(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                body = f'{{"values": [1, 2, {number}]}}'.encode()
                writer.write(b"POST /datasets/d/ingest HTTP/1.1\r\n"
                             + f"Content-Length: {len(body)}\r\n\r\n"
                             .encode() + body)
                await writer.drain()
                wire = await reader.read(-1)
            finally:
                writer.close()
                await writer.wait_closed()
            head, body = wire.split(b"\r\n\r\n", 1)
            assert head.startswith(b"HTTP/1.1 400 ")
            assert json.loads(body)["error"] == "bad-request"
            assert service.occ.version("d") == 0
            assert warehouse.catalog.datasets() == []

        serve(check, warehouse=warehouse)

    def test_fallback_plan_renders_infinite_prediction_as_null(self):
        async def check(host, port, service):
            # A bool among ints leaves the synopsis without moments, so
            # the plan falls back with an infinite predicted width.
            await http(host, port, "POST", "/datasets/d/ingest",
                       body={"values": [1, 2, 3, True]})
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"GET /datasets/d/estimate?stat=sum&"
                             b"target_half_width=1 HTTP/1.1\r\n\r\n")
                await writer.drain()
                wire = await reader.read(-1)
            finally:
                writer.close()
                await writer.wait_closed()
            head, body = wire.split(b"\r\n\r\n", 1)
            assert head.startswith(b"HTTP/1.1 200 ")
            plan = json.loads(body, parse_constant=pytest.fail)["plan"]
            assert plan["fallback"] and not plan["certified"]
            assert plan["predicted_half_width"] is None

        serve(check)

    def test_datasets_listing_and_info(self):
        async def check(host, port, service):
            await http(host, port, "POST", "/datasets/d/ingest",
                       body={"values": list(range(100)),
                             "partitions": 2})
            status, payload, _ = await http(host, port, "GET",
                                            "/datasets")
            assert status == 200
            assert payload["datasets"] == [{
                "dataset": "d", "version": 1, "partitions": 2,
                "population": 100}]
            status, info, _ = await http(host, port, "GET",
                                         "/datasets/d")
            assert status == 200
            assert info["version"] == 1
            assert len(info["partitions"]) == 2
            assert all(p["active"] for p in info["partitions"])

        serve(check)

    def test_cas_conflict_maps_to_409(self):
        async def check(host, port, service):
            await http(host, port, "POST", "/datasets/d/ingest",
                       body={"values": [1], "partitions": 1})
            status, payload, _ = await http(
                host, port, "POST", "/datasets/d/ingest",
                body={"values": [2], "partitions": 1,
                      "expected_version": 0})
            assert status == 409
            assert payload["error"] == "version-conflict"
            assert (payload["expected"], payload["actual"]) == (0, 1)
            # If-Match carries the same CAS; the current tag succeeds.
            status, payload, _ = await http(
                host, port, "POST", "/datasets/d/ingest",
                body={"values": [3], "partitions": 1},
                headers={"If-Match": "1"})
            assert status == 200
            assert payload["version"] == 2

        serve(check)

    def test_rollout_rollin_roundtrip(self):
        async def check(host, port, service):
            _, ingest, _ = await http(
                host, port, "POST", "/datasets/d/ingest",
                body={"values": list(range(100)), "partitions": 2})
            key = ingest["keys"][0]
            _, full, _ = await http(host, port, "GET",
                                    "/datasets/d/sample")
            status, payload, _ = await http(
                host, port, "POST", "/datasets/d/rollout",
                body={"key": key})
            assert status == 200
            assert payload["version"] == 2
            _, rolled, _ = await http(host, port, "GET",
                                      "/datasets/d/sample")
            assert rolled["sample"]["population_size"] < \
                full["sample"]["population_size"]
            status, payload, _ = await http(
                host, port, "POST", "/datasets/d/rollin",
                body={"key": key, "expected_version": 2})
            assert status == 200
            _, back, _ = await http(host, port, "GET",
                                    "/datasets/d/sample")
            assert back["sample"]["population_size"] == \
                full["sample"]["population_size"]
            # Key from another dataset is rejected up front.
            status, _payload, _ = await http(
                host, port, "POST", "/datasets/other/rollout",
                body={"key": key})
            assert status == 400

        serve(check)

    def test_unknown_dataset_is_404(self):
        async def check(host, port, service):
            status, payload, _ = await http(
                host, port, "GET", "/datasets/ghost/sample")
            assert status == 404
            assert payload["error"] == "not-found"

        serve(check)

    def test_bad_json_body_is_400(self):
        async def check(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"POST /datasets/d/ingest HTTP/1.1\r\n"
                             b"Content-Length: 5\r\n\r\n{oops")
                await writer.drain()
                raw = await reader.read(-1)
            finally:
                writer.close()
                await writer.wait_closed()
            assert b"400" in raw.split(b"\r\n", 1)[0]

        serve(check)

    def test_metrics_endpoint_reports_counters(self):
        async def check(host, port, service):
            status, payload, _ = await http(host, port, "GET",
                                            "/metrics")
            assert (status, payload["enabled"]) == (200, True)
            await http(host, port, "POST", "/datasets/d/ingest",
                       body={"values": [1, 2], "partitions": 1})
            await http(host, port, "GET", "/datasets/d/sample")
            await http(host, port, "GET", "/datasets/d/sample")
            _, payload, _ = await http(host, port, "GET", "/metrics")
            metrics = payload["metrics"]
            assert metrics["serve.requests"]["value"] >= 4
            assert metrics["serve.cache.hit"]["value"] == 1
            assert metrics["serve.cache.miss"]["value"] == 1

        from repro.obs import capture as obs_capture
        with obs_capture():
            serve(check)

    def test_labels_selection(self):
        async def check(host, port, service):
            await http(host, port, "POST", "/datasets/d/ingest",
                       body={"values": list(range(50)), "partitions": 1,
                             "labels": ["jan"]})
            await http(host, port, "POST", "/datasets/d/ingest",
                       body={"values": list(range(70)), "partitions": 1,
                             "labels": ["feb"]})
            _, jan, _ = await http(
                host, port, "GET", "/datasets/d/sample?labels=jan")
            assert jan["sample"]["population_size"] == 50
            _, both, _ = await http(
                host, port, "GET", "/datasets/d/sample?labels=jan,feb")
            assert both["sample"]["population_size"] == 120

        serve(check)

    def test_concurrent_mixed_fleet_completes(self):
        """Eight concurrent clients, each issuing an ingest, a merged
        sample read and an estimate in its own order: every request
        answers 200 and every ingest lands exactly once."""
        def client_ops(i):
            ops = [("POST", "/datasets/d/ingest",
                    {"values": list(range(64 * i, 64 * (i + 1))),
                     "partitions": 1}),
                   ("GET", "/datasets/d/sample", None),
                   ("GET", "/datasets/d/estimate?stat="
                    + ("avg", "sum", "count")[i % 3], None)]
            return ops[i % 3:] + ops[:i % 3]

        async def client(host, port, ops):
            return [(await http(host, port, method, path, body=body))[0]
                    for method, path, body in ops]

        async def check(host, port, service):
            await http(host, port, "POST", "/datasets/d/ingest",
                       body={"values": list(range(2000)),
                             "partitions": 4})
            statuses = await asyncio.gather(
                *(client(host, port, client_ops(i)) for i in range(8)))
            _, info, _ = await http(host, port, "GET", "/datasets/d")
            _, sample, _ = await http(host, port, "GET",
                                      "/datasets/d/sample")
            return statuses, info, sample

        statuses, info, sample = serve(
            check, warehouse=make_warehouse(seed=11, bound=256))
        assert [s for run in statuses for s in run] == [200] * 24
        assert info["version"] == 1 + 8
        assert len(info["partitions"]) == 4 + 8
        assert sample["sample"]["population_size"] == 2000 + 8 * 64

    def test_shedding_visible_under_tiny_limits(self):
        """With one slot and a one-deep queue, a burst of merges must
        shed: every refusal is a 503 counted by ``serve.shed``, and
        every request either completes or is shed."""
        warehouse = make_warehouse(seed=5, bound=256)
        warehouse.ingest_batch("d", list(range(30_000)), partitions=12)

        async def check(host, port, service):
            return await asyncio.gather(*(
                http(host, port, "GET",
                     "/datasets/d/estimate?stat="
                     + ("avg", "sum", "count")[i % 3])
                for i in range(24)))

        with capture() as (reg, _):
            responses = serve(check, warehouse=warehouse,
                              config=ServeConfig(max_concurrent=1,
                                                 max_queue=1))
        statuses = [status for status, _, _ in responses]
        shed = statuses.count(503)
        assert shed > 0
        assert shed == reg.counter("serve.shed").value
        assert statuses.count(200) + shed == len(statuses)
