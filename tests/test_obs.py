"""Tests for the observability layer (repro.obs).

Covers the satellite checklist of the observability PR: registry
thread-safety (including under ``ThreadExecutor``), span
nesting/ordering, the no-op overhead smoke test (instrumentation off
must neither change results nor cost real time), and the JSONL sink
round-trip — plus harness and CLI integration.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.hybrid_bernoulli import AlgorithmHB
from repro.errors import ConfigurationError
from repro.obs import (JsonlSink, MetricsRegistry, RingBufferSink, TeeSink,
                       capture, disable, enable, read_spans, span)
from repro.obs.clock import monotonic
from repro.obs.runtime import OBS, NullRegistry
from repro.rng import SplittableRng
from repro.warehouse.ingest import CountPolicy
from repro.warehouse.parallel import ThreadExecutor
from repro.warehouse.storage import sample_to_dict
from repro.warehouse.warehouse import SampleWarehouse


class TestRegistry:
    def test_counter(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.counter("c").add(5)
        assert reg.counter("c").value == 10

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("c").inc(-1)

    def test_gauge(self):
        reg = MetricsRegistry()
        assert reg.gauge("g").value is None
        reg.gauge("g").set(2.5)
        assert reg.gauge("g").value == 2.5

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 10.0
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0
        assert snap["mean"] == 2.5
        assert 1.0 <= snap["p50"] <= 3.0

    def test_timer_uses_monotonic_clock(self):
        reg = MetricsRegistry()
        with reg.timer("t.seconds"):
            time.sleep(0.01)
        snap = reg.histogram("t.seconds").snapshot()
        assert snap["count"] == 1
        assert snap["max"] >= 0.005

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")

    def test_snapshot_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(2.0)
        assert reg.snapshot()["c"]["value"] == 3
        reg.reset()
        snap = reg.snapshot()
        assert snap["c"]["value"] == 0
        assert snap["g"]["value"] is None
        assert snap["h"]["count"] == 0

    def test_to_json_and_report(self):
        import json

        reg = MetricsRegistry()
        reg.counter("events").inc(2)
        reg.histogram("lat.seconds").observe(0.5)
        parsed = json.loads(reg.to_json())
        assert parsed["events"]["value"] == 2
        text = reg.report()
        assert "counters" in text and "events" in text
        assert "lat.seconds" in text

    def test_null_registry_is_inert(self):
        reg = NullRegistry()
        reg.counter("x").inc()
        reg.gauge("x").set(1.0)
        reg.histogram("x").observe(1.0)
        with reg.timer("x"):
            pass
        assert reg.snapshot() == {}
        assert reg.report() == ""


class TestThreadSafety:
    def test_concurrent_counter_increments_are_exact(self):
        reg = MetricsRegistry()
        n_threads, per_thread = 8, 5_000

        def work():
            c = reg.counter("hits")
            h = reg.histogram("vals")
            for i in range(per_thread):
                c.inc()
                h.observe(i)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("hits").value == n_threads * per_thread
        assert reg.histogram("vals").count == n_threads * per_thread

    def test_names_races_concurrent_registration(self):
        # Regression: names() iterated self._metrics without the lock,
        # so a reader racing first-use registrations could blow up with
        # "dictionary changed size during iteration" (RPR101).
        reg = MetricsRegistry()
        stop = threading.Event()
        errors = []

        def writer(tid):
            i = 0
            while not stop.is_set():
                reg.counter(f"w{tid}.c{i}")
                i += 1

        def reader():
            try:
                while not stop.is_set():
                    names = reg.names()
                    assert names == sorted(names)
            except RuntimeError as exc:  # pragma: no cover - bug path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(4)]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join()
        assert errors == []
        assert reg.names() == sorted(reg.names())

    def test_registry_under_thread_executor(self, rng):
        with capture() as (reg, _):
            wh = SampleWarehouse(bound_values=64, scheme="hr", rng=rng)
            wh.ingest_batch("t.v", list(range(20_000)), partitions=8,
                            executor=ThreadExecutor(4))
        snap = reg.snapshot()
        assert snap["parallel.tasks"]["value"] == 8
        assert snap["parallel.task.seconds.thread"]["count"] == 8
        assert snap["hr.finalize"]["value"] == 8
        assert snap["hr.arrivals"]["value"] == 20_000


class TestSpans:
    def test_nesting_and_post_order_emission(self):
        with capture() as (_, ring):
            with span("outer", label="a"):
                with span("inner"):
                    pass
                with span("inner2"):
                    pass
        names = [s.name for s in ring.spans]
        assert names == ["inner", "inner2", "outer"]  # emitted on close
        by_name = {s.name: s for s in ring.spans}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer.depth == 0 and outer.parent_id is None
        assert inner.depth == 1 and inner.parent_id == outer.span_id
        assert by_name["inner2"].parent_id == outer.span_id
        assert outer.attrs == {"label": "a"}
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_render_indents_by_depth(self):
        with capture() as (_, ring):
            with span("outer"):
                with span("inner", k=1):
                    pass
        text = ring.render()
        lines = text.splitlines()
        assert lines[0].startswith("outer ")
        assert lines[1].startswith("  inner ")
        assert "k=1" in lines[1]

    def test_threads_get_independent_stacks(self):
        with capture() as (_, ring):
            def worker():
                with span("child-thread"):
                    pass

            with span("main-thread"):
                t = threading.Thread(target=worker)
                t.start()
                t.join()
        by_name = {s.name: s for s in ring.spans}
        # The worker's span must NOT claim the main thread's open span
        # as a parent — stacks are thread-local.
        assert by_name["child-thread"].parent_id is None
        assert by_name["child-thread"].depth == 0

    def test_ring_buffer_caps_capacity(self):
        with capture(sink=RingBufferSink(capacity=3)) as (_, ring):
            for i in range(10):
                with span(f"s{i}"):
                    pass
        assert [s.name for s in ring.spans] == ["s7", "s8", "s9"]

    def test_disabled_span_is_shared_inert_object(self):
        assert not OBS.enabled
        cm1 = span("anything", k=1)
        cm2 = span("else")
        assert cm1 is cm2  # no allocation on the disabled path
        with cm1:
            pass


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlSink(path) as sink:
            with capture(sink=TeeSink(sink, RingBufferSink())):
                with span("outer", dataset="d"):
                    with span("inner"):
                        pass
        loaded = list(read_spans(path))
        assert [s.name for s in loaded] == ["inner", "outer"]
        outer = loaded[1]
        assert outer.attrs == {"dataset": "d"}
        assert loaded[0].parent_id == outer.span_id
        assert loaded[0].duration <= outer.duration

    def test_tee_sink_requires_sinks(self):
        with pytest.raises(ConfigurationError):
            TeeSink()


def _run_hb(seed: int, n: int = 20_000):
    hb = AlgorithmHB(n, bound_values=128, rng=SplittableRng(seed))
    t0 = monotonic()
    hb.feed_many(range(n))
    elapsed = monotonic() - t0
    return hb.finalize(), elapsed


class TestNoopOverhead:
    def test_observability_does_not_change_samples(self):
        baseline, _ = _run_hb(11)
        with capture():
            observed, _ = _run_hb(11)
        assert sample_to_dict(baseline) == sample_to_dict(observed)

    def test_disabled_by_default_and_restored(self):
        assert not OBS.enabled
        with capture() as (reg, _):
            assert OBS.enabled
            assert OBS.registry is reg
        assert not OBS.enabled
        assert isinstance(OBS.registry, NullRegistry)

    def test_enable_disable(self):
        reg = MetricsRegistry()
        enable(registry=reg)
        try:
            assert OBS.enabled and OBS.registry is reg
        finally:
            disable()
        assert not OBS.enabled

    def test_noop_overhead_smoke(self):
        # The disabled path is a single attribute lookup per site; an
        # instrumented (capture) run only adds work at phase
        # transitions.  Bounds are deliberately loose — this is a smoke
        # test against gross regressions, not a benchmark.
        _run_hb(1)  # warm-up
        _, t_off = _run_hb(2)
        with capture():
            _, t_on = _run_hb(2)
        slack = 0.25
        assert t_on <= t_off * 10 + slack
        assert t_off <= t_on * 10 + slack


class TestStreamIngestMetrics:
    def test_cut_events_and_rates(self, rng):
        with capture() as (reg, ring):
            wh = SampleWarehouse(bound_values=32, scheme="hr", rng=rng)
            ing = wh.open_stream("s.v", policy=CountPolicy(1_000))
            ing.feed_many(range(3_500))
            ing.close()
        snap = reg.snapshot()
        assert snap["ingest.stream.cuts"]["value"] == 4  # 3 full + tail
        assert snap["ingest.stream.arrivals"]["value"] == 3_500
        assert snap["ingest.stream.partition.seconds"]["count"] == 4
        assert snap["ingest.stream.partition.arrivals"]["max"] == 1_000
        assert snap["ingest.stream.arrival_rate"]["value"] > 0
        cut_spans = [s for s in ring.spans if s.name == "ingest.partition"]
        assert len(cut_spans) == 4
        assert cut_spans[0].attrs["arrivals"] == 1_000


class TestHarnessIntegration:
    def test_collect_metrics_attaches_snapshot_and_trace(self, rng):
        from repro.bench.harness import run_pipeline
        from repro.workloads.scenarios import Scenario

        scenario = Scenario("unique", population_size=20_000,
                            partitions=4)
        result = run_pipeline(scenario, "hb", bound_values=128,
                              rng=rng.spawn("obs-bench"),
                              collect_metrics=True)
        assert result.metrics is not None
        assert result.metrics["hb.finalize"]["value"] == 4
        # The four partition samples merge in one step: one merge_tree
        # call and no pairwise HBMerge.
        assert result.metrics["merge.tree.seconds"]["count"] == 1
        assert "merge.hb" not in result.metrics
        assert "merge.hb.seconds" not in result.metrics
        names = {s["name"] for s in result.trace}
        assert "bench.partition" in names
        assert "merge.tree" in names
        # Plain runs stay unobserved.
        plain = run_pipeline(scenario, "hb", bound_values=128,
                             rng=rng.spawn("obs-bench"))
        assert plain.metrics is None and plain.trace is None
        assert not OBS.enabled


class TestCliObs:
    def test_obs_command(self, capsys, tmp_path):
        from repro.cli import main

        trace_path = str(tmp_path / "trace.jsonl")
        rc = main(["obs", "--partitions", "10", "--size", "20000",
                   "--bound", "256", "--trace-out", trace_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hb.phase2.enter" in out
        assert "parallel.task.seconds.serial" in out
        assert "merge.tree.seconds" in out
        assert "trace (nested spans):" in out
        assert "  hb.phase2" in out  # nested under ingest.batch
        loaded = list(read_spans(trace_path))
        assert any(s.name == "ingest.batch" for s in loaded)

    def test_obs_command_json(self, capsys):
        import json

        from repro.cli import main

        rc = main(["obs", "--partitions", "4", "--size", "4000",
                   "--bound", "64", "--json"])
        assert rc == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["ingest.batch.partitions"]["value"] == 4
