"""Tests of the benchmark's own machinery.

Covers the self-time arithmetic, inline per-arrival timing, the trace
join across the thread-pool hop, cache eviction counting, restoring the wrapped entry points, and seeds fixing the operation
sequences.  Run from the repository root with::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.ensure_program()

import load  # noqa: E402
import query  # noqa: E402
import serve_client  # noqa: E402
import serve_data  # noqa: E402
from repro import SampleWarehouse, SplittableRng  # noqa: E402
from repro.serve.cache import MergeCache  # noqa: E402
from repro.warehouse.parallel import ThreadExecutor  # noqa: E402
from tracer import (Instrumentation, Span, Tracer, _inline_wrapper,  # noqa
                    requests_total)


def finish_tree(tracer):
    """root(0..10) > a(1..5) > b(2..3); root > c(6..8)."""
    root = Span(1, "root", 0.0, None)
    root.rid = "r1"
    a = Span(2, "a", 1.0, root)
    b = Span(3, "b", 2.0, a)
    tracer.finish(b, 3.0)
    tracer.finish(a, 5.0)
    c = Span(4, "c", 6.0, root)
    tracer.finish(c, 8.0)
    tracer.finish(root, 10.0)


class SelfTimeArithmetic(unittest.TestCase):

    def test_self_time_is_duration_minus_children(self):
        tracer = Tracer()
        finish_tree(tracer)
        self_of = {name: row[2] for name, row in tracer.layers.items()}
        self.assertEqual(self_of, {"b": 1.0, "a": 3.0, "c": 2.0,
                                   "root": 4.0})
        self.assertEqual(tracer.layers["a"][:2], [1, 4.0])

    def test_request_self_times_add_up_to_its_root(self):
        tracer = Tracer()
        finish_tree(tracer)
        request = tracer.requests["r1"]
        self.assertEqual(request["s"], 10.0)
        self.assertEqual(sum(row[2] for row in request["layers"].values()),
                         10.0)
        self.assertEqual(tracer.orphans, {"layers": {}, "counts": {}})

    def test_root_without_request_id_is_an_orphan(self):
        tracer = Tracer()
        finish_tree(tracer)
        tracer.finish(Span(5, "x", 20.0, None), 21.5)
        total = requests_total(tracer.snapshot(), ["r1"])
        self.assertEqual(total["layers"]["x"], [1, 1.5, 1.5])
        self.assertEqual(total["layers"]["root"], [1, 10.0, 4.0])

    def test_inline_call_gives_back_its_children(self):
        tracer = Tracer()

        def feed():         # a per-arrival call that opens a kernel span
            with tracer.span("kernel"):
                time.sleep(0.01)
            time.sleep(0.01)
        wrapped = _inline_wrapper(tracer, feed, "feed")
        with tracer.span("outer", "r"):
            wrapped()
            wrapped()
        rows = tracer.requests["r"]["layers"]
        self.assertEqual(rows["feed"][0], 2)
        self.assertAlmostEqual(rows["feed"][2], 0.02, delta=0.008)
        self.assertAlmostEqual(rows["kernel"][2], 0.02, delta=0.008)
        self.assertLess(rows["outer"][2], 0.002)
        self.assertAlmostEqual(sum(r[2] for r in rows.values()),
                               tracer.requests["r"]["s"], delta=1e-9)

    def test_layer_metrics_are_per_operation(self):
        snapshot = {"layers": {"kernels": [8, 4.0, 2.0]},
                    "counts": {"serve.cache.hits": 3.0,
                               "serve.cache.misses": 1.0}}
        metrics = common.layer_metrics(snapshot, 4)
        self.assertEqual(metrics["kernels.s"], 0.5)
        self.assertEqual(metrics["kernels.calls"], 2.0)
        self.assertEqual(metrics["serve.cache.hit_ratio"], 0.75)
        self.assertEqual(metrics["core.merge_tree.s"], 0.0)
        self.assertEqual(set(common.PER_LAYER) - set(metrics),
                         {"bench.trace_overhead_frac", "obs.overhead_frac"})


class HostScaling(unittest.TestCase):

    def test_a_timing_is_scaled_by_the_samples_either_side(self):
        host = common.HostSpeed()
        host.marks, host.samples = [0.0, 10.0], [0.02, 0.03]
        ref = common.REFERENCE_S
        self.assertAlmostEqual(host.factor(5.0), ref / 0.025)
        self.assertAlmostEqual(host.factor(-1.0), ref / 0.02)
        self.assertAlmostEqual(host.factor(12.0), ref / 0.03)


class TraceJoin(unittest.TestCase):

    def test_pool_thread_spans_join_the_submitting_request(self):
        wh = SampleWarehouse(bound_values=64, rng=SplittableRng(3))
        wh.ingest_batch("t.v", list(range(2000)), partitions=4)
        tracer = Tracer()
        with Instrumentation(tracer), ThreadExecutor(2) as pool:
            with tracer.span("request", "r7"):
                pool.submit(wh.sample_of, "t.v").result()
        self.assertEqual(tracer.calls("serve.pool.wait"), 1)
        self.assertEqual(tracer.calls("warehouse.sample_of"), 1)
        rids = {rec[2] for rec in tracer.records}
        self.assertEqual(rids, {"r7"})
        request = tracer.requests["r7"]
        self.assertAlmostEqual(
            sum(row[2] for row in request["layers"].values()),
            request["s"], delta=1e-9)
        self.assertEqual(tracer.orphans, {"layers": {}, "counts": {}})

    def test_cache_evictions_are_counted(self):
        wh = SampleWarehouse(bound_values=64, rng=SplittableRng(3))
        wh.ingest_batch("t.v", list(range(200)), partitions=1)
        sample = wh.sample_of("t.v")
        tracer = Tracer()
        cache = MergeCache(max_entries=2)
        with Instrumentation(tracer):
            for selector in ("a", "b", "a", "c", "d"):
                cache.put("t.v", selector, 1, sample)
        self.assertEqual(tracer.counts["serve.cache.evictions"], 2)
        self.assertEqual(tracer.counts["serve.cache.peak_entries"], 2)

    def test_uninstall_restores_every_entry_point(self):
        before = vars(SampleWarehouse)["sample_of"]
        with Instrumentation(Tracer()):
            self.assertIsNot(vars(SampleWarehouse)["sample_of"], before)
        self.assertIs(vars(SampleWarehouse)["sample_of"], before)


class SeededSequences(unittest.TestCase):

    def test_same_seed_gives_the_same_operations(self):
        for workload in (load, query, serve_client):
            with self.subTest(workload=workload.__name__):
                self.assertEqual(workload.operations(7, 400),
                                 workload.operations(7, 400))
                self.assertNotEqual(workload.operations(7, 400),
                                    workload.operations(8, 400))

    def test_same_seed_gives_the_same_inputs(self):
        self.assertEqual(load.make_inputs(5), load.make_inputs(5))
        self.assertEqual(serve_data.day_values(5, 30),
                         serve_data.day_values(5, 30))
        self.assertNotEqual(serve_data.day_values(5, 30),
                            serve_data.day_values(6, 30))

    def test_every_seed_offers_the_same_mix(self):
        def mix(ops):
            return sorted(op[:2] + op[3:4] for op in ops)
        count = query.ROLL_EVERY * len(query.BLOCK)   # whole blocks
        self.assertEqual(mix(query.operations(1, count)),
                         mix(query.operations(2, count)))
        kinds = [[op[0] for op in serve_client.operations(s, 200)]
                 for s in (1, 2)]
        self.assertEqual(sorted(kinds[0]), sorted(kinds[1]))


if __name__ == "__main__":
    unittest.main()
