"""The ``load`` workload: closed-loop ingest through both write paths.

One caller ingests the paper's two extreme populations -- ``lowcard``
(Zipf over 1..4000) and ``highcard`` (every value distinct) -- with
schemes ``hr`` and ``hb`` at ``bound_values=1024``.  One operation is a
*round* of one shape: for each scheme, a chunk through
``ingest_batch(partitions=8)`` and another chunk through
``open_stream(CountPolicy)``, so each dataset alternates between the two
paths.  No merge, planner or serve code runs.  Every few rounds the
warehouse is checked (outside the timed region) and replaced, which keeps
the catalog, and so each round's work, the same size.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from typing import Dict, List, Tuple

import common
from repro import SampleWarehouse, SplittableRng
from repro.core.phases import SampleKind
from repro.obs.runtime import capture
from repro.warehouse.audit import audit_warehouse
from repro.warehouse.ingest import CountPolicy
from repro.workloads.generators import UniqueGenerator, ZipfGenerator
from tracer import Instrumentation, Tracer

BOUND = 1024
PARTITIONS = 8
PARTITION_SIZE = 4096
CHUNK = PARTITIONS * PARTITION_SIZE
POOL = 4
SHAPES = ("lowcard", "highcard")
SCHEMES = ("hr", "hb")
VALUES_PER_ROUND = 2 * len(SCHEMES) * CHUNK
ROUNDS_PER_WAREHOUSE = 8
ROUNDS_PER_PASS = 4          # per shape
MIN_ROUNDS = 4
SETUPS = 5

Op = Tuple[str, int, int]


def make_inputs(seed: int) -> Dict[str, List[List[int]]]:
    """``POOL`` chunks of each shape, generated from ``seed``."""
    zipf, unique = ZipfGenerator(), UniqueGenerator()
    return {
        "lowcard": [zipf.generate(CHUNK, SplittableRng(
            common.sub_seed(seed, "load.lowcard", k))) for k in range(POOL)],
        "highcard": [unique.generate(CHUNK, SplittableRng(
            common.sub_seed(seed, "load.highcard", k)))
            for k in range(POOL)],
    }


def operations(seed: int, count: int) -> List[Op]:
    """The first ``count`` rounds: (shape, batch chunk, stream chunk)."""
    rng = SplittableRng(common.sub_seed(seed, "load.ops"))
    return [(SHAPES[i % 2], rng.randrange(POOL), rng.randrange(POOL))
            for i in range(count)]


def ingest_round(wh, inputs, op: Op, fed: Dict[str, int]) -> None:
    shape, batch, stream = op
    for scheme in SCHEMES:
        dataset = f"{shape}.{scheme}"
        wh.ingest_batch(dataset, inputs[shape][batch],
                        partitions=PARTITIONS, scheme=scheme)
        ingestor = wh.open_stream(dataset, scheme=scheme,
                                  policy=CountPolicy(PARTITION_SIZE))
        ingestor.feed_many(inputs[shape][stream])
        ingestor.close()
        fed[dataset] = fed.get(dataset, 0) + 2 * CHUNK


def check_warehouse(wh, fed: Dict[str, int], res: common.Result) -> None:
    """Audit passes, populations match what was fed, samples in bound."""
    report = audit_warehouse(wh)
    res.check("load.audit", report.ok, report.summary())
    for dataset, count in sorted(fed.items()):
        held = wh.catalog.total_population(dataset)
        res.check("load.population", held == count,
                  f"{dataset}: catalog holds {held} values, {count} fed")
        over = []
        for meta in wh.catalog.partitions(dataset):
            sample = wh.sample_for(meta.key)
            if (sample.kind is not SampleKind.EXHAUSTIVE
                    and sample.size > BOUND) \
                    or sample.footprint_bytes > sample.bound_bytes:
                over.append(str(meta.key))
        res.check("load.bound", not over,
                  f"{dataset}: samples over the bound: {over[:3]}")


def run_phase(seed: int, inputs, ops: List[Op], seconds: float,
              res: common.Result, phase: str, tracer: Tracer = None,
              host: common.HostSpeed = None) -> List[Tuple[str, float]]:
    """Run rounds until ``seconds`` of round time; (shape, seconds) each,
    scaled to the host's speed when ``host`` samples it."""
    perf = time.perf_counter
    timings: List[Tuple[str, float]] = []
    busy = 0.0
    sampled = -common.SAMPLE_EVERY_S
    wh = fed = None
    i = 0
    while busy < seconds or i < MIN_ROUNDS:
        if host is not None and busy - sampled >= common.SAMPLE_EVERY_S:
            host.sample(i)
            sampled = busy
        if i % ROUNDS_PER_WAREHOUSE == 0:
            if wh is not None:
                check_warehouse(wh, fed, res)
            wh = SampleWarehouse(bound_values=BOUND, rng=SplittableRng(
                common.sub_seed(seed, "load.wh", phase, i)))
            fed = {}
        op = ops[i % len(ops)]
        span = tracer.span("bench.op", str(i)) if tracer is not None \
            else contextlib.nullcontext()
        t0 = perf()
        with span:
            ingest_round(wh, inputs, op, fed)
        elapsed = perf() - t0
        timings.append((op[0], elapsed))
        busy += elapsed
        i += 1
    check_warehouse(wh, fed, res)
    if host is not None:
        host.sample(i)
        timings = [(shape, t * host.factor(k + 0.5))
                   for k, (shape, t) in enumerate(timings)]
    return timings


def run(seed: int, seconds: float, trace: bool) -> common.Result:
    res = common.Result("load")
    setups = []
    for _ in range(SETUPS):
        inputs, took = common.timed_setup(lambda: make_inputs(seed))
        setups.append(took)
    ops = operations(seed, 1024)
    run_phase(seed, inputs, ops, 0.0, res, "warmup")   # MIN_ROUNDS rounds
    res.facts.update(common.provenance(
        loop="closed, one caller", bound_values=BOUND,
        partitions=PARTITIONS, partition_size=PARTITION_SIZE,
        values_per_round=VALUES_PER_ROUND))
    if not trace:
        timings = run_phase(seed, inputs, ops, seconds, res, "main",
                            host=res.host)
        for prefix, shape in (("a", "lowcard"), ("b", "highcard")):
            rounds = [t for s, t in timings if s == shape]
            res.metrics.update(common.class_metrics(prefix, [
                (p, len(p) * VALUES_PER_ROUND)
                for p in common.chunks(rounds, ROUNDS_PER_PASS)]))
        res.metrics["goodput_per_s"] = statistics.median(
            len(p) / sum(t for _, t in p)
            for p in common.chunks(timings, 2 * ROUNDS_PER_PASS))
        res.set_setup(setups)
        res.metrics["rss_peak_mb"] = common.rss_peak_mb()
        res.attempted = len(timings)
        return res
    third = seconds / 3.0
    plain = run_phase(seed, inputs, ops, third, res, "plain")
    tracer = Tracer()
    with Instrumentation(tracer):
        traced = run_phase(seed, inputs, ops, third, res, "traced", tracer)
    with capture():
        observed = run_phase(seed, inputs, ops, third, res, "obs")
    res.metrics.update(common.layer_metrics(tracer.snapshot(), len(traced)))
    tookof = [[t for _, t in phase]
                  for phase in (plain, traced, observed)]
    res.metrics["bench.trace_overhead_frac"] = common.overhead(
        tookof[0], tookof[1])
    res.metrics["obs.overhead_frac"] = common.overhead(
        tookof[0], tookof[2])
    tracer.dump(common.out_path(f"trace-load-{seed}.jsonl"))
    res.attempted = len(plain) + len(traced) + len(observed)
    return res
