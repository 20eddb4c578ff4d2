"""The ``query`` workload: one in-process analyst, closed loop.

A 64-partition ``hr`` warehouse with one day label per partition is
built before timing.  Three days in four arrive through ``ingest_batch``
(exact synopses); every fourth is rolled in through ``ingest_sample``
with an *estimated* synopsis taken from a coarser 64-value sketch, so
planned sums and averages must read samples to meet their targets.
Operations, in a seeded sequence:

* ``merge`` -- ``sample_of`` over a label range, then an estimator;
* ``planned`` -- count/sum/avg on one long-lived
  ``ApproximateQueryEngine`` with ``relative_target=True``;
* every 16th operation, ``roll`` -- ``ingest_sample`` of a new day and
  ``roll_out`` of the oldest, which keeps 64 partitions active.

No HTTP is involved; the engine's caches are unbounded and hold the
working set.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from typing import Dict, List, Tuple

import common
import repro.analytics.estimators as estimators
from repro import SampleWarehouse, SplittableRng
from repro.analytics import ApproximateQueryEngine
from repro.obs.runtime import capture
from repro.warehouse.dataset import PartitionKey
from repro.warehouse.parallel import SampleTask, sample_partition
from repro.warehouse.synopsis import PartitionSynopsis
from tracer import Instrumentation, Tracer

DATASET = "sales.amount"
DAYS = 64
DAY_SIZE = 4000
BOUND = 1024
COARSE = 64
POOL = 16
ROLL_EVERY = 16
LENGTHS = (1, 2, 4, 8, 16, 32, 64)
AGGS = ("count", "sum", "avg")
TARGETS = (0.01, 0.02, 0.05)
MIN_EACH = 20
WARMUP_S = 1.0
SETUPS = 3

Op = Tuple


def label(day: int) -> str:
    return f"d{day:05d}"


class QueryModel:
    """The preloaded warehouse, its query engine and the rolling window."""

    def __init__(self, seed: int) -> None:
        rng = SplittableRng(common.sub_seed(seed, "query.days"))
        # Thousands of distinct values per day, so every stored sample
        # is a bounded reservoir and merges run the eq. (2) draw and purge.
        # Uniform values keep the coarse sketch's variance estimate close
        # to the truth, so which plans certify hardly depends on the seed.
        self.values = [
            [rng.randint(1, 4000 + 500 * (k % 8)) for _ in range(DAY_SIZE)]
            for k in range(POOL)]
        self.samples = [
            sample_partition(SampleTask(values=v, scheme="hr",
                                        bound_values=BOUND,
                                        seed=common.sub_seed(seed, "q.s", k)))
            for k, v in enumerate(self.values)]
        self.exact = [PartitionSynopsis.from_values(v) for v in self.values]
        self.estimated = [
            PartitionSynopsis.from_sample(sample_partition(SampleTask(
                values=v, scheme="hr", bound_values=COARSE,
                seed=common.sub_seed(seed, "q.sketch", k))))
            for k, v in enumerate(self.values)]
        self.wh = SampleWarehouse(bound_values=BOUND, scheme="hr",
                                  rng=SplittableRng(
                                      common.sub_seed(seed, "query.wh")))
        for day in range(DAYS):
            if day % 4 == 3:
                self._add(day)
            else:
                self.wh.ingest_batch(DATASET, self.values[day % POOL],
                                     partitions=1, labels=[label(day)])
        self.oldest = 0
        self.engine = ApproximateQueryEngine(self.wh)

    def _add(self, day: int) -> None:
        slot = day % POOL
        synopsis = self.estimated[slot] if day % 4 == 3 \
            else self.exact[slot]
        self.wh.ingest_sample(PartitionKey(DATASET, 0, day),
                              self.samples[slot], label=label(day),
                              synopsis=synopsis)

    def roll(self) -> None:
        """Roll in the next day, roll out the oldest."""
        self._add(self.oldest + DAYS)
        self.wh.roll_out(PartitionKey(DATASET, 0, self.oldest))
        self.oldest += 1

    def labels(self, offset: int, length: int) -> List[str]:
        return [label(self.oldest + offset + j) for j in range(length)]


#: One block of queries: every range length x aggregate once as a merge
#: and once per relative target as a planned query (planned queries are
#: cheap, so a pass needs more of them).  The seed shuffles each block
#: and picks offsets: every seed runs the same mix, in its own order.
BLOCK = [("merge", length, agg, None) for length in LENGTHS for agg in AGGS] \
    + [("planned", length, agg, target)
       for length in LENGTHS for agg in AGGS for target in TARGETS]
#: Operations in one cycle of the sequence: a whole number of blocks and
#: of roll periods, so passes stay aligned with blocks when it wraps.
CYCLE = ROLL_EVERY * len(BLOCK)


def operations(seed: int, count: int) -> List[Op]:
    """The first ``count`` operations of the seeded sequence."""
    rng = SplittableRng(common.sub_seed(seed, "query.ops"))
    ops: List[Op] = []
    block: List[tuple] = []
    for i in range(count):
        if i % ROLL_EVERY == ROLL_EVERY - 1:
            ops.append(("roll",))
            continue
        if not block:
            block = list(BLOCK)
            rng.shuffle(block)
        kind, length, agg, target = block.pop()
        ops.append((kind, agg, rng.randrange(DAYS - length + 1), length,
                    target))
    return ops


def execute(model: QueryModel, op: Op, wrong: Dict[str, int]) -> None:
    if op[0] == "roll":
        model.roll()
        return
    kind, agg, offset, length, target = op
    labels = model.labels(offset, length)
    truth = length * DAY_SIZE
    if kind == "merge":
        sample = model.wh.sample_of(DATASET, labels=labels)
        getattr(estimators, "estimate_" + agg)(sample)
        if sample.population_size != truth:
            wrong["merge_population"] += 1
    else:
        estimate = getattr(model.engine, agg)(
            DATASET, labels=labels, target_half_width=target,
            relative_target=True)
        if agg == "count" and estimate.value != truth:
            wrong["count"] += 1


def run_phase(model: QueryModel, ops: List[Op], seconds: float,
              wrong: Dict[str, int], tracer: Tracer = None,
              host: common.HostSpeed = None):
    """Run operations until ``seconds`` of operation time.

    Returns ``(timings, merges)``: (kind, seconds) per operation, scaled
    to the host's speed when ``host`` samples it, and how many
    ``sample_of`` calls the planned operations made.
    """
    perf = time.perf_counter
    timings: List[Tuple[str, float]] = []
    counts = {"merge": 0, "planned": 0}
    merges = 0
    busy = 0.0
    sampled = -common.SAMPLE_EVERY_S
    i = 0
    while busy < seconds or min(counts.values()) < MIN_EACH:
        if host is not None and busy - sampled >= common.SAMPLE_EVERY_S:
            host.sample(i)
            sampled = busy
        op = ops[i % len(ops)]
        before = tracer.calls("warehouse.sample_of") if tracer else 0
        span = tracer.span("bench.op", str(i)) if tracer is not None \
            else contextlib.nullcontext()
        t0 = perf()
        with span:
            execute(model, op, wrong)
        elapsed = perf() - t0
        if op[0] in counts:
            counts[op[0]] += 1
        if tracer is not None and op[0] == "planned":
            merges += tracer.calls("warehouse.sample_of") - before
        timings.append((op[0], elapsed))
        busy += elapsed
        i += 1
    if host is not None:
        host.sample(i)
        timings = [(kind, t * host.factor(k + 0.5))
                   for k, (kind, t) in enumerate(timings)]
    return timings, merges


def check_final(model: QueryModel, wrong: Dict[str, int],
                res: common.Result) -> None:
    res.check("query.merge_population", wrong["merge_population"] == 0,
              f"{wrong['merge_population']} merged samples with the "
              "wrong population")
    res.check("query.count", wrong["count"] == 0,
              f"{wrong['count']} planned counts differ from the truth")
    active = len(model.wh.partition_keys(DATASET))
    res.check("query.partitions", active == DAYS,
              f"{active} active partitions, expected {DAYS}")
    certified = 0
    for agg in ("sum", "avg"):
        for length in (16, 32, 64):
            for target in TARGETS:
                plan = model.engine.plan_summary(
                    DATASET, agg, target_half_width=target,
                    relative_target=True,
                    labels=model.labels(DAYS - length, length))
                certified += bool(plan["certified"] and plan["selected"])
    res.check("query.certified", certified > 0,
              "no planned sum/avg certified with selected partitions")


def run(seed: int, seconds: float, trace: bool) -> common.Result:
    res = common.Result("query")
    setups = []
    for _ in range(SETUPS):
        model, took = common.timed_setup(lambda: QueryModel(seed))
        setups.append(took)
    ops = operations(seed, 4 * CYCLE)
    wrong = {"merge_population": 0, "count": 0}
    run_phase(model, ops, WARMUP_S, wrong)     # fill kernel caches
    res.facts.update(common.provenance(
        loop="closed, one caller", days=DAYS, day_size=DAY_SIZE,
        bound_values=BOUND, coarse_sketch=COARSE, roll_every=ROLL_EVERY))
    if not trace:
        timings, _ = run_phase(model, ops, seconds, wrong, host=res.host)
        queries = [(kind, t) for kind, t in timings if kind != "roll"]
        passes = common.chunks(queries, len(BLOCK))
        for prefix, kind in (("a", "merge"), ("b", "planned")):
            res.metrics.update(common.class_metrics(prefix, [
                ([t for k, t in p if k == kind],
                 sum(1 for k, _ in p if k == kind)) for p in passes]))
        res.metrics["goodput_per_s"] = statistics.median(
            len(p) / sum(t for _, t in p) for p in passes)
        res.set_setup(setups)
        res.metrics["rss_peak_mb"] = common.rss_peak_mb()
        res.attempted = len(timings)
    else:
        third = seconds / 3.0
        plain, _ = run_phase(model, ops, third, wrong)
        tracer = Tracer()
        with Instrumentation(tracer):
            traced, merges = run_phase(model, ops, third, wrong, tracer)
        with capture():
            observed, _ = run_phase(model, ops, third, wrong)
        res.metrics.update(
            common.layer_metrics(tracer.snapshot(), len(traced)))
        planned_ops = sum(1 for kind, _ in traced if kind == "planned")
        res.metrics["analytics.merges_per_query"] = merges / planned_ops
        tookof = [[t for _, t in phase]
                      for phase in (plain, traced, observed)]
        res.metrics["bench.trace_overhead_frac"] = common.overhead(
            tookof[0], tookof[1])
        res.metrics["obs.overhead_frac"] = common.overhead(
            tookof[0], tookof[2])
        tracer.dump(common.out_path(f"trace-query-{seed}.jsonl"))
        res.attempted = len(plain) + len(traced) + len(observed)
    check_final(model, wrong, res)
    return res
