"""Section 2's first warehousing scenario, end to end.

An initial batch from an operational system is bulk-loaded and sampled in
parallel; smaller daily update batches follow; old days are periodically
rolled out.  Approximate analytics run against the sample warehouse at
every step.

Run:  python examples/warehouse_ingest.py
"""

from repro import SampleWarehouse, SplittableRng
from repro.analytics.aqp import ApproximateQueryEngine
from repro.warehouse.parallel import ProcessExecutor
from repro.workloads.generators import UniformGenerator

SEED = 2006
BULK_SIZE = 400_000
DAILY_SIZE = 20_000
DAYS = 7

rng = SplittableRng(SEED)
gen = UniformGenerator(value_range=50_000)

wh = SampleWarehouse(bound_values=2048, scheme="hr",
                     rng=rng.spawn("warehouse"))

# ----------------------------------------------------------------------
# Bulk load, sampled in parallel across 8 partitions / worker processes.
# ----------------------------------------------------------------------
bulk = gen.generate(BULK_SIZE, rng.spawn("bulk"))
keys = wh.ingest_batch("fact.amount", bulk, partitions=8,
                       executor=ProcessExecutor(4),
                       labels=[f"bulk-{i}" for i in range(8)])
print(f"bulk load: {BULK_SIZE:,} rows -> {len(keys)} partition samples")

engine = ApproximateQueryEngine(wh)
print("after bulk:", engine.sampling_summary("fact.amount"))

# ----------------------------------------------------------------------
# Daily deltas roll in; analytics stay fresh.
# ----------------------------------------------------------------------
for day in range(DAYS):
    delta = gen.generate(DAILY_SIZE, rng.spawn("day", day))
    wh.ingest_batch("fact.amount", delta, labels=[f"day-{day}"])
    est = engine.count("fact.amount")
    print(f"day {day}: COUNT ~ {est.value:,.0f} "
          f"[{est.ci_low:,.0f}, {est.ci_high:,.0f}]")

# ----------------------------------------------------------------------
# Aging: roll the two oldest days out of the active working set.
# ----------------------------------------------------------------------
for label in ("day-0", "day-1"):
    for key in wh.partition_keys("fact.amount"):
        if wh.catalog.get(key).label == label:
            wh.roll_out(key)
est = engine.count("fact.amount")
expected = BULK_SIZE + (DAYS - 2) * DAILY_SIZE
print(f"after roll-out: COUNT ~ {est.value:,.0f} "
      f"(active truth: {expected:,})")

# Queries scoped to a temporal slice use labels.
est = engine.count("fact.amount", labels=[f"day-{d}" for d in range(2, 7)])
print(f"days 2-6 only: COUNT ~ {est.value:,.0f} "
      f"(truth: {5 * DAILY_SIZE:,})")
