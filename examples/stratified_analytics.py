"""Stratified samples (Section 6 future work, implemented).

Keep per-partition samples separate and weight by known partition
sizes: tighter intervals whenever partition means differ (here:
temporal drift across daily partitions).

Run:  python examples/stratified_analytics.py
"""

from repro import SampleWarehouse, SplittableRng
from repro.analytics.aqp import ApproximateQueryEngine
from repro.analytics.estimators import estimate_avg

SEED = 606
rng = SplittableRng(SEED)
data_rng = SplittableRng(SEED + 1)

# Stratified vs merged estimation under temporal drift.
wh = SampleWarehouse(bound_values=256, scheme="hr", rng=rng.spawn("wh"))
DAYS, PER_DAY = 6, 20_000
truth_total = 0.0
for day in range(DAYS):
    base = day * 100_000  # revenue drifts upward day over day
    values = [base + data_rng.randrange(50_000) for _ in range(PER_DAY)]
    truth_total += sum(values)
    wh.ingest_batch("revenue", values, labels=[f"day-{day}"])
truth_mean = truth_total / (DAYS * PER_DAY)

merged_est = estimate_avg(wh.sample_of("revenue"))
stratified_est = (ApproximateQueryEngine(wh).stratified_sample("revenue")
                  .estimate_avg())

print("AVG(revenue) under day-over-day drift "
      f"(truth {truth_mean:,.1f}):")
print(f"  merged uniform sample:  {merged_est.value:8,.1f}  "
      f"± {merged_est.half_width:7,.1f}")
print(f"  stratified by day:      {stratified_est.value:8,.1f}  "
      f"± {stratified_est.half_width:7,.1f}")
shrink = merged_est.half_width / max(stratified_est.half_width, 1e-12)
print(f"  interval shrink factor: {shrink:.1f}x")
