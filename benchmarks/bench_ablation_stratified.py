"""Ablation A3: stratified vs merged estimation (Section 4.1 / 6).

Section 4.1 notes that per-partition samples can be "simply
concatenated, yielding a stratified random sample"; Section 6 lists
stratified designs as future work.  This bench quantifies what the
stratified design buys: when partition means drift (temporal data), the
stratified estimator's confidence interval is much tighter than the
merged uniform sample's, at identical storage cost.
"""

from __future__ import annotations

from repro.analytics.estimators import StratifiedSample, estimate_avg
from repro.bench.report import print_table
from repro.core.merge import merge_tree
from repro.warehouse.parallel import SampleTask, sample_partition


def _build(rng, *, partitions, per_partition, bound, drift):
    samples = []
    for i in range(partitions):
        base = i * drift
        child = rng.spawn("data", i, drift)
        # High-cardinality values so per-partition samples are genuine
        # reservoir samples, not exhaustive histograms.
        values = [base + child.randrange(100_000)
                  for _ in range(per_partition)]
        samples.append(sample_partition(SampleTask(
            values=values, scheme="hr", bound_values=bound,
            seed=rng.spawn("s", i, drift).seed_value)))
    return samples


def test_ablation_stratified(benchmark, scale, rng):
    partitions = 8
    per_partition = scale.sizes_partition_size
    bound = scale.bound_values // 4

    def run():
        rows = []
        ratios = []
        for drift in (0, 100_000, 1_000_000, 10_000_000):
            samples = _build(rng, partitions=partitions,
                             per_partition=per_partition, bound=bound,
                             drift=drift)
            merged = estimate_avg(merge_tree(
                samples, rng=rng.spawn("m", drift)))
            stratified = StratifiedSample(samples).estimate_avg()
            ratio = merged.half_width / max(stratified.half_width, 1e-12)
            rows.append((drift, merged.half_width,
                         stratified.half_width, ratio))
            ratios.append((drift, ratio))
        return rows, ratios

    rows, ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(("drift", "merged_ci_half", "stratified_ci_half",
                 "shrink_x"), rows,
                title="Ablation A3: merged vs stratified AVG interval "
                      f"({partitions} partitions)")

    by_drift = dict(ratios)
    # No drift: the gap reflects only sample-size bookkeeping — the
    # stratified design reads all 8 per-partition samples (8x the
    # elements) while the merged sample is capped at one bound's worth,
    # giving ~sqrt(8) ~ 2.8x.  Anything in a generous band around that
    # is "comparable".
    assert 0.3 < by_drift[0] < 4.5
    # Strong drift: stratification wins by a wide margin.
    assert by_drift[10_000_000] > 5.0, \
        f"expected a big stratified win under drift, got {by_drift}"
    # The advantage grows with drift.
    assert by_drift[10_000_000] > by_drift[100_000]
