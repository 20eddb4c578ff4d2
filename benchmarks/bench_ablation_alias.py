"""Ablation A2: inversion vs alias-table generation in HRMerge.

Section 4.2: "In some scenarios, the partition sizes and sample sizes
are unchanging and merges are performed in a symmetric pairwise fashion,
in which case we need to produce many samples from a fixed probability
vector P ... the alias method can be used to increase generation
efficiency."  This bench merges a balanced tree of equal-size reservoir
samples with (a) fresh inversion per merge and (b) a shared alias-table
cache, and compares the wall time.
"""

from __future__ import annotations

from repro.bench import wall_timer
from repro.bench.report import print_table
from repro.core.hybrid_reservoir import AlgorithmHR
from repro.core.merge import hr_merge, merge_tree
from repro.sampling.distributions import CachedHypergeometric
from repro.workloads.generators import UniformGenerator


def _build_samples(rng, *, partitions, partition_size, bound):
    gen = UniformGenerator()
    samples = []
    for i in range(partitions):
        data = gen.generate(partition_size, rng.spawn("data", i))
        hr = AlgorithmHR(bound, rng=rng.spawn("hr", i))
        hr.feed_many(data)
        samples.append(hr.finalize())
    return samples


def _merge_all(samples, rng, cache):
    def merger(a, b):
        return hr_merge(a, b, rng=rng, cache=cache)

    return merge_tree(samples, rng=rng, merger=merger)


def test_ablation_alias(benchmark, scale, rng):
    partitions = 32
    samples = _build_samples(
        rng, partitions=partitions,
        partition_size=scale.sizes_partition_size,
        bound=scale.bound_values)

    def run_both():
        with wall_timer() as plain_t:
            merged_plain = _merge_all(samples, rng.spawn("plain"), None)
        cache = CachedHypergeometric()
        with wall_timer() as cached_t:
            merged_cached = _merge_all(samples, rng.spawn("cached"), cache)
        return (plain_t.seconds, cached_t.seconds, merged_plain,
                merged_cached, len(cache))

    plain_s, cached_s, merged_plain, merged_cached, cache_entries = \
        benchmark.pedantic(run_both, rounds=1, iterations=1)

    print_table(
        ("strategy", "seconds", "merged_size", "alias_tables"),
        [("inversion per merge", plain_s, merged_plain.size, "-"),
         ("cached alias tables", cached_s, merged_cached.size,
          cache_entries)],
        title=f"Ablation A2: HRMerge L-generation over a balanced tree "
              f"of {partitions} partitions")

    # Correctness is identical either way; sizes are pinned at the bound.
    assert merged_plain.size == merged_cached.size == scale.bound_values
    # The balanced tree over equal partitions reuses one distribution per
    # level: the cache should hold ~log2(partitions) tables.
    assert cache_entries <= partitions.bit_length() + 1
