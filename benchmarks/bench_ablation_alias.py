"""Ablation A2: inversion vs alias-table generation of HRMerge's ``L``.

Section 4.2: "In some scenarios, the partition sizes and sample sizes
are unchanging and merges are performed in a symmetric pairwise fashion,
in which case we need to produce many samples from a fixed probability
vector P ... the alias method can be used to increase generation
efficiency."  This bench takes the ``(n1, n2, k)`` sequence a balanced
pairwise tree over 32 equal partitions visits and times its ``L`` draws
with (a) a fresh inversion per draw (:func:`sample_hypergeometric`) and
(b) a shared alias-table cache (:class:`CachedHypergeometric`).
"""

from __future__ import annotations

from repro.bench import wall_timer
from repro.bench.report import print_table
from repro.sampling.distributions import (CachedHypergeometric,
                                          sample_hypergeometric)


def _tree_draws(partitions, partition_size, bound):
    """The ``(n1, n2, k)`` of every node of the balanced pairwise plan.

    Level by level, adjacent partitions merge; on an odd-sized level
    the last one is carried into the next level, where it joins the
    front pairing.
    """
    draws = []
    level = [partition_size] * partitions
    while len(level) > 1:
        carry = [level.pop()] if len(level) % 2 else []
        pairs = list(zip(level[::2], level[1::2]))
        draws.extend((n1, n2, bound) for n1, n2 in pairs)
        level = carry + [n1 + n2 for n1, n2 in pairs]
    return draws


def test_ablation_alias(benchmark, scale, rng):
    partitions = 32
    draws = _tree_draws(partitions, scale.sizes_partition_size,
                        scale.bound_values)

    def run_both():
        plain_rng, cached_rng = rng.spawn("plain"), rng.spawn("cached")
        with wall_timer() as plain_t:
            plain = [sample_hypergeometric(n1, n2, k, plain_rng)
                     for n1, n2, k in draws]
        cache = CachedHypergeometric()
        with wall_timer() as cached_t:
            cached = [cache.sample(n1, n2, k, cached_rng)
                      for n1, n2, k in draws]
        return plain_t.seconds, cached_t.seconds, plain, cached, len(cache)

    plain_s, cached_s, plain, cached, cache_entries = \
        benchmark.pedantic(run_both, rounds=1, iterations=1)

    print_table(
        ("strategy", "seconds", "draws", "alias_tables"),
        [("inversion per draw", plain_s, len(plain), "-"),
         ("cached alias tables", cached_s, len(cached), cache_entries)],
        title=f"Ablation A2: HRMerge L-generation over a balanced tree "
              f"of {partitions} partitions")

    # A tree over m partitions has m - 1 nodes, each drawing one L in
    # its support.
    assert len(draws) == partitions - 1
    for (n1, n2, k), a, b in zip(draws, plain, cached):
        assert max(0, k - n2) <= a <= min(k, n1)
        assert max(0, k - n2) <= b <= min(k, n1)
    # The balanced tree over equal partitions reuses one distribution per
    # level: the cache should hold ~log2(partitions) tables.
    assert cache_entries <= partitions.bit_length() + 1
