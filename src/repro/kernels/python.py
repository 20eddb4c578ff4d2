"""The pure-Python kernel backend — the reference implementation.

Every function here is the historical inner loop of the corresponding
merge/purge procedure, moved verbatim so the fallback stays
byte-identical with the pre-kernel code paths: same draw order, same
rng consumption, same results for the same seed.  This module is the
one kernel backend *allowed* to draw from a Python RNG element by
element (lint rule RPR091 bans that in every other backend module —
vectorized backends must make one generator call per kernel op).

:class:`FenwickTree` lives here (re-exported by ``repro.core.purge``
for compatibility) because victim selection inside :func:`srs_counts`
is the only consumer of its prefix-sum search.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import chain, compress
from typing import Collection, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.rng import SplittableRng
from repro.sampling.distributions import (CachedHypergeometric,
                                          sample_hypergeometric)
from repro.sampling.distributions import \
    hypergeometric_pmf as _reference_pmf
from repro.sampling.skip import SkipGenerator

__all__ = ["FenwickTree", "hypergeometric_pmf", "draw_hypergeometric",
           "draw_hypergeometric_batch", "binomial_counts", "srs_counts",
           "arrival_uniforms", "fold_moments"]


class FenwickTree:
    """Binary-indexed tree over non-negative integer counts.

    Supports point updates and *prefix-sum search* (find the first index
    whose cumulative count reaches a target) in O(log n) — exactly the
    operation Figure 4's victim-selection step needs (its line 9 computes
    the same thing by linear scan).
    """

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ConfigurationError(f"size must be >= 0, got {size}")
        self._size = size
        self._tree = [0] * (size + 1)
        self._total = 0

    @property
    def total(self) -> int:
        """Sum of all counts."""
        return self._total

    def add(self, index: int, delta: int) -> None:
        """Add ``delta`` to the count at ``index`` (0-based)."""
        if not 0 <= index < self._size:
            raise ConfigurationError(
                f"index {index} out of range [0, {self._size})")
        self._total += delta
        i = index + 1
        while i <= self._size:
            self._tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Sum of counts at positions ``0..index`` inclusive."""
        total = 0
        i = min(index + 1, self._size)
        while i > 0:
            total += self._tree[i]
            i -= i & (-i)
        return total

    def find_by_rank(self, rank: int) -> int:
        """Smallest index whose prefix sum is >= ``rank`` (1-based rank).

        This selects the ``rank``-th data element when counts are run
        lengths: if counts are ``[3, 0, 2]`` then ranks 1..3 map to index
        0 and ranks 4..5 to index 2.
        """
        if not 1 <= rank <= self._total:
            raise ConfigurationError(
                f"rank {rank} out of range [1, {self._total}]")
        index = 0
        remaining = rank
        bit = 1
        while bit * 2 <= self._size:
            bit *= 2
        while bit:
            nxt = index + bit
            if nxt <= self._size and self._tree[nxt] < remaining:
                index = nxt
                remaining -= self._tree[nxt]
            bit //= 2
        return index  # 0-based position

    def counts(self) -> List[int]:
        """Materialize the per-index counts (O(n log n); for finalization)."""
        out = []
        prev = 0
        for i in range(self._size):
            cur = self.prefix_sum(i)
            out.append(cur - prev)
            prev = cur
        return out


def hypergeometric_pmf(n1: int, n2: int, k: int) -> List[float]:
    """Eq. (3) recursion, scalar form (delegates to the reference)."""
    return _reference_pmf(n1, n2, k)


def draw_hypergeometric(n1: int, n2: int, k: int, rng: SplittableRng, *,
                        cache: Optional[CachedHypergeometric] = None,
                        method: str = "inversion") -> int:
    """One eq. (2) draw, honoring the historical cache/method knobs."""
    if cache is not None:
        return cache.sample(n1, n2, k, rng)
    return sample_hypergeometric(n1, n2, k, rng, method=method)


def draw_hypergeometric_batch(n1: int, n2: int, k: int,
                              rng: SplittableRng, count: int, *,
                              cache: Optional[CachedHypergeometric] = None,
                              method: str = "inversion") -> List[int]:
    """``count`` sequential eq. (2) draws."""
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    return [draw_hypergeometric(n1, n2, k, rng, cache=cache, method=method)
            for _ in range(count)]


def _survivors(kept: List[int]) -> Tuple[List[int], List[int]]:
    """The nonzero entries of a kept-count vector as ``(indices, kept)``."""
    return (list(compress(range(len(kept)), kept)),
            list(compress(kept, kept)))


def binomial_counts(counts: Collection[int], q: float,
                    rng: SplittableRng) -> Tuple[List[int], List[int]]:
    """One ``Binomial(n, q)`` per run, in order (Figure 3's loop)."""
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"rate must be in [0, 1], got {q}")
    return _survivors([rng.binomial(n, q) for n in counts])


def srs_counts(runs: Collection[int], size: int,
               rng: SplittableRng) -> Tuple[List[int], List[int]]:
    """Figure 4's core loop over run lengths.

    Skip-based reservoir sampling over the implicit concatenation of
    runs; victim selection among included elements uses a Fenwick tree
    so each eviction costs O(log #runs).  Verbatim port of the
    historical ``purge_reservoir`` inner loop — draw order unchanged.
    """
    total = sum(runs)
    if not 0 <= size <= total:
        raise ConfigurationError(
            f"size must be in [0, {total}], got {size}")
    if size == 0:
        return [], []
    if size == total:
        return _survivors(list(runs))
    tree = FenwickTree(len(runs))
    skips = SkipGenerator(size, rng)

    included = 0          # L in Figure 4
    boundary = 0          # b: upper element index of the current bucket
    processed = 0         # elements of the implicit stream processed
    next_insert = 1       # j: 1-based index of the next element to include
    for position, run in enumerate(runs):
        boundary += run
        while next_insert <= boundary:
            if included == size:
                victim_rank = rng.randrange(size) + 1
                victim = tree.find_by_rank(victim_rank)
                tree.add(victim, -1)
                included -= 1
            tree.add(position, 1)
            included += 1
            processed = next_insert
            next_insert = processed + skips.next_skip(processed)
    return _survivors(tree.counts())


def arrival_uniforms(rng: SplittableRng) -> None:
    """No per-arrival stream: HB/HR keep their skip-based draws."""
    del rng
    return None


def fold_moments(values: Sequence, total: float, total_sq: float,
                 lo: Optional[float], hi: Optional[float]
                 ) -> Tuple[float, float, Optional[float], Optional[float]]:
    """Fold a slice of real numbers into running moments and extremes.

    ``total`` / ``total_sq`` take the same left-to-right float additions
    as per-element ``+=`` (``sum()`` is avoided because Python 3.12
    compensates float sums); ``lo`` / ``hi`` (``None`` before the first
    value) fold through ``min`` / ``max`` from the running extremes, so
    NaN ordering matches one-at-a-time folding.
    """
    try:
        xs = list(map(float, values))
    except OverflowError as exc:
        raise ConfigurationError(
            f"numeric value out of float range: {exc}") from None
    total = reduce(operator.add, xs, total)
    total_sq = reduce(operator.add, map(operator.mul, xs, xs), total_sq)
    lo = min(chain(() if lo is None else (lo,), xs), default=None)
    hi = max(chain(() if hi is None else (hi,), xs), default=None)
    return total, total_sq, lo, hi
