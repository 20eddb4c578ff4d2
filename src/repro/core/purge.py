"""Purge operations on compact samples (Figures 3 and 4).

* :func:`purge_bernoulli` — take a ``Bern(q)`` subsample of a compact
  histogram by drawing a Binomial(count, q) for each ``(value, count)``
  pair (Figure 3).  Cost is O(#distinct values), independent of the number
  of data elements — the point of the compact representation.
* :func:`purge_reservoir` — take a simple random subsample of a given size
  from the bag a compact histogram represents, *without expanding it*
  (Figure 4).  :func:`purge_reservoir_tally` is the same purge without
  the final histogram, for HRMerge to join two survivor maps in one
  assembly (Figure 8).

Both inner loops dispatch through :mod:`repro.kernels`: the numpy
backend draws every run's kept count in a single vectorized generator
call, the pure-Python backend runs the paper's loops verbatim
(skip-based reservoir sampling with Fenwick-tree victim selection on
the reservoir side).  A kernel reads the histogram's counts view and
returns only the surviving runs as ``(indices, kept)``.  Result
assembly is shared and backend-agnostic: one ``itemgetter`` picks the
surviving values out of the histogram's value list and ``zip`` pairs
them with their counts in a new dict, so a purge does no per-element
Python work beyond the python-backend draws themselves.

Both functions return new histograms and leave their input untouched —
mutation-free purges make the merge functions easier to reason about (the
paper's pseudocode purges in place).
"""

from __future__ import annotations

from operator import itemgetter
from typing import List

from repro.core.histogram import CompactHistogram, Tally
from repro.errors import ConfigurationError
from repro.kernels import binomial_counts, srs_counts
from repro.kernels.python import FenwickTree  # re-exported for back-compat
from repro.rng import SplittableRng

__all__ = ["purge_bernoulli", "purge_reservoir", "purge_reservoir_tally",
           "purge_reservoir_concat", "FenwickTree"]


def _survivors(histogram: CompactHistogram, indices: List[int],
               kept: List[int]) -> Tally:
    """The surviving pairs of a purge as a tally (values are distinct)."""
    if not indices:
        return {}, 0, 0
    picked = itemgetter(*indices)(histogram.value_list())
    # itemgetter of a single index returns the value, not a 1-tuple.
    counts = (dict(zip(picked, kept)) if len(indices) > 1
              else {picked: kept[0]})
    return counts, sum(kept), kept.count(1)


def purge_bernoulli(histogram: CompactHistogram, q: float,
                    rng: SplittableRng) -> CompactHistogram:
    """Figure 3: a ``Bern(q)`` subsample of a compact sample.

    Each pair ``(v, n)`` becomes ``(v, Binomial(n, q))``; zero-count values
    are dropped.  Returns a new histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"rate must be in [0, 1], got {q}")
    if q == 0.0:
        return CompactHistogram()
    if q == 1.0:
        return histogram.copy()
    indices, kept = binomial_counts(histogram.run_lengths(), q, rng)
    return CompactHistogram.from_tally(_survivors(histogram, indices, kept))


def purge_reservoir_tally(histogram: CompactHistogram, size: int,
                          rng: SplittableRng) -> Tally:
    """Figure 4 without the final histogram: the survivors as a tally.

    Draws exactly as :func:`purge_reservoir` does.  ``size >=
    histogram.size`` returns the histogram's own tally (its map shared,
    so the caller must only read it) and ``size == 0`` an empty one;
    neither consumes a draw.
    """
    if size < 0:
        raise ConfigurationError(f"size must be >= 0, got {size}")
    if size == 0:
        return {}, 0, 0
    if size >= histogram.size:
        return histogram.tally()
    indices, kept = srs_counts(histogram.run_lengths(), size, rng)
    return _survivors(histogram, indices, kept)


def purge_reservoir(histogram: CompactHistogram, size: int,
                    rng: SplittableRng) -> CompactHistogram:
    """Figure 4: a simple random subsample of ``size`` elements.

    Subsamples the bag ``expand(histogram)`` without materializing it —
    one :func:`repro.kernels.srs_counts` call over the value runs.

    ``size >= histogram.size`` returns a copy (nothing to purge);
    ``size == 0`` returns an empty histogram.
    """
    if size and size >= histogram.size:
        return histogram.copy()  # the tally would share the input's map
    return CompactHistogram.from_tally(
        purge_reservoir_tally(histogram, size, rng))


def purge_reservoir_concat(first: CompactHistogram,
                           second: CompactHistogram, size: int,
                           rng: SplittableRng) -> CompactHistogram:
    """Figure 6, lines 15-16: reservoir-subsample a concatenation.

    Statistically equivalent to ``purge_reservoir`` applied to the bag
    ``expand(first) ++ expand(second)``, but — like the paper's streaming
    formulation — never expands either operand and coalesces duplicate
    values across the two inputs in the compact result.
    """
    if size < 0:
        raise ConfigurationError(f"size must be >= 0, got {size}")
    if size == 0:
        return CompactHistogram()
    if size >= first.size + second.size:
        return first.join(second)
    values = first.value_list() + second.value_list()
    indices, kept = srs_counts(
        [*first.run_lengths(), *second.run_lengths()], size, rng)
    # The same value may survive in both operands; re-inserting in
    # entry order coalesces it.
    result = CompactHistogram()
    for i, n in zip(indices, kept):
        result.insert_count(values[i], n)
    return result
