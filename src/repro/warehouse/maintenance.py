"""Deletion maintenance for warehouse samples.

The paper's Section 2 scenario includes "periodic deletions" in the
parent warehouse; the related work it builds on handles them either with
counting samples [7] (non-uniform) or with set-level roll-out.  This
module adds *uniformity-preserving* per-element deletion to our samples,
following the exchangeability argument used for counting samples and for
Gemulla-style "random pairing":

When one occurrence of value ``v`` is deleted from a partition of which
the sample holds ``c_S(v)`` of the parent's ``c_D(v)`` occurrences, the
deleted occurrence is — by symmetry among indistinguishable occurrences —
in the sample with probability exactly ``c_S(v) / c_D(v)``.  Removing it
in that event leaves:

* an **exhaustive** sample exhaustive (the removal is deterministic);
* a **Bernoulli(q)** sample a Bernoulli(q) sample of the shrunken
  partition (inclusions stay independent coin flips);
* a **reservoir** sample a simple random sample of the shrunken
  partition, of size ``k`` or ``k - 1`` depending on the coin.

Deletions can therefore only *shrink* a bounded sample — there is no way
to grow it back without re-reading base data.  :class:`PartitionMaintainer`
tracks the attrition and raises a ``needs_refresh`` flag once the sample
falls below a configurable fraction of its bound, signalling that the
partition should be re-sampled at the next opportunity (e.g. the next
roll-in cycle).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.phases import SampleKind
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError
from repro.rng import SplittableRng
from repro.warehouse.dataset import PartitionKey

__all__ = ["apply_deletion", "PartitionMaintainer", "warehouse_delete"]


def apply_deletion(sample: WarehouseSample, value: object,
                   parent_count: Optional[int],
                   rng: SplittableRng) -> WarehouseSample:
    """One occurrence of ``value`` was deleted from the parent partition.

    Parameters
    ----------
    sample:
        The partition's current sample.
    value:
        The deleted value.
    parent_count:
        Occurrences of ``value`` in the parent *before* this deletion.
        Exhaustive samples know it themselves (``None`` allowed); for
        Bernoulli/reservoir samples the caller must supply it (the
        full-scale warehouse processes the deletion anyway and knows the
        multiplicity).
    rng:
        Randomness for the membership coin.

    Returns a new sample of the shrunken partition; the input is not
    modified.  Raises if the parent cannot contain the value.
    """
    if sample.population_size <= 0:
        raise ConfigurationError("cannot delete from an empty partition")

    in_sample = sample.histogram.count(value)

    if sample.kind is SampleKind.EXHAUSTIVE:
        if in_sample == 0:
            raise ConfigurationError(
                f"exhaustive sample has no occurrence of {value!r}; "
                f"the deletion cannot apply to this partition")
        histogram = sample.histogram.copy()
        histogram.remove(value)
        return replace(sample, histogram=histogram,
                       population_size=sample.population_size - 1)

    if parent_count is None:
        raise ConfigurationError(
            "parent_count is required to delete from a sampled "
            "(non-exhaustive) partition")
    if parent_count < max(1, in_sample):
        raise ConfigurationError(
            f"parent_count={parent_count} inconsistent: sample already "
            f"holds {in_sample} occurrences of {value!r}")

    # The deleted occurrence is in the sample w.p. c_S(v) / c_D(v).
    if in_sample > 0 and rng.bernoulli(in_sample / parent_count):
        histogram = sample.histogram.copy()
        histogram.remove(value)
    else:
        histogram = sample.histogram
    return replace(sample, histogram=histogram,
                   population_size=sample.population_size - 1)


class PartitionMaintainer:
    """Applies a stream of deletions to one partition's sample.

    Parameters
    ----------
    sample:
        The partition's starting sample.
    rng:
        Randomness for membership coins.
    refresh_fraction:
        ``needs_refresh`` turns on once the sample holds fewer than
        ``refresh_fraction * original_size`` elements (and the parent is
        still big enough that a fresh sample would be larger).

    Examples
    --------
    >>> from repro import AlgorithmHR, SplittableRng
    >>> rng = SplittableRng(1)
    >>> hr = AlgorithmHR(bound_values=32, rng=rng.spawn("s"))
    >>> hr.feed_many(list(range(1000)))
    >>> m = PartitionMaintainer(hr.finalize(), rng=rng.spawn("m"))
    >>> m.delete(5, parent_count=1)
    >>> m.sample.population_size
    999
    """

    def __init__(self, sample: WarehouseSample, *, rng: SplittableRng,
                 refresh_fraction: float = 0.5) -> None:
        if not 0.0 < refresh_fraction <= 1.0:
            raise ConfigurationError(
                f"refresh_fraction must be in (0, 1], "
                f"got {refresh_fraction}")
        self._sample = sample
        self._rng = rng
        self._fraction = refresh_fraction
        self._original_size = max(1, sample.size)
        self._deletions = 0

    @property
    def sample(self) -> WarehouseSample:
        """The current (maintained) sample."""
        return self._sample

    @property
    def deletions_applied(self) -> int:
        """How many parent deletions have been processed."""
        return self._deletions

    @property
    def needs_refresh(self) -> bool:
        """True when attrition warrants re-sampling the partition."""
        if self._sample.kind is SampleKind.EXHAUSTIVE:
            return False
        if self._sample.size >= self._fraction * self._original_size:
            return False
        # Only worth refreshing if the parent could fill a bigger sample.
        return self._sample.population_size > self._sample.size

    def delete(self, value: object,
               parent_count: Optional[int] = None) -> None:
        """Process one parent deletion of ``value``."""
        self._sample = apply_deletion(self._sample, value, parent_count,
                                      self._rng)
        self._deletions += 1


def warehouse_delete(warehouse, key: PartitionKey, value: object,
                     parent_count: Optional[int] = None) -> None:
    """Apply one deletion to a stored partition sample, in place.

    Convenience wrapper: loads the sample from the warehouse's store,
    applies :func:`apply_deletion` with a key-derived RNG substream, and
    writes back the sample, the catalog's population count, and the
    partition synopsis (decremented exactly — the deleted value is in
    hand, so the moments stay current; see docs/aqp.md).
    """
    sample = warehouse.store.get(key)
    rng = warehouse._rng.spawn("delete", str(key),
                               warehouse.catalog.get(key).population_size)
    updated = apply_deletion(sample, value, parent_count, rng)
    warehouse.store.put(key, updated)
    meta = warehouse.catalog.get(key)
    meta.population_size = updated.population_size
    meta.sample_size = updated.size
    if meta.synopsis is not None:
        meta.synopsis = meta.synopsis.without(value)
