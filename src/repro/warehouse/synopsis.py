"""Per-partition summary statistics (synopses) for the AQP planner.

A :class:`PartitionSynopsis` is the cheap catalog-resident summary the
error-bounded query planner (``docs/aqp.md``) plans against: the
partition's element count, first two numeric moments, value range, and
top-k heavy hitters (count-descending; equal counts keep the values
seen first).  Synopses come in two flavours:

* **exact** — computed from the raw values while they pass through
  ingest (a batch chunk in one slice, a stream in slices that end at
  partition cuts), so ``total`` / ``total_sq`` are the partition's true
  moments.  An exact numeric synopsis can answer a predicate-free
  SUM / AVG / COUNT contribution with zero variance.
* **estimated** — derived from a stored sample when the raw data is
  gone (``SampleWarehouse.ingest_sample`` rolling in a sample built
  elsewhere).  Totals are Horvitz–Thompson scale-ups; ``basis``
  records how many sampled values they rest on, which is what the
  planner's conservative error model prices them with.

Synopses **merge** (for temporal rollups: moments add, ranges widen,
heavy-hitter counters sum) and support exact **deletion decrements**
(maintenance knows the deleted value, so ``total -= v`` is exact; the
recorded min/max degrade to conservative bounds, which is all the
planner needs).  Non-numeric partitions keep count and heavy hitters
but carry no moments — the planner then refuses to certify numeric
aggregates from them and falls back to merge-all.
"""

from __future__ import annotations

import heapq
import numbers
import operator
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import compress, islice, repeat
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.phases import SampleKind
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError
from repro.kernels import fold_moments

__all__ = ["PartitionSynopsis", "SynopsisAccumulator", "DEFAULT_TOP_K"]

#: How many heavy hitters a synopsis retains by default.
DEFAULT_TOP_K = 8


def _is_number_type(kind: type) -> bool:
    """True for real-number types (numpy's included) other than bool.

    ``numpy.bool_`` is not a :class:`numbers.Real`, so it is rejected
    along with :class:`bool`.
    """
    if kind is int or kind is float:
        return True
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def _is_number(value: object) -> bool:
    return _is_number_type(type(value))


def _fold(xs: Iterable[float]) -> float:
    """Left-to-right ``0 + x0 + x1 + ...``: ``sum()`` as Python 3.10
    and 3.11 compute it (3.12 compensates float sums)."""
    return reduce(operator.add, xs, 0)


def _top_pairs(counter: Counter, top: int) -> Tuple[Tuple[object, float], ...]:
    """The ``top`` largest (value, count) pairs, count-desc, ties in
    first-seen order: ``sorted(counter.items(), key=count,
    reverse=True)[:top]``, a stable sort.

    Only the ``top`` largest counts are searched for.  They say how many
    pairs lie above the cut, so both gathering passes run at C speed and
    stop as soon as they have their share: an all-distinct partition
    reads just its first ``top`` pairs.
    """
    if top <= 0:
        return ()
    items, counts = counter.items(), counter.values()
    if top < len(counter):
        largest = heapq.nlargest(top, counts)
        cut = largest[-1]
        above = top - largest.count(cut)
        pairs = list(islice(
            compress(items, map(operator.gt, counts, repeat(cut))), above))
        pairs += islice(compress(items, map(operator.eq, counts, repeat(cut))),
                        top - above)
    else:
        pairs = list(items)
    pairs.sort(key=operator.itemgetter(1), reverse=True)
    return tuple((v, float(c)) for v, c in pairs)


@dataclass(frozen=True)
class PartitionSynopsis:
    """Summary statistics of one parent partition.

    ``count`` is the partition's (known) element count.  ``total`` /
    ``total_sq`` / ``minimum`` / ``maximum`` are ``None`` for
    non-numeric partitions.  ``exact`` says whether the moments were
    computed from the raw data (or merged/decremented exactly from
    such); ``basis`` is the number of observed values behind them —
    equal to ``count`` when exact, the sample size when estimated.
    """

    count: int
    total: Optional[float] = None
    total_sq: Optional[float] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    top_k: Tuple[Tuple[object, float], ...] = ()
    exact: bool = True
    basis: int = 0

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------
    @property
    def numeric(self) -> bool:
        """True when the synopsis carries usable numeric moments."""
        return self.total is not None and self.total_sq is not None

    @property
    def mean(self) -> float:
        """Mean value implied by the moments."""
        if not self.numeric or self.count <= 0:
            raise ConfigurationError(
                "synopsis has no numeric moments to take a mean of")
        return self.total / self.count

    @property
    def variance(self) -> float:
        """Population variance implied by the moments (clamped >= 0)."""
        if not self.numeric or self.count <= 0:
            raise ConfigurationError(
                "synopsis has no numeric moments to take a variance of")
        mean = self.total / self.count
        return max(0.0, self.total_sq / self.count - mean * mean)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, values: Sequence, *,
                    top: int = DEFAULT_TOP_K) -> "PartitionSynopsis":
        """Exact synopsis of a raw value sequence (the ingest path)."""
        acc = SynopsisAccumulator(top=top)
        acc.feed_many(values)
        return acc.finalize()

    @classmethod
    def from_sample(cls, sample: WarehouseSample, *,
                    top: int = DEFAULT_TOP_K) -> "PartitionSynopsis":
        """Estimated synopsis scaled up from a stored sample.

        Totals are Horvitz–Thompson scale-ups (``scale_factor`` per
        kind); an exhaustive sample yields an exact synopsis.  An empty
        non-exhaustive sample of a non-empty parent gives a synopsis
        with no usable moments (``basis == 0``).
        """
        exact = sample.kind is SampleKind.EXHAUSTIVE
        scale = sample.scale_factor
        counter: Counter = Counter()
        total = 0.0
        total_sq = 0.0
        lo: Optional[float] = None
        hi: Optional[float] = None
        numeric = True
        seen = 0
        for value, cnt in sample.histogram.pairs():
            counter[value] += cnt * scale
            seen += cnt
            if numeric and _is_number(value):
                x = float(value)
                total += x * cnt * scale
                total_sq += x * x * cnt * scale
                lo = x if lo is None else min(lo, x)
                hi = x if hi is None else max(hi, x)
            else:
                numeric = False
        if seen == 0 and sample.population_size > 0 and not exact:
            numeric = False
        return cls(
            count=sample.population_size,
            total=total if numeric else None,
            total_sq=total_sq if numeric else None,
            minimum=lo if numeric else None,
            maximum=hi if numeric else None,
            top_k=_top_pairs(counter, top),
            exact=exact,
            basis=sample.population_size if exact else seen,
        )

    @classmethod
    def merge(cls, synopses: Iterable["PartitionSynopsis"], *,
              top: int = DEFAULT_TOP_K) -> "PartitionSynopsis":
        """Synopsis of the union of disjoint partitions.

        Moments add, ranges widen, heavy-hitter counters sum (then
        re-truncate to ``top``; equal sums keep the value seen first, so
        the result is fixed by the member order).  The merge is exact
        iff every input is; it is numeric iff every input is.
        """
        items: List[PartitionSynopsis] = list(synopses)
        if not items:
            raise ConfigurationError("cannot merge zero synopses")
        numeric = all(s.numeric for s in items)
        counter: Counter = Counter()
        for s in items:
            for value, cnt in s.top_k:
                counter[value] += cnt
        return cls(
            count=sum(s.count for s in items),
            total=_fold(s.total for s in items) if numeric else None,
            total_sq=_fold(s.total_sq for s in items) if numeric else None,
            minimum=min(s.minimum for s in items) if numeric else None,
            maximum=max(s.maximum for s in items) if numeric else None,
            top_k=_top_pairs(counter, top),
            exact=all(s.exact for s in items),
            basis=sum(s.basis for s in items),
        )

    def without(self, value: object) -> "PartitionSynopsis":
        """The synopsis after one parent deletion of ``value``.

        Count and moments decrement exactly (maintenance knows the
        deleted value); the recorded ``minimum`` / ``maximum`` stay as
        valid *bounds* — deletions can only shrink the true range.
        """
        if self.count <= 0:
            raise ConfigurationError(
                "cannot decrement a synopsis of an empty partition")
        numeric = self.numeric and _is_number(value)
        top_k = tuple(
            (v, c - 1.0 if v == value else c)
            for v, c in self.top_k
            if not (v == value and c <= 1.0))
        return PartitionSynopsis(
            count=self.count - 1,
            total=self.total - float(value) if numeric else self.total,
            total_sq=(self.total_sq - float(value) ** 2
                      if numeric else self.total_sq),
            minimum=self.minimum,
            maximum=self.maximum,
            top_k=top_k,
            exact=self.exact,
            basis=max(0, self.basis - 1),
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable form (nested in the catalog record)."""
        return {
            "count": self.count,
            "total": self.total,
            "total_sq": self.total_sq,
            "min": self.minimum,
            "max": self.maximum,
            "top_k": [[v, c] for v, c in self.top_k],
            "exact": self.exact,
            "basis": self.basis,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PartitionSynopsis":
        """Inverse of :meth:`to_dict`."""
        return cls(
            count=data["count"],
            total=data.get("total"),
            total_sq=data.get("total_sq"),
            minimum=data.get("min"),
            maximum=data.get("max"),
            top_k=tuple((v, float(c)) for v, c in data.get("top_k", [])),
            exact=data.get("exact", True),
            basis=data.get("basis", 0),
        )


class SynopsisAccumulator:
    """Streaming builder for an exact :class:`PartitionSynopsis`.

    The stream ingestor feeds its arrivals through one of these in
    parallel with the sampler, so stream-cut partitions get exact
    synopses without a second pass.  :meth:`feed_many` takes a whole
    slice per call (one ``Counter.update``, one numeric-type check, and
    C-level folds for the moments and range); :meth:`feed` takes one
    arrival.  Any split of a value list into ``feed`` / ``feed_many``
    calls yields the same synopsis, bit for bit.  Memory is bounded by
    the partition's distinct-value count (partitions are
    policy-bounded).
    """

    __slots__ = ("_top", "_count", "_total", "_total_sq", "_min", "_max",
                 "_numeric", "_counter")

    def __init__(self, *, top: int = DEFAULT_TOP_K) -> None:
        if top <= 0:
            raise ConfigurationError(f"top must be positive, got {top}")
        self._top = top
        self._count = 0
        self._total = 0.0
        self._total_sq = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._numeric = True
        self._counter: Counter = Counter()

    @property
    def count(self) -> int:
        """Arrivals observed so far."""
        return self._count

    def feed(self, value: object) -> None:
        """Observe one arrival.

        Raises :class:`ConfigurationError`, before any state changes,
        for a number too large to become a float (``10**400``).
        """
        numeric = self._numeric and _is_number(value)
        if numeric:
            try:
                x = float(value)
            except OverflowError as exc:
                raise ConfigurationError(
                    f"numeric value out of float range: {exc}") from None
        self._count += 1
        self._counter[value] += 1
        if numeric:
            self._total += x
            self._total_sq += x * x
            self._min = x if self._min is None else min(self._min, x)
            self._max = x if self._max is None else max(self._max, x)
        else:
            self._numeric = False

    def feed_many(self, values: Sequence) -> None:
        """Observe a slice of arrivals, in order.

        Equivalent to :meth:`feed` on each value, bit for bit on either
        kernel backend: :func:`repro.kernels.fold_moments` makes the
        same left-to-right float additions from the running totals and
        folds the range from the running extremes.  Numeric-ness is
        decided from the values' types, so ``[1, True]`` is non-numeric
        although its counter key is ``1``.  Takes any sized sequence,
        numpy arrays included.  Like :meth:`feed`, raises
        :class:`ConfigurationError` before any state changes when a
        number is too large to become a float.
        """
        if len(values) == 0:
            return
        if self._numeric:
            if all(map(_is_number_type, set(map(type, values)))):
                (self._total, self._total_sq, self._min,
                 self._max) = fold_moments(values, self._total,
                                           self._total_sq, self._min,
                                           self._max)
            else:
                self._numeric = False
        self._count += len(values)
        self._counter.update(values)

    def finalize(self) -> PartitionSynopsis:
        """The exact synopsis of everything fed so far."""
        numeric = self._numeric and self._count > 0
        return PartitionSynopsis(
            count=self._count,
            total=self._total if numeric else None,
            total_sq=self._total_sq if numeric else None,
            minimum=self._min if numeric else None,
            maximum=self._max if numeric else None,
            top_k=_top_pairs(self._counter, self._top),
            exact=True,
            basis=self._count,
        )
