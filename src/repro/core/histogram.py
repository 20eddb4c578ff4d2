"""Compact ``(value, count)`` histogram — the samples' storage format.

All of the paper's samplers keep their sample, whenever possible, as a set
of ``(value, count)`` pairs with singletons stored as bare values (the
concise representation of [7]).  :class:`CompactHistogram` implements that
representation with O(1) insert/remove and *incremental* footprint
tracking, so the samplers can test ``footprint(S) >= F`` without
rescanning the histogram.  Batched phase 1 goes through :meth:`fill`,
which tests the footprint once per C-speed counted slice rather than
after every arrival, and still stops at exactly the crossing arrival.

The ``expand``/``compact`` round trip (Figure 2's ``expand(S)`` and the
finalization step) and the ``join`` of two histograms (used by HBMerge and
HRMerge) live here too.  A join copies the operand with more distinct
values, updates the copy with the other in one ``dict.update``, and
then sums counts only over the values the two share, so its
Python-level work is proportional to that overlap.
:meth:`CompactHistogram.joined` does the same on two :data:`Tally`
triples, which is how HRMerge joins its two purges' survivors without
building a histogram for either.
"""

from __future__ import annotations

from collections import _count_elements
from typing import (Collection, Dict, Hashable, Iterable, Iterator, List,
                    Sequence, Tuple)

from repro.core.footprint import FootprintModel
from repro.errors import ConfigurationError

__all__ = ["CompactHistogram", "Tally"]

Value = Hashable

#: A bag as ``(value -> count map, size, singletons)``: the state of a
#: :class:`CompactHistogram`, and what a purge hands to a join without
#: building one.
Tally = Tuple[Dict[Value, int], int, int]


class CompactHistogram:
    """A bag of values stored as value -> count with footprint tracking.

    Examples
    --------
    >>> h = CompactHistogram.from_values(["a", "a", "b"])
    >>> h.size, h.distinct, h.singletons
    (3, 2, 1)
    >>> sorted(h.expand())
    ['a', 'a', 'b']
    """

    __slots__ = ("_counts", "_size", "_singletons")

    def __init__(self) -> None:
        self._counts: Dict[Value, int] = {}
        self._size = 0        # total number of data elements
        self._singletons = 0  # number of values with count == 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, values: Iterable[Value]) -> "CompactHistogram":
        """Build a histogram by inserting every value in ``values``.

        Counts at C speed; pairs come out in first-occurrence order, as
        repeated :meth:`insert` calls would leave them.
        """
        counts: Dict[Value, int] = {}
        _count_elements(counts, values)
        hist = cls()
        hist._counts = counts
        tallies = list(counts.values())
        hist._size = sum(tallies)
        hist._singletons = tallies.count(1)
        return hist

    @classmethod
    def from_pairs(cls,
                   pairs: Iterable[Tuple[Value, int]]) -> "CompactHistogram":
        """Build a histogram from ``(value, count)`` pairs.

        Counts must be positive; repeated values accumulate.
        """
        hist = cls()
        for v, n in pairs:
            hist.insert_count(v, n)
        return hist

    @classmethod
    def from_tally(cls, tally: Tally) -> "CompactHistogram":
        """Wrap a tally's map without checking or copying it.

        The trusted constructor behind the purges: the caller hands over
        a fresh map and its exact size and singleton count.
        """
        hist = cls()
        hist._counts, hist._size, hist._singletons = tally
        return hist

    @classmethod
    def joined(cls, first: Tally, second: Tally) -> "CompactHistogram":
        """Histogram of the multiset union of two tallies (the join).

        Copies the map with more distinct values (``first`` on a tie),
        updates it with the other, then sums the counts of the values
        the two share, the only per-key Python work.  Pairs come out in
        the bigger map's order followed by the other's new values, and
        a shared value keeps the bigger map's key object — what adding
        the smaller map's counts one key at a time would leave.
        """
        if len(second[0]) > len(first[0]):
            first, second = second, first
        big, big_size, big_singletons = first
        small, small_size, small_singletons = second
        counts = dict(big)
        counts.update(small)
        # Only values present in both operands can change singleton
        # status (their joined count is >= 2).
        singletons = big_singletons + small_singletons
        for v in big.keys() & small.keys():
            mine, theirs = big[v], small[v]
            counts[v] = mine + theirs
            singletons -= (mine == 1) + (theirs == 1)
        return cls.from_tally((counts, big_size + small_size, singletons))

    def copy(self) -> "CompactHistogram":
        """An independent copy."""
        clone = CompactHistogram()
        clone._counts = dict(self._counts)
        clone._size = self._size
        clone._singletons = self._singletons
        return clone

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of data elements (sum of counts)."""
        return self._size

    @property
    def distinct(self) -> int:
        """Number of distinct values."""
        return len(self._counts)

    @property
    def singletons(self) -> int:
        """Number of values whose count is exactly 1."""
        return self._singletons

    def count(self, value: Value) -> int:
        """The count of ``value`` (0 if absent)."""
        return self._counts.get(value, 0)

    def footprint(self, model: FootprintModel) -> int:
        """Storage bytes under ``model`` (O(1) — tracked incrementally)."""
        return model.histogram_footprint(len(self._counts), self._singletons)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, value: Value) -> None:
        """Insert one occurrence of ``value`` (the paper's insertValue)."""
        old = self._counts.get(value, 0)
        self._counts[value] = old + 1
        self._size += 1
        if old == 0:
            self._singletons += 1
        elif old == 1:
            self._singletons -= 1

    def fill(self, values: Sequence[Value], start: int,
             model: FootprintModel, bound_bytes: int) -> int:
        """Insert ``values[start:]`` in order until the footprint crosses.

        Stops right after the insertion that brings the footprint to
        ``>= bound_bytes`` (phase 1 of Figures 2 and 7) and returns the
        index one past it, or ``len(values)`` if the bound is never
        reached.  The result equals one :meth:`insert` per value with the
        footprint tested after each.

        One insert adds 0, ``count_bytes`` or ``value_bytes`` to the
        footprint, and ``count_bytes <= value_bytes``, so the next
        ``ceil(gap / value_bytes)`` values cannot cross the bound before
        the last of them.  Each step counts that whole slice at C speed;
        ``singletons`` stays exact by reading the slice's distinct keys
        before and after the count.
        """
        counts = self._counts
        get = counts.get
        value_bytes = model.value_bytes
        n = len(values)
        pos = start
        while pos < n:
            gap = bound_bytes - self.footprint(model)
            stop = min(n, pos + max(1, -(-gap // value_bytes)))
            chunk = values[pos:stop]
            if not isinstance(chunk, (list, tuple)):
                # Iterate once: numpy arrays yield fresh scalars per pass,
                # which a NaN key would not match by identity.
                chunk = list(chunk)
            keys = dict.fromkeys(chunk)
            before = list(map(get, keys)).count(1)
            _count_elements(counts, chunk)
            self._singletons += list(map(get, keys)).count(1) - before
            self._size += stop - pos
            pos = stop
            if self.footprint(model) >= bound_bytes:
                break
        return pos

    def insert_count(self, value: Value, count: int) -> None:
        """Insert ``count`` occurrences of ``value`` at once."""
        if count <= 0:
            raise ConfigurationError(f"count must be positive, got {count}")
        old = self._counts.get(value, 0)
        new = old + count
        self._counts[value] = new
        self._size += count
        if old == 1:
            self._singletons -= 1
        if old == 0 and new == 1:
            self._singletons += 1

    def remove(self, value: Value, count: int = 1) -> None:
        """Remove ``count`` occurrences of ``value``.

        Removing more occurrences than present raises
        :class:`~repro.errors.ConfigurationError`.
        """
        if count <= 0:
            raise ConfigurationError(f"count must be positive, got {count}")
        old = self._counts.get(value, 0)
        if count > old:
            raise ConfigurationError(
                f"cannot remove {count} of {value!r}; only {old} present")
        new = old - count
        self._size -= count
        if new == 0:
            del self._counts[value]
            if old == 1:
                self._singletons -= 1
        else:
            self._counts[value] = new
            if new == 1:
                self._singletons += 1
            elif old == 1:
                self._singletons -= 1  # unreachable (old==1 implies new==0)

    def set_count(self, value: Value, count: int) -> None:
        """Set the count of ``value`` outright (0 removes it)."""
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        old = self._counts.get(value, 0)
        if old == count:
            return
        if old == 1:
            self._singletons -= 1
        if count == 0:
            if old:
                del self._counts[value]
        else:
            self._counts[value] = count
            if count == 1:
                self._singletons += 1
        self._size += count - old

    # ------------------------------------------------------------------
    # Views and conversions
    # ------------------------------------------------------------------
    def pairs(self) -> Iterator[Tuple[Value, int]]:
        """Iterate ``(value, count)`` pairs in insertion order."""
        return iter(self._counts.items())

    def sorted_pairs(self) -> List[Tuple[Value, int]]:
        """``(value, count)`` pairs sorted by value (for stable output)."""
        return sorted(self._counts.items(), key=lambda item: repr(item[0]))

    def values(self) -> Iterator[Value]:
        """Iterate the distinct values."""
        return iter(self._counts)

    def value_list(self) -> List[Value]:
        """The distinct values as a list, in insertion order (C-speed)."""
        return list(self._counts)

    def run_lengths(self) -> Collection[int]:
        """The counts, aligned with :meth:`value_list`, as a live view.

        The kernel functions (:mod:`repro.kernels`) read run lengths in
        this form, so a whole purge is one vectorized draw with no
        intermediate list.
        """
        return self._counts.values()

    def tally(self) -> Tally:
        """This histogram's ``(map, size, singletons)``, map shared.

        For read-only consumers such as :meth:`joined`; mutating the
        map corrupts this histogram.
        """
        return self._counts, self._size, self._singletons

    def expand(self) -> List[Value]:
        """The bag of values (each value repeated by its count)."""
        if self._singletons == len(self._counts):
            return list(self._counts)
        out: List[Value] = []
        for v, n in self._counts.items():
            out.extend([v] * n)
        return out

    def join(self, other: "CompactHistogram") -> "CompactHistogram":
        """Histogram of the multiset union (the merge algorithms' join).

        Computes the compact representation of
        ``expand(self) ++ expand(other)`` without expanding either operand
        (see :meth:`joined`).
        """
        return CompactHistogram.joined(self.tally(), other.tally())

    def joined_footprint(self, other: "CompactHistogram",
                         model: FootprintModel) -> int:
        """Footprint ``join(self, other)`` would have, without building it.

        HBMerge (Figure 6, line 12) needs this test before deciding whether
        the joined Bernoulli sample fits in ``F`` bytes.  Only the values
        the operands share are visited.
        """
        mine, theirs = self._counts, other._counts
        shared = mine.keys() & theirs.keys()
        singletons = self._singletons + other._singletons
        for v in shared:
            singletons -= (mine[v] == 1) + (theirs[v] == 1)
        return model.histogram_footprint(
            len(mine) + len(theirs) - len(shared), singletons)

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __getstate__(self):
        # Compact pickle state (a bare tuple instead of the slot
        # mapping); samples returned from process-pool sampling ride on
        # this.
        return (self._counts, self._size, self._singletons)

    def __setstate__(self, state) -> None:
        self._counts, self._size, self._singletons = state

    def __len__(self) -> int:
        """Number of data elements, matching the paper's |S|."""
        return self._size

    def __contains__(self, value: Value) -> bool:
        return value in self._counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompactHistogram):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = dict(list(self._counts.items())[:4])
        suffix = "..." if self.distinct > 4 else ""
        return (f"CompactHistogram(size={self._size}, "
                f"distinct={self.distinct}, {preview}{suffix})")
