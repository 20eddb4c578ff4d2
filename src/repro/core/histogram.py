"""Compact ``(value, count)`` histogram — the samples' storage format.

All of the paper's samplers keep their sample, whenever possible, as a set
of ``(value, count)`` pairs with singletons stored as bare values (the
concise representation of [7]).  :class:`CompactHistogram` implements that
representation with O(1) insert/remove and *incremental* footprint
tracking, so the samplers can test ``footprint(S) >= F`` without
rescanning the histogram.

The ``expand``/``compact`` round trip (Figure 2's ``expand(S)`` and the
finalization step) and the ``join`` of two histograms (used by HBMerge and
HRMerge) live here too.  A join copies the operand with more distinct
values, updates the copy with the other in one ``dict.update``, and
then sums counts only over the values the two share, so its
Python-level work is proportional to that overlap.
:meth:`CompactHistogram.joined` does the same on two :data:`Tally`
triples, which is how HRMerge joins its two purges' survivors without
building a histogram for either.

Block ingest (:mod:`repro.core.blocks`) grows a histogram the other way
round: :meth:`CompactHistogram.extend` counts a slice's values into the
running map at C speed, keeping the map's order and appending the new
values in first-seen order, as one :meth:`~CompactHistogram.insert` per
value would.  On a fresh partition it copies the ingest path's running
count instead (:meth:`CompactHistogram.from_counts`).

The purges read a histogram through its run index
(:meth:`CompactHistogram.run_index`): the keys as a list and the run
lengths in the kernel backend's form, built on first use and cleared by
every mutator.  The estimators' moment pass reads the same index
through :meth:`CompactHistogram.float_view`, which adds the keys as the
backend's fold reads them (a ``float64`` array on numpy), built the
first time moments are read, so ingest, whose purges never read them,
does not pay for it.  A stored sample never changes, so it converts its
runs and its keys once however many merges purge it and however many
planned queries read it.  Both are derived from the histogram's value
alone and never pickled; they are not a result cache.
"""

from __future__ import annotations

from collections import _count_elements
from typing import (Collection, Dict, Hashable, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

from repro.core.footprint import FootprintModel
from repro.errors import ConfigurationError
from repro.kernels import active_backend, index_runs, index_values

__all__ = ["CompactHistogram", "Tally", "count_values"]

Value = Hashable

#: A bag as ``(value -> count map, size, singletons)``: the state of a
#: :class:`CompactHistogram`, and what a purge hands to a join without
#: building one.
Tally = Tuple[Dict[Value, int], int, int]

#: ``(backend, keys, runs, view)``: the run index a histogram keeps for
#: the kernel backend named first (see :meth:`CompactHistogram.run_index`),
#: and the float view of its keys (:meth:`CompactHistogram.float_view`),
#: or :data:`_UNBUILT` until moments are first read.
RunIndex = Tuple[str, List[Value], Collection[int], object]

#: The ``view`` of a run index whose float view is not built yet.
_UNBUILT = object()


def count_values(values: Iterable[Value]) -> Dict[Value, int]:
    """``values`` counted at C speed, keys in first-seen order: the map
    one :meth:`CompactHistogram.insert` per value would leave."""
    counts: Dict[Value, int] = {}
    _count_elements(counts, values)
    return counts


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

    __slots__ = ("_counts", "_size", "_singletons", "_index")

    def __init__(self) -> None:
        self._counts: Dict[Value, int] = {}
        self._size = 0        # total number of data elements
        self._singletons = 0  # number of values with count == 1
        # run_index()'s and float_view()'s memo; every mutator clears
        # it.
        self._index: Optional[RunIndex] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, values: Iterable[Value]) -> "CompactHistogram":
        """Build a histogram by inserting every value in ``values``.

        Counts at C speed; pairs come out in first-occurrence order, as
        repeated :meth:`insert` calls would leave them.
        """
        counts = count_values(values)
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
    def from_counts(cls, counts: Dict[Value, int],
                    size: int) -> "CompactHistogram":
        """Wrap a first-seen count map of ``size`` elements (not copied)."""
        return cls.from_tally((counts, size, list(counts.values()).count(1)))

    @classmethod
    def joined(cls, *tallies: Tally) -> "CompactHistogram":
        """Histogram of the multiset union of tallies (the join).

        Copies the map with the most distinct values (the earliest on a
        tie), updates it with each other map in turn, then sums the
        counts of the values already present, the only per-key Python
        work.  Pairs come out in the biggest map's order followed by
        each other map's new values, and a shared value keeps the key
        object seen first — what adding the other maps' counts one key
        at a time would leave.  No tallies join to an empty histogram.
        """
        if not tallies:
            return cls()
        base = max(range(len(tallies)), key=lambda i: len(tallies[i][0]))
        big, size, singletons = tallies[base]
        counts = dict(big)
        for i, (small, small_size, small_singletons) in enumerate(tallies):
            if i == base:
                continue
            shared = [(v, counts[v]) for v in counts.keys() & small.keys()]
            counts.update(small)
            size += small_size
            # Only values present in both operands can change singleton
            # status (their joined count is >= 2).
            singletons += small_singletons
            for v, mine in shared:
                theirs = small[v]
                counts[v] = mine + theirs
                singletons -= (mine == 1) + (theirs == 1)
        return cls.from_tally((counts, size, singletons))

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
        self._index = None
        old = self._counts.get(value, 0)
        self._counts[value] = old + 1
        self._size += 1
        if old == 0:
            self._singletons += 1
        elif old == 1:
            self._singletons -= 1

    def extend(self, values: Sequence[Value]) -> None:
        """Insert every value, in order, at C speed.

        The result equals one :meth:`insert` per value.  The singleton
        tally stays exact: a slice under a sixteenth of the map's size
        reads its distinct keys' counts before and after the count;
        a longer one recounts the map's counts, which costs less per
        entry than hashing the slice twice more.
        """
        if not isinstance(values, (list, tuple)):
            # Iterate once: numpy arrays yield fresh scalars per pass,
            # which a NaN key would not match by identity.
            values = list(values)
        self._index = None
        counts = self._counts
        if len(values) * 16 < len(counts):
            get = counts.get
            keys = dict.fromkeys(values)
            before = list(map(get, keys)).count(1)
            _count_elements(counts, values)
            self._singletons += list(map(get, keys)).count(1) - before
        else:
            _count_elements(counts, values)
            self._singletons = list(counts.values()).count(1)
        self._size += len(values)

    def insert_count(self, value: Value, count: int) -> None:
        """Insert ``count`` occurrences of ``value`` at once."""
        if count <= 0:
            raise ConfigurationError(f"count must be positive, got {count}")
        self._index = None
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
        self._index = None
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

        Every kernel function (:mod:`repro.kernels`) reads run lengths
        in this form.  The purges read :meth:`run_index` instead, which
        converts the counts to the kernel backend's form once per value
        of the histogram rather than once per purge.
        """
        return self._counts.values()

    def run_index(self) -> Tuple[List[Value], Collection[int]]:
        """The keys and their run lengths, in the kernel backend's form.

        Returns ``(keys, runs)``, aligned and in insertion order:
        ``runs`` is what :func:`repro.kernels.index_runs` makes of the
        counts (a read-only ``int64`` array on numpy, a tuple of the
        counts on python).  Both are built on first use and kept until
        the next mutation, or until the active backend changes, so a
        stored sample pays the conversion once however often it is
        purged.  This memoizes a pure function of the histogram's
        value; it is not a result cache.  The memo also holds the
        :meth:`float_view`, built only when moments are read, so
        building the index costs no float conversion.  Callers must
        not mutate ``keys``.
        """
        index = self._run_index()
        return index[1], index[2]

    def float_view(self) -> Optional[Tuple[Sequence, Collection[int]]]:
        """The keys as the kernel backend's fold reads them, and the runs.

        Returns ``(values, runs)``: ``runs`` as :meth:`run_index` gives
        them, and ``values`` what :func:`repro.kernels.index_values`
        makes of the keys (a read-only ``float64`` array on numpy, the
        keys list itself on python).  Returns ``None`` when the backend
        has no view of these keys (one does not convert to a float, or
        one is NaN): the caller folds the keys as they are.  Built on
        the first call, apart from the run index, and kept in the same
        memo, so a stored sample converts its keys once however many
        queries fold it.  Callers must not mutate either part.
        """
        index = self._run_index()
        view = index[3]
        if view is _UNBUILT:
            view = index_values(index[1])
            if view is not None:
                view = (view, index[2])
            index = index[:3] + (view,)
            # Published with one store, as in _run_index.
            self._index = index
        return view

    def _run_index(self) -> RunIndex:
        """The memo for the active backend, built when missing or stale."""
        backend = active_backend()
        index = self._index
        if index is None or index[0] != backend:
            counts = self._counts
            index = (backend, list(counts), index_runs(counts.values()),
                     _UNBUILT)
            # Racing readers each build the same value and publish it
            # with this one store, so the race is harmless.
            self._index = index
        return index

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
        self._index = None

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
