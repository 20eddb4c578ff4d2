"""Block steps: HB and HR as merges over whole blocks.

A block of arrivals is an exhaustive sample of itself, so every step of
Algorithms HB and HR can be a merge of the running sample with a block
(the paper's merge law, eq. (2) and Theorem 1, taken once per block as
Tangwongsan & Tirthapura update a reservoir once per minibatch).  On
both kernel backends the samplers run over one fixed grid of
:data:`BLOCK` arrivals, counted from the sampler's first arrival (at
construction or at ``resume``); every draw happens at a block end or at
``finalize``:

* **phase 1** — arrivals are counted into the histogram; the phase ends
  at a block end whose footprint has reached ``F``;
* **HR phase 2** — an HRMerge node of (SRS of the ``t`` arrivals so far,
  exhaustive block): :func:`repro.kernels.reservoir_block`;
* **HB phase 2** — a ``Bern(q)`` subset of the block joins the sample
  (:func:`repro.kernels.bernoulli_block`);
* **HB phase 3** — the HRMerge node over the Bernoulli-thinned block,
  so the reservoir stays an SRS of all inclusions.

After phase 1 a block is kept as its arrivals: the later steps read only
their picks, so an excluded arrival costs one list append.  Everything a
step reads is fixed by the grid, so ``feed``, ``feed_many`` and
``finalize`` give the same bytes however a caller slices the stream.

The merges' exhaustive case streams a whole exhaustive sample into a
resumed sampler; :meth:`BlockGrid.feed_exhaustive` takes it as one
block step off the grid.  In phase 1 the input is joined into the
histogram; later its picks are read off its runs (:class:`_Runs`), so
the input is never expanded.  docs/algorithms.md argues each step's
law; docs/performance.md has the per-block overhead curve
:data:`BLOCK` was chosen from.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import _count_elements, deque
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.histogram import CompactHistogram
from repro.core.phases import SampleKind
from repro.errors import ProtocolError
from repro.kernels import reservoir_block
from repro.rng import SplittableRng

__all__ = ["BLOCK", "BlockGrid"]

#: Arrivals per block.  Transient sampler state is at most ``F`` plus
#: one block or one exhaustive input.
BLOCK = 2048


class _Runs:
    """An exhaustive input's arrivals by position, read off its runs
    (in stored order): position ``i`` holds the value whose run covers
    it, found by bisecting the cumulative counts."""

    __slots__ = ("_values", "_ends")

    def __init__(self, histogram: CompactHistogram) -> None:
        self._values = histogram.value_list()
        self._ends = list(accumulate(histogram.run_lengths()))

    def __getitem__(self, position: int) -> object:
        return self._values[bisect_right(self._ends, position)]


class BlockGrid:
    """The block grid HB and HR share.

    The host sampler provides ``_phase``, ``_histogram`` (phase 1),
    ``_bag`` / ``_capacity`` / ``_rng`` (reservoir steps), ``_seen``,
    ``_finalized``, ``_close_block()`` and ``_materialize()`` (the bag
    of a reservoir still held compact).  In phase 1 arrivals go
    straight into the histogram; later they pile up in ``_buffer``.
    ``_block_len`` arrivals are in the open block and ``_block_left``
    more close it.
    """

    _phase: SampleKind
    _histogram: Optional[CompactHistogram]
    _bag: Optional[List[object]]
    _capacity: int
    _rng: SplittableRng
    _seen: int
    _finalized: bool

    def _init_grid(self) -> None:
        self._buffer: List[object] = []
        self._block_len = 0
        self._block_left = BLOCK

    def _check_open(self) -> None:
        if self._finalized:
            raise ProtocolError("sampler already finalized")

    def _close_block(self, block: Sequence,
                     start: int) -> None:  # pragma: no cover - abstract
        """The steps at a block end; after phase 1 the block's arrivals
        are ``block[start:start + self._block_len]``."""
        raise NotImplementedError

    def _materialize(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _end_block(self, block: Optional[Sequence] = None,
                   start: int = 0) -> None:
        """Close the open block (held in the buffer unless given) and
        start the next one on the grid."""
        if block is None:
            block, self._buffer = self._buffer, []
        self._close_block(block, start)
        self._block_len = 0
        self._block_left = BLOCK

    def _flush_block(self) -> None:
        """Close a non-empty open block early (``feed_exhaustive``,
        ``finalize``); an empty one draws nothing."""
        if self._block_len:
            self._end_block()

    def _grid_feed(self, value: object) -> None:
        """One arrival on the grid."""
        self._seen += 1
        if self._phase is SampleKind.EXHAUSTIVE:
            assert self._histogram is not None
            self._histogram.insert(value)
        else:
            self._buffer.append(value)
        self._block_len += 1
        self._block_left -= 1
        if not self._block_left:
            self._end_block()

    def feed(self, value: object) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def feed_many(self, values: Iterable, *,
                  counts: Optional[Dict[object, int]] = None) -> None:
        """Observe a batch of values.

        Lists, tuples and ranges go onto the grid a piece at a time, one
        merge per block; general iterables fall back to per-element
        ``feed``.  ``counts`` is a first-seen count map the caller keeps
        (the ingest paths keep the synopsis's): the batch is counted
        into it as well, and when it and the phase-1 histogram both
        start empty, phase 1 counts there alone, so each arrival is
        hashed once.  Any split into ``feed`` / ``feed_many`` calls
        gives the same sample, with or without ``counts``.
        """
        self._check_open()
        if isinstance(values, (list, tuple, range)):
            self._grid_feed_many(values, counts)
        elif counts is not None:
            # One pass for the map and the grid: a numpy array yields
            # fresh scalars per pass, which a NaN key would not match.
            self._grid_feed_many(list(values), counts)
        else:
            for v in values:
                self.feed(v)

    def _grid_feed_many(self, values: Sequence,
                        counts: Optional[Dict[object, int]]) -> None:
        """A slice on the grid, one block piece at a time.

        In phase 1 each piece is counted, since each block end inside
        the slice needs the footprint so far.  A slice that starts a
        fresh partition (empty histogram, empty ``counts``) is counted
        into ``counts`` piece by piece, and after each piece the
        histogram is taken as a C-speed copy of that map: the caller's
        map keeps growing after the slice, and after HR parks its
        histogram for the lazy purge.  Other phase-1 pieces are counted
        into the histogram.  ``counts`` takes the rest of the slice at
        the end.
        """
        pos, n = 0, len(values)
        shared = (counts is not None and not counts
                  and self._histogram is not None
                  and not self._histogram.size)
        counted = 0  # the prefix of the slice already in ``counts``
        while pos < n:
            take = min(n - pos, self._block_left)
            if self._phase is not SampleKind.EXHAUSTIVE:
                if take == BLOCK:  # a whole block: step on it in place
                    self._seen += take
                    self._block_len = take
                    pos += take
                    self._end_block(values, pos - take)
                    continue
                self._buffer += values[pos:pos + take]
            elif shared:
                counted = pos + take
                _count_elements(counts, values[pos:counted])
                self._histogram = CompactHistogram.from_counts(dict(counts),
                                                               counted)
            else:
                assert self._histogram is not None
                self._histogram.extend(values[pos:pos + take])
            self._seen += take
            self._block_len += take
            self._block_left -= take
            pos += take
            if not self._block_left:
                self._end_block()
        if counts is not None and counted < n:
            _count_elements(counts, values[counted:] if counted else values)

    def feed_exhaustive(self, histogram: CompactHistogram) -> None:
        """Observe every value of an exhaustive input in one block step.

        This is how the merges' exhaustive case (Figures 6 and 8, lines
        1-4) streams one input through a sampler resumed from the
        other, without expanding it: the open block is closed, the
        whole input is one block — joined into the histogram in phase
        1, read off its runs later — and the grid starts again after
        it.
        """
        self._check_open()
        self._flush_block()
        if not histogram.size:
            return
        block: Sequence = ()
        if self._phase is SampleKind.EXHAUSTIVE:
            assert self._histogram is not None
            self._histogram = self._histogram.join(histogram)
        else:
            block = _Runs(histogram)
        self._seen += histogram.size
        self._block_len = histogram.size
        self._end_block(block)

    def _reservoir_step(self, block: Sequence, start: int, length: int,
                        seen: int) -> None:
        """HRMerge of the reservoir (an SRS of the ``seen`` values
        before the block) and the exhaustive block
        ``block[start:start + length]``: uniform block values replace
        uniform victims, as many as ``capacity - L``."""
        slots, picks = reservoir_block(seen, length, self._capacity,
                                       self._rng)
        if slots:
            if self._bag is None:
                self._materialize()
            assert self._bag is not None
            deque(map(self._bag.__setitem__, slots,
                      map(block.__getitem__, map(start.__add__, picks))),
                  maxlen=0)
