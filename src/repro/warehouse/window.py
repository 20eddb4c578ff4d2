"""Sliding-window sampling by partition roll-in/roll-out.

The paper positions the warehouse as an *approximation* of moving-window
stream-sampling algorithms [1, 11]: keep one sample per recent partition
(say, per day); as a new partition's sample rolls in, the oldest rolls
out; the window sample is the merge of the live per-partition samples.
The window therefore advances in partition-sized hops rather than
element-by-element — that granularity is the approximation, and what
buys parallelism and mergeability.

:class:`SlidingWindowSampler` packages the pattern for direct use on a
stream, independent of a full warehouse.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Optional, Tuple, TypeVar

from repro.core.merge import merge_tree
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError, ProtocolError
from repro.rng import SplittableRng
from repro.warehouse.parallel import make_sampler

__all__ = ["SlidingWindowSampler"]

T = TypeVar("T")


class SlidingWindowSampler:
    """Uniform sampling over (approximately) the last ``window_partitions
    * partition_size`` stream elements.

    Parameters
    ----------
    partition_size:
        Elements per partition (the hop granularity).
    window_partitions:
        How many most-recent partitions constitute the window.
    bound_values:
        Per-partition sample bound ``n_F``.
    scheme:
        "hr" (default) or "hb" — both footprint-bounded and mergeable.
    rng:
        Randomness; partitions use derived substreams.

    Examples
    --------
    >>> from repro.rng import SplittableRng
    >>> w = SlidingWindowSampler(partition_size=1000, window_partitions=3,
    ...                          bound_values=64, rng=SplittableRng(8))
    >>> w.feed_many(range(5000))
    >>> w.window_population()
    3000
    """

    def __init__(self, *, partition_size: int, window_partitions: int,
                 bound_values: int, scheme: str = "hr",
                 exceedance_p: float = 0.001,
                 rng: Optional[SplittableRng] = None) -> None:
        if partition_size <= 0:
            raise ConfigurationError(
                f"partition_size must be positive, got {partition_size}")
        if window_partitions <= 0:
            raise ConfigurationError(
                f"window_partitions must be positive, "
                f"got {window_partitions}")
        self._partition_size = partition_size
        self._window = window_partitions
        self._bound = bound_values
        self._scheme = scheme
        self._p = exceedance_p
        self._rng = rng if rng is not None else SplittableRng()
        self._live: Deque[Tuple[int, WarehouseSample]] = deque()
        self._evicted = 0  # partitions rolled out so far
        self._seq = 0
        self._sampler = None
        self._closed = False

    def _new_sampler(self):
        return make_sampler(
            self._scheme,
            population_size=self._partition_size,
            bound_values=self._bound,
            exceedance_p=self._p,
            sb_rate=None,
            rng=self._rng.spawn("window", self._seq),
        )

    def feed(self, value: T) -> None:
        """Observe one stream arrival."""
        if self._closed:
            raise ProtocolError("window sampler already closed")
        if self._sampler is None:
            self._sampler = self._new_sampler()
        self._sampler.feed(value)
        if self._sampler.seen >= self._partition_size:
            self._roll()

    def feed_many(self, values: Iterable[T]) -> None:
        """Observe a sequence of stream arrivals."""
        if self._closed:
            raise ProtocolError("window sampler already closed")
        for v in values:
            self.feed(v)

    def _roll(self) -> None:
        assert self._sampler is not None
        sample = self._sampler.finalize()
        self._live.append((self._seq, sample))
        self._seq += 1
        self._sampler = None
        while len(self._live) > self._window:
            self._live.popleft()
            self._evicted += 1

    @property
    def live_partitions(self) -> int:
        """Number of finalized partitions currently in the window."""
        return len(self._live)

    @property
    def evicted_partitions(self) -> int:
        """Partitions rolled out of the window so far."""
        return self._evicted

    def window_population(self) -> int:
        """Parent elements covered by the current window sample.

        Counts only *finalized* partitions; the open partial partition
        contributes once it closes (the hop-granularity approximation).
        """
        return sum(s.population_size for _seq, s in self._live)

    def window_sample(self, *, include_open: bool = False
                      ) -> WarehouseSample:
        """A uniform sample of the union of the window's partitions.

        With ``include_open=True`` the currently-filling partition is
        snapshotted (finalized on a copy of its state is not possible for
        the streaming samplers, so the open partition is closed early and
        a fresh one started — use only when a cut at "now" is acceptable).
        """
        if include_open and self._sampler is not None \
                and self._sampler.seen > 0:
            self._roll()
        if not self._live:
            raise ProtocolError("window holds no finalized partition yet")
        samples = [s for _seq, s in self._live]
        return merge_tree(samples,
                          rng=self._rng.spawn("window-merge", self._seq))

    def close(self) -> None:
        """Stop accepting arrivals (open partition is discarded)."""
        self._closed = True
        self._sampler = None
