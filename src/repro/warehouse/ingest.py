"""Ingest paths: batch division and stream partitioning (Section 2).

Two ways values reach the warehouse:

* **Batch** — a bulk load is *divided* into ``k`` contiguous partitions
  (:func:`split_batch`) so they can be sampled independently in parallel;
  the warehouse drives this directly.
* **Stream** — a :class:`StreamIngestor` consumes singleton arrivals and
  *splits* the stream temporally into partitions, finalizing the current
  partition (and its sample) according to a pluggable policy:

  - :class:`CountPolicy` — cut every ``n`` arrivals (e.g. daily loads of
    known size).  Works with every scheme, including HB (the count is the
    a-priori partition size HB needs).
  - :class:`FractionPolicy` — the paper's adaptive rule for fluctuating
    arrival rates: keep a fixed-size sample and cut as soon as the ratio
    of sampled data to observed parent data falls to a minimum fraction.
    Requires a bounded-sample scheme whose size stalls while the parent
    grows (``hr``); HB cannot be used because the partition size is not
    known in advance.
"""

from __future__ import annotations

import inspect
from typing import Iterable, List, Optional, Protocol, Sequence, TypeVar

from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError, ProtocolError
from repro.obs.clock import monotonic
from repro.obs.runtime import OBS
from repro.obs.tracing import span
from repro.rng import SplittableRng
from repro.warehouse.dataset import PartitionKey
from repro.warehouse.parallel import make_sampler
from repro.warehouse.synopsis import SynopsisAccumulator

__all__ = ["split_batch", "CountPolicy", "FractionPolicy", "StreamIngestor"]

T = TypeVar("T")


def split_batch(values: Sequence[T], partitions: int) -> List[Sequence[T]]:
    """Divide a batch into ``partitions`` contiguous, near-equal chunks.

    The first ``len(values) % partitions`` chunks get one extra element,
    so sizes differ by at most 1 and nothing is dropped.

    Examples
    --------
    >>> [list(c) for c in split_batch([1, 2, 3, 4, 5], 2)]
    [[1, 2, 3], [4, 5]]
    """
    if partitions <= 0:
        raise ConfigurationError(
            f"partitions must be positive, got {partitions}")
    n = len(values)
    base, extra = divmod(n, partitions)
    chunks: List[Sequence[T]] = []
    start = 0
    for i in range(partitions):
        size = base + (1 if i < extra else 0)
        chunks.append(values[start:start + size])
        start += size
    return chunks


class PartitionPolicy(Protocol):
    """Decides when a stream partition should be finalized."""

    def should_cut(self, sampler) -> bool:
        """True when the current partition should be closed now."""
        ...  # pragma: no cover - protocol

    def expected_size(self) -> Optional[int]:
        """The a-priori partition size, if the policy fixes one."""
        ...  # pragma: no cover - protocol


class CountPolicy:
    """Cut the stream every ``count`` arrivals."""

    def __init__(self, count: int) -> None:
        if count <= 0:
            raise ConfigurationError(f"count must be positive, got {count}")
        self._count = count

    def should_cut(self, sampler) -> bool:
        """Cut once the sampler has seen ``count`` elements."""
        return sampler.seen >= self._count

    def expected_size(self) -> Optional[int]:
        """The fixed partition size (usable as HB's ``N``)."""
        return self._count


class FractionPolicy:
    """Cut when sample/parent ratio drops to ``min_fraction`` (Section 2).

    "We wait until the ratio of sampled data to observed parent data hits
    the specified lower bound, at which point we finalize the current
    data partition (and corresponding sample), and begin a new partition."
    """

    def __init__(self, min_fraction: float) -> None:
        if not 0.0 < min_fraction <= 1.0:
            raise ConfigurationError(
                f"min_fraction must be in (0, 1], got {min_fraction}")
        self._min_fraction = min_fraction

    def should_cut(self, sampler) -> bool:
        """Cut once the realized sampling fraction reaches the floor."""
        if sampler.seen == 0:
            return False
        return sampler.sample_size / sampler.seen <= self._min_fraction

    def expected_size(self) -> Optional[int]:
        """Unknown in advance — that is the point of the policy."""
        return None


class StreamIngestor:
    """Samples a stream, splitting it into partitions on the fly.

    Produced samples are handed to ``sink(key, sample)`` — normally the
    warehouse's internal registration hook — as partitions finalize.

    Parameters
    ----------
    dataset:
        Data-set name for the produced partition keys.
    scheme:
        Sampling scheme ("hr", "hb", "sb", "hb-mp"); HB-family schemes
        require a :class:`CountPolicy`.
    bound_values:
        Footprint bound ``n_F`` for the per-partition samples.
    policy:
        When to cut partitions.
    sink:
        Callback receiving ``(PartitionKey, WarehouseSample)``.
    rng:
        Randomness; each partition gets a spawned child stream.
    stream:
        Stream index (for CPU-split streams, Figure 1's ``D_i``).
    start_seq:
        First temporal sequence number to assign.
    """

    def __init__(self, dataset: str, *, scheme: str, bound_values: int,
                 policy: PartitionPolicy, sink, rng: SplittableRng,
                 exceedance_p: float = 0.001,
                 sb_rate: Optional[float] = None,
                 stream: int = 0, start_seq: int = 0) -> None:
        if scheme in ("hb", "hb-mp") and policy.expected_size() is None:
            raise ConfigurationError(
                "HB-family schemes need an a-priori partition size; "
                "use CountPolicy or scheme='hr'")
        self._dataset = dataset
        self._scheme = scheme
        self._bound = bound_values
        self._policy = policy
        self._sink = sink
        self._rng = rng
        self._p = exceedance_p
        self._sb_rate = sb_rate
        self._stream = stream
        self._seq = start_seq
        self._closed = False
        self._sampler = None
        self._synopsis: Optional[SynopsisAccumulator] = None
        self._emitted: List[PartitionKey] = []
        self._partition_t0 = monotonic()
        # The warehouse sink also takes the partition's exact synopsis
        # (every arrival passes through here, so it is free to build);
        # plain two-argument sinks keep working unchanged.
        try:
            inspect.signature(sink).bind(None, None, None)
            self._sink_takes_synopsis = True
        except TypeError:
            self._sink_takes_synopsis = False

    @property
    def emitted(self) -> List[PartitionKey]:
        """Keys of partitions finalized so far (in order)."""
        return list(self._emitted)

    @property
    def current_seen(self) -> int:
        """Arrivals in the (open) current partition."""
        return self._sampler.seen if self._sampler is not None else 0

    def _new_sampler(self):
        return make_sampler(
            self._scheme,
            population_size=self._policy.expected_size(),
            bound_values=self._bound,
            exceedance_p=self._p,
            sb_rate=self._sb_rate,
            rng=self._rng.spawn(self._dataset, self._stream, self._seq),
        )

    def _open_partition(self) -> None:
        self._sampler = self._new_sampler()
        self._synopsis = SynopsisAccumulator()
        self._partition_t0 = monotonic()

    def feed(self, value: T) -> None:
        """Observe one stream arrival."""
        if self._closed:
            raise ProtocolError("ingestor already closed")
        if self._sampler is None:
            self._open_partition()
        # The synopsis goes first: it rejects values the sampler takes
        # (an int too large for a float) before any state changes.
        self._synopsis.feed(value)
        self._sampler.feed(value)
        if self._policy.should_cut(self._sampler):
            self._finalize_current()

    def feed_many(self, values: Iterable[T]) -> None:
        """Observe a sequence of stream arrivals.

        Under a :class:`CountPolicy` a list, tuple or range is cut into
        slices that end exactly at partition cuts; each slice goes to
        the sampler's and the synopsis accumulator's ``feed_many`` (the
        samplers' skip-based fast paths).  The result is the same as
        feeding the values one by one.  Other policies, which must be
        asked after every arrival, and other iterables take the
        per-arrival path.
        """
        if self._closed:
            raise ProtocolError("ingestor already closed")
        if not (type(self._policy) is CountPolicy
                and isinstance(values, (list, tuple, range))):
            for v in values:
                self.feed(v)
            return
        size = self._policy.expected_size()
        pos, n = 0, len(values)
        while pos < n:
            if self._sampler is None:
                self._open_partition()
            end = min(n, pos + size - self._sampler.seen)
            chunk = values[pos:end]
            self._synopsis.feed_many(chunk)
            self._sampler.feed_many(chunk)
            pos = end
            if self._policy.should_cut(self._sampler):
                self._finalize_current()

    def _finalize_current(self) -> None:
        assert self._sampler is not None
        seen = self._sampler.seen
        with span("ingest.partition", dataset=self._dataset,
                  stream=self._stream, seq=self._seq, arrivals=seen):
            sample: WarehouseSample = self._sampler.finalize()
            key = PartitionKey(self._dataset, self._stream, self._seq)
            if self._sink_takes_synopsis:
                self._sink(key, sample, self._synopsis.finalize())
            else:
                self._sink(key, sample)
        if OBS.enabled:
            elapsed = monotonic() - self._partition_t0
            reg = OBS.registry
            reg.counter("ingest.stream.cuts").inc()
            reg.counter("ingest.stream.arrivals").add(seen)
            reg.histogram("ingest.stream.partition.seconds").observe(elapsed)
            reg.histogram("ingest.stream.partition.arrivals").observe(seen)
            if elapsed > 0.0:
                reg.gauge("ingest.stream.arrival_rate").set(seen / elapsed)
        self._emitted.append(key)
        self._seq += 1
        self._sampler = None
        self._synopsis = None

    def close(self) -> List[PartitionKey]:
        """Finalize any open partition and return all emitted keys."""
        if self._closed:
            raise ProtocolError("ingestor already closed")
        if self._sampler is not None and self._sampler.seen > 0:
            self._finalize_current()
        self._sampler = None
        self._closed = True
        return self.emitted
