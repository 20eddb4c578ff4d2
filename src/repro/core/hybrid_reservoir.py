"""Algorithm HR — hybrid reservoir sampling (Figure 7).

Two phases:

1. **Exhaustive** — arrivals are inserted into a compact histogram until
   its footprint reaches the budget ``F``.
2. **Reservoir** — the sampler switches to reservoir mode with capacity
   ``n_F``.  The transition subsample (Figure 4's ``purgeReservoir``) is
   taken *lazily* at the first reservoir insertion; until then the compact
   histogram stands in for the (not yet materialized) reservoir, which is
   statistically equivalent because the purge outcome is independent of
   which arrival triggers it.

On the numpy kernel backend, phase-2 steps are Algorithm R with one
uniform per arrival (:func:`repro.kernels.arrival_uniforms`), drawn a
whole ``feed_many`` slice at a time; the python backend keeps the
skip-based draws (see docs/algorithms.md).

Compared with Algorithm HB, HR needs **no a-priori knowledge of the
partition size** and always delivers a full-size (``min(N, n_F)``-element)
sample — at the price of more expensive merges (the hypergeometric draw in
:func:`repro.core.merge.hr_merge`).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional, Sequence, TypeVar

from repro.core.footprint import DEFAULT_MODEL, FootprintModel
from repro.core.histogram import CompactHistogram
from repro.core.phases import SampleKind
from repro.core.purge import purge_reservoir
from repro.core.runs import RepeatedValue
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError, ProtocolError
from repro.kernels import arrival_uniforms
from repro.obs.runtime import OBS
from repro.obs.tracing import span
from repro.rng import SplittableRng
from repro.sampling.skip import SkipGenerator

__all__ = ["AlgorithmHR"]

T = TypeVar("T")


class AlgorithmHR:
    """Streaming hybrid reservoir sampler with an a-priori footprint bound.

    Parameters
    ----------
    bound_values:
        The sample-size bound ``n_F``; alternatively give
        ``footprint_bytes``.
    footprint_bytes:
        The byte budget ``F``; exactly one of this and ``bound_values``
        must be provided.
    rng:
        Randomness source; defaults to a fresh :class:`SplittableRng`.
    model:
        Storage-cost model for footprint accounting.

    Examples
    --------
    >>> from repro.rng import SplittableRng
    >>> hr = AlgorithmHR(bound_values=64, rng=SplittableRng(2))
    >>> hr.feed_many(range(10_000))
    >>> s = hr.finalize()
    >>> (s.kind.name, s.size)
    ('RESERVOIR', 64)
    """

    def __init__(self, bound_values: Optional[int] = None, *,
                 footprint_bytes: Optional[int] = None,
                 rng: Optional[SplittableRng] = None,
                 model: FootprintModel = DEFAULT_MODEL) -> None:
        if (bound_values is None) == (footprint_bytes is None):
            raise ConfigurationError(
                "provide exactly one of bound_values and footprint_bytes")
        if bound_values is None:
            assert footprint_bytes is not None
            bound_values = model.bound_values(footprint_bytes)
        if bound_values <= 0:
            raise ConfigurationError(
                f"bound_values must be positive, got {bound_values}")

        self._bound = bound_values
        self._bound_bytes = model.footprint_for_values(bound_values)
        self._rng = rng if rng is not None else SplittableRng()
        self._model = model

        self._phase = SampleKind.EXHAUSTIVE
        self._histogram: Optional[CompactHistogram] = CompactHistogram()
        self._pending: Optional[CompactHistogram] = None
        self._bag: Optional[List[object]] = None
        self._seen = 0
        self._capacity = bound_values
        self._skips: Optional[SkipGenerator] = None
        self._next_insert = 0
        self._finalized = False
        # Per-arrival uniforms on the numpy backend (None: skip-based).
        # A uniform step leaves the skip state stale; feed_run, which
        # stays skip-based, redraws it first.
        self._uniforms = arrival_uniforms(self._rng)
        self._skips_stale = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def phase(self) -> SampleKind:
        """Current phase: EXHAUSTIVE or RESERVOIR."""
        return self._phase

    @property
    def seen(self) -> int:
        """Number of elements observed so far."""
        return self._seen

    @property
    def bound_values(self) -> int:
        """The sample-size bound ``n_F``."""
        return self._bound

    @property
    def sample_size(self) -> int:
        """Current number of data elements in the sample.

        During the lazy-purge window (phase 2 before the first insertion)
        this reports the reservoir capacity the purge will shrink to.
        """
        if self._bag is not None:
            return len(self._bag)
        if self._pending is not None:
            return min(self._pending.size, self._capacity)
        assert self._histogram is not None
        return self._histogram.size

    # ------------------------------------------------------------------
    # Resume (used by HRMerge's exhaustive case)
    # ------------------------------------------------------------------
    @classmethod
    def resume(cls, sample: WarehouseSample, *,
               rng: SplittableRng) -> "AlgorithmHR":
        """Continue Algorithm HR from a finished sample.

        HRMerge's exhaustive case (Figure 8, lines 1-4) initializes the
        running sample to one input and streams the other input's values
        through the algorithm.
        """
        if sample.kind is SampleKind.BERNOULLI:
            raise ConfigurationError(
                "Algorithm HR cannot resume from a Bernoulli sample; "
                "use hb_merge for mixed-scheme merges")
        sampler = cls(sample.bound_values, rng=rng, model=sample.model)
        sampler._seen = sample.population_size
        sampler._phase = sample.kind
        if sample.kind is SampleKind.EXHAUSTIVE:
            sampler._histogram = sample.histogram.copy()
            # The resumed histogram may already sit at the footprint
            # boundary; re-check so the first arrival does not overshoot.
            if sampler._histogram.footprint(sampler._model) \
                    >= sampler._bound_bytes:
                sampler._enter_phase2()
        else:  # RESERVOIR
            sampler._histogram = None
            sampler._pending = sample.histogram.copy()
            sampler._capacity = sample.size
            sampler._phase = SampleKind.RESERVOIR
            sampler._skips = SkipGenerator(sampler._capacity, rng)
            sampler._next_insert = (sampler._seen
                                    + sampler._skips.next_skip(sampler._seen))
        return sampler

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._finalized:
            raise ProtocolError("sampler already finalized")

    def _enter_phase2(self) -> None:
        """Figure 7, lines 3-5: switch to reservoir mode.

        The purge down to ``n_F`` elements happens lazily at the first
        insertion (or at finalization if none occurs).
        """
        with span("hr.phase2", seen=self._seen):
            self._phase = SampleKind.RESERVOIR
            self._pending = self._histogram
            self._histogram = None
            self._capacity = self._bound
            self._skips = SkipGenerator(self._capacity, self._rng)
            self._next_insert = self._seen + self._skips.next_skip(self._seen)
        if OBS.enabled:
            OBS.registry.counter("hr.phase2.enter").inc()

    def _materialize_reservoir(self) -> None:
        """Lazy purgeReservoir + expand (Figure 7, lines 9-11)."""
        assert self._pending is not None
        with span("hr.purge", size=self._pending.size,
                  capacity=self._capacity):
            purged = purge_reservoir(self._pending, self._capacity,
                                     self._rng)
            self._bag = purged.expand()
            self._pending = None

    def feed(self, value: T) -> None:
        """Observe one arriving data element (Figure 7's per-arrival body)."""
        self._check_open()
        self._seen += 1
        if self._phase is SampleKind.EXHAUSTIVE:
            assert self._histogram is not None
            self._histogram.insert(value)
            if self._histogram.footprint(self._model) >= self._bound_bytes:
                self._enter_phase2()
            return
        if self._uniforms is not None:
            self._skips_stale = True
            x = self._uniforms.next() * self._seen
            if x < self._capacity:
                if self._bag is None:
                    self._materialize_reservoir()
                self._bag[int(x)] = value
            return
        if self._seen == self._next_insert:
            if self._bag is None:
                self._materialize_reservoir()
            if len(self._bag) < self._capacity:
                self._bag.append(value)
            else:
                victim = self._rng.randrange(self._capacity)
                self._bag[victim] = value
            assert self._skips is not None
            self._next_insert = (self._seen
                                 + self._skips.next_skip(self._seen))

    def feed_many(self, values: Iterable[T]) -> None:
        """Observe a batch of values.

        Lists, tuples and ranges take a fast path: skip-based on the
        python backend, one vectorized uniform draw per slice on numpy.
        Any split into ``feed`` / ``feed_many`` calls gives the same
        sample on either backend.
        """
        self._check_open()
        if isinstance(values, (list, tuple, range)):
            self._feed_sequence(values, uniform=self._uniforms is not None)
        else:
            for v in values:
                self.feed(v)

    def feed_run(self, value: T, count: int) -> None:
        """Observe ``count`` consecutive occurrences of one value.

        Used by the merge procedures to stream a compact sample through a
        running sampler without expanding it.
        """
        self._check_open()
        while count > 0 and self._phase is SampleKind.EXHAUSTIVE:
            self.feed(value)
            count -= 1
            if (self._phase is SampleKind.EXHAUSTIVE and count > 0
                    and self._histogram is not None
                    and self._histogram.count(value) >= 2):
                self._histogram.insert_count(value, count)
                self._seen += count
                count = 0
        if count > 0:
            self._feed_sequence(RepeatedValue(value, count))

    def _feed_sequence(self, values: Sequence[T], *,
                       uniform: bool = False) -> None:
        offset = 0
        n = len(values)
        if self._phase is SampleKind.EXHAUSTIVE:
            hist = self._histogram
            assert hist is not None
            offset = hist.fill(values, 0, self._model, self._bound_bytes)
            self._seen += offset
            if hist.footprint(self._model) < self._bound_bytes:
                return
            self._enter_phase2()
        if uniform:
            self._feed_uniform(values, offset)
            return
        if self._skips_stale:
            self._skips = SkipGenerator(self._capacity, self._rng)
            self._next_insert = (self._seen
                                 + self._skips.next_skip(self._seen))
            self._skips_stale = False
        base = self._seen - offset
        assert self._skips is not None
        while self._next_insert - base <= n:
            if self._bag is None:
                self._materialize_reservoir()
            value = values[self._next_insert - base - 1]
            if len(self._bag) < self._capacity:
                self._bag.append(value)
            else:
                victim = self._rng.randrange(self._capacity)
                self._bag[victim] = value
            self._seen = self._next_insert
            self._next_insert = (self._seen
                                 + self._skips.next_skip(self._seen))
        self._seen = base + n

    def _feed_uniform(self, values: Sequence[T], offset: int) -> None:
        """Phase 2 as Algorithm R over ``values[offset:]``, one uniform
        per arrival, up to ``MAX_TAKE`` arrivals per draw."""
        uniforms = self._uniforms
        assert uniforms is not None
        n = len(values)
        for start in range(offset, n, uniforms.MAX_TAKE):
            stop = min(n, start + uniforms.MAX_TAKE)
            self._skips_stale = True
            hits, slots = uniforms.reservoir(start, stop, self._seen,
                                             self._capacity)
            if hits:
                self._replace(list(map(values.__getitem__, hits)), slots)
            self._seen += stop - start

    def _replace(self, picked: List[T], slots: List[int]) -> None:
        """Included arrivals overwrite their slots, in arrival order.

        The materialized reservoir is always full: phase 2 starts from
        a histogram whose footprint reached ``n_F`` values, so it holds
        at least ``n_F`` elements.
        """
        if self._bag is None:
            self._materialize_reservoir()
        deque(map(self._bag.__setitem__, slots, picked), maxlen=0)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self) -> WarehouseSample:
        """Close the sampler and return the finished sample.

        If the sampler is in phase 2 with the purge still pending (no
        insertion happened after the switch), the purge is applied now;
        the result is statistically identical to having purged eagerly at
        the switch and evicted nothing since.
        """
        self._check_open()
        self._finalized = True
        if self._phase is SampleKind.EXHAUSTIVE:
            assert self._histogram is not None
            histogram = self._histogram
        elif self._bag is not None:
            histogram = CompactHistogram.from_values(self._bag)
        else:
            assert self._pending is not None
            histogram = purge_reservoir(self._pending, self._capacity,
                                        self._rng)
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("hr.finalize").inc()
            reg.counter("hr.arrivals").add(self._seen)
            reg.histogram("hr.sample_size").observe(histogram.size)
        return WarehouseSample(
            histogram=histogram,
            kind=self._phase,
            population_size=self._seen,
            bound_values=self._bound,
            rate=None,
            scheme="hr",
            exceedance_p=0.001,  # unused by HR; kept for merge symmetry
            model=self._model,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AlgorithmHR(nF={self._bound}, phase={self._phase.name}, "
                f"seen={self._seen}, size={self.sample_size})")
