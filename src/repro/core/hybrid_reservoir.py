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

On both kernel backends, ``feed``, ``feed_many``, ``feed_exhaustive``
and ``finalize`` take every step as a merge with one block of arrivals
(:mod:`repro.core.blocks`): the phase-1 exit is taken at a block end and
each later block is an HRMerge node (see docs/algorithms.md).
:attr:`AlgorithmHR.phase` and :attr:`AlgorithmHR.sample_size` report the
reservoir as soon as the footprint reaches ``F`` — the switch draws
nothing, so it is settled then — and a :class:`FractionPolicy` cuts at
that arrival.

Compared with Algorithm HB, HR needs **no a-priori knowledge of the
partition size** and always delivers a full-size (``min(N, n_F)``-element)
sample — at the price of more expensive merges (the hypergeometric draw in
:func:`repro.core.merge.hr_merge`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TypeVar

from repro.core.blocks import BlockGrid
from repro.core.footprint import DEFAULT_MODEL, FootprintModel
from repro.core.histogram import CompactHistogram
from repro.core.phases import SampleKind
from repro.core.purge import purge_reservoir
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError
from repro.obs.runtime import OBS
from repro.obs.tracing import span
from repro.rng import SplittableRng

__all__ = ["AlgorithmHR"]

T = TypeVar("T")


class AlgorithmHR(BlockGrid):
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
        self._finalized = False
        self._init_grid()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def phase(self) -> SampleKind:
        """Current phase: EXHAUSTIVE or RESERVOIR.

        RESERVOIR from the arrival that brings the footprint to ``F``,
        also while the grid has yet to take the switch at a block end.
        """
        if self._full():
            return SampleKind.RESERVOIR
        return self._phase

    def _full(self) -> bool:
        """Phase 1 with the footprint at ``F``: the switch is due."""
        return (self._phase is SampleKind.EXHAUSTIVE
                and self._histogram is not None
                and self._histogram.footprint(self._model)
                >= self._bound_bytes)

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
        this reports the reservoir capacity the purge will shrink to, as
        it does from the arrival that brings the footprint to ``F``.
        """
        if self._bag is not None:
            return len(self._bag)
        if self._pending is not None:
            return min(self._pending.size, self._capacity)
        if self._full():
            return self._capacity
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
        through the algorithm (:meth:`feed_exhaustive`).
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
            # boundary; take the switch now, as a block end would.
            if sampler._histogram.footprint(sampler._model) \
                    >= sampler._bound_bytes:
                sampler._enter_phase2()
        else:  # RESERVOIR
            sampler._histogram = None
            sampler._pending = sample.histogram.copy()
            sampler._capacity = sample.size
            sampler._phase = SampleKind.RESERVOIR
        return sampler

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
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
        if OBS.enabled:
            OBS.registry.counter("hr.phase2.enter").inc()

    def _materialize(self) -> None:
        """Lazy purgeReservoir + expand (Figure 7, lines 9-11)."""
        assert self._pending is not None
        with span("hr.purge", size=self._pending.size,
                  capacity=self._capacity):
            purged = purge_reservoir(self._pending, self._capacity,
                                     self._rng)
            self._bag = purged.expand()
            self._pending = None

    def feed(self, value: T) -> None:
        """Observe one arriving data element: one arrival on the block
        grid (Figure 7's per-arrival body, taken a block at a time)."""
        self._check_open()
        self._grid_feed(value)

    def _close_block(self, block: Sequence, start: int) -> None:
        """The steps at a block end: see :mod:`repro.core.blocks`."""
        if self._phase is SampleKind.EXHAUSTIVE:
            if self._full():
                self._enter_phase2()
            return
        self._reservoir_step(block, start, self._block_len,
                             self._seen - self._block_len)

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
        self._flush_block()
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
