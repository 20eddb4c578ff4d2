"""Algorithm HB — hybrid Bernoulli sampling (Figure 2).

The sampler moves through up to three phases:

1. **Exhaustive** — every arriving value is inserted into a compact
   ``(value, count)`` histogram.  If the whole partition fits in the
   footprint budget ``F``, the "sample" is an exact histogram of the data.
2. **Bernoulli** — when the histogram's footprint reaches ``F``, a
   ``Bern(q)`` subsample is taken (Figure 3) with ``q`` chosen from
   eq. (1) so that, for the *known* partition size ``N``, the sample size
   stays below ``n_F`` with probability ``1 - p``.  Subsequent arrivals
   are sampled at rate ``q``.
3. **Reservoir** — in the unlikely event the sample still hits ``n_F``
   (probability ~``p``), the sampler degrades gracefully to reservoir
   sampling with capacity ``n_F`` (Figure 4 for the transition subsample,
   then reservoir steps).

On both kernel backends, ``feed``, ``feed_many``, ``feed_exhaustive``
and ``finalize`` take every step as a merge with one block of arrivals
(:mod:`repro.core.blocks`): the phase-1 exit is tested at block ends,
phase 2 joins a ``Bern(q)`` subset of each block, and phase 3 keeps an
SRS of the Bernoulli-thinned stream with one HRMerge node per block
(see docs/algorithms.md).

The final sample is uniform in every case; in the usual phase-2 case it
can be treated as a Bernoulli sample, which makes merging cheap
(:func:`repro.core.merge.hb_merge`).

One fine-print approximation, of total-variation order ``p`` (the
paper states it; see ``tests/test_merge.py::TestHbMergeStatistics``):
the phase-2 output is Bern(q) *truncated* at ``|S| = n_F`` ("not quite
a true Bernoulli sample"), so merging it as Bernoulli is exact only up
to the truncation probability ≈ ``p``.  At the paper's operating point
(``p ≤ 0.001``, ``n_F`` in the thousands) it is statistically
invisible.

The phase-3 sample is exact.  The phase-2 → phase-3 switch, taken at a
block end, purges the whole Bernoulli sample to ``n_F``, and phase 3
keeps thinning the stream at rate ``q``, so the reservoir is an SRS of
all Bernoulli inclusions; those are exchangeable given that there are
``n_F`` or more, so the phase-3 sample is an SRS of the partition
(``tests/test_hybrid_bernoulli.py::TestPhase3Law``).  Purging at the
switch alone would not do: which block end the switch falls on depends
on where the inclusions fell.  (Keeping the first ``n_F`` inclusions
as the reservoir, as a per-arrival switch would, is not an SRS: the
inclusion that triggered the switch is always present.)

Unlike concise sampling — which this construction otherwise resembles —
the selection never depends on *values*, only on arrival order and coin
flips, which is precisely why uniformity holds (Section 3.3 shows concise
sampling's value-dependence breaks uniformity).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TypeVar

from repro.core.blocks import BlockGrid
from repro.core.footprint import DEFAULT_MODEL, FootprintModel
from repro.core.histogram import CompactHistogram
from repro.core.phases import SampleKind
from repro.core.purge import purge_bernoulli, purge_reservoir
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError, ProtocolError
from repro.kernels import bernoulli_block
from repro.obs.runtime import OBS
from repro.obs.tracing import span
from repro.rng import SplittableRng
from repro.sampling.exceedance import rate_for_bound

__all__ = ["AlgorithmHB"]

T = TypeVar("T")


class AlgorithmHB(BlockGrid):
    """Streaming hybrid Bernoulli sampler with an a-priori footprint bound.

    Parameters
    ----------
    population_size:
        The partition size ``N``, which must be known a priori (the paper's
        stated requirement for Algorithm HB; use :class:`AlgorithmHR` when
        it is not).
    bound_values:
        The sample-size bound ``n_F`` (number of data-element values).
        Alternatively give ``footprint_bytes`` and let the model derive it.
    footprint_bytes:
        The byte budget ``F``; exactly one of this and ``bound_values``
        must be provided.
    exceedance_p:
        Maximum probability ``p`` that a phase-2 sample would exceed
        ``n_F`` (default 0.001, the paper's default).
    rng:
        Randomness source; defaults to a fresh :class:`SplittableRng`.
    model:
        Storage-cost model for footprint accounting.

    Examples
    --------
    >>> from repro.rng import SplittableRng
    >>> hb = AlgorithmHB(10_000, bound_values=64, rng=SplittableRng(1))
    >>> hb.feed_many(range(10_000))
    >>> s = hb.finalize()
    >>> s.kind.name in ("BERNOULLI", "RESERVOIR")
    True
    >>> s.size <= 64
    True
    """

    def __init__(self, population_size: int,
                 bound_values: Optional[int] = None, *,
                 footprint_bytes: Optional[int] = None,
                 exceedance_p: float = 0.001,
                 rng: Optional[SplittableRng] = None,
                 model: FootprintModel = DEFAULT_MODEL) -> None:
        if population_size <= 0:
            raise ConfigurationError(
                f"population_size must be positive, got {population_size}")
        if (bound_values is None) == (footprint_bytes is None):
            raise ConfigurationError(
                "provide exactly one of bound_values and footprint_bytes")
        if bound_values is None:
            assert footprint_bytes is not None
            bound_values = model.bound_values(footprint_bytes)
        if bound_values <= 0:
            raise ConfigurationError(
                f"bound_values must be positive, got {bound_values}")
        if not 0.0 < exceedance_p < 1.0:
            raise ConfigurationError(
                f"exceedance_p must be in (0, 1), got {exceedance_p}")

        self._population = population_size
        self._bound = bound_values
        self._bound_bytes = model.footprint_for_values(bound_values)
        self._p = exceedance_p
        self._rng = rng if rng is not None else SplittableRng()
        self._model = model

        self._phase = SampleKind.EXHAUSTIVE
        self._histogram: Optional[CompactHistogram] = CompactHistogram()
        self._pending: Optional[CompactHistogram] = None  # compact S'
        self._bag: Optional[List[object]] = None          # expanded S
        self._rate: Optional[float] = None                # q
        self._seen = 0                                    # i
        self._capacity = bound_values                     # phase-3 size
        # Phase 3 keeps an SRS of the Bernoulli inclusions: how many
        # there have been (None: reservoir over arrivals).
        self._included: Optional[int] = None
        self._finalized = False
        self._init_grid()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def phase(self) -> SampleKind:
        """The sampler's current phase."""
        return self._phase

    @property
    def seen(self) -> int:
        """Number of elements observed so far."""
        return self._seen

    @property
    def population_size(self) -> int:
        """The declared partition size ``N``."""
        return self._population

    @property
    def bound_values(self) -> int:
        """The sample-size bound ``n_F``."""
        return self._bound

    @property
    def rate(self) -> Optional[float]:
        """The phase-2 Bernoulli rate ``q`` (None while in phase 1)."""
        return self._rate

    @property
    def sample_size(self) -> int:
        """Current number of data elements in the sample."""
        if self._bag is not None:
            return len(self._bag)
        if self._pending is not None:
            return self._pending.size
        assert self._histogram is not None
        return self._histogram.size

    # ------------------------------------------------------------------
    # Resume (used by the merge procedures' exhaustive case)
    # ------------------------------------------------------------------
    @classmethod
    def resume(cls, sample: WarehouseSample, total_population: int, *,
               rng: SplittableRng) -> "AlgorithmHB":
        """Continue Algorithm HB from a finished sample.

        HBMerge's exhaustive case (Figure 6, lines 1-4) initializes the
        running sample to one input and streams the other input's values
        through the algorithm (:meth:`feed_exhaustive`).
        ``total_population`` is the size of the
        *union* the continued sampler will have seen once feeding is done;
        it determines the rate ``q`` if a phase-1 -> phase-2 transition
        happens during the continuation.
        """
        if total_population < sample.population_size:
            raise ConfigurationError(
                "total_population cannot be smaller than the resumed "
                "sample's population")
        sampler = cls(total_population, sample.bound_values,
                      exceedance_p=sample.exceedance_p, rng=rng,
                      model=sample.model)
        sampler._seen = sample.population_size
        sampler._phase = sample.kind
        if sample.kind is SampleKind.EXHAUSTIVE:
            sampler._histogram = sample.histogram.copy()
        elif sample.kind is SampleKind.BERNOULLI:
            sampler._histogram = None
            sampler._pending = sample.histogram.copy()
            sampler._rate = sample.rate
        else:  # RESERVOIR
            sampler._histogram = None
            sampler._pending = sample.histogram.copy()
            sampler._capacity = sample.size
        return sampler

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def _enter_phase2_or_3(self) -> None:
        """Phase-1 exit: lines 3-11 of Figure 2."""
        assert self._histogram is not None
        with span("hb.phase2", seen=self._seen):
            self._rate = rate_for_bound(self._population, self._p,
                                        self._bound)
            subsample = purge_bernoulli(self._histogram, self._rate,
                                        self._rng)
            self._histogram = None
            if OBS.enabled:
                OBS.registry.counter("hb.phase2.enter").inc()
                OBS.registry.gauge("hb.rate.q").set(self._rate)
            if subsample.size < self._bound:
                self._phase = SampleKind.BERNOULLI
                self._pending = subsample
            else:
                self._pending = purge_reservoir(subsample, self._bound,
                                                self._rng)
                self._enter_phase3()
                self._included = subsample.size

    def _enter_phase3(self) -> None:
        """Switch to reservoir mode (lines 9-10 / 18-19 of Figure 2)."""
        with span("hb.phase3", seen=self._seen):
            self._phase = SampleKind.RESERVOIR
            self._included = None
            self._capacity = self._bound
        if OBS.enabled:
            OBS.registry.counter("hb.phase3.enter").inc()

    def _expand_pending(self) -> None:
        """Figure 2's expand(S'): leave compact form, once, lazily."""
        assert self._pending is not None
        self._bag = self._pending.expand()
        self._pending = None

    def feed(self, value: T) -> None:
        """Observe one arriving data element: one arrival on the block
        grid (Figure 2's per-arrival body, taken a block at a time)."""
        self._check_open()
        self._grid_feed(value)

    def _close_block(self, block: Sequence, start: int) -> None:
        """The steps at a block end: see :mod:`repro.core.blocks`."""
        if self._phase is SampleKind.EXHAUSTIVE:
            assert self._histogram is not None
            if self._histogram.footprint(self._model) >= self._bound_bytes:
                self._enter_phase2_or_3()
            return
        length = self._block_len
        if self._phase is SampleKind.RESERVOIR and self._included is None:
            self._reservoir_step(block, start, length, self._seen - length)
            return
        assert self._rate is not None
        picks = bernoulli_block(length, self._rate, self._rng)
        if not picks:
            return
        thinned = list(map(block.__getitem__, map(start.__add__, picks)))
        if self._phase is SampleKind.RESERVOIR:
            # Phase 3 samples the Bernoulli-thinned stream, so the
            # reservoir stays an SRS of all inclusions.
            assert self._included is not None
            self._reservoir_step(thinned, 0, len(thinned), self._included)
            self._included += len(thinned)
            return
        if self._bag is None:
            self._expand_pending()
        self._bag.extend(thinned)
        if len(self._bag) >= self._bound:
            # Given its size, the Bernoulli sample is an SRS of the
            # inclusions; purging it keeps an SRS of n_F of them.
            included = len(self._bag)
            self._pending = purge_reservoir(
                CompactHistogram.from_values(self._bag), self._bound,
                self._rng)
            self._bag = None
            self._enter_phase3()
            self._included = included

    def _materialize(self) -> None:
        """The phase-3 reservoir as a bag (it holds ``capacity``)."""
        self._expand_pending()

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self) -> WarehouseSample:
        """Close the sampler and return the finished sample.

        Converts the sample back to compact histogram form (the inverse of
        ``expand``) and tags it with the final phase.  Fewer arrivals than
        the declared ``N`` are allowed (the sample is merely smaller than
        intended — Section 4.3); *more* arrivals than declared raise
        :class:`~repro.errors.ProtocolError`, since the rate ``q`` computed
        from ``N`` would no longer bound the sample size.
        """
        self._check_open()
        if self._seen > self._population:
            raise ProtocolError(
                f"saw {self._seen} elements but population was declared as "
                f"{self._population}")
        self._flush_block()
        self._finalized = True
        if self._phase is SampleKind.EXHAUSTIVE:
            assert self._histogram is not None
            histogram = self._histogram
        elif self._bag is not None:
            histogram = CompactHistogram.from_values(self._bag)
        else:
            assert self._pending is not None
            histogram = self._pending
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("hb.finalize").inc()
            reg.counter("hb.arrivals").add(self._seen)
            reg.histogram("hb.sample_size").observe(histogram.size)
        return WarehouseSample(
            histogram=histogram,
            kind=self._phase,
            population_size=self._seen,
            bound_values=self._bound,
            rate=self._rate if self._phase is SampleKind.BERNOULLI else None,
            scheme="hb",
            exceedance_p=self._p,
            model=self._model,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AlgorithmHB(N={self._population}, nF={self._bound}, "
                f"phase={self._phase.name}, seen={self._seen}, "
                f"size={self.sample_size})")
