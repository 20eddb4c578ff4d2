"""Algorithm HB — hybrid Bernoulli sampling (Figure 2).

The sampler moves through up to three phases:

1. **Exhaustive** — every arriving value is inserted into a compact
   ``(value, count)`` histogram.  If the whole partition fits in the
   footprint budget ``F``, the "sample" is an exact histogram of the data.
2. **Bernoulli** — when the histogram's footprint reaches ``F``, a
   ``Bern(q)`` subsample is taken (Figure 3) with ``q`` chosen from
   eq. (1) so that, for the *known* partition size ``N``, the sample size
   stays below ``n_F`` with probability ``1 - p``.  Subsequent arrivals
   are sampled at rate ``q`` using geometric skips.
3. **Reservoir** — in the unlikely event the sample still hits ``n_F``
   (probability ~``p``), the sampler degrades gracefully to reservoir
   sampling with capacity ``n_F`` (Figure 4 for the transition subsample,
   then standard skip-based reservoir steps).

On the numpy kernel backend, phase-2 and phase-3 steps take one
uniform per arrival (:func:`repro.kernels.arrival_uniforms`), drawn a
whole ``feed_many`` slice at a time: phase 2 includes an arrival iff
``u < q``, phase 3 is Algorithm R.  The python backend keeps the
geometric and skip-based draws (see docs/algorithms.md).

The final sample is uniform in every case; in the usual phase-2 case it
can be treated as a Bernoulli sample, which makes merging cheap
(:func:`repro.core.merge.hb_merge`).

Two fine-print approximations, both of total-variation order ``p`` (the
paper states the first; our reproduction surfaced the second —
see ``tests/test_merge.py::TestHbMergeStatistics``):

* the phase-2 output is Bern(q) *truncated* at ``|S| = n_F``
  ("not quite a true Bernoulli sample"), so merging it as Bernoulli is
  exact only up to the truncation probability ≈ ``p``;
* the phase-2 → phase-3 fallback enters reservoir mode with the first
  ``n_F`` *inclusions* of the Bernoulli process as its reservoir, which
  is not an exact size-``n_F`` SRS of the prefix (the inclusion that
  triggered the switch is always present); the paper's "terminates in
  phase 3 ⇒ clearly uniform" is exact only for the phase-1 → 3 path.

At the paper's operating point (``p ≤ 0.001``, ``n_F`` in the
thousands) both effects are statistically invisible; they matter only
for toy configurations where ``P(|S| ≥ n_F)`` is non-negligible.

Unlike concise sampling — which this construction otherwise resembles —
the selection never depends on *values*, only on arrival order and coin
flips, which is precisely why uniformity holds (Section 3.3 shows concise
sampling's value-dependence breaks uniformity).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional, Sequence, TypeVar

from repro.core.footprint import DEFAULT_MODEL, FootprintModel
from repro.core.histogram import CompactHistogram
from repro.core.phases import SampleKind
from repro.core.purge import purge_bernoulli, purge_reservoir
from repro.core.runs import RepeatedValue
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError, ProtocolError
from repro.kernels import arrival_uniforms
from repro.obs.runtime import OBS
from repro.obs.tracing import span
from repro.rng import SplittableRng
from repro.sampling.exceedance import rate_for_bound
from repro.sampling.skip import SkipGenerator

__all__ = ["AlgorithmHB"]

T = TypeVar("T")


class AlgorithmHB:
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
    rate_method:
        How to solve for ``q``: ``"approx"`` (eq. (1)), ``"exact"``, or
        ``"auto"`` (default).

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
                 model: FootprintModel = DEFAULT_MODEL,
                 rate_method: str = "auto") -> None:
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
        self._rate_method = rate_method

        self._phase = SampleKind.EXHAUSTIVE
        self._histogram: Optional[CompactHistogram] = CompactHistogram()
        self._pending: Optional[CompactHistogram] = None  # compact S'
        self._bag: Optional[List[object]] = None          # expanded S
        self._rate: Optional[float] = None                # q
        self._seen = 0                                    # i
        self._until_next = 0        # phase-2 gap: arrivals until inclusion
        self._skips: Optional[SkipGenerator] = None       # phase 3
        self._next_insert = 0                             # phase-3 n
        self._capacity = bound_values                     # phase-3 size
        self._finalized = False
        # Per-arrival uniforms on the numpy backend (None: skip-based).
        # A uniform step leaves the gap/skip state stale; feed_run,
        # which stays skip-based, redraws it first.
        self._uniforms = arrival_uniforms(self._rng)
        self._skips_stale = False

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
               rng: SplittableRng,
               rate_method: str = "auto") -> "AlgorithmHB":
        """Continue Algorithm HB from a finished sample.

        HBMerge's exhaustive case (Figure 6, lines 1-4) initializes the
        running sample to one input and streams the other input's values
        through the algorithm.  ``total_population`` is the size of the
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
                      model=sample.model, rate_method=rate_method)
        sampler._seen = sample.population_size
        sampler._phase = sample.kind
        if sample.kind is SampleKind.EXHAUSTIVE:
            sampler._histogram = sample.histogram.copy()
        elif sample.kind is SampleKind.BERNOULLI:
            sampler._histogram = None
            sampler._pending = sample.histogram.copy()
            sampler._rate = sample.rate
            sampler._until_next = sampler._draw_gap()
        else:  # RESERVOIR
            sampler._histogram = None
            sampler._pending = sample.histogram.copy()
            sampler._capacity = sample.size
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

    def _draw_gap(self) -> int:
        """Arrivals to pass over before the next phase-2 inclusion."""
        assert self._rate is not None
        if self._rate >= 1.0:
            return 0
        return self._rng.geometric(self._rate)

    def _enter_phase2_or_3(self) -> None:
        """Phase-1 exit: lines 3-11 of Figure 2."""
        assert self._histogram is not None
        with span("hb.phase2", seen=self._seen):
            self._rate = rate_for_bound(self._population, self._p,
                                        self._bound,
                                        method=self._rate_method)
            subsample = purge_bernoulli(self._histogram, self._rate,
                                        self._rng)
            self._histogram = None
            if OBS.enabled:
                OBS.registry.counter("hb.phase2.enter").inc()
                OBS.registry.gauge("hb.rate.q").set(self._rate)
            if subsample.size < self._bound:
                self._phase = SampleKind.BERNOULLI
                self._pending = subsample
                self._until_next = self._draw_gap()
            else:
                self._pending = purge_reservoir(subsample, self._bound,
                                                self._rng)
                self._enter_phase3()

    def _enter_phase3(self) -> None:
        """Switch to reservoir mode (lines 9-10 / 18-19 of Figure 2)."""
        with span("hb.phase3", seen=self._seen):
            self._phase = SampleKind.RESERVOIR
            self._capacity = self._bound
            self._skips = SkipGenerator(self._capacity, self._rng)
            self._next_insert = self._seen + self._skips.next_skip(self._seen)
        if OBS.enabled:
            OBS.registry.counter("hb.phase3.enter").inc()

    def _expand_pending(self) -> None:
        """Figure 2's expand(S'): leave compact form, once, lazily."""
        assert self._pending is not None
        self._bag = self._pending.expand()
        self._pending = None

    def feed(self, value: T) -> None:
        """Observe one arriving data element (Figure 2's per-arrival body)."""
        self._check_open()
        self._seen += 1
        if self._phase is SampleKind.EXHAUSTIVE:
            assert self._histogram is not None
            self._histogram.insert(value)
            if self._histogram.footprint(self._model) >= self._bound_bytes:
                self._enter_phase2_or_3()
            return
        if self._uniforms is not None:
            self._skips_stale = True
            u = self._uniforms.next()
            if self._phase is SampleKind.BERNOULLI:
                if u < self._rate:
                    self._include((value,))
            elif u * self._seen < self._capacity:
                if self._bag is None:
                    self._expand_pending()
                self._bag[int(u * self._seen)] = value
            return
        if self._phase is SampleKind.BERNOULLI:
            if self._until_next == 0:
                if self._bag is None:
                    self._expand_pending()
                self._bag.append(value)
                self._until_next = self._draw_gap()
                if len(self._bag) >= self._bound:
                    self._enter_phase3()
            else:
                self._until_next -= 1
            return
        # Phase 3: reservoir step.
        if self._seen == self._next_insert:
            if self._bag is None:
                self._expand_pending()
            victim = self._rng.randrange(self._capacity)
            self._bag[victim] = value
            assert self._skips is not None
            self._next_insert = (self._seen
                                 + self._skips.next_skip(self._seen))

    def feed_many(self, values: Iterable[T]) -> None:
        """Observe a batch of values.

        Indexable sequences get fast paths in phases 2 and 3: skip-based
        on the python backend (jumping straight between inclusions), one
        vectorized uniform draw per slice on numpy.  General iterables
        fall back to per-element :meth:`feed`.  Any split into ``feed`` /
        ``feed_many`` calls gives the same sample on either backend.
        """
        self._check_open()
        if isinstance(values, (list, tuple, range)):
            self._feed_sequence(values, uniform=self._uniforms is not None)
        else:
            for v in values:
                self.feed(v)

    def feed_run(self, value: T, count: int) -> None:
        """Observe ``count`` consecutive occurrences of one value.

        This is how the merge procedures stream a compact sample into a
        running sampler without expanding it: cost is O(#inclusions), not
        O(count), once the run's footprint contribution has stabilized.
        """
        self._check_open()
        while count > 0 and self._phase is SampleKind.EXHAUSTIVE:
            self.feed(value)
            count -= 1
            if (self._phase is SampleKind.EXHAUSTIVE and count > 0
                    and self._histogram is not None
                    and self._histogram.count(value) >= 2):
                # Further occurrences of an existing pair cannot change the
                # footprint, so no phase switch can trigger mid-run.
                self._histogram.insert_count(value, count)
                self._seen += count
                count = 0
        if count > 0:
            self._feed_sequence(RepeatedValue(value, count))

    def _feed_sequence(self, values: Sequence[T], *,
                       uniform: bool = False) -> None:
        offset = 0
        n = len(values)
        if self._skips_stale and not uniform:
            self._redraw_skips()
        while offset < n:
            if self._phase is SampleKind.EXHAUSTIVE:
                offset = self._feed_seq_phase1(values, offset)
            elif uniform:
                offset = self._feed_seq_uniform(values, offset)
            elif self._phase is SampleKind.BERNOULLI:
                offset = self._feed_seq_phase2(values, offset)
            else:
                offset = self._feed_seq_phase3(values, offset)

    def _feed_seq_phase1(self, values: Sequence[T], offset: int) -> int:
        assert self._histogram is not None
        pos = self._histogram.fill(values, offset, self._model,
                                   self._bound_bytes)
        self._seen += pos - offset
        if self._histogram.footprint(self._model) >= self._bound_bytes:
            self._enter_phase2_or_3()
        return pos

    def _feed_seq_phase2(self, values: Sequence[T], offset: int) -> int:
        n = len(values)
        pos = offset + self._until_next
        while pos < n:
            if self._bag is None:
                self._expand_pending()
            self._bag.append(values[pos])
            if len(self._bag) >= self._bound:
                self._seen += pos - offset + 1
                self._until_next = self._draw_gap()
                self._enter_phase3()
                return pos + 1
            pos += 1 + self._draw_gap()
        self._until_next = pos - n
        self._seen += n - offset
        return n

    def _feed_seq_phase3(self, values: Sequence[T], offset: int) -> int:
        n = len(values)
        base = self._seen - offset  # stream index of values[0] minus one
        assert self._skips is not None
        while self._next_insert - base <= n:
            if self._bag is None:
                self._expand_pending()
            victim = self._rng.randrange(self._capacity)
            self._bag[victim] = values[self._next_insert - base - 1]
            self._seen = self._next_insert
            self._next_insert = (self._seen
                                 + self._skips.next_skip(self._seen))
        self._seen = base + n
        return n

    def _redraw_skips(self) -> None:
        """Fresh gap or skip state from the current position (both laws
        are memoryless, so discarding the stale state is exact)."""
        if self._phase is SampleKind.BERNOULLI:
            self._until_next = self._draw_gap()
        else:
            self._skips = SkipGenerator(self._capacity, self._rng)
            self._next_insert = (self._seen
                                 + self._skips.next_skip(self._seen))
        self._skips_stale = False

    def _feed_seq_uniform(self, values: Sequence[T], offset: int) -> int:
        """Phase 2 or 3 over up to ``MAX_TAKE`` arrivals, one uniform each.

        Returns where it stopped: the end of the piece, or just past
        the phase-2 inclusion that filled the bag.
        """
        uniforms = self._uniforms
        assert uniforms is not None
        stop = min(len(values), offset + uniforms.MAX_TAKE)
        self._skips_stale = True
        if self._phase is SampleKind.BERNOULLI:
            room = max(1, self._bound - self.sample_size)
            hits = uniforms.bernoulli(offset, stop, self._rate, room)
            if len(hits) == room:
                stop = hits[-1] + 1
            self._seen += stop - offset
            if hits:
                self._include(list(map(values.__getitem__, hits)))
            return stop
        hits, slots = uniforms.reservoir(offset, stop, self._seen,
                                         self._capacity)
        if hits:
            self._replace(list(map(values.__getitem__, hits)), slots)
        self._seen += stop - offset
        return stop

    def _include(self, picked: Sequence[T]) -> None:
        """Phase-2 inclusions; the one that fills the bag enters phase 3."""
        if self._bag is None:
            self._expand_pending()
        self._bag.extend(picked)
        if len(self._bag) >= self._bound:
            self._enter_phase3()

    def _replace(self, picked: List[T], slots: List[int]) -> None:
        """Phase-3 inclusions overwrite their slots, in arrival order."""
        if self._bag is None:
            self._expand_pending()
        deque(map(self._bag.__setitem__, slots, picked), maxlen=0)

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
