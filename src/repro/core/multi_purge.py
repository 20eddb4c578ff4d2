"""The multiple-purge Bernoulli variant (Section 4.1) — an ablation.

Section 4.1 sketches a variant of Algorithm HB that *eliminates phase 3*:
whenever the phase-2 sample hits the bound ``n_F``, the sampler purges
again with an ever smaller rate ``q`` instead of switching to reservoir
mode.  The paper argues (without experiments) that this variant is
dominated by Algorithm HB: it is "somewhat more expensive on average, and
the final sample sizes would tend to be smaller and less stable".

We implement it so the claim can be tested — see
``benchmarks/bench_ablation_multipurge.py``, which measures exactly the
cost and sample-size stability comparison the paper asserts.

The produced sample is labelled ``scheme="hb-mp"``; like HB's phase-2
output it is a (conditional) Bernoulli sample and merges through
:func:`repro.core.merge.hb_merge`.
"""

from __future__ import annotations

from typing import Iterable, Optional, TypeVar

from repro.core.footprint import DEFAULT_MODEL, FootprintModel
from repro.core.histogram import CompactHistogram
from repro.core.phases import SampleKind
from repro.core.purge import purge_bernoulli
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError, ProtocolError
from repro.rng import SplittableRng
from repro.sampling.exceedance import rate_for_bound

__all__ = ["MultiPurgeBernoulli"]

T = TypeVar("T")


class MultiPurgeBernoulli:
    """Phase-3-free Algorithm HB: repeated Bernoulli purging (Section 4.1).

    Parameters
    ----------
    population_size:
        The partition size ``N`` (needed, as in HB, to pick the initial
        phase-2 rate).
    bound_values:
        The sample-size bound ``n_F``; alternatively ``footprint_bytes``.
    exceedance_p:
        Exceedance target for the initial rate.
    purge_decay:
        Extra multiplicative rate reduction applied at each repeat purge
        (``q <- q * purge_decay``); must be in ``(0, 1)``.

    Examples
    --------
    >>> from repro.rng import SplittableRng
    >>> mp = MultiPurgeBernoulli(100_000, bound_values=256,
    ...                          rng=SplittableRng(11))
    >>> mp.feed_many(range(100_000))
    >>> s = mp.finalize()
    >>> s.size <= 256
    True
    """

    def __init__(self, population_size: int,
                 bound_values: Optional[int] = None, *,
                 footprint_bytes: Optional[int] = None,
                 exceedance_p: float = 0.001,
                 purge_decay: float = 0.8,
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
        if not 0.0 < purge_decay < 1.0:
            raise ConfigurationError(
                f"purge_decay must be in (0, 1), got {purge_decay}")
        self._population = population_size
        self._bound = bound_values
        self._bound_bytes = model.footprint_for_values(bound_values)
        self._p = exceedance_p
        self._decay = purge_decay
        self._rng = rng if rng is not None else SplittableRng()
        self._model = model

        self._exhaustive = True
        self._histogram = CompactHistogram()
        self._rate = 1.0
        self._seen = 0
        self._until_next = 0
        self._purges = 0
        self._finalized = False

    @property
    def rate(self) -> float:
        """Current admission rate (1.0 while exhaustive)."""
        return self._rate

    @property
    def purge_count(self) -> int:
        """Number of purges executed (diagnostic for the ablation)."""
        return self._purges

    @property
    def seen(self) -> int:
        """Number of elements observed."""
        return self._seen

    @property
    def sample_size(self) -> int:
        """Current number of data elements in the sample."""
        return self._histogram.size

    def _check_open(self) -> None:
        if self._finalized:
            raise ProtocolError("sampler already finalized")

    def _draw_gap(self) -> int:
        if self._rate >= 1.0:
            return 0
        return self._rng.geometric(self._rate)

    def _first_purge(self) -> None:
        """Exhaustive -> Bernoulli transition, same rate choice as HB."""
        self._rate = rate_for_bound(self._population, self._p, self._bound)
        self._histogram = purge_bernoulli(self._histogram, self._rate,
                                          self._rng)
        self._exhaustive = False
        self._purges += 1
        self._until_next = self._draw_gap()
        self._shrink_until_bounded()

    def _shrink_until_bounded(self) -> None:
        """Repeat purges until the sample is strictly under the bound."""
        while self._histogram.size >= self._bound:
            new_rate = self._rate * self._decay
            self._histogram = purge_bernoulli(
                self._histogram, new_rate / self._rate, self._rng)
            self._rate = new_rate
            self._purges += 1
            self._until_next = self._draw_gap()

    def feed(self, value: T) -> None:
        """Observe one arriving data element."""
        self._check_open()
        self._seen += 1
        if self._exhaustive:
            self._histogram.insert(value)
            if self._histogram.footprint(self._model) >= self._bound_bytes:
                self._first_purge()
            return
        if self._until_next == 0:
            self._histogram.insert(value)
            self._until_next = self._draw_gap()
            self._shrink_until_bounded()
        else:
            self._until_next -= 1

    def feed_many(self, values: Iterable[T]) -> None:
        """Observe a batch of values."""
        for v in values:
            self.feed(v)

    def finalize(self) -> WarehouseSample:
        """Close the sampler and return the (conditional) Bernoulli sample."""
        self._check_open()
        if self._seen > self._population:
            raise ProtocolError(
                f"saw {self._seen} elements but population was declared as "
                f"{self._population}")
        self._finalized = True
        if self._exhaustive:
            return WarehouseSample(
                histogram=self._histogram,
                kind=SampleKind.EXHAUSTIVE,
                population_size=self._seen,
                bound_values=self._bound,
                scheme="hb-mp",
                exceedance_p=self._p,
                model=self._model,
            )
        return WarehouseSample(
            histogram=self._histogram,
            kind=SampleKind.BERNOULLI,
            population_size=self._seen,
            bound_values=self._bound,
            rate=self._rate,
            scheme="hb-mp",
            exceedance_p=self._p,
            model=self._model,
        )
