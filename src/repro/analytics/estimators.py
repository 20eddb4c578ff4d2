"""Estimators over warehouse samples.

The warehouse exists so that analytical queries can be answered quickly
from samples [9, 10, 19].  Each estimator consumes a
:class:`~repro.core.sample.WarehouseSample` and exploits its kind:

* **exhaustive** samples answer exactly (zero-width intervals);
* **Bernoulli(q)** samples scale by Horvitz–Thompson ``1/q``;
* **reservoir** (simple random) samples scale by ``N/n`` with the
  finite-population correction in their variance.

All interval-producing estimators return an :class:`Estimate` with a
normal-approximation confidence interval; the merge-all, stratified
and planner paths share one moment pass, one stratum variance and one
interval builder.  Distinct-value estimation —
the metadata-discovery workhorse — gets the classical Chao and GEE
estimators, both computed directly from the compact histogram's
frequency-of-frequencies (a free by-product of the storage format).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, \
    Tuple

from repro.core.phases import SampleKind
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError
from repro.kernels import fold_moments
from repro.warehouse.synopsis import PartitionSynopsis

__all__ = ["Estimate", "estimate_count", "estimate_sum", "estimate_avg",
           "estimate_quantile", "stratified_partition_estimate",
           "StratifiedSample",
           "frequency_of_frequencies", "chao_distinct",
           "gee_distinct", "naive_distinct"]

_NORMAL = NormalDist()


@dataclass(frozen=True)
class Estimate:
    """A point estimate with a symmetric normal-approximation interval.

    ``sample_size`` / ``population_size`` are carried when the
    producing estimator knows them (the stratified planner path always
    does); ``None`` keeps older call sites unchanged.
    """

    value: float
    ci_low: float
    ci_high: float
    confidence: float
    exact: bool = False
    sample_size: Optional[int] = None
    population_size: Optional[int] = None

    @property
    def half_width(self) -> float:
        """Half the interval width."""
        return (self.ci_high - self.ci_low) / 2.0

    def to_dict(self) -> dict:
        """JSON-serializable form (the served ``/estimate`` payload)."""
        data = {
            "value": self.value,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "half_width": self.half_width,
            "confidence": self.confidence,
            "exact": self.exact,
        }
        if self.sample_size is not None:
            data["sample_size"] = self.sample_size
        if self.population_size is not None:
            data["population_size"] = self.population_size
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.exact:
            return f"Estimate({self.value:g}, exact)"
        return (f"Estimate({self.value:g} "
                f"[{self.ci_low:g}, {self.ci_high:g}] "
                f"@{self.confidence:.0%})")


def _z(confidence: float) -> float:
    """Two-sided normal quantile; the one ``confidence`` check."""
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}")
    return _NORMAL.inv_cdf(0.5 + confidence / 2.0)


def _interval(value: float, std_err: float, confidence: float,
              exact: bool = False, sample_size: Optional[int] = None,
              population_size: Optional[int] = None) -> Estimate:
    """``value ± z·std_err`` (zero width when exact or no spread)."""
    z = _z(confidence)
    low = high = value
    if not exact and std_err != 0.0:
        half = z * std_err
        low, high = value - half, value + half
    return Estimate(value, low, high, confidence, exact=exact,
                    sample_size=sample_size,
                    population_size=population_size)


class _Moments(NamedTuple):
    n: int
    total: float      # Σ x·count
    mean: float
    variance: float   # n-1 denominator
    sum_sq: float     # Σ x²·count


def _moments(sample: WarehouseSample,
             value_fn: Callable[[object], float] = float) -> _Moments:
    """One weighted fold over the sample's ``(value, count)`` runs.

    :func:`~repro.kernels.fold_moments` takes the distinct values and
    their counts as they are stored and adds ``x * count`` and
    ``x * x * count`` strictly left to right, not through builtin
    ``sum``, which compensates on Python 3.12+: an answer must not
    depend on the interpreter version, nor on the kernel backend.
    ``value_fn`` runs here, so its own errors surface unchanged; what
    it returns (an int or a numpy scalar included) enters as
    ``float(x)``, and ``float`` itself is left to the kernel.  With
    ``float`` the fold reads the histogram's float view
    (:meth:`~repro.core.histogram.CompactHistogram.float_view`), so a
    stored sample's keys and counts are converted once, not per query;
    keys without a view are folded as they are.
    """
    n = sample.size
    histogram = sample.histogram
    view = histogram.float_view() if value_fn is float else None
    if view is None:
        keys = histogram.value_list()
        view = (keys if value_fn is float else list(map(value_fn, keys)),
                histogram.run_lengths())
    values, runs = view
    total, sum_sq, _, _ = fold_moments(values, 0.0, 0.0, None, None,
                                       counts=runs)
    mean = total / n if n else 0.0
    variance = 0.0
    if n > 1:
        variance = max(0.0, sum_sq / n - mean * mean) * n / (n - 1)
    return _Moments(n, total, mean, variance, sum_sq)


def _stratum_variance(population: int, variance: float, n: int) -> float:
    """Variance of one stratum's expanded total ``N·mean`` estimated
    from ``n`` of its ``N`` values: ``N² s²/n`` times the
    finite-population correction ``1 − n/N``."""
    fpc = max(0.0, 1.0 - n / max(1, population))
    return population ** 2 * variance / n * fpc


Predicate = Callable[[object], bool]


def estimate_count(sample: WarehouseSample, *,
                   where: Optional[Predicate] = None,
                   confidence: float = 0.95) -> Estimate:
    """Estimated number of population elements satisfying ``where``.

    With no predicate the count of an exhaustive/reservoir sample is the
    (known) population size; a Bernoulli sample yields the
    Horvitz–Thompson estimate ``|S| / q``.
    """
    n = sample.size
    hits = n if where is None else sum(
        cnt for v, cnt in sample.histogram.pairs() if where(v))
    if sample.kind is SampleKind.EXHAUSTIVE:
        return _interval(float(hits), 0.0, confidence, exact=True)
    if sample.kind is SampleKind.BERNOULLI:
        assert sample.rate is not None
        q = sample.rate
        value = hits / q
        std_err = math.sqrt(hits * (1.0 - q)) / q
        return _interval(value, std_err, confidence)
    # Reservoir: proportion estimator with finite-population correction.
    big_n = sample.population_size
    if where is None:
        return _interval(float(big_n), 0.0, confidence, exact=True)
    if n == 0:
        return _interval(0.0, 0.0, confidence)
    p_hat = hits / n
    fpc = max(0.0, 1.0 - n / big_n)
    std_err = big_n * math.sqrt(p_hat * (1.0 - p_hat) / n * fpc)
    return _interval(big_n * p_hat, std_err, confidence)


def estimate_sum(sample: WarehouseSample, *,
                 value_fn: Callable[[object], float] = float,
                 confidence: float = 0.95) -> Estimate:
    """Estimated population total of ``value_fn(v)``."""
    m = _moments(sample, value_fn)
    if sample.kind is SampleKind.EXHAUSTIVE:
        return _interval(m.total, 0.0, confidence, exact=True)
    if sample.kind is SampleKind.BERNOULLI:
        assert sample.rate is not None
        q = sample.rate
        std_err = math.sqrt(max(0.0, m.sum_sq * (1.0 - q))) / q
        return _interval(m.total / q, std_err, confidence)
    if m.n == 0:
        return _interval(0.0, 0.0, confidence)
    big_n = sample.population_size
    std_err = math.sqrt(_stratum_variance(big_n, m.variance, m.n))
    return _interval(big_n * m.mean, std_err, confidence)


def estimate_avg(sample: WarehouseSample, *,
                 value_fn: Callable[[object], float] = float,
                 confidence: float = 0.95) -> Estimate:
    """Estimated population mean of ``value_fn(v)``.

    For all three kinds the sample mean is (conditionally) unbiased; the
    interval uses the sample variance with a finite-population correction
    for reservoir samples.
    """
    m = _moments(sample, value_fn)
    if m.n == 0:
        raise ConfigurationError("cannot average an empty sample")
    if sample.kind is SampleKind.EXHAUSTIVE:
        return _interval(m.mean, 0.0, confidence, exact=True)
    if sample.kind is SampleKind.RESERVOIR:
        big_n = sample.population_size
        variance = (_stratum_variance(big_n, m.variance, m.n)
                    / float(big_n) ** 2)
    else:
        variance = m.variance / m.n
    return _interval(m.mean, math.sqrt(variance), confidence)


def estimate_quantile(sample: WarehouseSample, fraction: float, *,
                      value_fn: Callable[[object], float] = float) -> float:
    """The sample ``fraction``-quantile (a consistent estimator of the
    population quantile for every uniform sample kind)."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError(
            f"fraction must be in [0, 1], got {fraction}")
    if sample.size == 0:
        raise ConfigurationError("cannot take a quantile of an empty sample")
    ordered = sorted(
        ((value_fn(v), cnt) for v, cnt in sample.histogram.pairs()),
        key=lambda item: item[0])
    target = fraction * (sample.size - 1)
    acc = 0
    for value, cnt in ordered:
        acc += cnt
        if acc - 1 >= target:
            return value
    return ordered[-1][0]


# ----------------------------------------------------------------------
# Stratified estimation (the planner's estimator, Section 4.1)
# ----------------------------------------------------------------------
def stratified_partition_estimate(
        agg: str, *,
        sampled: Sequence[Tuple[int, WarehouseSample]] = (),
        synopses: Sequence[PartitionSynopsis] = (),
        value_fn: Callable[[object], float] = float,
        confidence: float = 0.95,
        variance_scale: float = 1.0) -> Estimate:
    """Full-population estimate combining samples and synopses.

    Each partition is one stratum (``docs/aqp.md``).  The strata the
    plan *selected* arrive in ``sampled`` as ``(N_h, sample)`` pairs
    and contribute the classical stratified expansion ``N_h · mean_h``
    of ``value_fn`` with variance ``N_h² s_h² / n_h``
    (finite-population corrected); the *unselected* strata arrive as
    their catalog synopses and contribute their summary totals of the
    raw values — with zero variance when exact, or with the scale-up
    variance ``N_h² σ̂_h² / m_h`` (fpc over the ``m_h``-value basis)
    when sample-estimated.  The point estimate therefore always covers
    the full population, whatever subset the planner chose to read.

    ``agg`` is ``"count"``, ``"sum"``, or ``"avg"``.  Counts need no
    samples at all: per-partition parent sizes are catalog facts.
    ``variance_scale`` multiplies the combined variance before the
    interval is formed — the hook the testkit's negative coverage
    control uses to inject a deliberately overconfident CI.
    """
    if agg not in ("count", "sum", "avg"):
        raise ConfigurationError(
            f"unknown aggregate {agg!r}; expected count, sum, or avg")
    if variance_scale <= 0.0:
        raise ConfigurationError(
            f"variance_scale must be positive, got {variance_scale}")
    big_n = sum(n for n, _ in sampled) + sum(s.count for s in synopses)
    observed = (sum(s.size for _, s in sampled)
                + sum(s.basis for s in synopses if not s.exact))
    if agg == "count":
        return Estimate(float(big_n), float(big_n), float(big_n),
                        confidence, exact=True,
                        sample_size=observed, population_size=big_n)
    if not sampled and not synopses:
        raise ConfigurationError("no strata to estimate from")

    total = 0.0
    variance = 0.0
    # Exact only when every stratum is known whole: an exhaustive
    # sample or an exact synopsis.  A zero variance is not enough — a
    # reservoir whose values happen to be equal has one too.
    exact = True
    for population, sample in sampled:
        if sample.size == 0:
            if population > 0:
                raise ConfigurationError(
                    "cannot estimate from an empty stratum sample "
                    "with a non-empty parent")
            continue
        m = _moments(sample, value_fn)
        total += population * m.mean
        if sample.kind is not SampleKind.EXHAUSTIVE:
            exact = False
            variance += _stratum_variance(population, m.variance, m.n)
    for synopsis in synopses:
        if synopsis.count == 0:
            continue
        if not synopsis.numeric:
            raise ConfigurationError(
                "a non-numeric synopsis cannot answer a numeric "
                "aggregate; the planner should have fallen back")
        total += synopsis.total
        if not synopsis.exact:
            exact = False
            if synopsis.basis <= 0:
                raise ConfigurationError(
                    "an estimated synopsis with no observed basis "
                    "cannot contribute; the planner should have "
                    "fallen back")
            variance += _stratum_variance(synopsis.count,
                                          synopsis.variance, synopsis.basis)
    variance *= variance_scale

    if agg == "avg":
        if big_n == 0:
            raise ConfigurationError("cannot average an empty population")
        total /= big_n
        variance /= float(big_n) ** 2
    return _interval(total, math.sqrt(variance), confidence,
                     exact=exact, sample_size=observed,
                     population_size=big_n)


class StratifiedSample:
    """Per-partition samples kept separate, with stratified estimators.

    Section 4.1: HB/HR samples "can also be simply concatenated,
    yielding a stratified random sample".  Weighting each stratum by
    its exact parent size removes the between-strata variance, which
    pays off when partition means differ (e.g. temporal drift).  The
    estimators are :func:`stratified_partition_estimate`.

    Parameters
    ----------
    strata:
        Per-partition :class:`WarehouseSample` objects (disjoint parents).

    Examples
    --------
    >>> from repro import AlgorithmHR, SplittableRng
    >>> rng = SplittableRng(0)
    >>> strata = []
    >>> for lo in (0, 1000):
    ...     hr = AlgorithmHR(bound_values=64, rng=rng.spawn(lo))
    ...     hr.feed_many(list(range(lo, lo + 1000)))
    ...     strata.append(hr.finalize())
    >>> s = StratifiedSample(strata)
    >>> s.population_size
    2000
    """

    def __init__(self, strata: Sequence[WarehouseSample]) -> None:
        if not strata:
            raise ConfigurationError(
                "a stratified sample needs at least one stratum")
        self._strata = list(strata)

    @property
    def strata(self) -> List[WarehouseSample]:
        """The per-partition samples."""
        return list(self._strata)

    @property
    def num_strata(self) -> int:
        """Number of strata."""
        return len(self._strata)

    @property
    def population_size(self) -> int:
        """Total parent elements across strata."""
        return sum(s.population_size for s in self._strata)

    @property
    def size(self) -> int:
        """Total sampled elements across strata."""
        return sum(s.size for s in self._strata)

    def values(self) -> List[object]:
        """The concatenated bag of sampled values (Section 4.1's
        'simply concatenated' stratified sample)."""
        out: List[object] = []
        for s in self._strata:
            out.extend(s.values())
        return out

    def _sampled(self) -> List[Tuple[int, WarehouseSample]]:
        return [(s.population_size, s) for s in self._strata]

    def estimate_sum(self, *,
                     value_fn: Callable[[object], float] = float,
                     confidence: float = 0.95) -> Estimate:
        """Stratified total: ``Σ_h N_h · mean_h`` with per-stratum fpc."""
        return stratified_partition_estimate(
            "sum", sampled=self._sampled(), value_fn=value_fn,
            confidence=confidence)

    def estimate_avg(self, *,
                     value_fn: Callable[[object], float] = float,
                     confidence: float = 0.95) -> Estimate:
        """Stratified mean: the stratified total over the known N."""
        return stratified_partition_estimate(
            "avg", sampled=self._sampled(), value_fn=value_fn,
            confidence=confidence)

    def estimate_count(self, *,
                       where: Callable[[object], bool],
                       confidence: float = 0.95) -> Estimate:
        """Stratified count of elements satisfying ``where``."""
        return stratified_partition_estimate(
            "sum", sampled=self._sampled(),
            value_fn=lambda v: 1.0 if where(v) else 0.0,
            confidence=confidence)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StratifiedSample(strata={self.num_strata}, "
                f"size={self.size}, population={self.population_size})")


# ----------------------------------------------------------------------
# Distinct-value estimation
# ----------------------------------------------------------------------
def frequency_of_frequencies(sample: WarehouseSample) -> Dict[int, int]:
    """``f_i``: how many values occur exactly ``i`` times in the sample."""
    freq: Dict[int, int] = {}
    for _v, cnt in sample.histogram.pairs():
        freq[cnt] = freq.get(cnt, 0) + 1
    return freq


def naive_distinct(sample: WarehouseSample) -> float:
    """Scale-up estimator ``d * N / n`` — biased, shown for contrast."""
    if sample.size == 0:
        return 0.0
    if sample.kind is SampleKind.EXHAUSTIVE:
        return float(sample.distinct)
    return sample.distinct * sample.population_size / sample.size


def chao_distinct(sample: WarehouseSample) -> float:
    """Chao (1984) lower-bound estimator ``d + f1^2 / (2 f2)``.

    The estimate is clamped to the (known) population size: no
    population can have more distinct values than elements, and the
    ``f2 = 0`` bias-corrected fallback otherwise explodes on
    all-singleton samples (e.g. a reservoir sample of a key column).
    """
    if sample.kind is SampleKind.EXHAUSTIVE:
        return float(sample.distinct)
    freq = frequency_of_frequencies(sample)
    f1 = freq.get(1, 0)
    f2 = freq.get(2, 0)
    if f2 == 0:
        # Standard bias-corrected fallback.
        estimate = sample.distinct + f1 * (f1 - 1) / 2.0
    else:
        estimate = sample.distinct + (f1 * f1) / (2.0 * f2)
    return min(estimate, float(sample.population_size))


def gee_distinct(sample: WarehouseSample) -> float:
    """Guaranteed-Error Estimator (Charikar et al. 2000):
    ``sqrt(N/n) * f1 + sum_{i>=2} f_i``, clamped to the population size."""
    if sample.kind is SampleKind.EXHAUSTIVE:
        return float(sample.distinct)
    n = sample.size
    if n == 0:
        return 0.0
    freq = frequency_of_frequencies(sample)
    f1 = freq.get(1, 0)
    rest = sum(c for i, c in freq.items() if i >= 2)
    estimate = math.sqrt(sample.population_size / n) * f1 + rest
    return min(estimate, float(sample.population_size))
