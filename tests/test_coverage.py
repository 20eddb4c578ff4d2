"""Confidence-interval coverage validation.

An interval estimator is only as good as its coverage: a nominal 95%
interval must contain the truth in ~95% of repeated samples.  These
tests measure empirical coverage over many independent samples with
fixed seeds and assert it lands in a generous band around nominal
(binomial noise over the trial count is accounted for).
"""

from __future__ import annotations

from repro.analytics.estimators import (StratifiedSample, estimate_avg,
                                        estimate_count, estimate_sum)
from repro.core.hybrid_bernoulli import AlgorithmHB
from repro.core.hybrid_reservoir import AlgorithmHR
from repro.rng import SplittableRng

TRIALS = 120
CONFIDENCE = 0.95
# 95% nominal with 120 trials: sd ~ 2%; accept [86%, 100%].
LOW_BAND = 0.86


def _coverage(sample_fn, estimate_fn, truth) -> float:
    hits = 0
    for t in range(TRIALS):
        est = estimate_fn(sample_fn(t))
        if est.ci_low <= truth <= est.ci_high:
            hits += 1
    return hits / TRIALS


class TestReservoirCoverage:
    POP = list(range(30_000))

    def _sample(self, t):
        hr = AlgorithmHR(bound_values=512,
                         rng=SplittableRng(9_000 + t))
        hr.feed_many(self.POP)
        return hr.finalize()

    def test_avg_coverage(self):
        truth = sum(self.POP) / len(self.POP)
        cov = _coverage(self._sample,
                        lambda s: estimate_avg(s, confidence=CONFIDENCE),
                        truth)
        assert cov >= LOW_BAND, f"AVG coverage {cov:.2%}"

    def test_sum_coverage(self):
        truth = float(sum(self.POP))
        cov = _coverage(self._sample,
                        lambda s: estimate_sum(s, confidence=CONFIDENCE),
                        truth)
        assert cov >= LOW_BAND, f"SUM coverage {cov:.2%}"

    def test_count_where_coverage(self):
        truth = 10_000.0
        cov = _coverage(
            self._sample,
            lambda s: estimate_count(s, where=lambda v: v < 10_000,
                                     confidence=CONFIDENCE),
            truth)
        assert cov >= LOW_BAND, f"COUNT coverage {cov:.2%}"


class TestBernoulliCoverage:
    POP = list(range(30_000))

    def _sample(self, t):
        hb = AlgorithmHB(len(self.POP), bound_values=512,
                         rng=SplittableRng(7_000 + t))
        hb.feed_many(self.POP)
        return hb.finalize()

    def test_count_coverage(self):
        truth = float(len(self.POP))
        cov = _coverage(self._sample,
                        lambda s: estimate_count(s,
                                                 confidence=CONFIDENCE),
                        truth)
        assert cov >= LOW_BAND, f"COUNT coverage {cov:.2%}"

    def test_sum_coverage(self):
        truth = float(sum(self.POP))
        cov = _coverage(self._sample,
                        lambda s: estimate_sum(s, confidence=CONFIDENCE),
                        truth)
        assert cov >= LOW_BAND, f"SUM coverage {cov:.2%}"


class TestStratifiedCoverage:
    def test_avg_coverage(self):
        # One frozen dataset; only the sampling randomness varies across
        # trials, so the truth is a constant.
        data_rng = SplittableRng(424_242)
        datasets = [[i * 50_000 + data_rng.randrange(10_000)
                     for _ in range(5_000)] for i in range(4)]
        truth = sum(sum(d) for d in datasets) / 20_000

        def sample(t):
            rng = SplittableRng(3_000 + t)
            strata = []
            for i, data in enumerate(datasets):
                hr = AlgorithmHR(bound_values=128, rng=rng.spawn(i))
                hr.feed_many(data)
                strata.append(hr.finalize())
            return StratifiedSample(strata)

        cov = _coverage(sample,
                        lambda s: s.estimate_avg(confidence=CONFIDENCE),
                        truth)
        assert cov >= LOW_BAND, f"stratified AVG coverage {cov:.2%}"
