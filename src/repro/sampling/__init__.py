"""Sampling primitives: skip generation, Bernoulli/reservoir schemes,
discrete distributions, and the exceedance-rate solver of eq. (1)."""

from repro.sampling.bernoulli import BernoulliSampler
from repro.sampling.distributions import (
    AliasTable,
    hypergeometric_pmf,
    sample_hypergeometric,
    zipf_pmf,
)
from repro.sampling.exceedance import (
    exact_bernoulli_rate,
    normal_approx_rate,
    rate_for_bound,
)
from repro.sampling.reservoir import ReservoirSampler
from repro.sampling.skip import SkipGenerator, VitterZSkips, skip

__all__ = [
    "BernoulliSampler",
    "ReservoirSampler",
    "SkipGenerator",
    "VitterZSkips",
    "skip",
    "AliasTable",
    "hypergeometric_pmf",
    "sample_hypergeometric",
    "zipf_pmf",
    "exact_bernoulli_rate",
    "normal_approx_rate",
    "rate_for_bound",
]
