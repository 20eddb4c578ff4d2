"""Shared fixtures for the test suite.

All statistical acceptance tests run on fixed seeds (so the suite is
deterministic) with generous significance thresholds: a uniformity test
asserts ``p > ALPHA`` with ``ALPHA = 1e-4``, i.e. it only fails on
overwhelming evidence of non-uniformity — which is exactly what we want
for detecting real bugs without flakiness.
"""

from __future__ import annotations

import pytest

from repro.rng import SplittableRng

#: Significance floor for statistical acceptance tests.
ALPHA = 1e-4


@pytest.fixture()
def rng() -> SplittableRng:
    """A deterministic master RNG, fresh per test."""
    return SplittableRng(987_654_321)


def sample_fingerprint(sample):
    """Kind, rate, population and pairs in stored order (key types too,
    since ``1 == 1.0 == True``): what byte-identity tests compare."""
    return (sample.kind, sample.rate, sample.population_size,
            [(type(v), repr(v), n) for v, n in sample.histogram.pairs()])


def feed_per_arrival(sampler, values):
    """Feed one value at a time; return the finished sample's fingerprint
    and how many arrivals the sampler took in phase 1 (``None`` if it
    never left it)."""
    phase1 = sampler.phase
    exit_at = None
    for i, value in enumerate(values):
        sampler.feed(value)
        if exit_at is None and sampler.phase is not phase1:
            exit_at = i + 1
    return sample_fingerprint(sampler.finalize()), exit_at


def split_plans(exit_at, n, rng):
    """Cut lists for ``feed_many``: around the phase-1 exit, at random
    points, and no cut at all."""
    plans = [[], sorted(rng.randrange(n + 1) for _ in range(5))]
    if exit_at is not None:
        plans += [[cut] for cut in (exit_at - 1, exit_at, exit_at + 1)
                  if 0 <= cut <= n]
    return plans


def feed_in_slices(sampler, values, cuts):
    """``feed_many`` over ``values`` split at ``cuts``; the fingerprint."""
    prev = 0
    for cut in list(cuts) + [len(values)]:
        sampler.feed_many(values[prev:cut])
        prev = cut
    return sample_fingerprint(sampler.finalize())


def feed_shape(name, n, seed):
    """``n`` arrivals: few distinct values, all distinct, or mixed keys
    (``1``/``1.0``/``True`` and strings among ints)."""
    rng = SplittableRng(seed)
    if name == "lowcard":
        return [rng.randrange(80) for _ in range(n)]
    if name == "distinct":
        return list(range(n))
    return [(1, 1.0, True, "a")[rng.randrange(4)] if rng.random() < 0.3
            else rng.randrange(200) for _ in range(n)]
