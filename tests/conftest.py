"""Shared fixtures for the test suite.

All statistical acceptance tests run on fixed seeds (so the suite is
deterministic) with generous significance thresholds: a uniformity test
asserts ``p > ALPHA`` with ``ALPHA = 1e-4``, i.e. it only fails on
overwhelming evidence of non-uniformity — which is exactly what we want
for detecting real bugs without flakiness.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import strategies as st

from repro.core import blocks
from repro.kernels import active_backend
from repro.kernels.python import FenwickTree
from repro.rng import SplittableRng
from repro.sampling.skip import SkipGenerator

#: Significance floor for statistical acceptance tests.
ALPHA = 1e-4


@pytest.fixture()
def rng() -> SplittableRng:
    """A deterministic master RNG, fresh per test."""
    return SplittableRng(987_654_321)


@pytest.fixture(params=[7, 64], ids=lambda size: f"block{size}")
def small_grid(request, monkeypatch):
    """Run the test on a block grid of 7 or 64 arrivals."""
    monkeypatch.setattr(blocks, "BLOCK", request.param)
    return request.param


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


#: One NaN object, so two histograms can share it as a key (a NaN key
#: matches only itself, by identity).
NAN = float("nan")

#: Keys that stress dict semantics: ``1``/``1.0``/``True`` and
#: ``0.0``/``False`` coalesce, every NaN is its own key unless shared.
MIXED_KEYS = st.one_of(
    st.integers(-5, 40),
    st.sampled_from([1, 1.0, True, 0.0, False, NAN, "a", None]),
    st.floats(allow_infinity=False),
    st.text(max_size=2))


def histogram_state(histogram):
    """Pairs in stored order (key objects included), size, singletons."""
    return list(histogram.pairs()), histogram.size, histogram.singletons


def assert_same_state(got, want):
    """Same pairs in the same order with the *same* key objects (which
    tells ``1`` from ``True`` and one NaN from another), same counts,
    size and singletons."""
    got_pairs, got_size, got_singletons = got
    want_pairs, want_size, want_singletons = want
    assert [n for _, n in got_pairs] == [n for _, n in want_pairs]
    assert all(g is w for (g, _), (w, _) in zip(got_pairs, want_pairs)), \
        (got_pairs, want_pairs)
    assert (got_size, got_singletons) == (want_size, want_singletons)


def counter_join(*histograms):
    """The join as the ``Counter.update`` code computed it, in
    :func:`histogram_state` form; size and singletons are recounted.
    The histogram with the most distinct values (the earliest on a tie)
    is the base, updated with the others in order."""
    base = max(range(len(histograms)),
               key=lambda i: histograms[i].distinct)
    merged = Counter(dict(histograms[base].pairs()))
    for i, other in enumerate(histograms):
        if i != base:
            merged.update(dict(other.pairs()))
    counts = list(merged.values())
    return list(merged.items()), sum(counts), counts.count(1)


def loop_moments(sample, value_fn=float):
    """The estimators' moment pass as its per-run loop computed it
    before it became one weighted :func:`repro.kernels.fold_moments`:
    ``x * cnt`` and ``x * x * cnt`` added left to right, run by run."""
    from repro.analytics.estimators import _Moments
    n = sample.size
    total = 0.0
    sum_sq = 0.0
    for value, cnt in sample.histogram.pairs():
        x = value_fn(value)
        total += x * cnt
        sum_sq += x * x * cnt
    mean = total / n if n else 0.0
    variance = 0.0
    if n > 1:
        variance = max(0.0, sum_sq / n - mean * mean) * n / (n - 1)
    return _Moments(n, total, mean, variance, sum_sq)


def dense_binomial_counts(counts, q, rng):
    """Figure 3's kept count per run, zeros included, as the active
    backend drew it before its kernel returned only the survivors."""
    if active_backend() == "python":
        return [rng.binomial(n, q) for n in counts]
    import numpy as np
    arr = np.asarray(list(counts), dtype=np.int64)
    if arr.size == 0:
        return []
    gen = np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
    return gen.binomial(arr, q).tolist()


def dense_srs_counts(runs, size, rng):
    """Figure 4's kept count per run, zeros included, as the active
    backend drew it before its kernel returned only the survivors."""
    runs = list(runs)
    if size == 0:
        return [0] * len(runs)
    if size == sum(runs):
        return runs
    if active_backend() != "python":
        import numpy as np
        gen = np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
        return gen.multivariate_hypergeometric(
            np.asarray(runs, dtype=np.int64), size, method="count").tolist()
    tree = FenwickTree(len(runs))
    skips = SkipGenerator(size, rng)
    included, boundary, next_insert = 0, 0, 1
    for position, run in enumerate(runs):
        boundary += run
        while next_insert <= boundary:
            if included == size:
                victim = tree.find_by_rank(rng.randrange(size) + 1)
                tree.add(victim, -1)
                included -= 1
            tree.add(position, 1)
            included += 1
            next_insert += skips.next_skip(next_insert)
    return tree.counts()


def dense_purge_state(histogram, kept):
    """A purge's result from a dense kept-count vector, assembled as the
    ``from_unique_counts`` code did, in :func:`histogram_state` form."""
    pairs = [(v, n) for (v, _), n in zip(histogram.pairs(), kept) if n]
    counts = [n for _, n in pairs]
    return pairs, sum(counts), counts.count(1)
