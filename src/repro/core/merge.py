"""Merging partition samples into uniform samples of partition unions.

This module implements the paper's two merge procedures plus the plumbing
a warehouse needs around them:

* :func:`hb_merge` — Figure 6 (``HBMerge``).  Merges two Algorithm-HB
  samples of disjoint partitions.  The common fast path (both inputs
  Bernoulli) equalizes rates by Bernoulli purging and joins the compact
  histograms; overflow falls back to a reservoir subsample of the
  concatenation; an exhaustive input is one block step of an Algorithm
  HB resumed from the other input.
* :func:`hr_merge` — Figure 8 (``HRMerge``).  Merges two simple random
  samples by drawing the take-from-the-first count ``L`` from the
  hypergeometric law of eq. (2) (Theorem 1: the result is a simple random
  sample of size ``k = min(|S1|, |S2|)`` from the union).
* :func:`merge_samples` — scheme-aware dispatch used by the warehouse.
* :func:`sb_union` — Algorithm SB's plain union (with rate equalization
  when partitions were sampled at different rates).
* :func:`merge_tree` — fold many per-partition samples into one.  Proper
  HR reservoirs merge at once (Theorem 1 over m partitions: one
  allocation draw, one purge per input, one join); other inputs fold
  over a balanced binary plan whose nodes draw from independent RNG
  substreams (``rng.spawn("merge", level, index)``).  Either way the
  merged sample is a pure function of the inputs and the seed.

All merges require the parent partitions to be **disjoint**; the library
cannot verify disjointness from the samples alone, so the warehouse layer
is responsible for only merging samples of distinct partitions.

The randomized inner loops (the eq. (2) draw here, the purges it calls)
dispatch through :mod:`repro.kernels`, so a merge runs vectorized on
the numpy backend and byte-identically to the historical code on the
pure-Python fallback; see docs/performance.md.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.histogram import CompactHistogram
from repro.core.hybrid_bernoulli import AlgorithmHB
from repro.core.hybrid_reservoir import AlgorithmHR
from repro.core.phases import SampleKind
from repro.core.purge import (purge_bernoulli, purge_reservoir_concat,
                              purge_reservoir_tally)
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError, IncompatibleSamplesError
from repro.kernels import draw_allocation, draw_hypergeometric
from repro.obs.clock import monotonic
from repro.obs.runtime import OBS
from repro.obs.tracing import traced
from repro.rng import SplittableRng
from repro.sampling.distributions import CachedHypergeometric
from repro.sampling.exceedance import rate_for_bound

__all__ = ["hb_merge", "hr_merge", "merge_samples", "sb_union", "merge_tree",
           "merge_cap"]

MergeFn = Callable[[WarehouseSample, WarehouseSample], WarehouseSample]


def merge_cap(size1: int, population1: int, size2: int,
              population2: int) -> int:
    """The largest HRMerge target ``k`` Theorem 1 supports.

    ``L`` ranges over ``max(0, k - N2) .. min(k, N1)``, and each input
    must hold the values drawn from it.  A proper sample (``|S| < N``)
    therefore caps ``k`` at its size, which gives the paper's
    ``min(|S1|, |S2|)`` for two of them.  An input that holds its whole
    partition (``|S| = N``) always holds its share, so it lifts its own
    cap: with an exhaustive right input of ``b`` values ``k <= |S1|``,
    and ``k <= |S1| + b`` when the left input is exhaustive too.  The
    samplers' block steps are the exhaustive-right case
    (:mod:`repro.core.blocks`).
    """
    cap = population1 + population2
    if size1 < population1:
        cap = min(cap, size1)
    if size2 < population2:
        cap = min(cap, size2)
    return cap


def _check_compatible(s1: WarehouseSample, s2: WarehouseSample) -> None:
    if s1.model != s2.model:
        raise IncompatibleSamplesError(
            f"samples use different footprint models: {s1.model} vs "
            f"{s2.model}")
    if s1.bound_values != s2.bound_values:
        raise IncompatibleSamplesError(
            f"samples have different bounds: n_F={s1.bound_values} vs "
            f"{s2.bound_values}; re-bound one of them before merging")


@traced("merge.hb", timer="merge.hb.seconds")
def hb_merge(s1: WarehouseSample, s2: WarehouseSample, *,
             rng: SplittableRng,
             hyper_cache: Optional[CachedHypergeometric] = None
             ) -> WarehouseSample:
    """Figure 6: merge two Algorithm-HB samples of disjoint partitions.

    Parameters
    ----------
    s1, s2:
        The input samples.  Any combination of kinds is accepted.
    rng:
        Randomness source for the purges and draws.
    hyper_cache:
        Optional alias-table cache for the reservoir fallback path.

    Returns a sample of the union with ``scheme="hb"``.  The recomputed
    rate targets the smaller of the inputs' exceedance probabilities.
    """
    _check_compatible(s1, s2)
    if OBS.enabled:
        OBS.registry.counter("merge.hb").inc()
    p = min(s1.exceedance_p, s2.exceedance_p)
    total = s1.population_size + s2.population_size
    bound = s1.bound_values

    # Lines 1-4: at least one exhaustive sample -> stream it through a
    # resumed Algorithm HB initialized with the other sample.
    if s1.kind.is_exhaustive or s2.kind.is_exhaustive:
        exhaustive, other = (s1, s2) if s1.kind.is_exhaustive else (s2, s1)
        sampler = AlgorithmHB.resume(other, total, rng=rng)
        sampler.feed_exhaustive(exhaustive.histogram)
        return sampler.finalize().with_scheme("hb")

    # Lines 5-7: at least one reservoir sample -> hypergeometric merge
    # (the non-reservoir input is viewed as a conditional SRS of its size).
    if s1.kind.is_reservoir or s2.kind.is_reservoir:
        return hr_merge(s1, s2, rng=rng, cache=hyper_cache,
                        scheme="hb")

    # Lines 8-16: both Bernoulli.
    assert s1.rate is not None and s2.rate is not None
    q = rate_for_bound(total, p, bound)
    sub1 = purge_bernoulli(s1.histogram, min(1.0, q / s1.rate), rng)
    sub2 = purge_bernoulli(s2.histogram, min(1.0, q / s2.rate), rng)
    model = s1.model
    bound_bytes = model.footprint_for_values(bound)
    joined_size = sub1.size + sub2.size
    if (joined_size <= bound
            and sub1.joined_footprint(sub2, model) <= bound_bytes):
        return WarehouseSample(
            histogram=sub1.join(sub2),
            kind=SampleKind.BERNOULLI,
            population_size=total,
            bound_values=bound,
            rate=q,
            scheme="hb",
            exceedance_p=p,
            model=model,
        )
    # Low-probability overflow: reservoir-subsample the concatenation.
    if OBS.enabled:
        OBS.registry.counter("merge.hb.overflow").inc()
    histogram = purge_reservoir_concat(sub1, sub2, bound, rng)
    return WarehouseSample(
        histogram=histogram,
        kind=SampleKind.RESERVOIR,
        population_size=total,
        bound_values=bound,
        scheme="hb",
        exceedance_p=p,
        model=model,
    )


@traced("merge.hr", timer="merge.hr.seconds")
def hr_merge(s1: WarehouseSample, s2: WarehouseSample, *,
             rng: SplittableRng,
             target_size: Optional[int] = None,
             method: str = "inversion",
             cache: Optional[CachedHypergeometric] = None,
             scheme: str = "hr") -> WarehouseSample:
    """Figure 8: merge two simple random samples of disjoint partitions.

    Draws ``L`` from the hypergeometric distribution of eq. (2), takes a
    simple random subsample of ``L`` values from ``s1`` and ``k - L`` from
    ``s2`` (Figure 4), and joins them.  By Theorem 1 the result is a
    simple random sample of size ``k`` from the union.

    Parameters
    ----------
    target_size:
        The merged size ``k``; defaults to ``min(|S1|, |S2|)``.  May be
        any value up to :func:`merge_cap`: ``min(|S1|, |S2|)`` for two
        proper samples, while an input that holds its whole partition
        does not cap ``k`` (``k <= |S1|`` with an exhaustive right
        input of ``b`` values, ``k <= |S1| + b`` with both exhaustive).
    method:
        ``"inversion"`` (default) or ``"alias"`` for the ``L`` draw; a
        ``cache`` (see :class:`CachedHypergeometric`) overrides both and
        should be supplied when many merges share the same sizes.  Both
        knobs steer the pure-Python kernel backend only — the numpy
        backend draws through its own cached cumulative pmf (see
        :func:`repro.kernels.draw_hypergeometric`).
    scheme:
        Scheme label for the output (``hb_merge`` routes mixed merges
        here and wants the result to stay labelled ``"hb"``).
    """
    _check_compatible(s1, s2)
    if OBS.enabled:
        OBS.registry.counter("merge.hr").inc()

    if s1.kind.is_exhaustive or s2.kind.is_exhaustive:
        exhaustive, other = (s1, s2) if s1.kind.is_exhaustive else (s2, s1)
        if other.kind.is_bernoulli:
            raise IncompatibleSamplesError(
                "hr_merge cannot resume from a Bernoulli sample; use "
                "hb_merge or merge_samples for mixed-scheme inputs")
        sampler = AlgorithmHR.resume(other, rng=rng)
        sampler.feed_exhaustive(exhaustive.histogram)
        return sampler.finalize().with_scheme(scheme)

    n1, n2 = s1.population_size, s2.population_size
    k = min(s1.size, s2.size) if target_size is None else target_size
    cap = merge_cap(s1.size, n1, s2.size, n2)
    if not 0 <= k <= cap:
        raise ConfigurationError(
            f"target_size must be in 0..{cap}, got {k}")
    # k == 0: one input sampled nothing (possible for a tiny Bernoulli
    # sample); the theorem's min-size rule makes the merged sample
    # empty — trivially uniform, and no draw is taken.
    shares = (0, 0)
    if k:
        take_first = draw_hypergeometric(n1, n2, k, rng, cache=cache,
                                         method=method)
        if OBS.enabled:
            reg = OBS.registry
            reg.histogram("merge.hr.draw_l").observe(take_first)
            # Steps the eq. (3) recursion walks to fill the pmf: the
            # width of the hypergeometric support for this (n1, n2, k).
            reg.histogram("merge.hr.recursion_depth").observe(
                min(k, n1) - max(0, k - n2))
        shares = (take_first, k - take_first)
    return _join_shares((s1, s2), shares, rng, scheme)


def _join_shares(samples: Sequence[WarehouseSample], shares: Sequence[int],
                 rng: SplittableRng, scheme: str) -> WarehouseSample:
    """Theorem 1's tail: purge each input to its share, join the rest.

    Input ``i`` keeps a simple random subsample of ``shares[i]`` values
    (Figure 4); the survivors go straight to one join, so no
    intermediate histogram is built.  The purges need ``shares[i] <=
    |S_i|``: the hypergeometric support gives ``shares[i] <= min(k,
    N_i)``, and the merged size ``k`` is at most ``|S_i|`` unless
    ``S_i`` holds its whole partition, where ``N_i = |S_i|`` bounds the
    share (:func:`merge_cap`).  An input with no share takes no purge.
    """
    first = samples[0]
    return WarehouseSample(
        histogram=CompactHistogram.joined(*[
            purge_reservoir_tally(s.histogram, share, rng)
            for s, share in zip(samples, shares) if share]),
        kind=SampleKind.RESERVOIR,
        population_size=sum(s.population_size for s in samples),
        bound_values=first.bound_values,
        scheme=scheme,
        exceedance_p=min(s.exceedance_p for s in samples),
        model=first.model,
    )


def _one_draw(sample: WarehouseSample) -> bool:
    """True for a proper sample of the HR family (a bounded reservoir)."""
    return (sample.scheme == "hr" and not sample.kind.is_bernoulli
            and not sample.kind.is_exhaustive)


def _hr_merge_many(samples: Sequence[WarehouseSample],
                   rng: SplittableRng) -> WarehouseSample:
    """Theorem 1 over m partitions, with one allocation draw.

    Every input is a proper simple random sample (:func:`_one_draw`), so
    the merged size is ``K = min |S_i|``, the size a pairwise fold ends
    at.  ``(L_1, ..., L_m)`` comes from the multivariate hypergeometric
    law over the populations ``N_i`` (:func:`draw_allocation`); input
    ``i`` is purged to ``L_i`` and the survivors are joined once.  The
    result is a simple random sample of ``K`` from the union, as the
    pairwise fold's is, for about one purge per input instead of two
    per tree node.
    """
    for sample in samples[1:]:
        _check_compatible(samples[0], sample)
    k = min(s.size for s in samples)
    shares = draw_allocation([s.population_size for s in samples], k, rng)
    return _join_shares(samples, shares, rng, "hr")


@traced("merge.sb_union", timer="merge.sb_union.seconds")
def sb_union(samples: Sequence[WarehouseSample], *,
             rng: SplittableRng) -> WarehouseSample:
    """Algorithm SB's merge: equalize rates, then union.

    If all samples share one Bernoulli rate the union is immediate; with
    differing rates each sample is first Bernoulli-purged down to the
    minimum rate (Section 4.1's unioning remark).  No footprint bound is
    enforced — that is the point of the SB baseline.
    """
    if not samples:
        raise ConfigurationError("sb_union needs at least one sample")
    if OBS.enabled:
        OBS.registry.counter("merge.sb_union").inc()
    for s in samples:
        if not s.kind.is_bernoulli or s.rate is None:
            raise IncompatibleSamplesError(
                "sb_union requires Bernoulli samples")
    q = min(s.rate for s in samples)  # type: ignore[type-var]
    merged = None
    total = 0
    for s in samples:
        assert s.rate is not None
        hist = s.histogram
        if s.rate > q:
            hist = purge_bernoulli(hist, q / s.rate, rng)
        merged = hist.copy() if merged is None else merged.join(hist)
        total += s.population_size
    assert merged is not None
    bound = max(max(s.bound_values for s in samples), max(1, merged.size))
    return WarehouseSample(
        histogram=merged,
        kind=SampleKind.BERNOULLI,
        population_size=total,
        bound_values=bound,
        rate=q,
        scheme="sb",
        model=samples[0].model,
    )


def merge_samples(s1: WarehouseSample, s2: WarehouseSample, *,
                  rng: SplittableRng,
                  hyper_cache: Optional[CachedHypergeometric] = None
                  ) -> WarehouseSample:
    """Scheme-aware pairwise merge (what the warehouse calls).

    * two SB samples -> :func:`sb_union`;
    * any sample produced by the HR family (and no Bernoulli input) ->
      :func:`hr_merge`;
    * everything else -> :func:`hb_merge` (which itself routes
      reservoir-involving cases through the hypergeometric merge).
    """
    if s1.scheme == "sb" and s2.scheme == "sb":
        return sb_union([s1, s2], rng=rng)
    hr_only = (s1.scheme == "hr" and s2.scheme == "hr"
               and not s1.kind.is_bernoulli and not s2.kind.is_bernoulli)
    if hr_only:
        return hr_merge(s1, s2, rng=rng, cache=hyper_cache)
    return hb_merge(s1, s2, rng=rng, hyper_cache=hyper_cache)


# One alias-table cache per process, shared by every merge_tree node.
# Serve pool threads merge concurrently through ``sample_of``, so the
# cache locks its own mutations.  Eagerly constructed so merging never
# writes module state.
_NODE_CACHE = CachedHypergeometric()


@traced("merge.tree", timer="merge.tree.seconds")
def merge_tree(samples: Sequence[WarehouseSample], *,
               rng: SplittableRng,
               merger: Optional[MergeFn] = None) -> WarehouseSample:
    """Fold many per-partition samples into one sample of their union.

    **One draw for HR reservoirs.**  When no ``merger`` is given and
    every input is a proper HR-family sample (``scheme == "hr"``,
    neither Bernoulli nor exhaustive), the m inputs merge at once:
    one multivariate hypergeometric draw splits the ``min |S_i|``
    merged slots over the populations, each input is purged to its
    share and the survivors are joined once (Theorem 1 for m
    partitions).  The draw and the purges use the one substream
    ``rng.spawn("merge", "one-draw")``.

    **A balanced tree otherwise.**  HB, SB, mixed and exhaustive inputs
    fold over a balanced binary plan: level by level, adjacent pairs
    merge, and each node draws from its own RNG substream
    ``rng.spawn("merge", level, index)``.  Balanced levels keep
    partition sizes symmetric, so alias tables are reused across each
    level (Section 4.2).  On odd-sized levels the **last** sample is
    carried into the next level, where it joins the front pairing — so
    a carried sample waits exactly one level instead of riding the tail
    to the root (which would degenerate the tree on non-power-of-two
    partition counts).  ``merger`` overrides the per-node evaluation
    with a caller-supplied pairwise merge, applied over the same plan.

    Either way seeds are positional — not threaded through a shared
    generator — so the merged sample is a pure function of the inputs,
    their order, and the seed (docs/determinism.md).
    """
    if not samples:
        raise ConfigurationError("merge_tree needs at least one sample")
    if len(samples) > 1 and merger is None and all(map(_one_draw, samples)):
        if OBS.enabled:
            OBS.registry.counter("merge.tree.one_draw").inc()
        return _hr_merge_many(samples, rng.spawn("merge", "one-draw"))

    level: List[WarehouseSample] = list(samples)
    level_index = 0
    while len(level) > 1:
        started = monotonic() if OBS.enabled else 0.0
        carry = level.pop() if len(level) % 2 else None
        if merger is not None:
            merged = [merger(level[i], level[i + 1])
                      for i in range(0, len(level), 2)]
        else:
            merged = [
                merge_samples(level[i], level[i + 1],
                              rng=rng.spawn("merge", level_index, i // 2),
                              hyper_cache=_NODE_CACHE)
                for i in range(0, len(level), 2)
            ]
        level = ([carry] if carry is not None else []) + merged
        if OBS.enabled:
            OBS.registry.histogram("merge.tree.level.seconds").observe(
                monotonic() - started)
        level_index += 1
    return level[0]
