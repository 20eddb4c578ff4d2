"""Merging partition samples into uniform samples of partition unions.

This module implements the paper's two merge procedures plus the plumbing
a warehouse needs around them:

* :func:`hb_merge` — Figure 6 (``HBMerge``).  Merges two Algorithm-HB
  samples of disjoint partitions.  The common fast path (both inputs
  Bernoulli) equalizes rates by Bernoulli purging and joins the compact
  histograms; overflow falls back to a reservoir subsample of the
  concatenation; exhaustive inputs are streamed through a resumed
  Algorithm HB.
* :func:`hr_merge` — Figure 8 (``HRMerge``).  Merges two simple random
  samples by drawing the take-from-the-first count ``L`` from the
  hypergeometric law of eq. (2) (Theorem 1: the result is a simple random
  sample of size ``k = min(|S1|, |S2|)`` from the union).
* :func:`merge_samples` — scheme-aware dispatch used by the warehouse.
* :func:`sb_union` — Algorithm SB's plain union (with rate equalization
  when partitions were sampled at different rates).
* :func:`merge_tree` — fold many per-partition samples into one over a
  balanced binary plan whose nodes draw from independent RNG substreams
  (``rng.spawn("merge", level, index)``), so the merged sample is a pure
  function of the inputs and the seed.

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
from repro.kernels import draw_hypergeometric
from repro.obs.clock import monotonic
from repro.obs.runtime import OBS
from repro.obs.tracing import traced
from repro.rng import SplittableRng
from repro.sampling.distributions import CachedHypergeometric
from repro.sampling.exceedance import rate_for_bound

__all__ = ["hb_merge", "hr_merge", "merge_samples", "sb_union", "merge_tree"]

MergeFn = Callable[[WarehouseSample, WarehouseSample], WarehouseSample]


def _check_compatible(s1: WarehouseSample, s2: WarehouseSample) -> None:
    if s1.model != s2.model:
        raise IncompatibleSamplesError(
            f"samples use different footprint models: {s1.model} vs "
            f"{s2.model}")
    if s1.bound_values != s2.bound_values:
        raise IncompatibleSamplesError(
            f"samples have different bounds: n_F={s1.bound_values} vs "
            f"{s2.bound_values}; re-bound one of them before merging")


def _resume_feed(sampler, exhaustive: WarehouseSample) -> None:
    """Stream an exhaustive sample's values through a resumed sampler.

    Values are fed as runs straight off the compact representation — the
    "no expansion of S_i is required" remark under Figure 6.
    """
    for value, count in exhaustive.histogram.pairs():
        sampler.feed_run(value, count)


@traced("merge.hb", timer="merge.hb.seconds")
def hb_merge(s1: WarehouseSample, s2: WarehouseSample, *,
             rng: SplittableRng,
             exceedance_p: Optional[float] = None,
             rate_method: str = "auto",
             hyper_cache: Optional[CachedHypergeometric] = None
             ) -> WarehouseSample:
    """Figure 6: merge two Algorithm-HB samples of disjoint partitions.

    Parameters
    ----------
    s1, s2:
        The input samples.  Any combination of kinds is accepted.
    rng:
        Randomness source for the purges and draws.
    exceedance_p:
        Target exceedance probability for the recomputed rate; defaults
        to the smaller of the inputs' recorded values.
    rate_method:
        Passed to :func:`~repro.sampling.exceedance.rate_for_bound`.
    hyper_cache:
        Optional alias-table cache for the reservoir fallback path.

    Returns a sample of the union with ``scheme="hb"``.
    """
    _check_compatible(s1, s2)
    if OBS.enabled:
        OBS.registry.counter("merge.hb").inc()
    p = exceedance_p
    if p is None:
        p = min(s1.exceedance_p, s2.exceedance_p)
    total = s1.population_size + s2.population_size
    bound = s1.bound_values

    # Lines 1-4: at least one exhaustive sample -> stream it through a
    # resumed Algorithm HB initialized with the other sample.
    if s1.kind.is_exhaustive or s2.kind.is_exhaustive:
        exhaustive, other = (s1, s2) if s1.kind.is_exhaustive else (s2, s1)
        sampler = AlgorithmHB.resume(other, total, rng=rng,
                                     rate_method=rate_method)
        _resume_feed(sampler, exhaustive)
        return sampler.finalize().with_scheme("hb")

    # Lines 5-7: at least one reservoir sample -> hypergeometric merge
    # (the non-reservoir input is viewed as a conditional SRS of its size).
    if s1.kind.is_reservoir or s2.kind.is_reservoir:
        return hr_merge(s1, s2, rng=rng, cache=hyper_cache,
                        scheme="hb")

    # Lines 8-16: both Bernoulli.
    assert s1.rate is not None and s2.rate is not None
    q = rate_for_bound(total, p, bound, method=rate_method)
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
        The merged size ``k``; defaults to ``min(|S1|, |S2|)`` (the
        largest size the theorem supports).  May be any value in
        ``1..min(|S1|, |S2|)``.
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
    total = s1.population_size + s2.population_size
    if OBS.enabled:
        OBS.registry.counter("merge.hr").inc()

    if s1.kind.is_exhaustive or s2.kind.is_exhaustive:
        exhaustive, other = (s1, s2) if s1.kind.is_exhaustive else (s2, s1)
        if other.kind.is_bernoulli:
            raise IncompatibleSamplesError(
                "hr_merge cannot resume from a Bernoulli sample; use "
                "hb_merge or merge_samples for mixed-scheme inputs")
        sampler = AlgorithmHR.resume(other, rng=rng)
        _resume_feed(sampler, exhaustive)
        return sampler.finalize().with_scheme(scheme)

    k = min(s1.size, s2.size) if target_size is None else target_size
    if not 0 <= k <= min(s1.size, s2.size):
        raise ConfigurationError(
            f"target_size must be in 0..{min(s1.size, s2.size)}, got {k}")
    if k == 0:
        # One input sampled nothing (possible for a tiny Bernoulli
        # sample); the theorem's min-size rule makes the merged sample
        # empty — trivially uniform.  Callers can detect it via size.
        return WarehouseSample(
            histogram=CompactHistogram(),
            kind=SampleKind.RESERVOIR,
            population_size=total,
            bound_values=s1.bound_values,
            scheme=scheme,
            exceedance_p=min(s1.exceedance_p, s2.exceedance_p),
            model=s1.model,
        )

    n1, n2 = s1.population_size, s2.population_size
    take_first = draw_hypergeometric(n1, n2, k, rng, cache=cache,
                                     method=method)
    if OBS.enabled:
        reg = OBS.registry
        reg.histogram("merge.hr.draw_l").observe(take_first)
        # Steps the eq. (3) recursion walks to fill the pmf: the width
        # of the hypergeometric support for this (n1, n2, k).
        reg.histogram("merge.hr.recursion_depth").observe(
            min(k, n1) - max(0, k - n2))
    # Clamp to the realized sample sizes.  The hypergeometric support
    # already guarantees take_first <= min(k, n1), but with k <= |S_i| we
    # also need take_first <= |S1| and k - take_first <= |S2|, which holds
    # because take_first <= k <= |S1| and k - take_first <= k <= |S2|.
    # Both purges hand their survivors straight to one join: no
    # intermediate histogram is built.
    first = purge_reservoir_tally(s1.histogram, take_first, rng)
    second = purge_reservoir_tally(s2.histogram, k - take_first, rng)
    return WarehouseSample(
        histogram=CompactHistogram.joined(first, second),
        kind=SampleKind.RESERVOIR,
        population_size=total,
        bound_values=s1.bound_values,
        scheme=scheme,
        exceedance_p=min(s1.exceedance_p, s2.exceedance_p),
        model=s1.model,
    )


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

    The fold follows a **balanced binary plan**: level by level,
    adjacent pairs merge, and each node draws from its own RNG
    substream ``rng.spawn("merge", level, index)``.  Because node seeds
    are positional — not threaded through a shared generator — the
    merged sample is a pure function of the inputs, their order, and
    the seed (docs/determinism.md).  Balanced levels keep partition
    sizes symmetric, so alias tables are reused across each level
    (Section 4.2).

    On odd-sized levels the **last** sample is carried into the next
    level, where it joins the front pairing — so a carried sample waits
    exactly one level instead of riding the tail to the root (which
    would degenerate the tree on non-power-of-two partition counts).

    ``merger`` overrides the per-node evaluation with a caller-supplied
    pairwise merge, applied over the same balanced plan.
    """
    if not samples:
        raise ConfigurationError("merge_tree needs at least one sample")

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
