"""Merging partition samples into uniform samples of partition unions.

This module implements the paper's two merge procedures plus the plumbing
a warehouse needs around them:

* :func:`hb_merge` — Figure 6 (``HBMerge``).  Merges two Algorithm-HB
  samples of disjoint partitions.  The common fast path (both inputs
  Bernoulli) is the one-step union of :func:`merge_tree` over two
  inputs: rates equalized by Bernoulli purging, the compact histograms
  joined, an overflowing join purged to ``n_F``; an exhaustive input is
  one block step of an Algorithm HB resumed from the other input.
* :func:`hr_merge` — Figure 8 (``HRMerge``).  Merges two simple random
  samples by drawing the take-from-the-first count ``L`` from the
  hypergeometric law of eq. (2) — the two-partition case of
  :func:`~repro.kernels.draw_allocation` (Theorem 1: the result is a
  simple random sample of size ``k = min(|S1|, |S2|)`` from the union).
* :func:`merge_samples` — scheme-aware dispatch used by the warehouse.
* :func:`sb_union` — Algorithm SB's plain union (with rate equalization
  when partitions were sampled at different rates).
* :func:`merge_tree` — merge many per-partition samples in one step:
  one union of rate-equalized Bernoulli and exhaustive inputs
  (Section 4.1's unioning remark), one allocation draw over reservoir
  inputs (Theorem 1 over m partitions), one purge per input, one join.
  The merged sample is a pure function of the inputs, their order and
  the seed.

All merges require the parent partitions to be **disjoint**; the library
cannot verify disjointness from the samples alone, so the warehouse layer
is responsible for only merging samples of distinct partitions.

The randomized inner loops (the allocation draw, the purges it calls)
dispatch through :mod:`repro.kernels`, so a merge runs vectorized on
the numpy backend and byte-identically to the historical code on the
pure-Python fallback; see docs/performance.md.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.histogram import CompactHistogram
from repro.core.hybrid_bernoulli import AlgorithmHB
from repro.core.hybrid_reservoir import AlgorithmHR
from repro.core.phases import SampleKind
from repro.core.purge import (purge_bernoulli, purge_reservoir,
                              purge_reservoir_tally)
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError, IncompatibleSamplesError
from repro.kernels import draw_allocation
from repro.obs.runtime import OBS
from repro.obs.tracing import traced
from repro.rng import SplittableRng
from repro.sampling.exceedance import rate_for_bound

__all__ = ["hb_merge", "hr_merge", "merge_samples", "sb_union", "merge_tree"]


def draw_hypergeometric(n1: int, n2: int, k: int, rng: SplittableRng) -> int:
    """Figure 8's ``genProb``: ``L`` with the law of eq. (2).

    The two-partition allocation: the first partition's share of a
    simple random sample of ``k`` from the union of ``n1`` and ``n2``
    elements.
    """
    return draw_allocation([n1, n2], k, rng)[0]


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
             rng: SplittableRng) -> WarehouseSample:
    """Figure 6: merge two Algorithm-HB samples of disjoint partitions.

    Parameters
    ----------
    s1, s2:
        The input samples.  Any combination of kinds is accepted.
    rng:
        Randomness source for the purges and draws.

    Returns a sample of the union with ``scheme="hb"``.  The recomputed
    rate targets the smaller of the inputs' exceedance probabilities and
    is no higher than either input's rate.
    """
    _check_compatible(s1, s2)
    if OBS.enabled:
        OBS.registry.counter("merge.hb").inc()

    # Lines 1-4: at least one exhaustive sample -> stream it through a
    # resumed Algorithm HB initialized with the other sample.
    if s1.kind.is_exhaustive or s2.kind.is_exhaustive:
        exhaustive, other = (s1, s2) if s1.kind.is_exhaustive else (s2, s1)
        sampler = AlgorithmHB.resume(
            other, s1.population_size + s2.population_size, rng=rng)
        sampler.feed_exhaustive(exhaustive.histogram)
        return sampler.finalize().with_scheme("hb")

    # Lines 5-7: at least one reservoir sample -> hypergeometric merge
    # (the non-reservoir input is viewed as a conditional SRS of its size).
    if s1.kind.is_reservoir or s2.kind.is_reservoir:
        return hr_merge(s1, s2, rng=rng, scheme="hb")

    # Lines 8-16: both Bernoulli -> the one-step union of two inputs.
    # An input sampled below the union's rate (fewer arrivals than its
    # sampler declared, or a smaller p) cannot be thinned up to it, so
    # the union takes the lowest rate.
    return _union_step((s1, s2), rng, "hb")


@traced("merge.hr", timer="merge.hr.seconds")
def hr_merge(s1: WarehouseSample, s2: WarehouseSample, *,
             rng: SplittableRng,
             scheme: str = "hr") -> WarehouseSample:
    """Figure 8: merge two simple random samples of disjoint partitions.

    Draws ``L`` from the hypergeometric distribution of eq. (2) (the
    two-partition allocation, :func:`draw_hypergeometric`), takes a
    simple random subsample of ``L`` values from ``s1`` and ``k - L``
    from ``s2`` (Figure 4), and joins them.  By Theorem 1 the result is
    a simple random sample of size ``k = min(|S1|, |S2|)`` from the
    union.

    Parameters
    ----------
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
    k = min(s1.size, s2.size)
    # k == 0: one input sampled nothing (possible for a tiny Bernoulli
    # sample); the theorem's min-size rule makes the merged sample
    # empty — trivially uniform, and no draw is taken.
    shares = (0, 0)
    if k:
        take_first = draw_hypergeometric(n1, n2, k, rng)
        if OBS.enabled:
            reg = OBS.registry
            reg.histogram("merge.hr.draw_l").observe(take_first)
            # Steps the eq. (3) recursion walks to fill the pmf: the
            # width of the hypergeometric support for this (n1, n2, k).
            reg.histogram("merge.hr.recursion_depth").observe(
                min(k, n1) - max(0, k - n2))
        shares = (take_first, k - take_first)
    return _join_shares((s1, s2), shares, rng, scheme)


def _merged(histogram: CompactHistogram, kind: SampleKind,
            samples: Sequence[WarehouseSample], scheme: str,
            rate: Optional[float] = None) -> WarehouseSample:
    """The sample of the union of ``samples``' partitions."""
    first = samples[0]
    return WarehouseSample(
        histogram=histogram,
        kind=kind,
        population_size=sum(s.population_size for s in samples),
        bound_values=first.bound_values,
        rate=rate,
        scheme=scheme,
        exceedance_p=min(s.exceedance_p for s in samples),
        model=first.model,
    )


def _join_shares(samples: Sequence[WarehouseSample], shares: Sequence[int],
                 rng: SplittableRng, scheme: str) -> WarehouseSample:
    """Theorem 1's tail: purge each input to its share, join the rest.

    Input ``i`` keeps a simple random subsample of ``shares[i]`` values
    (Figure 4); the survivors go straight to one join, so no
    intermediate histogram is built.  The purges need ``shares[i] <=
    |S_i|``: the hypergeometric support gives ``shares[i] <= min(k,
    N_i)``, and the merged size ``k`` is at most ``|S_i|`` unless
    ``S_i`` holds its whole partition, where ``N_i = |S_i|`` bounds the
    share.  An input with no share takes no purge.
    """
    return _merged(CompactHistogram.joined(*[
        purge_reservoir_tally(s.histogram, share, rng)
        for s, share in zip(samples, shares) if share]),
        SampleKind.RESERVOIR, samples, scheme)


def _allocation_step(samples: Sequence[WarehouseSample],
                     rng: SplittableRng, scheme: str) -> WarehouseSample:
    """Theorem 1 over m partitions, with one allocation draw.

    Each input is a simple random sample of its size (a Bernoulli or
    reservoir sample, given its size) or its whole partition.  The
    merged size is ``K = min(sum N_i, min |S_i|)`` with the minimum
    over the inputs that are not exhaustive: ``L_i`` ranges up to
    ``min(K, N_i)``, so a proper input caps ``K`` at its size and an
    exhaustive one, holding its whole partition, caps nothing.  ``(L_1, ..., L_m)`` comes from the multivariate
    hypergeometric law over the populations ``N_i``
    (:func:`draw_allocation`); input ``i`` is purged to ``L_i`` and the
    survivors are joined once.  The result is a simple random sample of
    ``K`` from the union.
    """
    k = min([sum(s.population_size for s in samples)]
            + [s.size for s in samples if not s.kind.is_exhaustive])
    shares = draw_allocation([s.population_size for s in samples], k, rng)
    return _join_shares(samples, shares, rng, scheme)


def _union_step(samples: Sequence[WarehouseSample], rng: SplittableRng,
                scheme: str) -> WarehouseSample:
    """One union of Bernoulli and exhaustive inputs (Section 4.1).

    An exhaustive input is a Bernoulli sample at rate 1.  When every
    input is exhaustive and their join stays under the footprint bound
    ``F``, the join is exhaustive; an HR join that reaches ``F`` is
    purged to ``n_F`` (Algorithm HR's phase-1 exit).  Otherwise every
    input is thinned to ``q* = min(min q_i, q(sum N_i, min p_i, n_F))``
    and the survivors are joined: a ``Bern(q*)`` sample of the union,
    at the rate a pairwise fold ends at.  One bound check follows; an
    overflowing union is purged to a simple random sample of ``n_F``
    (Figure 6, lines 15-16).
    """
    first = samples[0]
    bound, model = first.bound_values, first.model
    bound_bytes = model.footprint_for_values(bound)
    if all(s.kind.is_exhaustive for s in samples):
        union = CompactHistogram.joined(*[s.histogram.tally()
                                          for s in samples])
        if union.footprint(model) < bound_bytes:
            return _merged(union, SampleKind.EXHAUSTIVE, samples, scheme)
        if scheme == "hr":
            return _merged(purge_reservoir(union, bound, rng),
                           SampleKind.RESERVOIR, samples, scheme)
        # HB's phase-1 exit: the join is thinned once, at rate q*.
        parts = [(union, 1.0)]
    else:
        parts = [(s.histogram, 1.0 if s.kind.is_exhaustive else s.rate)
                 for s in samples]
    total = sum(s.population_size for s in samples)
    p = min(s.exceedance_p for s in samples)
    rate = min([rate_for_bound(total, p, bound)] + [q for _, q in parts])
    union = CompactHistogram.joined(*[
        (histogram if q == rate else
         purge_bernoulli(histogram, rate / q, rng)).tally()
        for histogram, q in parts])
    if union.size <= bound and union.footprint(model) <= bound_bytes:
        return _merged(union, SampleKind.BERNOULLI, samples, scheme,
                       rate=rate)
    if OBS.enabled:
        OBS.registry.counter("merge.hb.overflow").inc()
    return _merged(purge_reservoir(union, bound, rng),
                   SampleKind.RESERVOIR, samples, scheme)


@traced("merge.sb_union", timer="merge.sb_union.seconds")
def sb_union(samples: Sequence[WarehouseSample], *,
             rng: SplittableRng) -> WarehouseSample:
    """Algorithm SB's merge: equalize rates, then union.

    If all samples share one Bernoulli rate the union is immediate; with
    differing rates each sample is first Bernoulli-purged down to the
    minimum rate (Section 4.1's unioning remark).  No footprint bound is
    enforced — that is the point of the SB baseline — but the samples
    must share one footprint model.
    """
    if not samples:
        raise ConfigurationError("sb_union needs at least one sample")
    if OBS.enabled:
        OBS.registry.counter("merge.sb_union").inc()
    for s in samples:
        if not s.kind.is_bernoulli or s.rate is None:
            raise IncompatibleSamplesError(
                "sb_union requires Bernoulli samples")
        if s.model != samples[0].model:
            raise IncompatibleSamplesError(
                f"samples use different footprint models: "
                f"{samples[0].model} vs {s.model}")
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
                  rng: SplittableRng) -> WarehouseSample:
    """Scheme-aware pairwise merge.

    * two SB samples -> :func:`sb_union`;
    * any sample produced by the HR family (and no Bernoulli input) ->
      :func:`hr_merge`;
    * everything else -> :func:`hb_merge` (which itself routes
      reservoir-involving cases through the hypergeometric merge).

    :func:`merge_tree` follows the same rule for the output scheme.
    """
    if s1.scheme == "sb" and s2.scheme == "sb":
        return sb_union([s1, s2], rng=rng)
    hr_only = (s1.scheme == "hr" and s2.scheme == "hr"
               and not s1.kind.is_bernoulli and not s2.kind.is_bernoulli)
    if hr_only:
        return hr_merge(s1, s2, rng=rng)
    return hb_merge(s1, s2, rng=rng)


def _merge_step(samples: Sequence[WarehouseSample],
                rng: SplittableRng) -> WarehouseSample:
    """All of ``samples`` in one step (see :func:`merge_tree`)."""
    if all(s.scheme == "sb" for s in samples):
        return sb_union(samples, rng=rng)
    for sample in samples[1:]:
        _check_compatible(samples[0], sample)
    if all(s.scheme == "hr" and not s.kind.is_bernoulli for s in samples):
        if all(s.kind.is_exhaustive for s in samples):
            return _union_step(samples, rng, "hr")
        return _allocation_step(samples, rng, "hr")
    reservoirs = [s for s in samples if s.kind.is_reservoir]
    pooled = [s for s in samples if not s.kind.is_reservoir]
    if pooled:
        union = _union_step(pooled, rng, "hb")
        if not reservoirs:
            return union
        reservoirs.insert(0, union)
    return _allocation_step(reservoirs, rng, "hb")


@traced("merge.tree", timer="merge.tree.seconds")
def merge_tree(samples: Sequence[WarehouseSample], *,
               rng: SplittableRng) -> WarehouseSample:
    """Merge many per-partition samples into one sample of their union.

    The m inputs merge in one step on the substream ``rng.spawn("merge",
    "one-draw")``, with the output scheme of :func:`merge_samples`
    (``sb`` when every input is SB, ``hr`` when every input is HR and
    none is Bernoulli, ``hb`` otherwise).  SB inputs take one
    :func:`sb_union`.  Bernoulli and exhaustive inputs (an exhaustive
    input is a Bernoulli sample at rate 1) are thinned to one rate and
    joined once, with one bound check (:func:`_union_step`).  Reservoir
    inputs, and that union beside them, take one allocation draw and
    one purge each (:func:`_allocation_step`, Theorem 1 for m
    partitions).  No table is kept between calls; docs/algorithms.md
    argues each law.

    Seeds are positional — not threaded through a shared generator —
    so the merged sample is a pure function of the inputs, their
    order, and the seed (docs/determinism.md).
    """
    if not samples:
        raise ConfigurationError("merge_tree needs at least one sample")
    if len(samples) == 1:
        return samples[0]
    return _merge_step(samples, rng.spawn("merge", "one-draw"))
