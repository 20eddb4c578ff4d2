"""The default check catalog: the paper's claims as battery checks.

Every statistical guarantee the reproduction makes is written here as a
named :class:`~repro.testkit.battery.Check` against the *public* sampler
APIs, so one ``repro verify`` run audits the whole chain:

===============================  =====================================
check                            claim
===============================  =====================================
``hb.uniformity.inclusion``      Algorithm HB includes every element
                                 equally often (Section 3 uniformity)
``hr.uniformity.inclusion``      same for Algorithm HR
``hypergeom.gof.inversion``      the eq. (2)/(3) sampler matches its
                                 closed-form pmf (inversion draw)
``hypergeom.gof.alias``          same via the alias-table draw
``sb.size.binomial``             Algorithm SB's sample size is exactly
                                 Binomial(N, q)
``hb.exceedance.bound``          HB's phase-3 fallback rate is the
                                 binomial tail of eq. (1)'s rate
``negative.concise``             Section 3.3: concise sampling is NOT
                                 uniform; the battery must reject
``negative.counting``            same for counting sampling
``differential.executors``       Serial/Thread/Process executors agree
                                 byte-for-byte
``differential.merge_tree``      left-deep vs balanced folds agree
                                 on deterministic merges
``kernels.hypergeom.gof``        the active kernel backend's batched
                                 eq. (3) draw matches the closed-form
                                 pmf
``kernels.binomial.law``         ``binomial_counts`` keeps each run
                                 Binomial(n, q) on the active backend
``kernels.srs.law``              ``srs_counts`` realizes the exact
                                 multivariate hypergeometric law
``kernels.pmf.crosscheck``       numpy and python backends compute the
                                 same eq. (3) pmf (skipped sans numpy)
``samplers.minibatch.law``       HB/HR fed in uneven slices, one by
                                 one and as runs keep uniform
                                 inclusion and HB's phase-2 size law
``serve.query.equivalence``      answers served over HTTP are
                                 byte-identical to the library path
                                 and uniform in law across seeds
``aqp.planner.coverage``         planned-query intervals (synopsis +
                                 selected strata) hit their nominal
                                 coverage (docs/aqp.md)
``negative.aqp.coverage``        halving the planner's variance must
                                 be rejected as under-covering
``hr.uniformity.subset``         (deep) HR: all k-subsets equally
                                 likely, not just inclusion marginals
``purge.reservoir.subset``       (deep) Figure 4 purge draws uniform
                                 subsamples
``purge.bernoulli.inclusion``    (deep) Figure 3 purge keeps elements
                                 equally often
``hb.phase2.size.binomial``      (deep) HB phase-2 size is truncated
                                 Binomial(N, q) given no exceedance
``merge.hr.subset``              (deep) Theorem 1: HRMerge output is a
                                 uniform sample of the union
``merge.tree.homogeneity``       (deep) left-deep and balanced folds
                                 draw from the same inclusion law
===============================  =====================================

The negative controls carry ``expect_reject=True``: a battery that
cannot see the concise/counting counter-example proves nothing when it
accepts the real samplers.

Trial budgets are multiplied by the tier's ``scale``, so the deep tier
both sweeps more seeds and looks harder at each one.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.core.concise import ConciseSampler
from repro.core.counting import CountingSampler
from repro.core.footprint import FootprintModel
from repro.core.histogram import CompactHistogram
from repro.core.merge import hr_merge, merge_tree
from repro.core.purge import purge_bernoulli, purge_reservoir
from repro.errors import ConfigurationError
from repro.kernels import (binomial_counts, draw_hypergeometric_batch,
                           numpy_available, srs_counts, use_backend)
from repro.kernels import hypergeometric_pmf as kernel_pmf
from repro.rng import SplittableRng
from repro.sampling.distributions import (hypergeometric_pmf,
                                          sample_hypergeometric)
from repro.sampling.exceedance import binomial_sf, rate_for_bound
from repro.stats.uniformity import (chi_square_homogeneity,
                                    chi_square_pvalue,
                                    inclusion_frequency_test,
                                    subset_frequency_test)
from repro.testkit.battery import Battery
from repro.testkit.differential import (executor_differential,
                                        left_deep_fold,
                                        merge_tree_differential)
from repro.warehouse.dataset import PartitionKey
from repro.warehouse.parallel import SampleTask, make_sampler
from repro.warehouse.synopsis import PartitionSynopsis

__all__ = ["default_battery", "collapse_cells", "binomial_pmf"]


# ----------------------------------------------------------------------
# Small numeric helpers
# ----------------------------------------------------------------------
def binomial_pmf(n: int, q: float) -> List[float]:
    """``[P(Binomial(n, q) = k) for k in 0..n]`` via log-gamma."""
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    if not 0.0 < q < 1.0:
        raise ConfigurationError(f"q must be in (0, 1), got {q}")
    log_q, log_1q = math.log(q), math.log1p(-q)
    lgn = math.lgamma(n + 1)
    return [math.exp(lgn - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                     + k * log_q + (n - k) * log_1q)
            for k in range(n + 1)]


def collapse_cells(observed: Sequence[float], expected: Sequence[float],
                   min_expected: float = 5.0,
                   ) -> Tuple[List[float], List[float]]:
    """Merge adjacent cells until every expected count is adequate.

    Pearson's chi-square needs expected counts of roughly >= 5 per
    cell; distribution tails rarely have that.  Greedily accumulates
    adjacent cells left to right, folding any underweight remainder
    into the last emitted cell.
    """
    if len(observed) != len(expected):
        raise ConfigurationError(
            f"length mismatch: {len(observed)} vs {len(expected)}")
    obs_out: List[float] = []
    exp_out: List[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_out.append(acc_o)
            exp_out.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0:
        if exp_out:
            obs_out[-1] += acc_o
            exp_out[-1] += acc_e
        else:
            obs_out.append(acc_o)
            exp_out.append(acc_e)
    if len(exp_out) < 2:
        raise ConfigurationError(
            "fewer than two cells left after collapsing; increase the "
            "trial budget")
    return obs_out, exp_out


def _sampler_values(scheme: str, bound: int, exceedance_p: float = 0.01,
                    sb_rate: Optional[float] = None):
    """A ``sample_fn`` for the uniformity helpers: run one sampler."""
    def run(values, rng):
        sampler = make_sampler(scheme, population_size=len(values),
                               bound_values=bound,
                               exceedance_p=exceedance_p,
                               sb_rate=sb_rate, rng=rng)
        sampler.feed_many(values)
        return sampler.finalize().histogram.expand()
    return run


# ----------------------------------------------------------------------
# The Section 3.3 negative controls
# ----------------------------------------------------------------------
#: Under uniformity, conditioned on a size-3 outcome of the a,a,a,b,b,b
#: population, the histogram {a:2,b:1}-or-{a:1,b:2} (the paper's H3)
#: must carry 18 of 20 mass; concise/counting sampling never produce it.
_H3_SHARE = 18.0 / 20.0


def _negative_control_pvalue(sampler_factory, rng: SplittableRng,
                             trials: int) -> float:
    """P-value of the size-3 conditional law vs the uniform H3 share.

    ``sampler_factory(child_rng)`` builds a sampler whose footprint
    holds one (value, count) pair.  Chi-squares the observed [H3, rest]
    split of size-3 outcomes against [18/20, 2/20].  A uniform sampler
    yields an unremarkable p-value; concise/counting yield ~0 because
    H3 never occurs.  Returns 1.0 if no size-3 outcome was seen (which
    fails the expect_reject control and flags the check itself).
    """
    population = ["a", "a", "a", "b", "b", "b"]
    h3 = rest = 0
    for t in range(trials):
        sampler = sampler_factory(rng.spawn("negative", t))
        sampler.feed_many(population)
        pairs = dict(sampler.finalize().pairs())
        if sum(pairs.values()) != 3:
            continue
        if pairs in ({"a": 2, "b": 1}, {"a": 1, "b": 2}):
            h3 += 1
        else:
            rest += 1
    kept = h3 + rest
    if kept == 0:
        return 1.0
    return chi_square_pvalue([h3, rest],
                             [kept * _H3_SHARE, kept * (1.0 - _H3_SHARE)])


# ----------------------------------------------------------------------
# Sliced feeding (docs/algorithms.md: phases 2-3 on numpy)
# ----------------------------------------------------------------------
def feed_uneven(sampler, values: Sequence, marks: Sequence[int],
                rng: SplittableRng) -> None:
    """Feed ``values`` in seeded uneven slices.

    Slices end on both sides of every mark (so each mark gets a
    one-element slice) and at a few random points; each slice goes in
    by ``feed_many``, by per-arrival ``feed``, or as one-element
    ``feed_run`` calls, chosen per slice.
    """
    n = len(values)
    cuts = {m + d for m in marks for d in (-1, 0, 1)}
    cuts.update(rng.randrange(1, n) for _ in range(4))
    prev = 0
    for cut in sorted(c for c in cuts if 0 < c < n) + [n]:
        piece = values[prev:cut]
        how = rng.randrange(3)
        if how == 0:
            sampler.feed_many(piece)
        elif how == 1:
            for v in piece:
                sampler.feed(v)
        else:
            for v in piece:
                sampler.feed_run(v, 1)
        prev = cut


def minibatch_law_pvalue(rng: SplittableRng, trials: int) -> float:
    """Do HB and HR keep their laws however a stream is sliced?

    Three sub-tests on the active kernel backend, Bonferroni-combined:

    * HR (bound 4, 150 distinct arrivals, so positions run past the
      ``22 * k`` where the python backend's skips switch to Algorithm
      L) includes every arrival equally often;
    * HB (bound 4, ``p = 0.01``) likewise;
    * HB (bound 30, 300 arrivals, ``p = 0.05``) ends in phase 2 with
      size ``s < 30`` with probability ``P(Binomial(300, q) = s)`` and
      in phase 3 with the remaining tail, so slices that straddle the
      2 -> 3 switch are exercised and counted.

    Every run is fed by :func:`feed_uneven`, with marks at the
    phase-1 exit and at random positions.
    """
    def sliced(scheme: str, bound: int, p: float):
        def run(values, child: SplittableRng):
            sampler = make_sampler(scheme, population_size=len(values),
                                   bound_values=bound, exceedance_p=p,
                                   sb_rate=None, rng=child.spawn("sampler"))
            marks = [bound, child.randrange(len(values))]
            feed_uneven(sampler, values, marks, child.spawn("slices"))
            return sampler.finalize()
        return run

    pvalues = []
    for scheme in ("hr", "hb"):
        run = sliced(scheme, 4, 0.01)
        pvalues.append(inclusion_frequency_test(
            lambda values, child: run(values, child).histogram.expand(),
            list(range(150)), trials=trials, rng=rng.spawn(scheme)))

    n, bound, p = 300, 30, 0.05
    q = rate_for_bound(n, p, bound, method="auto")
    run = sliced("hb", bound, p)
    observed = [0] * (bound + 1)   # sizes 0..bound-1, then phase 3
    for t in range(trials):
        sample = run(list(range(n)), rng.spawn("hb.size", t))
        observed[bound if sample.kind.is_reservoir else sample.size] += 1
    pmf = binomial_pmf(n, q)
    expected = [pk * trials for pk in pmf[:bound]]
    expected.append(trials - sum(expected))
    pvalues.append(chi_square_pvalue(*collapse_cells(observed, expected)))
    return min(1.0, len(pvalues) * min(pvalues))


# ----------------------------------------------------------------------
# Serving-layer equivalence (docs/serving.md)
# ----------------------------------------------------------------------
def served_query_equivalence(rng: SplittableRng, *,
                             trials: int) -> float:
    """Served-vs-library equivalence over ``trials`` fresh servers.

    Two layers, one p-value:

    * **byte layer** — for each trial, ingest a population over HTTP
      into a seeded warehouse and fetch ``/sample`` and
      ``/estimate?stat=sum``; both answers must be byte-identical
      (canonical JSON) to the library path on an identically seeded
      warehouse.  Any mismatch returns ``0.0`` — a certain rejection.
    * **law layer** — the served merges are still *samples*; pooling
      their inclusion counts across trials and chi-squaring against
      uniform inclusion checks that the serving path (cache, OCC,
      thread handoff) did not bias the sampled law.
    """
    import asyncio
    import json

    from repro.analytics.estimators import estimate_sum
    from repro.serve.app import WarehouseService
    from repro.serve.http import Request
    from repro.warehouse.storage import sample_to_dict
    from repro.warehouse.warehouse import SampleWarehouse

    population, bound, partitions = 60, 12, 2
    values = list(range(population))
    counts = [0] * population
    mismatches = 0

    def canonical(payload: object) -> str:
        return json.dumps(payload, sort_keys=True)

    async def one_trial(trial_rng: SplittableRng) -> Tuple[dict, dict]:
        warehouse = SampleWarehouse(bound_values=bound, scheme="hr",
                                    rng=trial_rng)
        service = WarehouseService(warehouse)
        try:
            ingest = Request(
                method="POST", path="/datasets/d/ingest",
                body=json.dumps({"values": values,
                                 "partitions": partitions}).encode())
            response = await service.handle(ingest)
            if response.status != 200:
                raise ConfigurationError(
                    f"served ingest failed: {response.payload}")
            sample_resp = await service.handle(
                Request(method="GET", path="/datasets/d/sample"))
            est_resp = await service.handle(
                Request(method="GET", path="/datasets/d/estimate",
                        query={"stat": "sum"}))
            return sample_resp.payload, est_resp.payload
        finally:
            await service.aclose()

    for t in range(trials):
        # spawn is a pure function of (seed, labels): the same labels
        # give the served and library warehouses identical rngs.
        served_sample, served_est = asyncio.run(
            one_trial(rng.spawn("serve", t)))

        library = SampleWarehouse(bound_values=bound, scheme="hr",
                                  rng=rng.spawn("serve", t))
        library.ingest_batch("d", values, partitions=partitions)
        sample = library.sample_of("d")
        est = estimate_sum(sample)
        want_est = {"ci_high": est.ci_high, "ci_low": est.ci_low,
                    "confidence": est.confidence, "exact": est.exact,
                    "value": est.value}
        got_est = {k: served_est.get(k) for k in want_est}
        if canonical(served_sample["sample"]) != \
                canonical(sample_to_dict(sample)) \
                or canonical(got_est) != canonical(want_est):
            mismatches += 1
        for value, n in served_sample["sample"]["histogram"]:
            counts[value] += n

    if mismatches:
        return 0.0
    total = sum(counts)
    return chi_square_pvalue(counts,
                             [total / population] * population)


def aqp_coverage_pvalue(rng: SplittableRng, trials: int, *,
                        variance_scale: float = 1.0) -> float:
    """Do planned-query intervals cover the truth at their nominal rate?

    Each trial builds a fresh four-partition warehouse whose synopses
    were estimated upstream from coarse sketches (basis 16) while the
    stored samples are richer (bound 64) — the configuration where the
    planner's greedy selection actually engages (docs/aqp.md).  A 90 %
    sum interval is planned at a target that typically forces several
    selections, executed, and scored against the known population sum;
    the covered/missed split is chi-squared against the nominal rate.

    ``variance_scale`` is the negative-control hook: executing with
    halved variance shrinks every interval by ``sqrt(2)``, dropping
    true coverage to ~0.76 — far enough from 0.9 that the battery must
    reject it (RPR051 discipline: a coverage check that cannot see a
    broken error model proves nothing).
    """
    from repro.analytics.planner import QueryPlanner
    from repro.warehouse.parallel import sample_partition
    from repro.warehouse.warehouse import SampleWarehouse

    confidence = 0.9
    covered = 0
    for t in range(trials):
        child = rng.spawn("aqp-cov", t)
        warehouse = SampleWarehouse(bound_values=64, scheme="hr",
                                    rng=child.spawn("wh"))
        vrng = child.spawn("values")
        truth = 0.0
        for i in range(4):
            values = [vrng.gauss(50.0 + 10.0 * i, 8.0 + 2.0 * i)
                      for _ in range(300)]
            truth += sum(values)
            live = sample_partition(SampleTask(
                values=values, scheme="hr", bound_values=64,
                seed=child.spawn("live", i).seed_value))
            sketch = sample_partition(SampleTask(
                values=values, scheme="hr", bound_values=16,
                seed=child.spawn("sketch", i).seed_value))
            warehouse.ingest_sample(
                PartitionKey("cov.d", 0, i), live,
                synopsis=PartitionSynopsis.from_sample(sketch))
        planner = QueryPlanner(warehouse)
        plan = planner.plan("cov.d", "sum", target_half_width=0.02,
                            confidence=confidence, relative=True)
        if plan.fallback:
            # A noisy sketch can make 2% unreachable; a loose target
            # still exercises the synopsis-stratum variance path.
            plan = planner.plan("cov.d", "sum", target_half_width=1.0,
                                confidence=confidence, relative=True)
        estimate = planner.execute(plan,
                                   variance_scale=variance_scale)
        if estimate.ci_low <= truth <= estimate.ci_high:
            covered += 1
    return chi_square_pvalue(
        [covered, trials - covered],
        [trials * confidence, trials * (1.0 - confidence)])


# ----------------------------------------------------------------------
# The default battery
# ----------------------------------------------------------------------
def default_battery() -> Battery:
    """Build the battery of all standard checks (see module docstring)."""
    battery = Battery()

    # -- uniformity of the real samplers --------------------------------
    @battery.check("hb.uniformity.inclusion",
                   description="Algorithm HB includes every element "
                               "equally often")
    def hb_inclusion(rng: SplittableRng, scale: int) -> float:
        return inclusion_frequency_test(
            _sampler_values("hb", bound=8), list(range(24)),
            trials=250 * scale, rng=rng)

    @battery.check("hr.uniformity.inclusion",
                   description="Algorithm HR includes every element "
                               "equally often")
    def hr_inclusion(rng: SplittableRng, scale: int) -> float:
        return inclusion_frequency_test(
            _sampler_values("hr", bound=8), list(range(24)),
            trials=250 * scale, rng=rng)

    @battery.check("hr.uniformity.subset", tier="deep",
                   description="Algorithm HR realizes every k-subset "
                               "equally often")
    def hr_subset(rng: SplittableRng, scale: int) -> float:
        return subset_frequency_test(
            _sampler_values("hr", bound=2), list(range(6)), size=2,
            trials=150 * scale, rng=rng)

    # -- the eq. (2)/(3) hypergeometric sampler -------------------------
    def hypergeom_gof(method: str):
        def run(rng: SplittableRng, scale: int) -> float:
            n1, n2, k = 13, 9, 7
            pmf = hypergeometric_pmf(n1, n2, k)
            lo = max(0, k - n2)
            draws = 1200 * scale
            observed = [0] * len(pmf)
            for _ in range(draws):
                observed[sample_hypergeometric(n1, n2, k, rng,
                                               method=method) - lo] += 1
            expected = [p * draws for p in pmf]
            return chi_square_pvalue(*collapse_cells(observed, expected))
        return run

    battery.check("hypergeom.gof.inversion",
                  description="eq. (2)/(3) inversion draw matches the "
                              "closed-form pmf")(hypergeom_gof("inversion"))
    battery.check("hypergeom.gof.alias",
                  description="eq. (2)/(3) alias-table draw matches the "
                              "closed-form pmf")(hypergeom_gof("alias"))

    # -- Bernoulli-phase laws -------------------------------------------
    @battery.check("sb.size.binomial",
                   description="Algorithm SB sample size is "
                               "Binomial(N, q)")
    def sb_size(rng: SplittableRng, scale: int) -> float:
        n, q = 200, 0.1
        trials = 250 * scale
        sizes = [0] * (n + 1)
        for t in range(trials):
            sampler = make_sampler("sb", population_size=n,
                                   bound_values=n, exceedance_p=0.01,
                                   sb_rate=q, rng=rng.spawn("sb", t))
            sampler.feed_many(range(n))
            sizes[sampler.finalize().size] += 1
        expected = [p * trials for p in binomial_pmf(n, q)]
        return chi_square_pvalue(*collapse_cells(sizes, expected))

    @battery.check("hb.exceedance.bound",
                   description="HB falls back to phase 3 with exactly "
                               "the binomial tail of eq. (1)'s rate")
    def hb_exceedance(rng: SplittableRng, scale: int) -> float:
        # HB's phase-2 -> 3 trigger is conservative: it fires when the
        # Bernoulli sample *reaches* n_F, so the realized fallback
        # probability is P(Binomial(N, q) >= n_F) — equal to the
        # eq. (1) target p up to one pmf cell, and converging to it at
        # production scale (see the AlgorithmHB module docstring).
        n, bound, p = 400, 30, 0.05
        q = rate_for_bound(n, p, bound, method="auto")
        fallback = binomial_sf(n, q, bound - 1)
        trials = 300 * scale
        exceeded = 0
        for t in range(trials):
            sampler = make_sampler("hb", population_size=n,
                                   bound_values=bound, exceedance_p=p,
                                   sb_rate=None, rng=rng.spawn("hb", t))
            sampler.feed_many(range(n))
            if sampler.finalize().kind.is_reservoir:
                exceeded += 1
        return chi_square_pvalue(
            [exceeded, trials - exceeded],
            [trials * fallback, trials * (1.0 - fallback)])

    @battery.check("hb.phase2.size.binomial", tier="deep",
                   description="HB phase-2 size given no exceedance is "
                               "truncated Binomial(N, q)")
    def hb_phase2_size(rng: SplittableRng, scale: int) -> float:
        # A phase-2 outcome means the Bernoulli sample never reached
        # n_F (distinct values keep the size monotone during the
        # stream), so the conditional size law is Binomial(N, q)
        # truncated at n_F - 1.
        n, bound, p = 300, 30, 0.05
        q = rate_for_bound(n, p, bound, method="auto")
        trials = 120 * scale
        sizes = [0] * bound
        kept = 0
        for t in range(trials):
            sampler = make_sampler("hb", population_size=n,
                                   bound_values=bound, exceedance_p=p,
                                   sb_rate=None, rng=rng.spawn("hb", t))
            sampler.feed_many(range(n))
            sample = sampler.finalize()
            if sample.kind.is_bernoulli:
                sizes[sample.size] += 1
                kept += 1
        pmf = binomial_pmf(n, q)[:bound]
        mass = sum(pmf)
        expected = [kept * p_k / mass for p_k in pmf]
        return chi_square_pvalue(*collapse_cells(sizes, expected))

    # -- purges (Figures 3 and 4) ---------------------------------------
    @battery.check("purge.bernoulli.inclusion", tier="deep",
                   description="Figure 3 Bernoulli purge keeps elements "
                               "equally often")
    def bernoulli_purge(rng: SplittableRng, scale: int) -> float:
        def run(values, child):
            hist = CompactHistogram.from_values(values)
            return purge_bernoulli(hist, 0.4, child).expand()
        return inclusion_frequency_test(run, list(range(20)),
                                        trials=150 * scale, rng=rng)

    @battery.check("purge.reservoir.subset", tier="deep",
                   description="Figure 4 reservoir purge draws uniform "
                               "subsamples")
    def reservoir_purge(rng: SplittableRng, scale: int) -> float:
        def run(values, child):
            hist = CompactHistogram.from_values(values)
            return purge_reservoir(hist, 3, child).expand()
        return subset_frequency_test(run, list(range(8)), size=3,
                                     trials=160 * scale, rng=rng)

    # -- merges ---------------------------------------------------------
    @battery.check("merge.hr.subset", tier="deep",
                   description="Theorem 1: HRMerge output is a uniform "
                               "sample of the union")
    def merge_hr_subset(rng: SplittableRng, scale: int) -> float:
        def run(values, child):
            half = len(values) // 2
            parts = []
            for i, part in enumerate((values[:half], values[half:])):
                sampler = make_sampler("hr", population_size=len(part),
                                       bound_values=2, exceedance_p=0.01,
                                       sb_rate=None,
                                       rng=child.spawn("part", i))
                sampler.feed_many(part)
                parts.append(sampler.finalize())
            merged = hr_merge(parts[0], parts[1],
                              rng=child.spawn("merge"))
            return merged.histogram.expand()
        return subset_frequency_test(run, list(range(8)), size=2,
                                     trials=150 * scale, rng=rng)

    @battery.check("merge.tree.homogeneity", tier="deep",
                   description="left-deep and balanced merge folds "
                               "draw from one inclusion law")
    def tree_homogeneity(rng: SplittableRng, scale: int) -> float:
        population = list(range(24))
        parts = [population[i:i + 6] for i in range(0, 24, 6)]
        trials = 150 * scale

        def inclusion_counts(fold, child: SplittableRng) -> List[int]:
            counts = [0] * len(population)
            for t in range(trials):
                run_rng = child.spawn("trial", t)
                samples = []
                for i, part in enumerate(parts):
                    sampler = make_sampler(
                        "hr", population_size=len(part), bound_values=3,
                        exceedance_p=0.01, sb_rate=None,
                        rng=run_rng.spawn("part", i))
                    sampler.feed_many(part)
                    samples.append(sampler.finalize())
                merged = fold(samples, rng=run_rng.spawn("fold"))
                for v in merged.histogram.expand():
                    counts[v] += 1
            return counts

        return chi_square_homogeneity(
            inclusion_counts(left_deep_fold, rng.spawn("left-deep")),
            inclusion_counts(merge_tree, rng.spawn("tree")))

    # -- Section 3.3 negative controls ----------------------------------
    model = FootprintModel(value_bytes=8, count_bytes=4)
    pair_bytes = model.value_bytes + model.count_bytes

    @battery.check("negative.concise", expect_reject=True,
                   description="Section 3.3: concise sampling must be "
                               "rejected as non-uniform")
    def negative_concise(rng: SplittableRng, scale: int) -> float:
        return _negative_control_pvalue(
            lambda child: ConciseSampler(footprint_bytes=pair_bytes,
                                         rng=child, model=model),
            rng, trials=300 * scale)

    @battery.check("negative.counting", expect_reject=True,
                   description="Section 3.3: counting sampling must be "
                               "rejected as non-uniform")
    def negative_counting(rng: SplittableRng, scale: int) -> float:
        return _negative_control_pvalue(
            lambda child: CountingSampler(footprint_bytes=pair_bytes,
                                          rng=child, model=model),
            rng, trials=300 * scale)

    # -- differential checks --------------------------------------------
    @battery.check("differential.executors", kind="exact",
                   description="Serial/Thread/Process executors agree "
                               "byte-for-byte on sample_to_dict")
    def executors_agree(rng: SplittableRng, scale: int) -> List[str]:
        tasks = []
        for scheme, size, bound in (("hb", 300, 24), ("hr", 300, 24),
                                    ("sb", 200, 16), ("hb", 120, 150)):
            tasks.append(SampleTask(
                values=tuple(range(size)), scheme=scheme,
                bound_values=bound, exceedance_p=0.01,
                sb_rate=0.15 if scheme == "sb" else None,
                seed=rng.randrange(2 ** 31)))
        return executor_differential(tasks)

    @battery.check("differential.merge_tree", kind="exact",
                   description="left-deep vs balanced folds agree "
                               "exactly on deterministic merges")
    def merge_tree_agrees(rng: SplittableRng, scale: int) -> List[str]:
        failures: List[str] = []
        # Same-rate SB samples: the union needs no purging, so both
        # fold shapes compute the same deterministic multiset join.
        sb_samples = []
        for i in range(5):
            sampler = make_sampler("sb", population_size=30,
                                   bound_values=16, exceedance_p=0.01,
                                   sb_rate=0.2, rng=rng.spawn("sb", i))
            sampler.feed_many(range(30 * i, 30 * i + 30))
            sb_samples.append(sampler.finalize())
        failures += merge_tree_differential(sb_samples,
                                            rng=rng.spawn("sb-fold"),
                                            label="sb-same-rate")
        # Exhaustive HR samples whose union stays under the bound: every
        # merge is a resumed phase-1 stream, no randomness consumed.
        hr_samples = []
        for i in range(5):
            sampler = make_sampler("hr", population_size=8,
                                   bound_values=64, exceedance_p=0.01,
                                   sb_rate=None, rng=rng.spawn("hr", i))
            sampler.feed_many(range(8 * i, 8 * i + 8))
            hr_samples.append(sampler.finalize())
        failures += merge_tree_differential(hr_samples,
                                            rng=rng.spawn("hr-fold"),
                                            label="hr-exhaustive")
        return failures

    # -- kernel backends ------------------------------------------------
    # These gate the vectorized kernel layer (docs/performance.md):
    # whatever backend is the session's fastest must draw from the same
    # laws as the pure-Python reference.  ``_primary_backend`` pins the
    # vectorized backend when numpy is importable and degrades to the
    # reference itself otherwise, so the battery stays green (and still
    # meaningful as a regression check) on numpy-free interpreters.
    def _primary_backend() -> str:
        return "numpy" if numpy_available() else "python"

    @battery.check("kernels.hypergeom.gof",
                   description="the kernel backend's batched eq. (3) "
                               "draw matches the closed-form pmf")
    def kernel_hypergeom(rng: SplittableRng, scale: int) -> float:
        n1, n2, k = 13, 9, 7
        pmf = hypergeometric_pmf(n1, n2, k)
        lo = max(0, k - n2)
        draws = 1200 * scale
        with use_backend(_primary_backend()):
            values = draw_hypergeometric_batch(n1, n2, k, rng, draws)
        observed = [0] * len(pmf)
        for v in values:
            observed[v - lo] += 1
        expected = [p * draws for p in pmf]
        return chi_square_pvalue(*collapse_cells(observed, expected))

    @battery.check("kernels.binomial.law",
                   description="binomial_counts keeps each run "
                               "Binomial(n, q) on the kernel backend")
    def kernel_binomial(rng: SplittableRng, scale: int) -> float:
        n, q = 60, 0.25
        trials = 600 * scale
        with use_backend(_primary_backend()):
            _indices, kept = binomial_counts([n] * trials, q, rng)
        observed = [0] * (n + 1)
        observed[0] = trials - len(kept)  # runs that kept nothing
        for k in kept:
            observed[k] += 1
        expected = [p * trials for p in binomial_pmf(n, q)]
        return chi_square_pvalue(*collapse_cells(observed, expected))

    @battery.check("kernels.srs.law",
                   description="srs_counts realizes the exact "
                               "multivariate hypergeometric law")
    def kernel_srs(rng: SplittableRng, scale: int) -> float:
        # Small enough to enumerate the joint law exactly: P(kept) =
        # prod_i C(runs_i, kept_i) / C(total, size).
        runs, size = [2, 1, 1], 2
        total = sum(runs)
        outcomes = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
        pmf = [math.prod(math.comb(r, k) for r, k in zip(runs, kept))
               / math.comb(total, size) for kept in outcomes]
        trials = 600 * scale
        observed = [0] * len(outcomes)
        with use_backend(_primary_backend()):
            for _ in range(trials):
                kept = [0] * len(runs)
                for i, n in zip(*srs_counts(runs, size, rng)):
                    kept[i] = n
                observed[outcomes.index(tuple(kept))] += 1
        expected = [p * trials for p in pmf]
        return chi_square_pvalue(observed, expected)

    @battery.check("kernels.pmf.crosscheck", kind="exact",
                   description="numpy and python backends compute the "
                               "same eq. (3) pmf")
    def kernel_pmf_crosscheck(rng: SplittableRng, scale: int) -> List[str]:
        del rng, scale  # deterministic numeric comparison
        if not numpy_available():
            return []  # nothing to cross-check: one backend
        failures: List[str] = []
        for n1, n2, k in ((13, 9, 7), (200, 150, 64), (5, 5, 10),
                          (1000, 2, 2), (3, 400, 100), (64, 64, 64)):
            with use_backend("python"):
                want = kernel_pmf(n1, n2, k)
            with use_backend("numpy"):
                got = kernel_pmf(n1, n2, k)
            if len(want) != len(got):
                failures.append(
                    f"pmf({n1},{n2},{k}): support length "
                    f"{len(got)} != {len(want)}")
                continue
            for i, (w, g) in enumerate(zip(want, got)):
                if not math.isclose(w, g, rel_tol=1e-9, abs_tol=1e-12):
                    failures.append(
                        f"pmf({n1},{n2},{k})[{i}]: {g!r} != {w!r}")
        return failures

    @battery.check("samplers.minibatch.law",
                   description="HB/HR fed in uneven slices keep uniform "
                               "inclusion and HB's phase-2 size law on "
                               "the active backend")
    def minibatch_law(rng: SplittableRng, scale: int) -> float:
        return minibatch_law_pvalue(rng, trials=300 * scale)

    # -- the serving layer ----------------------------------------------
    @battery.check("serve.query.equivalence",
                   description="HTTP-served merges are byte-identical "
                               "to the library path and uniform in law")
    def serve_equivalence(rng: SplittableRng, scale: int) -> float:
        return served_query_equivalence(rng, trials=4 * scale)

    # -- the AQP planner -------------------------------------------------
    @battery.check("aqp.planner.coverage",
                   description="planned-query intervals hit nominal "
                               "coverage across synopsis and selected "
                               "strata")
    def aqp_coverage(rng: SplittableRng, scale: int) -> float:
        return aqp_coverage_pvalue(rng, trials=80 * scale)

    @battery.check("negative.aqp.coverage", expect_reject=True,
                   description="a planner whose variance is halved "
                               "under-covers and must be rejected")
    def negative_aqp_coverage(rng: SplittableRng, scale: int) -> float:
        return aqp_coverage_pvalue(rng, trials=80 * scale,
                                   variance_scale=0.5)

    return battery
