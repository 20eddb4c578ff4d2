"""The error-bounded AQP planner (summary-statistics partition selection).

Merge-on-demand answers every aggregate by merging **all** selected
partitions, so query latency grows linearly with partition count.  The
planner replaces that with the partition-selection design of
"Approximate Partition Selection for Big-Data Workloads using Summary
Statistics" (PAPERS.md), adapted to this warehouse: every partition is
one *stratum*, the catalog's :class:`~repro.warehouse.synopsis.
PartitionSynopsis` records its summary statistics, and a query with a
target half-width reads only the partition samples the error bound
actually needs.

**The error model.**  For a predicate-free COUNT / SUM / AVG each
stratum can contribute one of three ways:

* an **exact synopsis** (ingest saw the raw values) answers its
  stratum with zero variance and zero store reads;
* an **estimated synopsis** (scale-up from a stored sample, basis
  ``m_h``) answers with variance ``N_h² σ̂_h² / m_h`` — priced
  *without* a finite-population correction, because the plan has not
  read the partition and conservatively treats the frozen scale-up as
  an external estimate;
* a **selected** stratum's sample is read and re-estimated live,
  which earns the per-stratum fpc: predicted variance
  ``N_h² σ̂_h² / n_h · (1 − n_h/N_h)``.

The planner ranks the estimated strata by the variance each would shed
if selected (population- and variance-weighted: the gain is
``≈ N_h σ̂_h²`` plus any live-sample advantage) and greedily selects
until the predicted half-width ``z · sqrt(Σ variances)`` certifies the
target.  When certification is impossible — a stratum with no usable
synopsis, a non-numeric column, a custom value function, a predicate,
or a bound tighter than even full selection reaches — the plan
**falls back to merge-all**, the legacy estimator whose answer is
never wrong, just slower.  Execution combines the chosen strata with
:func:`repro.analytics.estimators.stratified_partition_estimate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable, List, Optional, Tuple

from repro.analytics.estimators import (Estimate,
                                        stratified_partition_estimate)
from repro.errors import ConfigurationError
from repro.obs.clock import monotonic
from repro.obs.runtime import OBS
from repro.warehouse.dataset import PartitionKey

__all__ = ["QueryPlan", "QueryPlanner", "PLAN_AGGREGATES"]

_NORMAL = NormalDist()

#: Aggregates the planner can certify from synopses.
PLAN_AGGREGATES = ("count", "sum", "avg")


@dataclass(frozen=True)
class QueryPlan:
    """One planned aggregate query: what to read, what it promises.

    ``selected`` are the partitions whose samples execution reads;
    ``synopsis_keys`` are answered from catalog synopses alone.
    ``predicted_half_width`` is the conservative pre-read bound (in the
    aggregate's units); ``certified`` says it met the target.  A
    ``fallback`` plan could not be certified — the engine then runs
    the merge-all path and ``reason`` says why.
    """

    dataset: str
    agg: str
    confidence: float
    target_half_width: Optional[float]
    labels: Optional[Tuple[str, ...]]
    selected: Tuple[PartitionKey, ...]
    synopsis_keys: Tuple[PartitionKey, ...]
    total_partitions: int
    predicted_half_width: float
    certified: bool
    fallback: bool
    reason: str
    ranked: Tuple[Tuple[str, float], ...]
    seconds: float

    def to_dict(self) -> dict:
        """JSON-serializable diagnostics (the served ``plan`` block)."""
        return {
            "dataset": self.dataset,
            "agg": self.agg,
            "confidence": self.confidence,
            "target_half_width": self.target_half_width,
            "labels": list(self.labels) if self.labels is not None
            else None,
            "selected": [str(k) for k in self.selected],
            "synopsis_partitions": len(self.synopsis_keys),
            "total_partitions": self.total_partitions,
            "predicted_half_width": self.predicted_half_width,
            "certified": self.certified,
            "fallback": self.fallback,
            "reason": self.reason,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class _Stratum:
    """Planner-internal view of one partition's error contribution."""

    key: PartitionKey
    population: int
    unselected_variance: float   # contribution if answered by synopsis
    selected_variance: float     # predicted contribution if sampled
    selectable: bool             # has a live sample worth reading

    @property
    def gain(self) -> float:
        return self.unselected_variance - self.selected_variance


class QueryPlanner:
    """Plans error-bounded aggregates over a sample warehouse.

    Examples
    --------
    >>> from repro import SampleWarehouse, SplittableRng
    >>> wh = SampleWarehouse(bound_values=64, rng=SplittableRng(7))
    >>> _ = wh.ingest_batch("t.v", list(range(4000)), partitions=8)
    >>> plan = QueryPlanner(wh).plan("t.v", "sum",
    ...                              target_half_width=0.02,
    ...                              relative=True)
    >>> plan.certified and not plan.selected  # exact synopses suffice
    True
    """

    def __init__(self, warehouse) -> None:
        self._warehouse = warehouse

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, dataset: str, agg: str, *,
             target_half_width: float,
             confidence: float = 0.95,
             labels: Optional[Iterable[str]] = None,
             relative: bool = False) -> QueryPlan:
        """Build a plan certifying ``target_half_width`` at ``confidence``.

        ``relative=True`` reads the target as a fraction of the
        synopsis-implied point estimate (``0.02`` = 2 %); otherwise it
        is absolute in the aggregate's units.
        """
        if agg not in PLAN_AGGREGATES:
            raise ConfigurationError(
                f"cannot plan aggregate {agg!r}; "
                f"expected one of {PLAN_AGGREGATES}")
        if not math.isfinite(target_half_width) or target_half_width < 0.0:
            raise ConfigurationError(
                f"target_half_width must be finite and >= 0, "
                f"got {target_half_width}")
        if not 0.0 < confidence < 1.0:
            raise ConfigurationError(
                f"confidence must be in (0, 1), got {confidence}")
        t0 = monotonic()
        label_sig = tuple(sorted(labels)) if labels is not None else None
        catalog = self._warehouse.catalog
        if label_sig is not None:
            metas = catalog.merge_labels(dataset, label_sig)
        else:
            metas = catalog.partitions(dataset)

        def finish(selected: Tuple[PartitionKey, ...],
                   synopsis_keys: Tuple[PartitionKey, ...],
                   predicted: float, target: Optional[float],
                   certified: bool, fallback: bool, reason: str,
                   ranked: Tuple[Tuple[str, float], ...] = ()
                   ) -> QueryPlan:
            seconds = monotonic() - t0
            if OBS.enabled:
                reg = OBS.registry
                reg.counter("aqp.planner.partitions.total").add(len(metas))
                reg.counter("aqp.planner.partitions.selected").add(
                    len(selected))
                if fallback:
                    reg.counter("aqp.planner.fallback").inc()
                reg.histogram("aqp.planner.seconds").observe(seconds)
            return QueryPlan(
                dataset=dataset, agg=agg, confidence=confidence,
                target_half_width=target, labels=label_sig,
                selected=selected, synopsis_keys=synopsis_keys,
                total_partitions=len(metas),
                predicted_half_width=predicted, certified=certified,
                fallback=fallback, reason=reason, ranked=ranked,
                seconds=seconds)

        if not metas:
            return finish((), (), math.inf, None, False, True,
                          "no partitions selected")

        if agg == "count":
            # Parent sizes are catalog facts: exact, zero reads.
            return finish((), tuple(m.key for m in metas), 0.0,
                          target_half_width, True, False, "")

        strata: List[_Stratum] = []
        population_total = 0
        point_total = 0.0
        for meta in metas:
            synopsis = meta.synopsis
            if synopsis is None or not synopsis.numeric:
                return finish(
                    (), (), math.inf, None, False, True,
                    f"partition {meta.key} has no usable synopsis")
            if not synopsis.exact and synopsis.basis <= 0:
                return finish(
                    (), (), math.inf, None, False, True,
                    f"partition {meta.key} synopsis has an empty basis")
            population_total += synopsis.count
            point_total += synopsis.total
            if synopsis.exact:
                v_u = 0.0
                v_s = 0.0
                selectable = False
            else:
                big_n = synopsis.count
                sigma_sq = synopsis.variance
                v_u = big_n ** 2 * sigma_sq / synopsis.basis
                n_live = meta.sample_size
                if n_live > 0:
                    fpc = max(0.0, 1.0 - n_live / max(1, big_n))
                    v_s = big_n ** 2 * sigma_sq / n_live * fpc
                    selectable = True
                else:
                    v_s = v_u
                    selectable = False
            strata.append(_Stratum(meta.key, synopsis.count, v_u, v_s,
                                   selectable))

        # Resolve the target into sum-space (avg scales by 1/N).
        target = target_half_width
        if relative:
            point = point_total if agg == "sum" \
                else (point_total / population_total
                      if population_total else 0.0)
            target = target_half_width * abs(point)
        sum_target = target
        if agg == "avg":
            if population_total == 0:
                return finish((), (), math.inf, None, False, True,
                              "empty population")
            sum_target = target * population_total

        z = _NORMAL.inv_cdf(0.5 + confidence / 2.0)
        ranked = tuple(
            (str(s.key), s.unselected_variance)
            for s in sorted(strata, key=lambda s: (-s.unselected_variance,
                                                   s.key)))
        variance = sum(s.unselected_variance for s in strata)
        selected: List[PartitionKey] = []
        candidates = sorted((s for s in strata if s.selectable
                             and s.gain > 0.0),
                            key=lambda s: (-s.gain, s.key))
        for stratum in candidates:
            if z * math.sqrt(variance) <= sum_target:
                break
            variance -= stratum.gain
            selected.append(stratum.key)
        predicted_sum_hw = z * math.sqrt(variance)
        certified = predicted_sum_hw <= sum_target
        predicted = predicted_sum_hw if agg == "sum" \
            else predicted_sum_hw / population_total
        if not certified:
            return finish(
                tuple(selected), (), predicted, target, False, True,
                f"bound not certifiable: predicted half-width "
                f"{predicted:.6g} > target {target:.6g}", ranked)
        chosen = set(selected)
        synopsis_keys = tuple(s.key for s in strata
                              if s.key not in chosen)
        return finish(tuple(selected), synopsis_keys, predicted, target,
                      True, False, "", ranked)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, plan: QueryPlan, *,
                variance_scale: float = 1.0) -> Estimate:
        """Run a certified plan: read the selected samples, combine.

        The caller (the query engine, the serve layer) handles
        ``fallback`` plans itself — executing one here would silently
        produce the uncertified answer the plan refused to promise.
        """
        if plan.fallback:
            raise ConfigurationError(
                f"cannot execute a fallback plan ({plan.reason}); "
                "run the merge-all path instead")
        catalog = self._warehouse.catalog
        sampled = [(catalog.get(key).population_size,
                    self._warehouse.sample_for(key))
                   for key in plan.selected]
        synopses = []
        for key in plan.synopsis_keys:
            synopsis = catalog.get(key).synopsis
            if synopsis is None:
                raise ConfigurationError(
                    f"partition {key} lost its synopsis since planning; "
                    "re-plan the query")
            synopses.append(synopsis)
        return stratified_partition_estimate(
            plan.agg, sampled=sampled, synopses=synopses,
            confidence=plan.confidence, variance_scale=variance_scale)
