"""Approximate query answering over the sample warehouse.

:class:`ApproximateQueryEngine` binds the estimators of
:mod:`repro.analytics.estimators` to a :class:`~repro.warehouse.warehouse.
SampleWarehouse`: each query selects a set of partitions (all active ones
by default, or a temporal label set), merges their samples into one
uniform sample via the warehouse, and evaluates the estimator on it.
The engine holds no state between queries: every call merges afresh,
and because a merge is a pure function of the selection and the
warehouse seed (docs/determinism.md), a repeated query repeats its
answer and a query after any mutation sees it.

This is the "quick approximate analytics" use case of the paper's
abstract: COUNT / SUM / AVG with confidence intervals, GROUP BY counts,
and quantiles — all without touching the full-scale warehouse.

Two answer paths exist for COUNT / SUM / AVG:

* **merge-all** (the default): merge every selected partition sample and
  run the classical estimator — always available, cost linear in the
  partition count;
* **planned** (pass ``target_half_width=``): the
  :class:`~repro.analytics.planner.QueryPlanner` certifies the error
  bound from catalog synopses and reads only the partition samples the
  bound needs.  Queries the planner cannot certify (predicates, custom
  value functions, missing synopses, unreachable bounds) silently take
  the merge-all path, so answers never degrade — see docs/aqp.md.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.analytics.estimators import (Estimate, estimate_avg,
                                        estimate_count, estimate_quantile,
                                        estimate_sum)
from repro.analytics.planner import QueryPlan, QueryPlanner
from repro.core.phases import SampleKind

__all__ = ["ApproximateQueryEngine", "Estimate"]

Predicate = Callable[[object], bool]


class ApproximateQueryEngine:
    """SQL-ish aggregate estimates from a sample warehouse.

    Examples
    --------
    >>> from repro import SampleWarehouse, SplittableRng
    >>> wh = SampleWarehouse(bound_values=512, rng=SplittableRng(5))
    >>> _ = wh.ingest_batch("sales.amount", list(range(100_000)),
    ...                     partitions=4)
    >>> engine = ApproximateQueryEngine(wh)
    >>> est = engine.count("sales.amount")
    >>> est.value
    100000.0
    """

    def __init__(self, warehouse) -> None:
        self._warehouse = warehouse
        self._planner = QueryPlanner(warehouse)

    # ------------------------------------------------------------------
    # Planner integration
    # ------------------------------------------------------------------
    def _planned(self, dataset: str, agg: str, *,
                 plan: Optional[QueryPlan],
                 target_half_width: Optional[float],
                 relative: bool,
                 labels: Optional[Iterable[str]],
                 confidence: float) -> Optional[Estimate]:
        """Try the planner path; ``None`` means take merge-all instead."""
        if plan is None:
            plan = self._planner.plan(
                dataset, agg, target_half_width=target_half_width,
                confidence=confidence, labels=labels, relative=relative)
        if plan.fallback:
            return None
        return self._planner.execute(plan)

    def plan_summary(self, dataset: str, agg: str = "sum", *,
                     target_half_width: float,
                     relative_target: bool = False,
                     labels: Optional[Iterable[str]] = None,
                     confidence: float = 0.95) -> dict:
        """Diagnostics: what a planned query would read, and why.

        Includes the planner's contribution ranking (largest unread
        variance first) so operators can see which partitions dominate
        the error budget.
        """
        plan = self._planner.plan(
            dataset, agg, target_half_width=target_half_width,
            confidence=confidence, labels=labels, relative=relative_target)
        summary = plan.to_dict()
        summary["ranked"] = [list(pair) for pair in plan.ranked[:8]]
        return summary

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def count(self, dataset: str, *, where: Optional[Predicate] = None,
              labels: Optional[Iterable[str]] = None,
              confidence: float = 0.95,
              target_half_width: Optional[float] = None,
              relative_target: bool = False,
              plan: Optional[QueryPlan] = None) -> Estimate:
        """Estimated ``COUNT(*) [WHERE ...]`` over the selected partitions."""
        if (plan is not None or target_half_width is not None) \
                and where is None:
            estimate = self._planned(
                dataset, "count", plan=plan,
                target_half_width=target_half_width,
                relative=relative_target, labels=labels,
                confidence=confidence)
            if estimate is not None:
                return estimate
        sample = self._warehouse.sample_of(dataset, labels=labels)
        return estimate_count(sample, where=where, confidence=confidence)

    def sum(self, dataset: str, *,
            value_fn: Callable[[object], float] = float,
            labels: Optional[Iterable[str]] = None,
            confidence: float = 0.95,
            target_half_width: Optional[float] = None,
            relative_target: bool = False,
            plan: Optional[QueryPlan] = None) -> Estimate:
        """Estimated ``SUM(value_fn(v))``."""
        if (plan is not None or target_half_width is not None) \
                and value_fn is float:
            estimate = self._planned(
                dataset, "sum", plan=plan,
                target_half_width=target_half_width,
                relative=relative_target, labels=labels,
                confidence=confidence)
            if estimate is not None:
                return estimate
        sample = self._warehouse.sample_of(dataset, labels=labels)
        return estimate_sum(sample, value_fn=value_fn,
                            confidence=confidence)

    def avg(self, dataset: str, *,
            value_fn: Callable[[object], float] = float,
            labels: Optional[Iterable[str]] = None,
            confidence: float = 0.95,
            target_half_width: Optional[float] = None,
            relative_target: bool = False,
            plan: Optional[QueryPlan] = None) -> Estimate:
        """Estimated ``AVG(value_fn(v))``."""
        if (plan is not None or target_half_width is not None) \
                and value_fn is float:
            estimate = self._planned(
                dataset, "avg", plan=plan,
                target_half_width=target_half_width,
                relative=relative_target, labels=labels,
                confidence=confidence)
            if estimate is not None:
                return estimate
        sample = self._warehouse.sample_of(dataset, labels=labels)
        return estimate_avg(sample, value_fn=value_fn,
                            confidence=confidence)

    def quantile(self, dataset: str, fraction: float, *,
                 labels: Optional[Iterable[str]] = None) -> float:
        """Estimated ``fraction``-quantile of the values."""
        sample = self._warehouse.sample_of(dataset, labels=labels)
        return estimate_quantile(sample, fraction)

    def group_by_count(self, dataset: str,
                       key_fn: Callable[[object], object], *,
                       labels: Optional[Iterable[str]] = None,
                       top: Optional[int] = None
                       ) -> List[tuple]:
        """Estimated per-group counts for ``GROUP BY key_fn(v)``.

        Returns ``[(group, estimated_count), ...]`` sorted by estimate,
        largest first, truncated to ``top`` groups if given.
        """
        sample = self._warehouse.sample_of(dataset, labels=labels)
        scale = sample.scale_factor
        groups: Dict[object, float] = {}
        for value, cnt in sample.histogram.pairs():
            g = key_fn(value)
            groups[g] = groups.get(g, 0.0) + cnt * scale
        ranked = sorted(groups.items(), key=lambda kv: -kv[1])
        return ranked[:top] if top is not None else ranked

    def sampling_summary(self, dataset: str, *,
                         labels: Optional[Iterable[str]] = None) -> dict:
        """Diagnostics: what the query sample actually is."""
        sample = self._warehouse.sample_of(dataset, labels=labels)
        return {
            "kind": sample.kind.name,
            "exact": sample.kind is SampleKind.EXHAUSTIVE,
            "sample_size": sample.size,
            "population_size": sample.population_size,
            "sampling_fraction": sample.sampling_fraction,
            "distinct_in_sample": sample.distinct,
        }
