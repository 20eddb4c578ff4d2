"""Sampling-based metadata discovery.

The paper's introduction motivates the sample warehouse with automated
metadata discovery [2, 3, 13, 15, 18]: systems like BHUNT and CORDS mine
relationships between columns (join candidates, correlations, fuzzy
constraints) from *samples* rather than full data.  This module provides
the sample-side primitives those systems need:

* :func:`column_profile` — per-dataset profile (distinct-value estimate,
  value-length stats, top values) computed from its warehouse sample;
* :func:`jaccard_estimate` — estimated Jaccard overlap of two datasets'
  value sets from their samples;
* :func:`containment_estimate` — estimated fraction of one dataset's
  values appearing in another (the BHUNT/CORDS join-direction signal);
* :func:`containment_lower_bound` — that estimate minus one standard
  error, so overlap resting on few shared values ranks low;
* :func:`discover_candidates` — rank all dataset pairs of a warehouse by
  estimated overlap, returning join/correlation candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analytics.estimators import chao_distinct, gee_distinct
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError

__all__ = ["ColumnProfile", "column_profile", "jaccard_estimate",
           "containment_estimate", "containment_lower_bound",
           "discover_candidates"]


@dataclass(frozen=True)
class ColumnProfile:
    """Sample-derived profile of one dataset (column)."""

    dataset: str
    population_size: int
    sample_size: int
    distinct_in_sample: int
    distinct_chao: float
    distinct_gee: float
    top_values: Tuple[Tuple[object, int], ...]
    uniqueness: float  # distinct estimate / population size, clamped

    def looks_like_key(self, threshold: float = 0.95) -> bool:
        """Heuristic: is this column (nearly) unique per row?"""
        return self.uniqueness >= threshold


def column_profile(dataset: str, sample: WarehouseSample, *,
                   top: int = 10) -> ColumnProfile:
    """Profile a dataset from its warehouse sample."""
    ranked = sorted(sample.histogram.pairs(), key=lambda kv: -kv[1])[:top]
    chao = chao_distinct(sample)
    gee = gee_distinct(sample)
    population = max(1, sample.population_size)
    uniqueness = min(1.0, max(chao, 1.0) / population)
    return ColumnProfile(
        dataset=dataset,
        population_size=sample.population_size,
        sample_size=sample.size,
        distinct_in_sample=sample.distinct,
        distinct_chao=chao,
        distinct_gee=gee,
        top_values=tuple(ranked),
        uniqueness=uniqueness,
    )


def _value_sets(a: WarehouseSample, b: WarehouseSample
                ) -> Tuple[Set[object], Set[object]]:
    return set(a.histogram.values()), set(b.histogram.values())


def jaccard_estimate(a: WarehouseSample, b: WarehouseSample) -> float:
    """Estimated Jaccard similarity of the two datasets' value sets.

    Computed on the samples' distinct values; for uniform samples this is
    a consistent (if biased-low for rare values) overlap signal — the
    standard sampling-based screen used before exact verification.
    """
    va, vb = _value_sets(a, b)
    union = len(va | vb)
    if union == 0:
        return 0.0
    return len(va & vb) / union


def _containment_parts(a: WarehouseSample, b: WarehouseSample
                       ) -> Tuple[int, int, float]:
    """``(|V_a ∩ V_b|, |V_a|, coverage of b)`` behind the estimates."""
    va, vb = _value_sets(a, b)
    estimated_distinct_b = max(chao_distinct(b), 1.0)
    coverage_b = min(1.0, b.distinct / estimated_distinct_b)
    return len(va & vb), len(va), coverage_b


def containment_estimate(a: WarehouseSample, b: WarehouseSample, *,
                         corrected: bool = True) -> float:
    """Estimated fraction of ``a``'s values that also occur in ``b``.

    The raw sample-vs-sample overlap ``|V_a ∩ V_b| / |V_a|``
    systematically *underestimates* true containment: a value of ``a``
    that does occur in ``b``'s population only shows up in ``b``'s
    sample with probability roughly equal to ``b``'s distinct-value
    coverage.  With ``corrected=True`` (default) the raw ratio is
    divided by that coverage — ``b.distinct / chao(b)`` — and clamped to
    ``[0, 1]``, giving an approximately unbiased containment signal.

    ``containment(a in b) ~ 1`` with high uniqueness of ``b`` suggests a
    foreign-key -> key relationship from ``a`` to ``b``.
    """
    hits, size, coverage_b = _containment_parts(a, b)
    if not size:
        return 0.0
    raw = hits / size
    if not corrected or coverage_b <= 0.0:
        return raw
    return min(1.0, raw / coverage_b)


def containment_lower_bound(a: WarehouseSample,
                            b: WarehouseSample) -> float:
    """The corrected containment estimate minus one standard error.

    The shared values are counted as Poisson, so an estimate resting on
    ``h`` of them has standard error ``sqrt(h) / (|V_a| * coverage)``.
    A column with a handful of distinct values (a 10-valued quantity
    inside a range of keys) gets a wide interval, and its trivially
    high containment no longer ties with a foreign key backed by
    hundreds of shared values.
    """
    hits, size, coverage_b = _containment_parts(a, b)
    if not size or coverage_b <= 0.0:
        return 0.0
    scale = size * coverage_b
    return min(1.0, hits / scale) - math.sqrt(hits) / scale


@dataclass(frozen=True)
class Candidate:
    """A discovered relationship candidate between two datasets."""

    left: str
    right: str
    jaccard: float
    containment_lr: float
    containment_rl: float
    lower_lr: float
    lower_rl: float

    @property
    def score(self) -> float:
        """Ranking score: the larger directional containment lower
        bound (:func:`containment_lower_bound`)."""
        return max(self.lower_lr, self.lower_rl)


def discover_candidates(warehouse, *,
                        datasets: Optional[Sequence[str]] = None,
                        min_jaccard: float = 0.0,
                        top: Optional[int] = None) -> List[Candidate]:
    """Rank dataset pairs of a warehouse by sample-estimated overlap.

    This is the metadata-discovery loop run entirely against the sample
    warehouse: one merged sample per dataset, then pairwise set overlap.
    """
    names = list(datasets) if datasets is not None \
        else warehouse.datasets()
    if len(names) < 2:
        raise ConfigurationError(
            "need at least two datasets to discover relationships")
    samples: Dict[str, WarehouseSample] = {
        name: warehouse.sample_of(name) for name in names}
    out: List[Candidate] = []
    for i, left in enumerate(names):
        for right in names[i + 1:]:
            a, b = samples[left], samples[right]
            jac = jaccard_estimate(a, b)
            if jac < min_jaccard:
                continue
            out.append(Candidate(
                left=left,
                right=right,
                jaccard=jac,
                containment_lr=containment_estimate(a, b),
                containment_rl=containment_estimate(b, a),
                lower_lr=containment_lower_bound(a, b),
                lower_rl=containment_lower_bound(b, a),
            ))
    out.sort(key=lambda c: (-c.score, -c.jaccard, c.left, c.right))
    return out[:top] if top is not None else out
