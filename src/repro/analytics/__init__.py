"""Analytics over warehouse samples: the motivating applications —
approximate query answering, distinct-value estimation, and
sampling-based metadata discovery."""

from repro.analytics.aqp import ApproximateQueryEngine, Estimate
from repro.analytics.estimators import (StratifiedSample, chao_distinct,
                                        estimate_avg, estimate_count,
                                        estimate_quantile, estimate_sum,
                                        gee_distinct)
from repro.analytics.metadata import (column_profile, discover_candidates,
                                      jaccard_estimate)

__all__ = [
    "ApproximateQueryEngine",
    "Estimate",
    "StratifiedSample",
    "estimate_count",
    "estimate_sum",
    "estimate_avg",
    "estimate_quantile",
    "chao_distinct",
    "gee_distinct",
    "column_profile",
    "discover_candidates",
    "jaccard_estimate",
]
