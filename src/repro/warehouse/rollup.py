"""Temporal rollups: daily samples -> weekly/monthly/... samples.

Section 2's warehousing scenario partitions each incoming stream
temporally ("one partition per day") and combines daily samples into
weekly, monthly, or yearly samples for analysis.  :func:`temporal_rollup`
performs that combination over a warehouse dataset by grouping partition
labels and merging each group into a uniform sample of the group's union.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.merge import merge_tree
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError
from repro.rng import SplittableRng
from repro.warehouse.dataset import PartitionKey
from repro.warehouse.synopsis import PartitionSynopsis

__all__ = ["temporal_rollup", "temporal_rollup_with_synopses",
           "group_by_window"]


def group_by_window(keys: List[PartitionKey],
                    window: int) -> List[List[PartitionKey]]:
    """Group keys into consecutive windows of ``window`` partitions.

    The natural grouping for "7 dailies -> 1 weekly".  The final group
    may be shorter.
    """
    if window <= 0:
        raise ConfigurationError(f"window must be positive, got {window}")
    return [keys[i:i + window] for i in range(0, len(keys), window)]


def temporal_rollup(warehouse, dataset: str, *,
                    window: Optional[int] = None,
                    group_fn: Optional[Callable[[PartitionKey], str]] = None,
                    rng: Optional[SplittableRng] = None
                    ) -> Dict[str, WarehouseSample]:
    """Merge a dataset's partitions into coarser temporal units.

    Exactly one grouping must be given:

    * ``window=n`` — consecutive runs of ``n`` partitions (groups are
      named ``"w0", "w1", ...``), or
    * ``group_fn`` — maps each :class:`PartitionKey` to a group name
      (e.g. a month derived from the day encoded in ``key.seq``).

    Returns ``{group_name: merged_sample}``; group contents merge through
    :func:`~repro.core.merge.merge_tree`.  The warehouse itself is not modified — callers
    can re-ingest the rollups under a derived dataset name if they want
    them cataloged (see ``examples/temporal_rollup.py``).
    """
    with_synopses = temporal_rollup_with_synopses(
        warehouse, dataset, window=window, group_fn=group_fn, rng=rng)
    return {name: sample for name, (sample, _) in with_synopses.items()}


def temporal_rollup_with_synopses(
        warehouse, dataset: str, *,
        window: Optional[int] = None,
        group_fn: Optional[Callable[[PartitionKey], str]] = None,
        rng: Optional[SplittableRng] = None
) -> Dict[str, Tuple[WarehouseSample, Optional[PartitionSynopsis]]]:
    """:func:`temporal_rollup` plus each group's merged synopsis.

    Summary statistics merge exactly alongside the samples (moments
    add, ranges widen, heavy-hitter counters sum), so rolled-up
    partitions stay fully plannable.  A group whose members include a
    synopsis-less partition gets ``None`` — estimating would silently
    mix exact and estimated moments.
    """
    if (window is None) == (group_fn is None):
        raise ConfigurationError("give exactly one of window and group_fn")
    rng = rng if rng is not None else SplittableRng()
    keys = warehouse.partition_keys(dataset)
    if not keys:
        raise ConfigurationError(f"dataset {dataset!r} has no partitions")

    groups: Dict[str, List[PartitionKey]] = {}
    if window is not None:
        for i, bucket in enumerate(group_by_window(keys, window)):
            groups[f"w{i}"] = bucket
    else:
        assert group_fn is not None
        for key in keys:
            groups.setdefault(group_fn(key), []).append(key)

    catalog = warehouse.catalog
    out: Dict[str, Tuple[WarehouseSample, Optional[PartitionSynopsis]]] = {}
    for name, bucket in groups.items():
        samples = [warehouse.sample_for(k) for k in bucket]
        merged = merge_tree(samples, rng=rng.spawn("rollup", name))
        synopses = [catalog.get(k).synopsis for k in bucket]
        synopsis = (PartitionSynopsis.merge(synopses)
                    if all(s is not None for s in synopses) else None)
        out[name] = (merged, synopsis)
    return out
