"""Differential checks: independent execution paths must agree exactly.

Statistical checks catch biased laws; differential checks catch broken
plumbing.  Two helpers, both returning lists of failure messages (empty
means agreement):

* :func:`executor_differential` — every ``SampleTask`` must serialize to
  **byte-identical** ``sample_to_dict`` JSON across the Serial, Thread,
  and Process executors.  Each task carries its own seed, so any
  divergence means an executor leaks state between tasks or into them.
* :func:`merge_tree_differential` — a left-deep fold
  (:func:`left_deep_fold`) vs ``merge_tree``'s one step on inputs
  whose merges are deterministic (same-rate SB unions; exhaustive unions
  that stay under the footprint bound).  The two plans must yield
  the **same sample**; comparison is on a canonical serialization
  (histogram pairs sorted) because ``CompactHistogram.join`` is free to
  reorder its insertion-ordered backing dict.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from repro.core.merge import merge_samples, merge_tree
from repro.core.sample import WarehouseSample
from repro.rng import SplittableRng
from repro.warehouse.parallel import (ProcessExecutor, SampleTask,
                                      SerialExecutor, ThreadExecutor,
                                      sample_partition)
from repro.warehouse.storage import sample_to_dict

__all__ = ["executor_differential", "merge_tree_differential",
           "left_deep_fold", "serialize_exact", "serialize_canonical"]


def serialize_exact(sample: WarehouseSample) -> str:
    """Byte-exact JSON of a sample (histogram in insertion order)."""
    return json.dumps(sample_to_dict(sample), sort_keys=True, default=repr)


def serialize_canonical(sample: WarehouseSample) -> str:
    """Order-insensitive JSON: histogram pairs sorted by value repr."""
    data = sample_to_dict(sample)
    data["histogram"] = sorted(data["histogram"],
                               key=lambda pair: repr(pair[0]))
    return json.dumps(data, sort_keys=True, default=repr)


def executor_differential(tasks: Sequence[SampleTask], *,
                          max_workers: int = 2) -> List[str]:
    """Failure messages when executors disagree on any task.

    Runs the same task list through all three executors and compares
    the byte-exact serialization of every resulting sample against the
    serial reference.
    """
    serial = SerialExecutor().map(sample_partition, tasks)
    reference = [serialize_exact(s) for s in serial]
    failures: List[str] = []
    others = (("thread", ThreadExecutor(max_workers=max_workers)),
              ("process", ProcessExecutor(max_workers=max_workers)))
    for label, executor in others:
        produced = executor.map(sample_partition, tasks)
        if len(produced) != len(tasks):
            failures.append(
                f"{label} executor returned {len(produced)} result(s) "
                f"for {len(tasks)} task(s)")
            continue
        for i, (want, got) in enumerate(
                zip(reference, (serialize_exact(s) for s in produced))):
            if want != got:
                task = tasks[i]
                failures.append(
                    f"{label} executor diverged from serial on task "
                    f"{i} (scheme={task.scheme}, seed={task.seed}): "
                    f"{got} != {want}")
    return failures


def left_deep_fold(samples: Sequence[WarehouseSample], *,
                   rng: SplittableRng) -> WarehouseSample:
    """Fold ``((s0 + s1) + s2) + ...``, node ``i`` on ``rng.spawn("fold", i)``.

    ``merge_tree`` merges all inputs in one step; here every merge
    takes the running union as its left input, so checks that compare
    the two compare genuinely different plans.
    """
    acc = samples[0]
    for i, sample in enumerate(samples[1:], start=1):
        acc = merge_samples(acc, sample, rng=rng.spawn("fold", i))
    return acc


def merge_tree_differential(samples: Sequence[WarehouseSample], *,
                            rng: SplittableRng,
                            label: str = "inputs") -> List[str]:
    """Failure messages when a left-deep fold and ``merge_tree`` disagree.

    Only meaningful for inputs whose pairwise merges are deterministic
    (the caller guarantees this); both folds then compute the same
    union sample and must serialize identically after canonicalization.
    """
    want = serialize_canonical(left_deep_fold(samples,
                                              rng=rng.spawn("left-deep")))
    got = serialize_canonical(merge_tree(samples,
                                         rng=rng.spawn("tree")))
    if want != got:
        return [f"merge_tree({label}) left-deep vs one step diverged: "
                f"{got} != {want}"]
    return []
