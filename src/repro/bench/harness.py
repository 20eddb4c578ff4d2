"""The Section 5 experimental pipeline.

"We partition a data set and observe the behavior of the various
algorithms as they sample each partition (in parallel) and then execute a
sequence of pairwise merges (serially) to create a uniform sample of the
entire data set."

:func:`run_pipeline` executes exactly that for one scenario and scheme,
separately timing the **sampling** stage (summed over partitions — the
paper's clusters report total CPU cost, which parallelism redistributes
but does not reduce) and the **merge** stage (serial pairwise folds).
:func:`repeat_pipeline` averages over independent repetitions ("all
reported numbers represent an average over three independent and
identical experiments").

Pass ``collect_metrics=True`` to observe a run: the pipeline executes
inside :func:`repro.obs.capture`, and the result carries the metrics
snapshot (every counter/gauge/histogram the instrumented hot paths
emitted — see ``docs/observability.md``) plus the span trace, so a
benchmark can report *why* a configuration is slow, not just that it is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from repro.core.merge import merge_tree
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError
from repro.obs.runtime import capture
from repro.obs.tracing import span
from repro.rng import SplittableRng
from repro.warehouse.parallel import make_sampler
from repro.workloads.scenarios import Scenario

__all__ = ["PipelineResult", "run_pipeline", "repeat_pipeline"]


@dataclass(frozen=True)
class PipelineResult:
    """Timings and outputs of one partition/sample/merge pipeline run."""

    scenario: Scenario
    scheme: str
    partition_sample_seconds: Sequence[float]
    merge_seconds: float
    partition_sample_sizes: Sequence[int]
    merged: WarehouseSample
    #: Metrics snapshot of the run (``collect_metrics=True`` only).
    metrics: Optional[dict] = field(default=None, compare=False)
    #: Finished spans of the run as dicts (``collect_metrics=True`` only).
    trace: Optional[List[dict]] = field(default=None, compare=False)

    @property
    def sample_seconds(self) -> float:
        """Total sampling CPU time, summed over partitions."""
        return sum(self.partition_sample_seconds)

    @property
    def sample_seconds_parallel(self) -> float:
        """Idealized fully-parallel sampling *elapsed* time.

        One worker per partition — the regime the paper's speedup
        figures chart (their light "Sample Time" bars shrink as the
        partition count rises): elapsed sampling time is the slowest
        single partition.
        """
        return max(self.partition_sample_seconds)

    @property
    def total_seconds(self) -> float:
        """Total CPU: all sampling plus merging."""
        return self.sample_seconds + self.merge_seconds

    @property
    def elapsed_seconds(self) -> float:
        """Idealized elapsed: parallel sampling + serial merging."""
        return self.sample_seconds_parallel + self.merge_seconds

    @property
    def merged_size(self) -> int:
        """Data elements in the final merged sample."""
        return self.merged.size


def _default_sb_rate(scenario: Scenario, bound_values: int) -> float:
    """SB rate giving an expected final sample of ``bound_values``.

    The paper does not state SB's rate; matching the hybrid algorithms'
    sample budget makes the speed comparison apples-to-apples.
    """
    return min(1.0, bound_values / scenario.population_size)


def run_pipeline(scenario: Scenario, scheme: str, *,
                 bound_values: int,
                 rng: SplittableRng,
                 exceedance_p: float = 0.001,
                 sb_rate: Optional[float] = None,
                 arrival_mode: str = "stream",
                 collect_metrics: bool = False) -> PipelineResult:
    """Run one scenario through one algorithm; time sampling and merging.

    Data generation happens *before* the clocks start, so timings cover
    only sampling and merging (the quantities Figures 9-14 chart).

    ``arrival_mode`` controls how values reach the samplers:

    * ``"stream"`` (default, the paper's regime) — one ``feed`` call per
      element, charging the per-arrival inspection cost every real
      ingest pipeline pays; per-partition cost is then proportional to
      partition size, which is what makes parallel sampling time fall
      as partitions are added (the figures' light bars).
    * ``"batch"`` — the library's ``feed_many`` fast path, which steps
      over an in-memory sequence one block of arrivals at a time; use
      it to measure the fast path itself.

    ``collect_metrics=True`` runs the pipeline under
    :func:`repro.obs.capture` and attaches the metrics snapshot and
    span trace to the result.  Sampler randomness is untouched by
    instrumentation, so timings aside, the run is identical.
    """
    if collect_metrics:
        with capture() as (registry, ring):
            result = _run_pipeline(scenario, scheme,
                                   bound_values=bound_values, rng=rng,
                                   exceedance_p=exceedance_p,
                                   sb_rate=sb_rate,
                                   arrival_mode=arrival_mode)
        return replace(result, metrics=registry.snapshot(),
                       trace=[s.to_dict() for s in ring.spans])
    return _run_pipeline(scenario, scheme, bound_values=bound_values,
                         rng=rng, exceedance_p=exceedance_p,
                         sb_rate=sb_rate,
                         arrival_mode=arrival_mode)


def _run_pipeline(scenario: Scenario, scheme: str, *,
                  bound_values: int,
                  rng: SplittableRng,
                  exceedance_p: float = 0.001,
                  sb_rate: Optional[float] = None,
                  arrival_mode: str = "stream") -> PipelineResult:
    if scheme == "sb" and sb_rate is None:
        sb_rate = _default_sb_rate(scenario, bound_values)
    chunks = scenario.partition_values(rng)

    samples: List[WarehouseSample] = []
    partition_seconds: List[float] = []
    for i, chunk in enumerate(chunks):
        sampler = make_sampler(
            scheme,
            population_size=len(chunk),
            bound_values=bound_values,
            exceedance_p=exceedance_p,
            sb_rate=sb_rate,
            rng=rng.spawn("part", scenario.label(), scheme, i),
        )
        with span("bench.partition", index=i, size=len(chunk)):
            start = time.perf_counter()
            if arrival_mode == "stream":
                feed = sampler.feed
                for value in chunk:
                    feed(value)
            else:
                sampler.feed_many(chunk)
            samples.append(sampler.finalize())
            partition_seconds.append(time.perf_counter() - start)

    start = time.perf_counter()
    merged = merge_tree(samples,
                        rng=rng.spawn("merge", scenario.label(), scheme))
    merge_seconds = time.perf_counter() - start

    return PipelineResult(
        scenario=scenario,
        scheme=scheme,
        partition_sample_seconds=partition_seconds,
        merge_seconds=merge_seconds,
        partition_sample_sizes=[s.size for s in samples],
        merged=merged,
    )


def repeat_pipeline(scenario: Scenario, scheme: str, *,
                    bound_values: int,
                    rng: SplittableRng,
                    repeats: int = 3,
                    exceedance_p: float = 0.001,
                    sb_rate: Optional[float] = None,
                    arrival_mode: str = "stream") -> List[PipelineResult]:
    """Independent repetitions of :func:`run_pipeline` (paper uses 3)."""
    if repeats <= 0:
        raise ConfigurationError(f"repeats must be positive, got {repeats}")
    return [
        run_pipeline(scenario, scheme,
                     bound_values=bound_values,
                     rng=rng.spawn("repeat", r),
                     exceedance_p=exceedance_p,
                     sb_rate=sb_rate,
                     arrival_mode=arrival_mode)
        for r in range(repeats)
    ]
