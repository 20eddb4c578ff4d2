"""Helpers shared by the workloads: paths, seeds, statistics, results.

Nothing here imports ``repro`` at module level; :func:`ensure_program`
puts the checkout's ``src`` directory first on ``sys.path`` once it has
checked that the program's source is there.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import platform
import resource
import statistics
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

#: end-to-end metric -> unit.  Every workload reports every one; what
#: the ``a`` and ``b`` operation classes are differs per workload
#: (see :data:`ALIASES` and NOTES.md).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "rss_peak_mb": "MB",
    "a_p50_s": "s",
    "a_p90_s": "s",
    "a_rate_per_s": "1/s",
    "b_p50_s": "s",
    "b_p90_s": "s",
    "b_rate_per_s": "1/s",
    "goodput_per_s": "1/s",
}

#: The names the workload descriptions give the generic metrics.
ALIASES: Dict[str, Dict[str, str]] = {
    "load": {"a_rate_per_s": "ingest_lowcard_values_per_s",
             "b_rate_per_s": "ingest_highcard_values_per_s"},
    "query": {"a_p50_s": "query_merge_p50_s",
              "a_p90_s": "query_merge_p99_s, as p90",
              "b_p50_s": "query_planned_p50_s",
              "b_p90_s": "query_planned_p99_s, as p90"},
    "serve": {"a_p50_s": "serve_read_p50_s",
              "a_p90_s": "serve_read_p99_s, as p90",
              "b_p50_s": "serve_write_p50_s",
              "goodput_per_s": "serve_goodput_rps"},
}

#: Span names whose self time is reported per operation as ``<name>.s``.
SELF_TIME_LAYERS: List[str] = [
    "core.sample_partition", "core.sampler.feed",
    "warehouse.synopsis.from_values", "warehouse.synopsis.accumulate",
    "warehouse.ingest_batch", "warehouse.stream.feed_many",
    "core.merge_tree", "kernels", "warehouse.sample_of",
    "warehouse.store.get", "warehouse.catalog",
    "analytics.plan", "analytics.execute", "analytics.estimators",
    "serve.request", "serve.parse", "serve.encode", "serve.handle",
    "serve.admission.wait", "serve.pool.wait", "serve.occ.version",
    "serve.occ.read", "serve.occ.mutate", "serve.cache.get", "bench.op",
]

#: per-layer metric -> unit (reported by every traced run; a layer a
#: workload does not reach reads 0).
PER_LAYER: Dict[str, str] = {f"{name}.s": "s/op"
                             for name in SELF_TIME_LAYERS}
PER_LAYER.update({
    "core.merge_tree.inputs": "count",
    "kernels.calls": "1/op",
    "warehouse.sample_of.calls": "1/op",
    "analytics.selected_frac": "ratio",
    "analytics.fallback_frac": "ratio",
    "analytics.merges_per_query": "count",
    "serve.admission.shed_frac": "ratio",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.evictions": "count",
    "serve.cache.peak_entries": "count",
    "serve.merges_per_miss": "count",
    "serve.unattributed.s": "s/op",
    "serve.reconcile_error_frac": "ratio",
    "bench.lateness_p99_s": "s",
    "bench.trace_overhead_frac": "ratio",
    "obs.overhead_frac": "ratio",
})


def ensure_program() -> None:
    """Make ``import repro`` load this checkout's source tree."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: the program's source is missing ({SRC}/repro); "
            "run the benchmark from the root of a repository checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def out_path(name: str) -> str:
    """A path for a trace file under the benchmark's ignored output dir."""
    os.makedirs(OUT, exist_ok=True)
    return os.path.join(OUT, name)


def sub_seed(seed: int, *labels: object) -> int:
    """A 63-bit seed derived from ``seed`` and ``labels`` (the same in
    every process, unlike ``hash``)."""
    digest = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def rss_peak_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (``0 <= q <= 1``)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def class_metrics(prefix: str,
                  passes: Sequence[Tuple[Sequence[float], float]]
                  ) -> Dict[str, float]:
    """p50, p90 and work per busy second of one operation class.

    ``passes`` holds, for each pass over the same mix of operations, the
    class's (host-scaled) latencies and the work they did; each metric
    is the median of its per-pass values.  p90 rather than p99: a pass
    holds a few to tens of operations per class.
    """
    stats = [(percentile(lat, 0.5), percentile(lat, 0.9), work / sum(lat))
             for lat, work in passes if lat]
    return {
        f"{prefix}_p50_s": statistics.median(s[0] for s in stats),
        f"{prefix}_p90_s": statistics.median(s[1] for s in stats),
        f"{prefix}_rate_per_s": statistics.median(s[2] for s in stats),
    }


def chunks(items: Sequence, size: int) -> List[Sequence]:
    """``items`` cut into consecutive passes of ``size`` (the last, if
    short, is dropped unless it is the only one)."""
    out = [items[i:i + size] for i in range(0, len(items), size)]
    if len(out) > 1 and len(out[-1]) < size:
        out.pop()
    return out


def overhead(plain: Sequence[float], other: Sequence[float]) -> float:
    """Extra time of ``other`` over ``plain`` on their common prefix of
    operations, as a share of ``plain``."""
    n = min(len(plain), len(other))
    return sum(other[:n]) / sum(plain[:n]) - 1.0


def layer_metrics(snapshot: dict, ops: int) -> Dict[str, float]:
    """Per-layer metrics from tracer totals over ``ops`` operations."""
    layers = snapshot["layers"]
    counts = snapshot["counts"]

    def calls(name: str) -> float:
        return layers.get(name, (0, 0.0, 0.0))[0]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {f"{name}.s": layers.get(name, (0, 0.0, 0.0))[2] / ops
               for name in SELF_TIME_LAYERS}
    hits = counts.get("serve.cache.hits", 0.0)
    misses = counts.get("serve.cache.misses", 0.0)
    metrics.update({
        "core.merge_tree.inputs": ratio(
            counts.get("core.merge_tree.inputs", 0.0),
            calls("core.merge_tree")),
        "kernels.calls": calls("kernels") / ops,
        "warehouse.sample_of.calls": calls("warehouse.sample_of") / ops,
        "analytics.selected_frac": ratio(
            counts.get("analytics.partitions.selected", 0.0),
            counts.get("analytics.partitions.total", 0.0)),
        "analytics.fallback_frac": ratio(
            counts.get("analytics.fallbacks", 0.0),
            counts.get("analytics.plans", 0.0)),
        "serve.admission.shed_frac": ratio(
            counts.get("serve.admission.shed", 0.0),
            counts.get("serve.admission.calls", 0.0)),
        "serve.cache.hit_ratio": ratio(hits, hits + misses),
        "serve.merges_per_miss": ratio(calls("warehouse.sample_of"),
                                       misses),
        "serve.cache.evictions": counts.get("serve.cache.evictions", 0.0),
        "serve.cache.peak_entries": counts.get("serve.cache.peak_entries",
                                               0.0),
        "analytics.merges_per_query": 0.0,
        "serve.unattributed.s": 0.0,
        "serve.reconcile_error_frac": 0.0,
        "bench.lateness_p99_s": 0.0,
    })
    return metrics


def reference_s() -> float:
    """Seconds one pass of a fixed pure-Python loop takes: how fast the
    host runs Python right now, independent of the program."""
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(60000):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0) % 13
    return time.perf_counter() - t0


#: Busy seconds between two samples of the host's speed in a closed loop.
SAMPLE_EVERY_S = 0.5

#: What :func:`reference_s` takes on the host the bounds were set on.
#: Reported timings are scaled to it (see :class:`HostSpeed`).
REFERENCE_S = 0.020


class HostSpeed:
    """Samples of :func:`reference_s` taken through a run.

    The host's speed drifts by a fifth or more within seconds and by
    half between runs (other tenants share the cores), and the program's
    speed follows it.  A timing taken between two samples is reported
    scaled by ``REFERENCE_S`` over their mean: what it would have been
    on a host running the reference loop in ``REFERENCE_S``.
    """

    def __init__(self) -> None:
        self.marks: List[float] = []
        self.samples: List[float] = []

    def sample(self, mark: float) -> None:
        """Time the reference loop at position ``mark`` (marks rise)."""
        self.marks.append(mark)
        self.samples.append(reference_s())

    def factor(self, mark: float) -> float:
        """Scale of a timing taken at ``mark``: from the samples either
        side of it (the nearest one at the ends)."""
        k = bisect.bisect_right(self.marks, mark)
        near = self.samples[max(k - 1, 0):k + 1]
        return REFERENCE_S / (sum(near) / len(near))

    @property
    def median_s(self) -> float:
        return statistics.median(self.samples)


def timed_setup(build: Callable[[], object]) -> Tuple[object, float]:
    """``build()`` and its seconds, scaled to the host's speed around it."""
    host = HostSpeed()
    host.sample(0.0)
    t0 = time.perf_counter()
    built = build()
    seconds = time.perf_counter() - t0
    host.sample(1.0)
    return built, seconds * host.factor(0.5)


def provenance(**extra: object) -> Dict[str, object]:
    """Facts recorded with every result."""
    from repro.kernels import active_backend

    facts: Dict[str, object] = {"kernel_backend": active_backend(),
                                "nproc": nproc(),
                                "python": platform.python_version()}
    facts.update(extra)
    return facts


class Result:
    """What one run measured and whether its outputs checked out."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, float] = {}
        self.facts: Dict[str, object] = {}
        self.failures: List[str] = []
        self.host = HostSpeed()
        self.checks = 0
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one output check; a failed one makes the run incorrect."""
        self.checks += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    @property
    def correct(self) -> bool:
        return not self.failures

    def set_setup(self, seconds: Sequence[float]) -> None:
        """``setup_s`` is the median of the run's (scaled) set-ups."""
        self.metrics["setup_s"] = statistics.median(seconds)
