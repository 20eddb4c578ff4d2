"""The pinned regression-bench suite behind ``repro bench run``.

Every PR that claims a speedup needs a number, and every PR that costs
one needs to be caught; this module is the measurement loop for both.
``run_core_suite`` times batch-ingest throughput per scheme and
merge-on-demand query latency; ``run_merge_suite`` times 2/4/8/16-way
merge trees; ``run_serve_suite`` loadtests the HTTP
serving layer end to end (p50/p99 request latency under a concurrent
client fleet; see docs/serving.md).  Each writes one report
(``BENCH_core.json`` / ``BENCH_merge.json`` / ``BENCH_serve.json``,
schema ``repro-bench/1``) at the repo root, and
:func:`compare_reports` diffs two reports and flags entries slower
than a threshold ratio — the check ``repro bench --compare`` runs in
CI.

Methodology: every workload is deterministic from the suite seed (same
data, same sample sizes every run), each entry reports the **minimum**
over its repeats (the standard noise-robust statistic for wall-clock
microbenchmarks), and comparisons require both a ratio beyond the
threshold *and* an absolute slowdown beyond ``min_seconds`` so
sub-millisecond entries cannot flag on scheduler jitter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.timing import wall_timer
from repro.errors import ConfigurationError
from repro.rng import SplittableRng

__all__ = [
    "SCHEMA",
    "CORE_FILENAME",
    "MERGE_FILENAME",
    "SERVE_FILENAME",
    "AQP_FILENAME",
    "DEFAULT_THRESHOLD",
    "BenchResult",
    "run_core_suite",
    "run_merge_suite",
    "run_serve_suite",
    "run_serve_suite_with_summary",
    "run_aqp_suite",
    "run_aqp_suite_with_pairs",
    "aqp_report_dict",
    "validate_aqp_report",
    "serve_results",
    "serve_report_dict",
    "validate_serve_report",
    "report_dict",
    "validate_report",
    "load_report",
    "write_report",
    "compare_reports",
]

SCHEMA = "repro-bench/1"
CORE_FILENAME = "BENCH_core.json"
MERGE_FILENAME = "BENCH_merge.json"
SERVE_FILENAME = "BENCH_serve.json"
AQP_FILENAME = "BENCH_aqp.json"

#: A candidate entry flags as a regression when it is more than this
#: many times slower than the baseline (and slower by ``min_seconds``).
DEFAULT_THRESHOLD = 1.25

#: Absolute slack: ratio violations faster than this are ignored, so
#: microsecond-scale entries cannot regress on scheduler noise alone.
DEFAULT_MIN_SECONDS = 0.005

_INGEST_SCHEMES = ("hb", "hr", "sb", "hb-mp")
_MERGE_PARTITIONS = (2, 4, 8, 16)

#: The heavy merge entries: wide-histogram workloads sized so the
#: kernel layer's vectorized inner loops dominate wall time.  These
#: carry a ``backend`` param (the active kernel backend), so reports
#: taken on different backends never silently compare against each
#: other.
_HEAVY_PARTITIONS = (8, 16)
_HEAVY_BOUND = 4_096


@dataclass(frozen=True)
class BenchResult:
    """One timed workload: identity (name + params) and its seconds."""

    name: str
    params: Dict[str, object]
    seconds: float
    repeats: int

    def key(self) -> Tuple[object, ...]:
        """Identity for cross-report matching (name + sorted params)."""
        return (self.name, tuple(sorted(self.params.items())))

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params),
                "seconds": self.seconds, "repeats": self.repeats}


def _time_min(fn, repeats: int) -> float:
    """Minimum wall time of ``fn()`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        with wall_timer() as t:
            fn()
        best = min(best, t.seconds)
    return best


def run_core_suite(*, seed: int = 2006, quick: bool = False
                   ) -> List[BenchResult]:
    """Batch-ingest throughput per scheme + warehouse query latency.

    ``quick`` shrinks the workload (CI smoke); timings are then only
    informational, but the report shape is identical.
    """
    from repro.analytics.estimators import estimate_avg
    from repro.warehouse.warehouse import SampleWarehouse

    values_total = 4_000 if quick else 20_000
    partitions = 8
    repeats = 2 if quick else 3
    results: List[BenchResult] = []
    data = list(range(values_total))

    for scheme in _INGEST_SCHEMES:
        def ingest(scheme: str = scheme) -> None:
            wh = SampleWarehouse(bound_values=256, scheme=scheme,
                                 sb_rate=0.05, rng=SplittableRng(seed))
            wh.ingest_batch("bench.d", data, partitions=partitions)

        results.append(BenchResult(
            name="ingest.batch",
            params={"scheme": scheme, "values": values_total,
                    "partitions": partitions},
            seconds=_time_min(ingest, repeats),
            repeats=repeats,
        ))

    wh = SampleWarehouse(bound_values=256, scheme="hr",
                         rng=SplittableRng(seed))
    wh.ingest_batch("bench.q", data, partitions=partitions)

    def query() -> None:
        sample = wh.sample_of("bench.q")
        estimate_avg(sample)

    results.append(BenchResult(
        name="warehouse.query",
        params={"scheme": "hr", "values": values_total,
                "partitions": partitions},
        seconds=_time_min(query, repeats),
        repeats=repeats,
    ))
    return results


def _merge_inputs(partitions: int, values_per: int, seed: int, *,
                  bound: int = 128):
    """Deterministic per-partition HR samples for the merge bench."""
    from repro.warehouse.parallel import SampleTask, sample_partition

    rng = SplittableRng(seed)
    data_rng = rng.spawn("data")
    samples = []
    for i in range(partitions):
        values = [data_rng.randrange(100_000) for _ in range(values_per)]
        samples.append(sample_partition(SampleTask(
            values=values, scheme="hr", bound_values=bound,
            seed=rng.spawn("part", i).seed_value)))
    return samples


def run_merge_suite(*, seed: int = 2006, quick: bool = False
                    ) -> List[BenchResult]:
    """2/4/8/16-partition merge trees.

    On top of the pinned light entries (whose params never change, so
    reports stay comparable across releases), the suite times *heavy*
    entries — 8/16 partitions, ``_HEAVY_BOUND``-value histograms —
    where the kernel layer's vectorized merge loops dominate.  Heavy
    entries carry the active kernel backend as a param; see
    docs/performance.md for how to read them.  The ``mode`` param is
    always ``"serial"``: it keeps entries matching reports taken when
    the suite also timed a parallel evaluator.
    """
    from repro.core.merge import merge_tree
    from repro.kernels import active_backend

    values_per = 800 if quick else 3_000
    heavy_values_per = 2_048 if quick else 16_384
    repeats = 2 if quick else 3
    results: List[BenchResult] = []

    for partitions in _MERGE_PARTITIONS:
        samples = _merge_inputs(partitions, values_per, seed)
        rng = SplittableRng(seed)
        results.append(BenchResult(
            name="merge.tree",
            params={"partitions": partitions, "mode": "serial",
                    "values_per_partition": values_per},
            seconds=_time_min(lambda: merge_tree(samples, rng=rng),
                              repeats),
            repeats=repeats,
        ))

    backend = active_backend()
    for partitions in _HEAVY_PARTITIONS:
        samples = _merge_inputs(partitions, heavy_values_per, seed,
                                bound=_HEAVY_BOUND)
        rng = SplittableRng(seed)
        results.append(BenchResult(
            name="merge.tree.heavy",
            params={"partitions": partitions, "bound": _HEAVY_BOUND,
                    "values_per_partition": heavy_values_per,
                    "backend": backend, "mode": "serial"},
            seconds=_time_min(lambda: merge_tree(samples, rng=rng),
                              repeats),
            repeats=repeats,
        ))
    return results


#: Serve-suite fleet shape: (quick, full).  The full shape is the
#: acceptance bar — 500 concurrent simulated clients; quick is the CI
#: smoke shape.  ``repro bench --compare BENCH_serve.json`` re-runs
#: with the same shape, so entries always match on params.
_SERVE_CLIENTS = (64, 500)
_SERVE_REQUESTS = (2, 4)


def serve_results(summary: dict) -> List[BenchResult]:
    """Bench entries derived from one loadtest summary block.

    Latency percentiles and the whole-run wall time become ordinary
    ``seconds`` entries so :func:`compare_reports` gates them like any
    other suite; throughput and shed rate stay in the report's
    ``serve`` block (they are not durations).
    """
    if summary.get("latency") is None:
        raise ConfigurationError(
            "loadtest completed no requests (everything shed?); "
            "no latency entries to report")
    params = {"clients": summary["clients"],
              "requests_per_client": summary["requests_per_client"]}
    latency = summary["latency"]
    return [
        BenchResult(name="serve.query.latency",
                    params={**params, "stat": "p50"},
                    seconds=latency["p50"], repeats=1),
        BenchResult(name="serve.query.latency",
                    params={**params, "stat": "p99"},
                    seconds=latency["p99"], repeats=1),
        BenchResult(name="serve.loadtest.wall", params=dict(params),
                    seconds=summary["wall_seconds"], repeats=1),
    ]


def run_serve_suite_with_summary(*, seed: int = 2006,
                                 quick: bool = False
                                 ) -> Tuple[List[BenchResult], dict]:
    """Self-hosted loadtest at the pinned fleet shape.

    Returns the bench entries plus the raw summary for the report's
    ``serve`` block.  Quick: 64 clients x 2 requests; full: 500 x 4
    (the acceptance shape).
    """
    from repro.serve.loadtest import run_self_hosted

    clients = _SERVE_CLIENTS[0] if quick else _SERVE_CLIENTS[1]
    requests = _SERVE_REQUESTS[0] if quick else _SERVE_REQUESTS[1]
    summary = run_self_hosted(seed=seed, clients=clients,
                              requests_per_client=requests)
    return serve_results(summary), summary


def run_serve_suite(*, seed: int = 2006, quick: bool = False
                    ) -> List[BenchResult]:
    """The serve suite's bench entries (the ``--compare`` runner)."""
    results, _summary = run_serve_suite_with_summary(seed=seed,
                                                     quick=quick)
    return results


#: AQP-suite shape.  Partition counts span the regime where merge-all
#: latency visibly scales; the target is the paper-style "2 % relative
#: half-width at 95 %".  Every ``est_every``-th partition is ingested
#: as a foreign sample whose synopsis was computed upstream from a
#: coarse sketch (``_AQP_SYNOPSIS_BOUND`` values), so planning has real
#: estimated strata to rank and, where the bound demands it, select.
_AQP_PARTITIONS = (16, 64, 128)
_AQP_SHAPES = ("uniform", "skewed")
_AQP_AGGS = ("count", "sum", "avg")
_AQP_TARGET = 0.02
_AQP_EST_EVERY = 4
_AQP_LIVE_BOUND = 256
_AQP_SYNOPSIS_BOUND = 32
#: The acceptance bar (docs/aqp.md): planned must beat merge-all by at
#: least this factor at the largest partition count, full runs only.
_AQP_MIN_SPEEDUP = 2.0


def _aqp_value(shape: str, rng: SplittableRng) -> float:
    """One value of the bench population: uniform or heavy-tailed."""
    if shape == "uniform":
        return float(rng.randrange(1_000) + 1)
    # Log-uniform over three decades, shifted off zero: a heavy right
    # tail (sigma comparable to the mean) without unbounded outliers.
    return 100.0 + 10.0 ** (3.0 * rng.random())


def _aqp_warehouse(shape: str, partitions: int, seed: int,
                   quick: bool):
    """A mixed warehouse: mostly exact synopses, some estimated.

    Batch-style partitions carry exact synopses (raw values in hand at
    ingest); every ``_AQP_EST_EVERY``-th partition arrives as a foreign
    sample with an upstream synopsis estimated from a coarser sketch —
    the strata the planner actually has to reason about.
    """
    from repro.warehouse.dataset import PartitionKey
    from repro.warehouse.parallel import SampleTask, sample_partition
    from repro.warehouse.synopsis import PartitionSynopsis
    from repro.warehouse.warehouse import SampleWarehouse

    values_per = 400 if quick else 1_500
    rng = SplittableRng(seed)
    data_rng = rng.spawn("data", shape, partitions)
    wh = SampleWarehouse(bound_values=_AQP_LIVE_BOUND, scheme="hr",
                         rng=rng.spawn("wh", shape, partitions))
    dataset = f"aqp.{shape}"
    for i in range(partitions):
        values = [_aqp_value(shape, data_rng) for _ in range(values_per)]
        sample = sample_partition(SampleTask(
            values=values, scheme="hr", bound_values=_AQP_LIVE_BOUND,
            seed=rng.spawn("live", i).seed_value))
        if i % _AQP_EST_EVERY == 0:
            sketch = sample_partition(SampleTask(
                values=values, scheme="hr",
                bound_values=_AQP_SYNOPSIS_BOUND,
                seed=rng.spawn("sketch", i).seed_value))
            synopsis = PartitionSynopsis.from_sample(sketch)
        else:
            synopsis = PartitionSynopsis.from_values(values)
        wh.ingest_sample(PartitionKey(dataset, 0, i), sample,
                         synopsis=synopsis)
    return wh, dataset


def run_aqp_suite_with_pairs(*, seed: int = 2006, quick: bool = False
                             ) -> Tuple[List[BenchResult], List[dict]]:
    """Planned vs merge-all aggregate latency across partition counts.

    For each (shape, partitions, agg) the suite times the same query
    twice on a fresh engine: ``aqp.planned`` passes the pinned 2 %
    relative target (the planner certifies from synopses and reads only
    the selected samples) and ``aqp.merge_all`` runs the legacy path
    (merge every partition, then estimate).  Returns the bench entries
    plus one pair record per comparison for the report's ``aqp`` block:
    speedup, certification, and how many partitions the plan read.
    """
    from repro.analytics.aqp import ApproximateQueryEngine

    repeats = 2 if quick else 3
    results: List[BenchResult] = []
    pairs: List[dict] = []
    for shape in _AQP_SHAPES:
        for partitions in _AQP_PARTITIONS:
            wh, dataset = _aqp_warehouse(shape, partitions, seed, quick)
            probe = ApproximateQueryEngine(wh)
            for agg in _AQP_AGGS:
                summary = probe.plan_summary(
                    dataset, agg, target_half_width=_AQP_TARGET,
                    relative_target=True)

                def planned(agg: str = agg) -> None:
                    engine = ApproximateQueryEngine(wh)
                    getattr(engine, agg)(
                        dataset, target_half_width=_AQP_TARGET,
                        relative_target=True)

                def merge_all(agg: str = agg) -> None:
                    engine = ApproximateQueryEngine(wh)
                    getattr(engine, agg)(dataset)

                params = {"agg": agg, "shape": shape,
                          "partitions": partitions,
                          "target": _AQP_TARGET}
                planned_s = _time_min(planned, repeats)
                merged_s = _time_min(merge_all, repeats)
                results.append(BenchResult(
                    name="aqp.planned", params=params,
                    seconds=planned_s, repeats=repeats))
                results.append(BenchResult(
                    name="aqp.merge_all", params=params,
                    seconds=merged_s, repeats=repeats))
                pairs.append({
                    "agg": agg, "shape": shape,
                    "partitions": partitions,
                    "planned_seconds": planned_s,
                    "merge_all_seconds": merged_s,
                    "speedup": (merged_s / planned_s
                                if planned_s > 0 else float("inf")),
                    "certified": summary["certified"],
                    "fallback": summary["fallback"],
                    "selected": summary["selected"]
                    if isinstance(summary["selected"], int)
                    else len(summary["selected"]),
                    "total_partitions": summary["total_partitions"],
                })
    return results, pairs


def run_aqp_suite(*, seed: int = 2006, quick: bool = False
                  ) -> List[BenchResult]:
    """The AQP suite's bench entries (the ``--compare`` runner)."""
    results, _pairs = run_aqp_suite_with_pairs(seed=seed, quick=quick)
    return results


def aqp_report_dict(results: Sequence[BenchResult], pairs: List[dict],
                    *, seed: int, quick: bool) -> dict:
    """An AQP-suite report: ``repro-bench/1`` plus the ``aqp`` block."""
    report = report_dict("aqp", results, seed=seed, quick=quick)
    report["aqp"] = {"target": _AQP_TARGET, "pairs": pairs}
    return report


def validate_aqp_report(report: dict) -> None:
    """Validate a ``BENCH_aqp.json`` (base schema + aqp block).

    Full (non-quick) reports must also clear the acceptance bar: every
    aggregate certified and at least ``_AQP_MIN_SPEEDUP``x faster than
    merge-all at the largest partition count, on both shapes.  Quick
    reports (CI smoke) are validated structurally only — their timings
    are one-repeat noise.
    """
    validate_report(report)
    if report.get("suite") != "aqp":
        raise ConfigurationError(
            f"aqp report has suite {report.get('suite')!r}")
    block = report.get("aqp")
    if not isinstance(block, dict):
        raise ConfigurationError("aqp report needs an 'aqp' block")
    if not isinstance(block.get("target"), (int, float)):
        raise ConfigurationError("aqp block needs a numeric 'target'")
    pairs = block.get("pairs")
    if not isinstance(pairs, list) or not pairs:
        raise ConfigurationError(
            "aqp block needs a non-empty 'pairs' array")
    for i, pair in enumerate(pairs):
        if not isinstance(pair, dict):
            raise ConfigurationError(f"aqp pairs[{i}] must be an object")
        for field, kind in (("agg", str), ("shape", str),
                            ("partitions", int), ("selected", int),
                            ("total_partitions", int),
                            ("planned_seconds", (int, float)),
                            ("merge_all_seconds", (int, float)),
                            ("speedup", (int, float)),
                            ("certified", bool), ("fallback", bool)):
            if not isinstance(pair.get(field), kind) or \
                    (kind is int and isinstance(pair.get(field), bool)):
                raise ConfigurationError(
                    f"aqp pairs[{i}].{field} must be "
                    f"{kind.__name__ if isinstance(kind, type) else 'numeric'}")
    if report.get("quick"):
        return
    largest = max(p["partitions"] for p in pairs)
    for pair in pairs:
        if pair["partitions"] != largest:
            continue
        label = f"{pair['agg']}/{pair['shape']}/p{pair['partitions']}"
        if not pair["certified"] or pair["fallback"]:
            raise ConfigurationError(
                f"aqp acceptance: {label} did not certify the "
                f"{block['target']:.0%} target")
        if pair["speedup"] < _AQP_MIN_SPEEDUP:
            raise ConfigurationError(
                f"aqp acceptance: {label} speedup {pair['speedup']:.2f}x "
                f"is below the {_AQP_MIN_SPEEDUP:.1f}x bar")


def serve_report_dict(results: Sequence[BenchResult], summary: dict, *,
                      seed: int, quick: bool) -> dict:
    """A serve-suite report: ``repro-bench/1`` plus the ``serve`` block."""
    report = report_dict("serve", results, seed=seed, quick=quick)
    report["serve"] = summary
    return report


def validate_serve_report(report: dict) -> None:
    """Validate a ``BENCH_serve.json`` (base schema + serve block)."""
    validate_report(report)
    if report.get("suite") != "serve":
        raise ConfigurationError(
            f"serve report has suite {report.get('suite')!r}")
    block = report.get("serve")
    if not isinstance(block, dict):
        raise ConfigurationError(
            "serve report needs a 'serve' summary object")
    for field, kind in (("clients", int), ("requests_per_client", int),
                        ("total_requests", int), ("completed", int),
                        ("shed", int), ("errors", int),
                        ("shed_rate", (int, float)),
                        ("wall_seconds", (int, float)),
                        ("throughput_rps", (int, float))):
        if not isinstance(block.get(field), kind) \
                or isinstance(block.get(field), bool):
            raise ConfigurationError(
                f"serve block field {field!r} must be "
                f"{kind if isinstance(kind, type) else 'numeric'}")
    if not 0.0 <= block["shed_rate"] <= 1.0:
        raise ConfigurationError(
            f"shed_rate must be in [0, 1], got {block['shed_rate']}")
    latency = block.get("latency")
    if latency is not None:
        if not isinstance(latency, dict):
            raise ConfigurationError("serve latency must be an object")
        for stat in ("p50", "p90", "p99", "max", "mean"):
            value = latency.get(stat)
            if not isinstance(value, (int, float)) or value < 0:
                raise ConfigurationError(
                    f"serve latency.{stat} must be a non-negative "
                    "number")


def report_dict(suite: str, results: Sequence[BenchResult], *,
                seed: int, quick: bool) -> dict:
    """Assemble the ``repro-bench/1`` report structure."""
    return {
        "schema": SCHEMA,
        "suite": suite,
        "seed": seed,
        "quick": quick,
        "results": [r.to_dict() for r in results],
    }


def validate_report(report: dict) -> None:
    """Raise :class:`ConfigurationError` unless ``report`` is well-formed."""
    if not isinstance(report, dict):
        raise ConfigurationError("bench report must be a JSON object")
    if report.get("schema") != SCHEMA:
        raise ConfigurationError(
            f"unsupported bench schema {report.get('schema')!r}; "
            f"expected {SCHEMA!r}")
    for field, kind in (("suite", str), ("seed", int), ("quick", bool),
                        ("results", list)):
        if not isinstance(report.get(field), kind):
            raise ConfigurationError(
                f"bench report field {field!r} must be {kind.__name__}")
    for i, entry in enumerate(report["results"]):
        if not isinstance(entry, dict):
            raise ConfigurationError(f"results[{i}] must be an object")
        if not isinstance(entry.get("name"), str):
            raise ConfigurationError(f"results[{i}].name must be a string")
        if not isinstance(entry.get("params"), dict):
            raise ConfigurationError(
                f"results[{i}].params must be an object")
        seconds = entry.get("seconds")
        if not isinstance(seconds, (int, float)) or seconds < 0:
            raise ConfigurationError(
                f"results[{i}].seconds must be a non-negative number")
        repeats = entry.get("repeats")
        if not isinstance(repeats, int) or repeats <= 0:
            raise ConfigurationError(
                f"results[{i}].repeats must be a positive integer")


def _results_of(report: dict) -> List[BenchResult]:
    return [BenchResult(name=e["name"], params=e["params"],
                        seconds=float(e["seconds"]), repeats=e["repeats"])
            for e in report["results"]]


def load_report(path: str) -> dict:
    """Read and validate a bench report file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read bench report: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"bench report is not valid JSON: {exc}")
    validate_report(report)
    return report


def write_report(report: dict, path: str) -> None:
    """Validate and write one report (stable key order, trailing newline)."""
    validate_report(report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class Regression:
    """One candidate entry slower than its baseline beyond the threshold."""

    name: str
    params: Dict[str, object]
    baseline_seconds: float
    candidate_seconds: float

    @property
    def ratio(self) -> float:
        return self.candidate_seconds / self.baseline_seconds

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}"
                           for k, v in sorted(self.params.items()))
        return (f"{self.name}[{params}]: {self.baseline_seconds:.6f}s -> "
                f"{self.candidate_seconds:.6f}s ({self.ratio:.2f}x)")


def compare_reports(baseline: dict, candidate: dict, *,
                    threshold: float = DEFAULT_THRESHOLD,
                    min_seconds: float = DEFAULT_MIN_SECONDS
                    ) -> List[Regression]:
    """Entries of ``candidate`` that regressed against ``baseline``.

    Matched on :meth:`BenchResult.key`; entries present in only one
    report are ignored (suites may grow).  An entry regresses when
    ``candidate > baseline * threshold`` **and** the absolute slowdown
    exceeds ``min_seconds``.
    """
    validate_report(baseline)
    validate_report(candidate)
    if threshold <= 1.0:
        raise ConfigurationError(
            f"threshold must be > 1.0, got {threshold}")
    base_by_key = {r.key(): r for r in _results_of(baseline)}
    regressions: List[Regression] = []
    for cand in _results_of(candidate):
        base = base_by_key.get(cand.key())
        if base is None or base.seconds <= 0.0:
            continue
        if (cand.seconds > base.seconds * threshold
                and cand.seconds - base.seconds > min_seconds):
            regressions.append(Regression(
                name=cand.name, params=cand.params,
                baseline_seconds=base.seconds,
                candidate_seconds=cand.seconds))
    return regressions
