"""Command-line interface: ``python -m repro <command>``.

Operate a file-backed sample warehouse from the shell:

* ``ingest``  — sample a column of values (one per line, or a CSV column)
  into a warehouse directory;
* ``info``    — list datasets / partitions and their catalog metadata;
* ``query``   — approximate COUNT/SUM/AVG/quantile over a dataset;
* ``rollup``  — merge consecutive partitions into coarser units;
* ``bench``   — regenerate one of the paper's figures;
* ``demo``    — the Section 3.3 concise-sampling counter-example;
* ``obs``     — an instrumented ingest + merge: metrics snapshot and
  nested span trace (the observability demo; see
  ``docs/observability.md`` for the full instrumentation contract);
* ``lint``    — the AST-based invariant checker (RNG discipline,
  determinism, obs contract, error and lock discipline; see
  ``docs/static_analysis.md`` for the rule catalog);
* ``verify``  — the statistical acceptance battery (uniformity,
  goodness-of-fit, negative controls, executor/merge differentials
  under one multiple-testing correction; see ``docs/testing.md``);
* ``serve``   — the asyncio HTTP service front over a warehouse
  (ingest / query / merge-on-demand endpoints with admission control,
  circuit breaker, and a versioned merge cache; ``docs/serving.md``).

All commands are deterministic given ``--seed`` (for ``serve``: all
sampling decisions are; wall-clock latencies of course are not).
Performance is measured by the repository benchmark,
``perfbench/run.py`` (``docs/performance.md``), not by a subcommand.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import List, Optional, Sequence

from repro.analytics.estimators import (estimate_avg, estimate_count,
                                        estimate_quantile, estimate_sum)
from repro.bench.report import format_table
from repro.errors import ConfigurationError, ReproError
from repro.rng import SplittableRng
from repro.warehouse.rollup import temporal_rollup
from repro.warehouse.warehouse import SampleWarehouse

__all__ = ["main", "build_parser"]


def _parse_value(text: str):
    """CSV/line values: int if possible, then float, else the string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _read_values(path: str, column: Optional[str]) -> List[object]:
    """Read values from a file: one per line, or a named CSV column."""
    if path == "-":
        handle = sys.stdin
        close = False
    else:
        handle = open(path, "r", encoding="utf-8", newline="")
        close = True
    try:
        if column is None:
            return [_parse_value(line.strip())
                    for line in handle if line.strip()]
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise ReproError(
                f"column {column!r} not found; available: "
                f"{reader.fieldnames}")
        return [_parse_value(row[column]) for row in reader
                if row.get(column, "") != ""]
    finally:
        if close:
            handle.close()


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sample-data warehouse (Brown & Haas, ICDE 2006)")
    parser.add_argument("--seed", type=int, default=2006,
                        help="master random seed (default: 2006)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="sample values into a "
                                             "warehouse directory")
    p_ingest.add_argument("--warehouse", required=True,
                          help="warehouse directory (created if missing)")
    p_ingest.add_argument("--dataset", required=True)
    p_ingest.add_argument("--input", required=True,
                          help="file of values, one per line ('-' = stdin)")
    p_ingest.add_argument("--column", default=None,
                          help="treat input as CSV and read this column")
    p_ingest.add_argument("--partitions", type=int, default=1)
    p_ingest.add_argument("--scheme", default="hr",
                          choices=["hb", "hr", "sb", "hb-mp"])
    p_ingest.add_argument("--bound", type=int, default=8192,
                          help="sample-size bound n_F (default: 8192)")
    p_ingest.add_argument("--sb-rate", type=float, default=None)
    p_ingest.add_argument("--label", default=None,
                          help="label applied to all created partitions")

    p_info = sub.add_parser("info", help="show catalog contents")
    p_info.add_argument("--warehouse", required=True)
    p_info.add_argument("--dataset", default=None)

    p_query = sub.add_parser("query", help="approximate aggregate")
    p_query.add_argument("--warehouse", required=True)
    p_query.add_argument("--dataset", required=True)
    p_query.add_argument("--agg", required=True,
                         choices=["count", "sum", "avg", "quantile"])
    p_query.add_argument("--fraction", type=float, default=0.5,
                         help="quantile fraction (default: 0.5)")
    p_query.add_argument("--labels", default=None,
                         help="comma-separated partition labels")
    p_query.add_argument("--confidence", type=float, default=0.95)

    p_rollup = sub.add_parser("rollup", help="merge consecutive "
                                             "partitions into windows")
    p_rollup.add_argument("--warehouse", required=True)
    p_rollup.add_argument("--dataset", required=True)
    p_rollup.add_argument("--window", type=int, required=True)
    p_rollup.add_argument("--store-as", default=None,
                          help="re-ingest rollups under this dataset name")

    p_bench = sub.add_parser("bench", help="regenerate a paper figure")
    p_bench.add_argument("--figure", choices=["fig05", "s33"],
                         required=True,
                         help="the figure to regenerate")
    p_bench.add_argument("--trials", type=int, default=2000)

    p_audit = sub.add_parser("audit", help="verify warehouse consistency")
    p_audit.add_argument("--warehouse", required=True)

    p_obs = sub.add_parser("obs", help="instrumented ingest + merge demo: "
                                       "metrics and span trace")
    p_obs.add_argument("--partitions", type=int, default=10)
    p_obs.add_argument("--size", type=int, default=20_000,
                       help="total values to ingest (default: 20000)")
    p_obs.add_argument("--scheme", default="hb",
                       choices=["hb", "hr", "sb", "hb-mp"])
    p_obs.add_argument("--bound", type=int, default=256,
                       help="sample-size bound n_F (default: 256)")
    p_obs.add_argument("--sb-rate", type=float, default=0.01)
    p_obs.add_argument("--json", action="store_true",
                       help="print the metrics snapshot as JSON")
    p_obs.add_argument("--trace-out", default=None,
                       help="also write the span trace to this JSONL file")

    p_lint = sub.add_parser("lint", help="run the AST invariant checker "
                                         "(docs/static_analysis.md)")
    p_lint.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    p_lint.add_argument("--format", choices=["text", "json", "sarif"],
                        default="text", dest="format",
                        help="report format (default: text)")
    p_lint.add_argument("--fail-on", default="warning", dest="fail_on",
                        metavar="SEVERITY",
                        help="minimum finding severity that fails the "
                             "run: 'warning' (any finding, the "
                             "default) or 'error' (warning-severity "
                             "findings report but exit 0)")
    p_lint.add_argument("--select", default=None,
                        help="comma-separated RPR0xx codes and/or "
                             "RPR06x-style family prefixes to run "
                             "(default: all rules)")
    p_lint.add_argument("--contract-doc", default=None,
                        help="observability contract page for the obs "
                             "rules (default: auto-discover "
                             "docs/observability.md above the paths)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")

    p_verify = sub.add_parser("verify", help="run the statistical "
                                             "acceptance battery "
                                             "(docs/testing.md)")
    p_verify.add_argument("--tier", choices=["fast", "deep"],
                          default="fast",
                          help="fast = quick PR gate; deep = more "
                               "seeds, bigger budgets, every check "
                               "(default: fast)")
    p_verify.add_argument("--format", choices=["text", "json"],
                          default="text", dest="format",
                          help="report format (default: text)")
    p_verify.add_argument("--alpha", type=float, default=0.01,
                          help="suite-wide false-alarm rate after "
                               "correction (default: 0.01)")
    p_verify.add_argument("--method", choices=["holm", "bh"],
                          default="bh",
                          help="multiple-testing correction: holm "
                               "(FWER) or bh (FDR; default)")
    p_verify.add_argument("--seeds", type=int, default=None,
                          help="seeds per check (default: the tier's "
                               "5 or 20)")
    p_verify.add_argument("--select", default=None,
                          help="comma-separated check names to run "
                               "(default: the tier's full catalog)")
    p_verify.add_argument("--list-checks", action="store_true",
                          help="print the check catalog and exit")

    p_serve = sub.add_parser("serve", help="serve a warehouse over "
                                           "HTTP (docs/serving.md)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8787)
    p_serve.add_argument("--warehouse", default=None,
                         help="warehouse directory to load and persist "
                              "(default: a fresh in-memory warehouse)")
    p_serve.add_argument("--bound", type=int, default=8192,
                         help="sample-size bound n_F (default: 8192)")
    p_serve.add_argument("--scheme", default="hr",
                         choices=["hb", "hr", "sb", "hb-mp"])
    p_serve.add_argument("--max-concurrent", type=int, default=64,
                         help="admitted requests executing at once")
    p_serve.add_argument("--max-queue", type=int, default=256,
                         help="waiting requests before shedding (503)")
    p_serve.add_argument("--cache-entries", type=int, default=128,
                         help="merge-cache capacity before LRU eviction")

    return parser


def _cmd_ingest(args: argparse.Namespace) -> int:
    values = _read_values(args.input, args.column)
    if not values:
        print("no values read", file=sys.stderr)
        return 1
    try:
        wh = SampleWarehouse.load(args.warehouse,
                                  rng=SplittableRng(args.seed),
                                  bound_values=args.bound,
                                  scheme=args.scheme, sb_rate=args.sb_rate)
    except ReproError:
        wh = SampleWarehouse(bound_values=args.bound, scheme=args.scheme,
                             sb_rate=args.sb_rate,
                             rng=SplittableRng(args.seed))
    labels = [args.label] * args.partitions if args.label else None
    keys = wh.ingest_batch(args.dataset, values,
                           partitions=args.partitions, labels=labels)
    wh.save(args.warehouse)
    print(f"ingested {len(values)} values into {len(keys)} partition(s) "
          f"of {args.dataset!r}")
    for key in keys:
        sample = wh.sample_for(key)
        print(f"  {key}: {sample.kind.name} sample, "
              f"{sample.size}/{sample.population_size} values")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    wh = SampleWarehouse.load(args.warehouse,
                              rng=SplittableRng(args.seed))
    datasets = [args.dataset] if args.dataset else wh.datasets()
    rows = []
    for name in datasets:
        for meta in wh.catalog.partitions(name, only_active=False):
            rows.append((str(meta.key), meta.kind.name, meta.scheme,
                         meta.population_size, meta.sample_size,
                         meta.label or "-",
                         "active" if meta.active else "rolled-out"))
    print(format_table(("partition", "kind", "scheme", "population",
                        "sample", "label", "status"), rows))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    wh = SampleWarehouse.load(args.warehouse,
                              rng=SplittableRng(args.seed))
    labels = args.labels.split(",") if args.labels else None
    sample = wh.sample_of(args.dataset, labels=labels)
    if args.agg == "quantile":
        value = estimate_quantile(sample, args.fraction)
        print(f"quantile({args.fraction}) ~ {value}")
        return 0
    fn = {"count": estimate_count, "sum": estimate_sum,
          "avg": estimate_avg}[args.agg]
    est = fn(sample, confidence=args.confidence)
    marker = " (exact)" if est.exact else ""
    print(f"{args.agg} ~ {est.value:g} "
          f"[{est.ci_low:g}, {est.ci_high:g}]{marker}")
    print(f"from a {sample.kind.name} sample of {sample.size} / "
          f"{sample.population_size} values")
    return 0


def _cmd_rollup(args: argparse.Namespace) -> int:
    from repro.warehouse.rollup import temporal_rollup_with_synopses

    wh = SampleWarehouse.load(args.warehouse,
                              rng=SplittableRng(args.seed))
    groups = temporal_rollup_with_synopses(
        wh, args.dataset, window=args.window,
        rng=SplittableRng(args.seed).spawn("rollup"))
    rows = [(name, s.kind.name, s.population_size, s.size)
            for name, (s, _) in sorted(groups.items())]
    print(format_table(("window", "kind", "population", "sample"), rows))
    if args.store_as:
        from repro.warehouse.dataset import PartitionKey

        for i, name in enumerate(sorted(groups)):
            sample, synopsis = groups[name]
            wh.ingest_sample(PartitionKey(args.store_as, 0, i),
                             sample, label=name, synopsis=synopsis)
        wh.save(args.warehouse)
        print(f"stored {len(groups)} rollup(s) as {args.store_as!r}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.figure == "fig05":
        from repro.bench.experiments import FIG05_HEADERS, fig05_qapprox

        rows = fig05_qapprox()
        print(format_table(FIG05_HEADERS, rows,
                           title="Figure 5 (N = 1e5)"))
        print(f"max relative error: {max(r[4] for r in rows):.3f}%")
        return 0
    # s33
    from repro.bench.experiments import concise_demo

    counts = concise_demo(trials=args.trials,
                          rng=SplittableRng(args.seed))
    print(format_table(("histogram", "occurrences"),
                       sorted(counts.items()),
                       title="Section 3.3 counter-example"))
    ok = counts["H1"] > 0 and counts["H2"] > 0 and counts["H3"] == 0
    print("non-uniformity demonstrated" if ok else "UNEXPECTED OUTCOME")
    return 0 if ok else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.warehouse.audit import audit_warehouse

    wh = SampleWarehouse.load(args.warehouse,
                              rng=SplittableRng(args.seed))
    report = audit_warehouse(wh)
    print(report.summary())
    for problem in report.problems:
        print(f"  {problem}")
    return 0 if report.ok else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import (JsonlSink, MetricsRegistry, RingBufferSink,
                           TeeSink, capture)

    values = list(range(args.size))
    registry = MetricsRegistry()
    ring = RingBufferSink()
    jsonl = JsonlSink(args.trace_out) if args.trace_out else None
    sink = TeeSink(ring, jsonl) if jsonl is not None else ring
    try:
        with capture(registry, sink):
            wh = SampleWarehouse(bound_values=args.bound,
                                 scheme=args.scheme,
                                 sb_rate=args.sb_rate,
                                 rng=SplittableRng(args.seed))
            wh.ingest_batch("obs.demo", values,
                            partitions=args.partitions)
            merged = wh.sample_of("obs.demo")
    finally:
        if jsonl is not None:
            jsonl.close()
    if args.json:
        print(registry.to_json(indent=1))
    else:
        print(f"ingested {len(values)} values into {args.partitions} "
              f"{args.scheme} partition(s), merged: {merged.kind.name} "
              f"sample of {merged.size}/{merged.population_size} values")
        print()
        print(registry.report())
        print()
        print("trace (nested spans):")
        print(ring.render())
    if args.trace_out:
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (all_rules, render_json, render_sarif,
                                render_text, run_lint, severity_for)
    from repro.analysis.framework import SEVERITIES

    if args.list_rules:
        rows = [(r.code, r.name, r.scope, r.severity, r.summary)
                for r in all_rules()]
        print(format_table(("code", "name", "scope", "severity",
                            "summary"), rows))
        return 0
    if args.fail_on not in SEVERITIES:
        raise ConfigurationError(
            f"unknown --fail-on severity {args.fail_on!r}; expected "
            f"one of: {', '.join(SEVERITIES)}")
    select = args.select.split(",") if args.select else None
    contract = args.contract_doc if args.contract_doc else "auto"
    findings, project = run_lint(args.paths, contract_doc=contract,
                                 select=select)
    checked = len(project.files)
    if args.format == "json":
        print(render_json(findings, checked_files=checked, indent=1))
    elif args.format == "sarif":
        print(render_sarif(findings))
    else:
        print(render_text(findings, checked_files=checked))
    # --fail-on error: warning-tier findings are reported but do not
    # fail the run (SEVERITIES is ordered most-severe-first).
    threshold = SEVERITIES.index(args.fail_on)
    failing = [f for f in findings
               if SEVERITIES.index(severity_for(f.code)) <= threshold]
    return 1 if failing else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.testkit import default_battery, render_json, render_text

    battery = default_battery()
    if args.list_checks:
        rows = [(c.name, c.tier, c.kind,
                 "reject" if c.expect_reject else "accept",
                 c.description)
                for c in battery.checks()]
        print(format_table(("check", "tier", "kind", "expects",
                            "description"), rows))
        return 0
    select = args.select.split(",") if args.select else None
    report = battery.run(rng=SplittableRng(args.seed), tier=args.tier,
                         seeds=args.seeds, alpha=args.alpha,
                         method=args.method, select=select)
    if args.format == "json":
        print(render_json(report, indent=1))
    else:
        print(render_text(report))
    return 0 if report.passed else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import enable
    from repro.serve.app import ServeConfig, WarehouseService

    if args.warehouse:
        try:
            wh = SampleWarehouse.load(args.warehouse,
                                      rng=SplittableRng(args.seed),
                                      bound_values=args.bound,
                                      scheme=args.scheme)
        except ReproError:
            wh = SampleWarehouse(bound_values=args.bound,
                                 scheme=args.scheme,
                                 rng=SplittableRng(args.seed))
    else:
        wh = SampleWarehouse(bound_values=args.bound, scheme=args.scheme,
                             rng=SplittableRng(args.seed))
    enable()  # the /metrics endpoint reports live counters
    config = ServeConfig(max_concurrent=args.max_concurrent,
                         max_queue=args.max_queue,
                         cache_entries=args.cache_entries)
    service = WarehouseService(wh, config=config)

    async def run() -> None:
        host, port = await service.start(args.host, args.port)
        print(f"serving on http://{host}:{port} "
              f"(seed {args.seed}, scheme {args.scheme!r})", flush=True)
        try:
            await service.serve_forever()
        finally:
            await service.aclose()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        if args.warehouse:
            wh.save(args.warehouse)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "ingest": _cmd_ingest,
        "info": _cmd_info,
        "query": _cmd_query,
        "rollup": _cmd_rollup,
        "bench": _cmd_bench,
        "audit": _cmd_audit,
        "obs": _cmd_obs,
        "lint": _cmd_lint,
        "verify": _cmd_verify,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
