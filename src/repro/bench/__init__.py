"""Benchmark harness: the partition -> parallel-sample -> serial-merge
pipeline of Section 5, figure-reproduction drivers, table printing, and
the :func:`wall_timer` every benchmark script times with.

Performance claims are made on the repository benchmark,
``perfbench/run.py`` (``docs/performance.md``); this package reproduces
the paper's experiments."""

from repro.bench.harness import PipelineResult, repeat_pipeline, run_pipeline
from repro.bench.report import format_table, print_table
from repro.bench.timing import WallTimer, wall_timer

__all__ = [
    "run_pipeline",
    "repeat_pipeline",
    "PipelineResult",
    "format_table",
    "print_table",
    "WallTimer",
    "wall_timer",
]
