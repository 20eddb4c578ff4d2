"""Statistical verification subsystem: the acceptance battery.

The paper's guarantees are statistical — uniformity (Theorem 1), the
eq. (1) footprint bound, the eq. (2)/(3) hypergeometric law — so the
repo's correctness gate must be statistical too, and statistically
*sound*: many tests at a fixed per-test threshold silently inflate the
suite-wide false-alarm rate.  This package provides:

* :class:`Battery` / :class:`Check` — named checks run over a seed
  sweep with one pooled multiple-testing correction
  (:func:`holm_adjust` / :func:`bh_adjust`), so the suite-wide error
  rate is configured once;
* :func:`default_battery` — the standard catalog: sampler uniformity,
  pmf goodness-of-fit, Bernoulli-phase laws, eq. (1) exceedance, the
  Section 3.3 negative controls that must be *rejected*, and exact
  differential checks (executors, merge-tree folds);
* :func:`sweep` — the same seed-sweep-plus-correction discipline for
  individual test files (the RPR051 lint rule rejects bare p-value
  threshold asserts that bypass it);
* text/JSON reporters consumed by the ``repro verify`` CLI.

See ``docs/testing.md`` for the battery design, the fast/deep tiers,
and the flakiness policy.
"""

from repro.testkit.battery import (Battery, BatteryReport, Check,
                                   CheckResult, SweepResult, sweep)
from repro.testkit.checks import (binomial_pmf, collapse_cells,
                                  default_battery)
from repro.testkit.corrections import (adjust_pvalues, bh_adjust,
                                       holm_adjust)
from repro.testkit.differential import (executor_differential,
                                        merge_tree_differential)
from repro.testkit.reporters import parse_json, render_json, render_text

__all__ = [
    "Battery",
    "BatteryReport",
    "Check",
    "CheckResult",
    "SweepResult",
    "sweep",
    "default_battery",
    "collapse_cells",
    "binomial_pmf",
    "holm_adjust",
    "bh_adjust",
    "adjust_pvalues",
    "executor_differential",
    "merge_tree_differential",
    "render_text",
    "render_json",
    "parse_json",
]
