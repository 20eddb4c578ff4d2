"""repro.analysis — an AST-based invariant checker (``repro lint``).

The library's correctness arguments rest on conventions no type
checker sees: every random draw flows through the seed-splitting
discipline of :mod:`repro.rng`, nothing on a sampling path reads a
clock or a salted hash, instrument names match the contract page in
``docs/observability.md``, errors derive from ``ReproError``, and
obs shared state mutates only under its lock.  This package turns
those conventions into machine-checked lint rules with stable
``RPR0xx`` codes.

Usage::

    from repro.analysis import run_lint, render_text

    findings, project = run_lint(["src/repro"])
    print(render_text(findings, checked_files=len(project.files)))

or from the shell: ``python -m repro lint src/repro``.  Per-line
suppression: ``# repro: noqa[RPR012]``.  The rule catalog lives in
``docs/static_analysis.md``; the repo lints itself as a tier-1 test
(``tests/test_self_lint.py``).

Beyond the file-local rules, the package carries an interprocedural
layer: :mod:`repro.analysis.callgraph` digests each file into a
module summary, :mod:`repro.analysis.dataflow` assembles the
project-wide call graph and propagates effect taints to a fixpoint
(powering the RPR06x/RPR07x families),
:mod:`repro.analysis.locksets` lifts per-function lock facts to
project-wide entry locksets and an acquired-while-holding order
graph (powering RPR041 and the RPR10x concurrency family),
:mod:`repro.analysis.asyncrules` colors coroutines and solves the
transitive blocks-event-loop effect (powering the RPR11x async
family).

Each run is one serial, stateless pass: every file is parsed once,
every selected rule runs, and nothing persists between runs, so the
findings depend only on the linted tree and the analyzer's code.
"""

from repro.analysis.asyncrules import AsyncModel, async_model
from repro.analysis.dataflow import CallGraph, analyze_project
from repro.analysis.framework import (Finding, Project, Rule, SourceFile,
                                      all_rules, expand_select,
                                      finding_from_dict, load_project,
                                      rule, rule_for, run_lint,
                                      severity_for, summarizer)
from repro.analysis.locksets import LockModel, lock_model
from repro.analysis.reporters import (parse_json, render_json,
                                      render_sarif, render_text)

__all__ = [
    "AsyncModel",
    "CallGraph",
    "Finding",
    "LockModel",
    "Project",
    "Rule",
    "SourceFile",
    "all_rules",
    "analyze_project",
    "async_model",
    "expand_select",
    "finding_from_dict",
    "load_project",
    "lock_model",
    "parse_json",
    "render_json",
    "render_sarif",
    "render_text",
    "rule",
    "rule_for",
    "run_lint",
    "severity_for",
    "summarizer",
]
