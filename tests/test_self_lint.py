"""Tier-1 gate: the shipped tree passes its own invariant checker.

``repro lint src/repro tests`` must exit 0 — every RNG-discipline,
determinism, obs-contract, error-discipline, lock-discipline,
stats-discipline, interprocedural-determinism, and executor-safety
rule holds over the whole library *and* the test suite.  Seeding any
violation (a bare ``random.random()`` in ``core/``, an f-string span
name, a public sampling entry point that transitively reads the
clock, a lambda handed to ``ProcessExecutor``) fails this test with
the offending ``RPR0xx`` finding rendered in the assertion message.

The tree is linted once per root set (``src/repro``, and
``src/repro`` + ``tests``) by module-scoped fixtures; the per-family
checks filter those runs' findings by code.  Rules are independent of
one another, so a filtered full run reports what a ``select=`` run
would.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (all_rules, analyze_project, expand_select,
                            lock_model, run_lint)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
TESTS = REPO / "tests"


@pytest.fixture(scope="module")
def src_run():
    """``(findings, project)`` of one full lint of ``src/repro``."""
    return run_lint([str(SRC)])


@pytest.fixture(scope="module")
def full_run():
    """``(findings, project)`` of one full lint of source and tests."""
    return run_lint([str(SRC), str(TESTS)])


def only(findings, select):
    """The findings whose code ``select`` (codes and ``RPR06x``-style
    families, as in ``run_lint``) names; unknown codes raise."""
    wanted = expand_select([select])
    return [f for f in findings if f.code in wanted]


def test_src_repro_is_lint_clean(src_run):
    findings, project = src_run
    assert len(project.files) > 50  # the whole tree was actually walked
    assert not findings, (
        "repro lint found invariant violations in src/repro:\n  "
        + "\n  ".join(f.render() for f in findings))


def test_full_tree_is_lint_clean(full_run):
    # The CI invocation: source and tests in one project, all rules.
    # Test modules are exempt from the in-library-only families
    # (RPR021, RPR031, RPR041) by scoping, not by suppression, so
    # this passing means zero unsuppressed findings anywhere.
    findings, project = full_run
    assert len(project.files) > 100
    assert not findings, (
        "repro lint found invariant violations in the full tree:\n  "
        + "\n  ".join(f.render() for f in findings))


def test_tests_keep_pvalue_discipline(full_run):
    # The acceptance criterion of the verification subsystem: no test
    # in the suite asserts on a single uncorrected p-value (RPR051).
    # Statistical claims go through repro.testkit.sweep or the battery.
    all_findings, project = full_run
    test_files = [sf for sf in project.files
                  if TESTS in Path(sf.display_path).parents]
    findings = [f for f in only(all_findings, "RPR051")
                if TESTS in Path(f.path).parents]
    assert len(test_files) > 20
    assert not findings, (
        "bare p-value asserts crept back into tests/:\n  "
        + "\n  ".join(f.render() for f in findings))


def test_contract_doc_was_discovered(src_run):
    # The obs cross-check rules must actually run in the self-lint:
    # auto-discovery has to find docs/observability.md from src/repro.
    _, project = src_run
    assert project.contract_doc is not None
    assert project.contract_doc.name == "observability.md"


def test_call_graph_covers_the_tree(src_run):
    # The interprocedural layer actually sees the library: the graph
    # has hundreds of defs and resolves cross-module edges.  A broken
    # summarizer would silently turn RPR06x/RPR07x into no-ops, which
    # this guards against.
    _, project = src_run
    graph = analyze_project(project)
    assert len(graph.defs) > 500
    assert sum(len(edges) for edges in graph._edges.values()) > 300


def test_sampling_entry_points_are_deterministic(src_run):
    # The paper's core claim, checked interprocedurally: no public
    # function in the sampling packages transitively reaches wall
    # clock, salted hash, global RNG, or OS entropy.
    findings = only(src_run[0], "RPR061")
    assert not findings, "\n".join(f.render() for f in findings)


def test_process_tasks_are_safe(src_run):
    findings = only(src_run[0], "RPR07x")
    assert not findings, "\n".join(f.render() for f in findings)


def test_concurrency_discipline_holds(full_run):
    # The lockset rules over source *and* tests: no inconsistent
    # lockset, no lock-order inversion, no unannotated blocking wait
    # under a lock anywhere in the shipped tree.
    findings = only(full_run[0], "RPR10x")
    assert not findings, "\n".join(f.render() for f in findings)


def test_async_discipline_holds(full_run):
    # The async rules over source *and* tests: no event-loop-blocking
    # coroutine, no dropped awaitable, no await-point race, no await
    # under a threading lock anywhere in the shipped tree (the serve
    # layer's true positives were fixed or carry justified noqas).
    findings = only(full_run[0], "RPR11x")
    assert not findings, "\n".join(f.render() for f in findings)


def test_lockset_model_sees_the_real_locks(src_run):
    # The model's lock table must include the locks the library
    # actually relies on; an empty table would silently turn the
    # RPR10x family into a no-op.
    _, project = src_run
    model = lock_model(project)
    table = model.lock_table()
    shorts = {ident.split(":", 1)[1] for ident in table}
    assert "MetricsRegistry._lock" in shorts
    assert "FileStore._lock" in shorts
    assert "InMemoryStore._lock" in shorts
    # The constructor-only analysis does real interprocedural work on
    # this tree: FileStore._load_index runs before the store is shared
    # (which is why it may scan the directory without the lock).
    assert any(key.endswith("FileStore._load_index")
               for key in model.ctor_only)


def test_all_rule_families_are_registered():
    codes = {r.code for r in all_rules()}
    # At least one rule per family: RNG (00x), determinism (01x),
    # obs contract (02x), errors (03x), locks (04x), stats (05x),
    # interprocedural determinism (06x), executor safety (07x),
    # timing discipline (08x), repro-manifest (09x), concurrency
    # soundness (10x), async soundness (11x).
    for family in ("RPR00", "RPR01", "RPR02", "RPR03", "RPR04",
                   "RPR05", "RPR06", "RPR07", "RPR08", "RPR09",
                   "RPR10", "RPR11"):
        assert any(code.startswith(family) for code in codes), family
    assert len(codes) >= 26
