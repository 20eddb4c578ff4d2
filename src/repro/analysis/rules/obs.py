"""Observability contract: instrument names are literal and documented.

``docs/observability.md`` is the contract page: every metric and span
name the library emits appears there with kind, unit, and emission
point.  These rules resolve instrument names from the AST (replacing
the old lexical regex scan in ``tests/test_obs_contract.py``) and
enforce three invariants:

* names are **string literals** — an f-string or concatenated name
  cannot be cross-checked against the contract and would create
  unbounded metric cardinality;
* every **emitted** name is documented (no silent drift code → doc);
* every **documented** name is emitted (no ghost rows doc → code).

The ``obs`` package itself is exempt: it takes caller-chosen names as
parameters and only ever *defines* the instruments.  Test modules are
exempt too: tests emit scratch names into throwaway registries, not
into the library's contract.

The cross-file directions (RPR022/RPR023) consume the ``obs_names``
**module summary** rather than walking ASTs, like every other
project-scoped rule.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Tuple

from repro.analysis.framework import (Finding, Project, SourceFile,
                                      rule, summarizer)
from repro.analysis.astutil import dotted_name

#: Registry methods that bind a metric name at the call site.
_REGISTRY_METHODS = frozenset({"counter", "gauge", "histogram", "timer"})

#: Free functions that bind a span/metric name as their first argument.
_NAME_FUNCTIONS = frozenset({"span", "traced", "_record_tasks"})

#: Contract-table rows look like ``| `name` | ...`` (possibly indented).
_DOC_ROW_RE = re.compile(r"^\s*\|\s*`([^`]+)`", re.MULTILINE)


def _is_registry_receiver(node: ast.AST) -> bool:
    """Heuristic: does this expression denote a metrics registry?

    Matches the repo idiom — ``OBS.registry.counter(...)`` and local
    aliases ``reg = OBS.registry`` / ``registry.histogram(...)``.
    """
    name = dotted_name(node)
    if name is None:
        return False
    terminal = name.rsplit(".", 1)[-1]
    return terminal in ("registry", "reg", "metrics")


def instrument_name_exprs(tree: ast.AST
                          ) -> Iterator[Tuple[ast.Call, ast.AST]]:
    """Yield ``(call, name_expr)`` for every instrument call site."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in _NAME_FUNCTIONS:
            if node.args:
                yield node, node.args[0]
            if func.id == "traced":
                for kw in node.keywords:
                    if kw.arg == "timer" and not (
                            isinstance(kw.value, ast.Constant)
                            and kw.value.value is None):
                        yield node, kw.value
        elif isinstance(func, ast.Attribute) and \
                func.attr in _REGISTRY_METHODS and \
                _is_registry_receiver(func.value) and node.args:
            yield node, node.args[0]


def _literal_name(expr: ast.AST) -> Optional[str]:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


@summarizer("obs_names")
def obs_names_summary(sf: SourceFile) -> dict:
    """Per-file digest for the contract cross-check: the literal
    instrument names the file emits, plus whether it belongs to the
    obs package (the contract's implementation)."""
    names: List[List[object]] = []
    if not sf.in_package("obs") and not sf.is_test_module():
        for call, expr in instrument_name_exprs(sf.tree):
            name = _literal_name(expr)
            if name is not None:
                names.append([name, call.lineno])
    return {"is_obs": sf.in_package("obs"), "names": names}


def emitted_names(project: Project) -> List[Tuple[str, object, int]]:
    """Every literal instrument name emitted outside the obs package
    (and outside tests), as ``(name, file_view, line)``."""
    names: List[Tuple[str, object, int]] = []
    for view, summ in project.summaries("obs_names"):
        for name, line in summ["names"]:
            names.append((name, view, line))
    return names


def documented_names(text: str) -> List[Tuple[str, int]]:
    """``(name, line)`` for every contract-table row in the doc."""
    rows = []
    for match in _DOC_ROW_RE.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        rows.append((match.group(1), line))
    return rows


@rule("RPR021", "obs-literal-name",
      "an instrument name is not a string literal")
def check_literal_names(sf: SourceFile) -> Iterator[Finding]:
    """Names built at runtime defeat the contract check and create
    unbounded metric cardinality."""
    if sf.in_package("obs") or sf.is_test_module():
        return
    for call, expr in instrument_name_exprs(sf.tree):
        if _literal_name(expr) is None:
            yield sf.finding(
                expr, "RPR021",
                "instrument name must be a plain string literal so the "
                "contract (docs/observability.md) can resolve it; "
                "put variability in span attrs, not the name")


@rule("RPR022", "obs-undocumented-name",
      "an emitted instrument name is missing from the contract doc",
      scope="project")
def check_names_documented(project: Project) -> Iterator[Finding]:
    """Code → doc direction: every emitted name needs a contract row."""
    if project.contract_doc is None:
        return
    doc = project.contract_doc.read_text(encoding="utf-8")
    for name, sf, line in emitted_names(project):
        if f"`{name}`" not in doc:
            yield Finding(
                path=sf.display_path, line=line, col=0, code="RPR022",
                message=f"instrument name `{name}` is not documented "
                        f"in {project.contract_doc.name}; add a "
                        "contract row (kind, unit, emission point)")


@rule("RPR023", "obs-ghost-name",
      "the contract doc documents a name no code emits",
      scope="project")
def check_no_ghost_names(project: Project) -> Iterator[Finding]:
    """Doc → code direction: contract rows must not document ghosts.

    Only meaningful when the obs implementation itself is in view: a
    partial run (``repro lint tests``) sees none of the library's
    emission sites, and flagging every contract row as a ghost there
    would be pure noise.
    """
    if project.contract_doc is None:
        return
    if not any(summ["is_obs"]
               for _, summ in project.summaries("obs_names")):
        return
    doc = project.contract_doc.read_text(encoding="utf-8")
    emitted = {name for name, _, _ in emitted_names(project)}
    for name, line in documented_names(doc):
        if name not in emitted:
            yield Finding(
                path=str(project.contract_doc), line=line, col=0,
                code="RPR023",
                message=f"documented instrument name `{name}` is "
                        "emitted nowhere in the linted sources; "
                        "delete the row or restore the emission")


__all__ = ["instrument_name_exprs", "emitted_names", "documented_names",
           "obs_names_summary", "check_literal_names",
           "check_names_documented", "check_no_ghost_names"]
