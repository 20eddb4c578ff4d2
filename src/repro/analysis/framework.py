"""The lint engine: findings, the rule registry, and the runner.

A **rule** is a function that inspects a parsed source file (or the
whole project) and yields :class:`Finding` objects.  Rules register
themselves under a stable code (``RPR0xx``) with the :func:`rule`
decorator; the registry is what the reporters, the CLI's
``--list-rules``, and the suppression syntax key off.

Two rule scopes exist:

* ``"file"`` — called once per :class:`SourceFile` with that file;
  most rules are file-scoped AST walks.
* ``"project"`` — called once with the whole :class:`Project`; used
  for cross-file invariants such as the observability contract and
  the interprocedural determinism/executor-safety rules.

Project-scoped rules do not walk ASTs directly.  They consume
**module summaries**: per-file, JSON-serializable digests produced by
registered :func:`summarizer` functions (emitted instrument names,
the call-graph module table, ...), so the interprocedural engines
never touch an AST.

Every run is one serial, stateless pass: each file is read and parsed
once, every rule runs, and nothing is kept between runs.  The output
is a function of the linted tree and the analyzer's own code alone.

Suppressions: ``# repro: noqa[RPR012]`` silences that code,
``# repro: noqa[RPR012,RPR031]`` several, and a bare
``# repro: noqa`` every code.  A noqa on any physical line of a
multi-line statement suppresses findings reported anywhere on that
statement (the statement's span; for compound statements, its
header), so a comment on the last line of a wrapped call still
covers the finding anchored at the call's first line.

The engine is deliberately dependency-free: :mod:`ast`, :mod:`re`
and :mod:`pathlib` only, so ``repro lint`` runs
anywhere the library does.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from repro.errors import ConfigurationError

__all__ = ["Finding", "Rule", "SourceFile", "Project",
           "rule", "summarizer", "all_rules", "rule_for", "expand_select",
           "severity_for", "SEVERITIES",
           "load_project", "run_lint", "SYNTAX_ERROR_CODE"]

#: Rule severity tiers, most severe first.  ``--fail-on warning`` (the
#: default) fails on any finding; ``--fail-on error`` lets
#: warning-severity findings through with exit code 0.
SEVERITIES = ("error", "warning")

#: Reserved code for files the engine cannot parse at all.  Not a
#: registered rule: parse errors are always reported, whatever
#: ``--select`` says.
SYNTAX_ERROR_CODE = "RPR000"

_CODE_RE = re.compile(r"^RPR\d{3}$")

#: ``RPR06x`` — a family prefix in ``--select`` lists.
_FAMILY_RE = re.compile(r"^RPR\d{2}X$")

#: ``# repro: noqa`` or ``# repro: noqa[RPR001,RPR002]``
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[([A-Z0-9,\s]+)\])?", re.IGNORECASE)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """``path:line:col: CODE message`` (the text-reporter line)."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} " \
               f"{self.message}"

    def to_dict(self) -> dict:
        """A JSON-ready record (round-trips via :func:`finding_from_dict`)."""
        return {"path": self.path, "line": self.line, "col": self.col,
                "code": self.code, "message": self.message}


def finding_from_dict(record: dict) -> Finding:
    """Rebuild a :class:`Finding` from :meth:`Finding.to_dict` output."""
    return Finding(path=record["path"], line=int(record["line"]),
                   col=int(record["col"]), code=record["code"],
                   message=record["message"])


@dataclass(frozen=True)
class Rule:
    """A registered lint rule (code, name, rationale, check function)."""

    code: str
    name: str
    summary: str
    scope: str  # "file" or "project"
    check: Callable
    severity: str = "error"  # "error" or "warning"


_REGISTRY: Dict[str, Rule] = {}

#: Per-file digest extractors feeding the project-scoped rules.
_SUMMARIZERS: Dict[str, Callable[["SourceFile"], object]] = {}


def rule(code: str, name: str, summary: str, *, scope: str = "file",
         severity: str = "error") -> Callable[[Callable], Callable]:
    """Register a check function under a stable ``RPR0xx`` code."""
    if not _CODE_RE.match(code):
        raise ConfigurationError(
            f"rule code must look like RPR0xx, got {code!r}")
    if scope not in ("file", "project"):
        raise ConfigurationError(
            f"rule scope must be 'file' or 'project', got {scope!r}")
    if severity not in SEVERITIES:
        raise ConfigurationError(
            f"rule severity must be one of {SEVERITIES}, got "
            f"{severity!r}")

    def register(fn: Callable) -> Callable:
        if code in _REGISTRY:
            raise ConfigurationError(f"duplicate rule code {code}")
        _REGISTRY[code] = Rule(code, name, summary, scope, fn, severity)
        return fn

    return register


def summarizer(key: str) -> Callable[[Callable], Callable]:
    """Register a per-file summary extractor under ``key``.

    The extractor receives a parsed :class:`SourceFile` and must
    return a JSON-serializable value; project-scoped rules read the
    merged view through :meth:`Project.summaries`.
    """
    def register(fn: Callable) -> Callable:
        if key in _SUMMARIZERS:
            raise ConfigurationError(f"duplicate summarizer key {key!r}")
        _SUMMARIZERS[key] = fn
        return fn

    return register


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by code."""
    _load_builtin_rules()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def rule_for(code: str) -> Rule:
    """The rule registered under ``code``."""
    _load_builtin_rules()
    try:
        return _REGISTRY[code]
    except KeyError:
        raise ConfigurationError(f"unknown rule code {code!r}") from None


def severity_for(code: str) -> str:
    """The severity tier of a finding code (parse errors are errors)."""
    if code == SYNTAX_ERROR_CODE:
        return "error"
    return rule_for(code).severity


def expand_select(select: Optional[Iterable[str]]) -> Optional[Set[str]]:
    """Expand a ``--select`` list into a set of registered codes.

    Accepts exact codes (``RPR061``) and family prefixes
    (``RPR06x``); every token may itself be a comma-separated list,
    so both ``["RPR061", "RPR07x"]`` and ``["RPR061,RPR07x"]`` work.
    Unknown codes and empty families raise
    :class:`~repro.errors.ConfigurationError` naming the valid codes.
    """
    if select is None:
        return None
    _load_builtin_rules()
    known = sorted(_REGISTRY)
    wanted: Set[str] = set()
    for raw in select:
        for token in str(raw).split(","):
            token = token.strip().upper()
            if not token:
                continue
            if _FAMILY_RE.match(token):
                members = {c for c in known
                           if c.startswith(token[:-1])}
                if not members:
                    raise ConfigurationError(
                        f"rule family {token!r} matches no registered "
                        f"rule; known codes: {', '.join(known)}")
                wanted |= members
            elif token in _REGISTRY:
                wanted.add(token)
            else:
                raise ConfigurationError(
                    f"unknown rule code {token!r}; known codes: "
                    f"{', '.join(known)} (families select as e.g. "
                    "RPR06x)")
    if not wanted:
        raise ConfigurationError("--select selected no rules")
    return wanted


def _load_builtin_rules() -> None:
    # Importing the package registers every built-in rule module.
    import repro.analysis.rules  # noqa: F401  (import for side effect)


def _parse_suppressions(lines: Sequence[str]) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> suppressed codes (``None`` = every code)."""
    table: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        if match.group(1) is None:
            table[lineno] = None
        else:
            codes = {c.strip().upper() for c in match.group(1).split(",")}
            table[lineno] = {c for c in codes if c}
    return table


def _statement_spans(tree: ast.AST) -> List[Tuple[int, int]]:
    """``(first, last)`` physical-line span of every statement.

    Compound statements (``if``/``with``/``def``/...) span their
    *header* only — a noqa inside a function body must not wave off
    the whole function — while simple statements span all their
    physical lines, so a comment on any line of a wrapped call covers
    the full statement.
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        end = getattr(node, "end_lineno", None) or start
        body = getattr(node, "body", None)
        if isinstance(body, list) and body \
                and isinstance(body[0], ast.stmt):
            end = max(start, min(child.lineno for child in body) - 1)
        spans.append((start, end))
    return spans


def _expand_suppressions(raw: Dict[int, Optional[Set[str]]],
                         spans: Sequence[Tuple[int, int]]
                         ) -> Dict[int, Optional[Set[str]]]:
    """Spread each noqa over its innermost enclosing statement span."""
    table: Dict[int, Optional[Set[str]]] = {}

    def merge(line: int, codes: Optional[Set[str]]) -> None:
        if codes is None:
            table[line] = None
            return
        current = table.get(line, set())
        if current is None:
            return  # a bare noqa already covers everything
        table[line] = set(current) | codes

    for line, codes in raw.items():
        containing = [s for s in spans if s[0] <= line <= s[1]]
        if containing:
            start, end = min(containing,
                             key=lambda s: (s[1] - s[0], -s[0]))
            for covered in range(start, end + 1):
                merge(covered, codes)
        else:
            merge(line, codes)
    return table


class SourceFile:
    """One parsed Python source plus the metadata rules key off.

    ``display_path`` is what findings report (the path as the caller
    spelled it); ``package_parts`` is the path relative to the package
    root with any leading ``src``/``repro`` segments stripped, so a
    rule can ask "is this ``rng.py``?" or "is this under ``core/``?"
    no matter whether the caller linted ``src/repro``, ``src`` or a
    test fixture tree that mimics the layout.
    """

    def __init__(self, path: Path, root: Path, text: str) -> None:
        self.path = path
        self.display_path = str(path)
        self.text = text
        self.lines = text.splitlines()
        rel = path.relative_to(root).parts
        while rel and rel[0] in ("src", "repro"):
            rel = rel[1:]
        self.package_parts: Tuple[str, ...] = rel
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[Finding] = None
        try:
            self.tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            self.parse_error = Finding(
                path=self.display_path, line=exc.lineno or 1,
                col=(exc.offset or 1) - 1, code=SYNTAX_ERROR_CODE,
                message=f"cannot parse file: {exc.msg}")
        raw = _parse_suppressions(self.lines)
        spans = _statement_spans(self.tree) if self.tree is not None else ()
        self._suppressions = _expand_suppressions(raw, spans)
        self._summaries: Dict[str, object] = {}

    @property
    def module_path(self) -> str:
        """The package-relative path, e.g. ``core/merge.py``."""
        return "/".join(self.package_parts)

    def in_package(self, *packages: str) -> bool:
        """True when the file sits under one of the given top packages."""
        return bool(self.package_parts) and self.package_parts[0] in packages

    def is_module(self, name: str) -> bool:
        """True when the file *is* the given package-relative module."""
        return self.module_path == name

    def is_test_module(self) -> bool:
        """True for ``test_*.py`` / ``*_test.py`` files and anything
        under a ``tests`` tree (fixtures, conftest, helpers)."""
        parts = self.package_parts
        if not parts:
            return False
        stem = parts[-1]
        return (stem.startswith("test_") or stem.endswith("_test.py")
                or "tests" in parts[:-1])

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node``'s location."""
        return Finding(path=self.display_path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       code=code, message=message)

    def suppressed(self, finding: Finding) -> bool:
        """True when a ``# repro: noqa`` comment waves this finding off."""
        codes = self._suppressions.get(finding.line, ())
        return codes is None or finding.code in codes

    def summary(self, key: str) -> object:
        """This file's summary under ``key`` (computed once, memoized)."""
        if key not in self._summaries:
            if key not in _SUMMARIZERS:
                _load_builtin_rules()
            extract = _SUMMARIZERS[key]
            self._summaries[key] = None if self.tree is None \
                else extract(self)
        return self._summaries[key]


class Project:
    """Every linted file plus the (optional) observability contract doc.

    ``files`` holds one parsed :class:`SourceFile` per linted path, in
    path order; file-scoped rules walk them one at a time, and
    project-scoped rules consume :meth:`summaries` across all of them.
    """

    def __init__(self, files: Sequence[SourceFile],
                 contract_doc: Optional[Path]) -> None:
        self.files = list(files)
        self.contract_doc = contract_doc
        self._by_path = {sf.display_path: sf for sf in self.files}

    def summaries(self, key: str) -> List[Tuple[SourceFile, object]]:
        """``(file, summary)`` for every file, in path order.

        Files that failed to parse have no summary and are skipped.
        """
        pairs = []
        for sf in self.files:
            value = sf.summary(key)
            if value is not None:
                pairs.append((sf, value))
        return pairs

    def file_for(self, finding: Finding) -> Optional[SourceFile]:
        """The source file a finding points into (None for doc findings)."""
        return self._by_path.get(finding.path)


def _package_root(file: Path) -> Path:
    """The directory above the outermost package holding ``file``.

    Walks up through parents that carry an ``__init__.py``, so a file
    linted on its own gets the package-relative path it would get when
    its tree is linted, and package-scoped rules still apply to it.
    """
    root = file.parent
    while (root / "__init__.py").is_file() and root.parent != root:
        root = root.parent
    return root


def _iter_sources(paths: Sequence[str]) -> Iterator[Tuple[Path, Path]]:
    """Yield ``(file, root)`` pairs for every ``.py`` under ``paths``."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            yield path, _package_root(path)
        elif path.is_dir():
            for file in sorted(path.rglob("*.py")):
                yield file, path
        else:
            raise ConfigurationError(
                f"no such file or directory: {raw}")


def _discover_contract_doc(paths: Sequence[str]) -> Optional[Path]:
    """Walk up from the linted paths looking for docs/observability.md."""
    for raw in paths:
        probe = Path(raw).resolve()
        for ancestor in [probe, *probe.parents][:6]:
            candidate = ancestor / "docs" / "observability.md"
            if candidate.is_file():
                return candidate
    return None


def load_project(paths: Sequence[str], *,
                 contract_doc: object = "auto") -> Project:
    """Parse every source under ``paths`` into a :class:`Project`.

    ``contract_doc`` is ``"auto"`` (walk up from the linted paths for
    ``docs/observability.md``), an explicit path, or ``None`` to
    disable the doc cross-check rules.  Files are read and parsed in
    path order, each exactly once.
    """
    files = [SourceFile(file, root, file.read_text(encoding="utf-8"))
             for file, root in _iter_sources(paths)]
    if contract_doc == "auto":
        doc: Optional[Path] = _discover_contract_doc(paths)
    elif contract_doc is None:
        doc = None
    else:
        doc = Path(str(contract_doc))
        if not doc.is_file():
            raise ConfigurationError(
                f"contract doc not found: {contract_doc}")
    return Project(files, doc)


def run_lint(paths: Sequence[str], *, contract_doc: object = "auto",
             select: Optional[Iterable[str]] = None
             ) -> Tuple[List[Finding], Project]:
    """Run every registered rule over ``paths``.

    Returns ``(findings, project)`` with findings sorted by location.
    ``select`` restricts the run to the given rule codes or
    ``RPR06x``-style families (unknown codes raise); unselected rules
    do not run at all.  Parse errors are reported whatever ``select``
    says.
    """
    wanted = expand_select(select)
    rules = [rl for rl in all_rules()
             if wanted is None or rl.code in wanted]
    project = load_project(paths, contract_doc=contract_doc)
    file_rules = [rl for rl in rules if rl.scope == "file"]
    findings: List[Finding] = []
    for sf in project.files:
        if sf.parse_error is not None:
            findings.append(sf.parse_error)
            continue
        for rl in file_rules:
            findings.extend(f for f in rl.check(sf)
                            if not sf.suppressed(f))
    for rl in rules:
        if rl.scope != "project":
            continue
        for finding in rl.check(project):
            sf = project.file_for(finding)
            if sf is None or not sf.suppressed(finding):
                findings.append(finding)
    findings.sort()
    return findings, project
