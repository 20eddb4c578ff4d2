"""Documentation gates: links resolve and docs track the code surface.

Two families of checks keep the docs from rotting:

* **Link checker** — every relative markdown link in ``docs/*.md``,
  ``README.md``, and the other root documents points at a file that
  exists (with fragments stripped), and every backtick reference to a
  repo path (``src/...``, ``tests/...``, ``docs/...``, ``examples/...``,
  ``benchmarks/...``, ``repro/...``) names a real file, and every
  backtick reference to a dotted name (``repro.x.y``) imports as a
  module or resolves as an attribute of one.
* **Drift gates** — every CLI subcommand is documented (``repro
  <command>`` must appear in the docs) and every documented invocation
  (`` `repro <command> …` `` or ``python -m repro <command> …``) names
  a real subcommand and only its real ``--options``; every registered
  lint rule code appears in ``docs/static_analysis.md``, and every
  ``repro verify`` check name appears in ``docs/testing.md``.  Adding
  a command, rule, or check without documenting it fails here; so does
  documenting one that no longer exists.

CI runs this file in the ``docs`` job; it is also part of tier-1.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [*(REPO_ROOT / "docs").glob("*.md"),
     REPO_ROOT / "README.md",
     REPO_ROOT / "DESIGN.md",
     REPO_ROOT / "EXPERIMENTS.md"],
    key=lambda p: p.name)
DOC_FILES = [p for p in DOC_FILES if p.exists()]

_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_PATH_REF = re.compile(
    r"`((?:src|tests|docs|examples|benchmarks|repro)/"
    r"[A-Za-z0-9_./-]+\.[a-z]+)")
_DOTTED_REF = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")
_EXTERNAL = ("http://", "https://", "mailto:")


def _doc_text() -> str:
    return "\n".join(p.read_text(encoding="utf-8") for p in DOC_FILES)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    broken = []
    for match in _MD_LINK.finditer(doc.read_text(encoding="utf-8")):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        path = (doc.parent / target.split("#", 1)[0]).resolve()
        if not path.exists():
            broken.append(target)
    assert broken == [], f"{doc.name}: broken link target(s): {broken}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_backtick_path_references_exist(doc):
    stale = []
    for match in _PATH_REF.finditer(doc.read_text(encoding="utf-8")):
        ref = match.group(1)
        # `repro/...` module references are rooted at src/.
        path = REPO_ROOT / (f"src/{ref}" if ref.startswith("repro/")
                            else ref)
        if not path.exists():
            stale.append(ref)
    assert stale == [], f"{doc.name}: stale path reference(s): {stale}"


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute path under
    the longest importable module prefix of it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_backtick_module_references_resolve(doc):
    text = doc.read_text(encoding="utf-8")
    stale = sorted({ref for ref in _DOTTED_REF.findall(text)
                    if not _resolves(ref)})
    assert stale == [], f"{doc.name}: stale module reference(s): {stale}"


def test_every_cli_command_documented():
    from repro.cli import build_parser

    parser = build_parser()
    commands = set()
    for action in parser._subparsers._group_actions:
        commands.update(action.choices)
    assert commands, "CLI exposes no subcommands?"
    text = _doc_text()
    undocumented = sorted(c for c in commands
                          if f"repro {c}" not in text)
    assert undocumented == [], \
        f"CLI command(s) missing from docs: {undocumented}"


_INLINE_CODE = re.compile(r"`([^`\n]+)`")
_INLINE_INVOCATION = re.compile(
    r"^(?:[A-Z_]+=\S* )*(?:python3? -m )?repro ([^`]*)$")
_MODULE_INVOCATION = re.compile(r"python3? -m repro\b([^`\n]*)")
_FLAG = re.compile(r"(?<![\w-])--[a-z0-9][a-z0-9-]*")
_SHELL_STOP = ("|", "&", "&&", ";")


def _documented_invocations(text):
    """Argument strings of every ``repro`` invocation in ``text``: the
    body of each `` `repro …` `` code span plus the rest of each line
    that runs ``python -m repro`` (continuation lines joined)."""
    for span in _INLINE_CODE.finditer(text):
        match = _INLINE_INVOCATION.match(span.group(1))
        if match:
            yield match.group(1)
    for match in _MODULE_INVOCATION.finditer(text.replace("\\\n", " ")):
        yield match.group(1)


def _invocation_ghosts(args, parser, commands):
    """What ``repro <args>`` names that the parser does not define."""
    tokens = args.split()
    while tokens and tokens[0].startswith("-"):
        name, eq, _ = tokens.pop(0).partition("=")
        action = parser._option_string_actions.get(name)
        if action is None:
            return [f"repro {name}"]
        if action.nargs != 0 and not eq and tokens:
            tokens.pop(0)
    if not tokens or tokens[0].startswith("<"):
        return []  # bare `repro`, or a `repro <command>` placeholder
    command = tokens[0]
    if command not in commands:
        return [f"repro {command}"]
    options = commands[command]._option_string_actions
    ghosts = []
    for token in tokens[1:]:
        if token in _SHELL_STOP or token.startswith(("#", ">", "<")):
            break
        ghosts.extend(f"repro {command} {flag}"
                      for flag in _FLAG.findall(token)
                      if flag not in options)
    return ghosts


def test_every_documented_cli_invocation_exists():
    from repro.cli import build_parser

    parser = build_parser()
    commands = {}
    for action in parser._subparsers._group_actions:
        commands.update(action.choices)
    ghosts = []
    for doc in DOC_FILES:
        text = doc.read_text(encoding="utf-8")
        for args in _documented_invocations(text):
            ghosts.extend(f"{doc.name}: {ghost}" for ghost in
                          _invocation_ghosts(args, parser, commands))
    assert ghosts == [], \
        f"docs name CLI commands/options that do not exist: " \
        f"{sorted(set(ghosts))}"


def test_every_lint_rule_documented():
    from repro.analysis.framework import all_rules

    catalog = (REPO_ROOT / "docs" / "static_analysis.md").read_text(
        encoding="utf-8")
    codes = {rule.code for rule in all_rules()}
    assert codes, "no lint rules registered?"
    missing = sorted(c for c in codes if f"`{c}`" not in catalog)
    assert missing == [], \
        f"lint rule(s) missing from docs/static_analysis.md: {missing}"
    # And the reverse: documented codes must exist (RPR000 is the
    # reserved parse-error code, documented but not a registered rule).
    documented = set(re.findall(r"`(RPR\d{3})`", catalog))
    ghosts = sorted(documented - codes - {"RPR000"})
    assert ghosts == [], \
        f"docs/static_analysis.md documents unregistered rule(s): {ghosts}"


def test_every_verify_check_documented():
    from repro.testkit.checks import default_battery

    testing = (REPO_ROOT / "docs" / "testing.md").read_text(
        encoding="utf-8")
    names = {check.name for check in default_battery().checks()}
    assert names, "battery has no checks?"
    missing = sorted(n for n in names if f"`{n}`" not in testing)
    assert missing == [], \
        f"verify check(s) missing from docs/testing.md: {missing}"
