"""RPR122 — module-level state written through in ``core`` / ``kernels``.

A merge or a kernel op is a pure function of its inputs and its rng
(docs/determinism.md).  A module-level container or object that some
function writes through — a table cache, a memo dict — outlives every
call: it grows for the life of a server process and is shared by every
thread that merges.  The layers that hold the paper's algorithms keep
none.

The ``state_writes`` summary records, per function, its parameters and,
for each parameter or module-level name ``x``: writes through it
(``x[k] = v``, ``x.a = v``, ``del x[k]``, a mutating method such as
``x.setdefault(...)`` on ``x`` or anything reached from it), other
method calls ``x.m(...)``, and calls it is handed to.  A fixpoint then
decides which functions write through which of those names; the rule
reports each module-level name of a ``core`` / ``kernels`` module that
one of its module's functions writes through, with the chain down to
the write (docs/static_analysis.md, RPR12x).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.astutil import call_name
from repro.analysis.callgraph import _flat_targets, _own_nodes, module_id
from repro.analysis.dataflow import MUTATING_METHODS, analyze_project
from repro.analysis.framework import (Finding, Project, SourceFile, rule,
                                      summarizer)

#: Packages whose module-level state the rule polices.
_PACKAGES = ("core", "kernels")


def _root(node: ast.AST) -> Optional[str]:
    """The name an attribute/subscript chain starts from."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _facts(fn: ast.AST, module_names: Set[str]) -> dict:
    args = fn.args
    params = [a.arg for a in (*args.posonlyargs, *args.args,
                              *args.kwonlyargs)]
    tracked = set(params) | module_names
    writes: List[list] = []
    methods: List[list] = []
    hands: List[list] = []
    for node in _own_nodes(fn):
        targets: List[ast.expr] = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = _flat_targets(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)) and \
                    _root(target) in tracked:
                writes.append([_root(target), "assignment", node.lineno])
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and _root(func.value) in tracked:
            if func.attr in MUTATING_METHODS:
                writes.append([_root(func.value), f".{func.attr}()",
                               node.lineno])
            elif isinstance(func.value, ast.Name):
                methods.append([func.value.id, func.attr, node.lineno])
        for slot, value in [*enumerate(node.args),
                            *((kw.arg, kw.value) for kw in node.keywords
                              if kw.arg)]:
            if isinstance(value, ast.Name) and value.id in tracked:
                hands.append([value.id, call_name(node), slot,
                              node.lineno])
    return {"params": params, "writes": writes, "methods": methods,
            "hands": hands}


@summarizer("state_writes")
def state_writes_summary(sf: SourceFile) -> dict:
    """Module-level bindings (``name -> [constructor or None, line]``)
    and per-function write-through facts."""
    names: Dict[str, list] = {}
    for stmt in sf.tree.body:
        value = getattr(stmt, "value", None)
        targets = getattr(stmt, "targets", None) or \
            [getattr(stmt, "target", None)]
        if isinstance(value, ast.Call):
            entry = [call_name(value), stmt.lineno]
        elif isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                ast.DictComp, ast.SetComp)):
            entry = [None, stmt.lineno]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id != "__all__":
                names[target.id] = entry
    functions: Dict[str, dict] = {}

    def walk(stmts, prefix: str) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[prefix + stmt.name] = _facts(stmt, set(names))
                walk(stmt.body, prefix + stmt.name + ".<locals>.")
            elif isinstance(stmt, ast.ClassDef):
                walk(stmt.body, prefix + stmt.name + ".")

    walk(sf.tree.body, "")
    return {"module": module_id(sf), "names": names,
            "functions": functions}


class _WriteThrough:
    """Which functions write through which parameters or module names.

    ``through[(key, name)]`` is the witness: ``["local", how, line]``,
    ``["method", method key, line]``, ``["via", callee key, callee
    parameter, line]``, or ``["dynamic", line]`` for a call whose target
    is computed at run time (``_backend().draw(...)``, the kernel API's
    dispatch), which no reading of the source can clear.  A call the
    graph cannot otherwise resolve writes nothing.  ``p.m(...)`` on a
    parameter resolves ``m`` by name (any project method ``m`` that
    writes its ``self``); on a module-level object, through its class.
    """

    def __init__(self, project: Project) -> None:
        self.graph = analyze_project(project)
        self.facts: Dict[str, dict] = {}
        self.names: Dict[str, Dict[str, list]] = {}
        for _, summary in project.summaries("state_writes"):
            self.names[summary["module"]] = summary["names"]
            for qual, facts in summary["functions"].items():
                self.facts[f"{summary['module']}:{qual}"] = facts
        self.through: Dict[Tuple[str, str], list] = {}
        for key in sorted(self.facts):
            for name, how, line in self.facts[key]["writes"]:
                self.through.setdefault((key, name), ["local", how, line])
        changed = True
        while changed:
            changed = False
            writers = {k.rsplit(".", 1)[1]: k for (k, p) in
                       sorted(self.through, reverse=True)
                       if p == "self" and not k.endswith(".__init__")}
            for key in sorted(self.facts):
                for name, method, line in self.facts[key]["methods"]:
                    target = self._method(key, name, method, writers)
                    if target and (key, name) not in self.through:
                        self.through[(key, name)] = ["method", target, line]
                        changed = True
                for name, raw, slot, line in self.facts[key]["hands"]:
                    witness = self._hand(key, raw, slot, line)
                    if witness and (key, name) not in self.through:
                        self.through[(key, name)] = witness
                        changed = True

    def _method(self, key: str, name: str, method: str,
                writers: Dict[str, str]) -> Optional[str]:
        mod = key.split(":", 1)[0]
        if name in self.facts[key]["params"]:
            return writers.get(method)
        ctor = self.names.get(mod, {}).get(name, [None])[0]
        init = self.graph.resolve(mod, "", ctor) if ctor else None
        if init is None or not init.endswith(".__init__"):
            return None
        target = init[:-len("__init__")] + method
        return target if (target, "self") in self.through else None

    def _hand(self, key: str, raw: Optional[str], slot,
              line: int) -> Optional[list]:
        if raw is None:
            return ["dynamic", line]
        mod, qual = key.split(":", 1)
        callee = self.graph.resolve(mod, qual, raw)
        params = self.facts.get(callee or "", {}).get("params", [])
        if isinstance(slot, int):
            # A method called through an object or a class binds self.
            bound = params[:1] in (["self"], ["cls"]) and (
                "." in raw or callee.endswith(".__init__"))
            slot = params[slot + bound] if slot + bound < len(params) \
                else None
        if slot in params and (callee, slot) in self.through:
            return ["via", callee, slot, line]
        return None

    def chain(self, key: str, name: str) -> str:
        """``f(x) -> g(p) -> ... -> the write`` for a finding message."""
        hops: List[str] = []
        while len(hops) < 32:
            witness = self.through[(key, name)]
            hops.append(f"{self.graph.display(key)}({name})")
            if witness[0] == "via":
                key, name = witness[1], witness[2]
            elif witness[0] == "method":
                key, name = witness[1], "self"
            else:
                break
        if witness[0] == "local":
            hops.append(f"{witness[1]} (line {witness[2]})")
        elif witness[0] == "dynamic":
            hops.append(f"a call dispatched at run time (line "
                        f"{witness[1]})")
        return " -> ".join(hops)


@rule("RPR122", "module-state-write",
      "a core/kernels function writes through module-level state",
      scope="project")
def check_module_state_write(project: Project) -> Iterator[Finding]:
    """Flag module-level containers and objects of ``core`` and
    ``kernels`` that a function of their module writes through."""
    state = _WriteThrough(project)
    for mod in sorted(state.names):
        summary = state.graph.modules.get(mod, {})
        if mod.split(".", 1)[0] not in _PACKAGES or "path" not in summary:
            continue
        locks = summary.get("module_locks", {})
        for name, (ctor, line) in sorted(state.names[mod].items()):
            writers = sorted(k for (k, n) in state.through
                             if n == name and k.split(":", 1)[0] == mod
                             and name not in state.facts[k]["params"])
            if name in locks or not writers:
                continue
            what = f"a {ctor}" if ctor else "a container"
            yield Finding(
                path=summary["path"], line=line, col=0, code="RPR122",
                message=(
                    f"module-level `{name}` ({what}) is written through "
                    f"by {state.chain(writers[0], name)}; a merge or "
                    "kernel op keeps no state between calls — pass it "
                    "in, or build it per call"))
