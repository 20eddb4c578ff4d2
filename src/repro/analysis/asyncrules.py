"""Async-soundness analysis and the RPR11x rule family.

:mod:`repro.analysis.callgraph` colors every ``async def`` in its
module summary (``async_kind``), records its ``await`` points with the
locks held at each suspension, and tags calls with the facts the
async rules need (``blocks``, ``awaited``, ``discarded``,
``creates_task``, ``arg_of``).  This module lifts those per-function
facts to the whole project:

* **Blocks-event-loop effect** (:attr:`AsyncModel.blocks`).  A sync
  function *blocks the event loop* when — called from a coroutine —
  it would park the loop thread: it sleeps, does file/socket I/O,
  acquires a ``threading.Lock``, waits on a queue, or calls another
  sync function that does.  Computed as a transitive fixpoint over
  the sync call graph, with one witness per function so findings can
  print the offending chain.  Three escapes keep executor-routed work
  out of the effect: ``.submit(...)`` calls are non-blocking enqueues
  (the routing primitive itself), calls inside a lambda argument are
  charged to a *router* (a function that hands its callable parameter
  to an executor, ``run_in_executor``, or ``to_thread``) rather than
  the caller, and edges into ``async def`` targets are dropped (a
  sync call to a coroutine function only creates the coroutine
  object).

* **Coroutine coloring** (:attr:`AsyncModel.colors` /
  :attr:`AsyncModel.awaits`) — the tables the CI async coverage gate
  diffs against an independent AST scan.

The rules (all project-scoped; test files are exempt — test
coroutines run under ``asyncio.run`` scaffolding, single-task):

* **RPR111 — blocking-call-in-coroutine** (severity ``warning``).
  A coroutine (or async generator) performs a blocking call — local
  or through sync callees — without routing it through an executor.
  Every task on the loop stalls behind it.

* **RPR112 — un-awaited coroutine / dropped task handle.**  An
  expression statement discards a coroutine object (the body never
  runs) or the task returned by ``asyncio.create_task`` (the task is
  a GC candidate mid-flight and its exception is silently lost).

* **RPR113 — await-point race.**  The async analogue of RPR101:
  shared state (``self._x`` / module globals) is written in a
  coroutine across an ``await`` with no common ``asyncio.Lock`` over
  the straddling accesses.  Another task interleaves at the
  suspension point and observes (or clobbers) intermediate state.
  Epochs are static: accesses are compared by the number of
  suspension points crossed before them, so a single-epoch function
  can never fire (loop back-edges are a documented non-goal).

* **RPR114 — await under a threading lock.**  Holding a
  ``threading.Lock`` across an ``await`` couples the two schedulers:
  any pool thread contending for the lock parks until the loop
  resumes this task, and if resuming *needs* that thread the pair
  deadlocks.  Release before awaiting, or use ``asyncio.Lock``.

Like the lockset model, everything here is pure summary-plumbing
(JSON in, tables out), and it canonicalizes lock and location tokens
with the lockset model's own helpers, so both models name a
``self._x`` the same way, closures included.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.dataflow import CallGraph, analyze_project
from repro.analysis.framework import Finding, Project, rule
from repro.analysis.locksets import (canon_held, canon_token,
                                     is_test_path, lock_model,
                                     owner_class)

__all__ = ["AsyncModel", "async_model",
           "check_blocking_in_coroutine", "check_dropped_awaitable",
           "check_await_point_race", "check_await_under_thread_lock"]

#: Terminal call names that hand their callable argument off the loop
#: — a lambda argument of one of these runs on a worker, not here.
_ROUTER_TERMINALS = frozenset({"run_in_executor", "to_thread",
                               "submit", "map"})

#: Blocking methods on class-level queue / executor attributes, as in
#: the lockset model — minus ``submit``, which is a non-blocking
#: enqueue (the routing primitive the whole analysis exempts).
_ATTR_QUEUE_BLOCKING = frozenset({"get", "put", "join"})
_ATTR_EXEC_BLOCKING = frozenset({"map", "shutdown"})


class AsyncModel:
    """Project-wide async tables (see the module docstring)."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        #: def key -> "coroutine" | "asyncgen"
        self.colors: Dict[str, str] = {}
        #: def key -> its await records (always present for colored
        #: keys, possibly empty — the coverage gate diffs counts)
        self.awaits: Dict[str, List[dict]] = {}
        #: (module, cls, attr) -> the class key the attribute's
        #: constructor resolves to ("serve.cache:MergeCache")
        self._attr_cls: Dict[Tuple[str, str, str], str] = {}
        #: (module, cls) -> {attr} bound to queues / executors
        self.queue_attrs: Dict[Tuple[str, str], Set[str]] = {}
        self.exec_attrs: Dict[Tuple[str, str], Set[str]] = {}
        #: def key -> callable-parameter names it routes to an executor
        self.routes: Dict[str, Set[str]] = {}
        self._collect()
        #: sync def key -> blocks-event-loop witness:
        #: ("local", detail, line) or ("via", callee key, detail, line)
        self.blocks: Dict[str, Tuple] = {}
        self._solve_blocks()

    # -- construction ---------------------------------------------------

    def _collect(self) -> None:
        graph = self.graph
        for key in sorted(graph.defs):
            mod, rec = graph.defs[key]
            kind = rec.get("async_kind")
            if kind:
                self.colors[key] = kind
                self.awaits[key] = list(rec.get("awaits") or ())
            cls = rec.get("cls")
            if cls is not None:
                qual = key.split(":", 1)[1]
                for attr in sorted(rec.get("attr_binds") or {}):
                    ctor = rec["attr_binds"][attr]
                    target = graph.resolve(mod, qual, ctor)
                    if target is not None and \
                            target.endswith(".__init__"):
                        self._attr_cls.setdefault(
                            (mod, cls, attr),
                            target[:-len(".__init__")])
                for attr in sorted(rec.get("queue_attrs") or {}):
                    self.queue_attrs.setdefault((mod, cls),
                                                set()).add(attr)
                for attr in sorted(rec.get("exec_attrs") or {}):
                    self.exec_attrs.setdefault((mod, cls),
                                               set()).add(attr)
            for sub in rec.get("submits") or ():
                name = sub["fn"].get("name")
                if not name or "." in name:
                    continue
                # Charge the submit to the innermost enclosing def
                # that takes ``name`` as a parameter: that def routes
                # its callable argument off the loop.
                scope_key = key
                while scope_key is not None:
                    _, scope_rec = graph.defs[scope_key]
                    if name in (scope_rec.get("params") or ()):
                        self.routes.setdefault(scope_key,
                                               set()).add(name)
                        break
                    scope_qual = scope_key.split(":", 1)[1]
                    if ".<locals>." not in scope_qual:
                        break
                    outer = scope_qual.rsplit(".<locals>.", 1)[0]
                    scope_key = f"{mod}:{outer}"
                    if scope_key not in graph.defs:
                        scope_key = None

    def resolve(self, key: str, name: str) -> Optional[str]:
        """Async-aware call resolution: the base resolver, plus
        ``self.<m>`` from nested defs (via the enclosing method's
        class) and ``self.<attr>.<m>`` through constructor-bound
        attribute types."""
        mod, _ = self.graph.defs[key]
        qual = key.split(":", 1)[1]
        target = self.graph.resolve(mod, qual, name)
        if target is not None:
            return target
        parts = name.split(".")
        if parts[0] != "self":
            return None
        cls = owner_class(self.graph, key)
        if cls is None:
            return None
        if len(parts) == 2:
            cand = f"{mod}:{cls}.{parts[1]}"
            return cand if cand in self.graph.defs else None
        if len(parts) == 3:
            cls_key = self._attr_cls.get((mod, cls, parts[1]))
            if cls_key is not None:
                cand = f"{cls_key}.{parts[2]}"
                return cand if cand in self.graph.defs else None
        return None

    def _is_routed(self, key: str, ctx_name: str) -> bool:
        """True when ``ctx_name`` (the call a lambda argument sits
        inside) runs its callables off the event loop."""
        if ctx_name.rsplit(".", 1)[-1] in _ROUTER_TERMINALS:
            return True
        target = self.resolve(key, ctx_name)
        return target is not None and bool(self.routes.get(target))

    def _local_blockers(self, key: str) -> List[Tuple[str, int]]:
        """This body's own loop-parking sites: ``(detail, line)``."""
        mod, rec = self.graph.defs[key]
        cls = owner_class(self.graph, key)
        queue_attrs = self.queue_attrs.get((mod, cls), set()) \
            if cls else set()
        exec_attrs = self.exec_attrs.get((mod, cls), set()) \
            if cls else set()
        out: List[Tuple[str, int]] = []
        for acq in rec.get("acquires") or ():
            out.append((f"acquires `{acq['lock']}`", acq["line"]))
        for call in rec.get("calls") or ():
            name = call["name"]
            if call.get("arg_of") and \
                    self._is_routed(key, call["arg_of"]):
                continue
            if name.rsplit(".", 1)[-1] == "submit":
                continue  # non-blocking enqueue
            if call.get("blocks"):
                out.append((f"{name}()", call["line"]))
                continue
            parts = name.split(".")
            if len(parts) == 3 and parts[0] == "self":
                attr, method = parts[1], parts[2]
                if (attr in queue_attrs
                        and method in _ATTR_QUEUE_BLOCKING) or \
                        (attr in exec_attrs
                         and method in _ATTR_EXEC_BLOCKING):
                    out.append((f"{name}()", call["line"]))
        out.sort(key=lambda site: site[1])
        return out

    def _out_edges(self, key: str) -> List[Tuple[str, str, int]]:
        """Resolved sync-to-sync call edges that propagate the
        blocks-event-loop effect: ``(target, name, line)``."""
        _, rec = self.graph.defs[key]
        edges: List[Tuple[str, str, int]] = []
        for call in rec.get("calls") or ():
            name = call["name"]
            if call.get("arg_of") and \
                    self._is_routed(key, call["arg_of"]):
                continue
            if name.rsplit(".", 1)[-1] == "submit":
                continue
            target = self.resolve(key, name)
            if target is None or target == key:
                continue
            if target in self.colors:
                continue  # calling a coroutine fn only builds the coro
            edges.append((target, name, call["line"]))
        return edges

    def _solve_blocks(self) -> None:
        sync_keys = sorted(k for k in self.graph.defs
                           if k not in self.colors)
        for key in sync_keys:
            local = self._local_blockers(key)
            if local:
                detail, line = local[0]
                self.blocks[key] = ("local", detail, line)
        changed = True
        while changed:
            changed = False
            for key in sync_keys:
                if key in self.blocks:
                    continue
                for target, name, line in self._out_edges(key):
                    if target in self.blocks:
                        self.blocks[key] = ("via", target,
                                            f"{name}()", line)
                        changed = True
                        break

    # -- views consumed by the rules ------------------------------------

    def chain(self, key: str) -> str:
        """The blocks-event-loop witness chain of a *sync* def,
        rendered like the dataflow effect chains."""
        hops: List[str] = []
        seen: Set[str] = set()
        current: Optional[str] = key
        while current is not None and current not in seen:
            seen.add(current)
            witness = self.blocks.get(current)
            if witness is None:
                break
            path, line, _ = self.graph.location(current)
            name = current.split(":", 1)[1].replace(".<locals>.", ".")
            hops.append(f"{name} ({path}:{line})")
            if witness[0] == "local":
                hops.append(f"{witness[1]} (line {witness[2]})")
                break
            current = witness[1]
        return " -> ".join(hops)

    def loop_sites(self, key: str) -> List[dict]:
        """Every way ``key``'s own body can park the event loop:
        local sites plus calls into blocks-event-loop sync callees.
        ``{"line", "detail", "chain"}`` sorted by line."""
        sites = [{"line": line, "detail": detail, "chain": None}
                 for detail, line in self._local_blockers(key)]
        for target, name, line in self._out_edges(key):
            if target in self.blocks:
                sites.append({"line": line, "detail": f"{name}()",
                              "chain": self.chain(target)})
        sites.sort(key=lambda s: (s["line"], s["detail"]))
        return sites

    def aio_blocking_evidence(self, key: str) -> List[dict]:
        """Blocking waits performed while an ``asyncio.Lock`` is held
        — RPR103's async evidence, sharing the blocks-event-loop
        effect.  ``{"line", "detail", "locks", "chain"}``."""
        _, rec = self.graph.defs[key]
        evidence: List[dict] = []
        for blk in rec.get("aio_blocking") or ():
            locks = canon_held(self.graph, key, blk["aio_held"])
            if locks:
                evidence.append({"line": blk["line"],
                                 "detail": blk["detail"],
                                 "locks": locks, "chain": None})
        for call in rec.get("calls") or ():
            locks = canon_held(self.graph, key, call.get("aio_held"))
            if not locks:
                continue
            name = call["name"]
            if call.get("arg_of") and \
                    self._is_routed(key, call["arg_of"]):
                continue
            if name.rsplit(".", 1)[-1] == "submit":
                continue
            target = self.resolve(key, name)
            if target is None or target == key or \
                    target not in self.blocks:
                continue
            evidence.append({"line": call["line"],
                             "detail": f"{name}()", "locks": locks,
                             "chain": self.chain(target)})
        evidence.sort(key=lambda e: e["line"])
        return evidence

    def display(self, ident: str) -> str:
        """Human spelling of a canonical lock/location id."""
        return ident.partition(":")[2] or ident


def async_model(project) -> AsyncModel:
    """The (memoized) :class:`AsyncModel` of a lint project."""
    model = getattr(project, "_repro_asyncmodel", None)
    if model is None:
        model = AsyncModel(analyze_project(project))
        project._repro_asyncmodel = model
    return model


def _path_of(graph: CallGraph, key: str) -> str:
    return graph.modules[graph.defs[key][0]]["path"]


@rule("RPR111", "blocking-call-in-coroutine",
      "a coroutine performs a blocking call (sleep, lock acquire, "
      "file/socket I/O, queue wait) that stalls the event loop",
      scope="project", severity="warning")
def check_blocking_in_coroutine(project: Project) -> Iterator[Finding]:
    """One finding per coroutine that can park the loop thread,
    anchored at the first blocking site; executor-routed calls are
    exempt."""
    model = async_model(project)
    graph = model.graph
    for key in sorted(model.colors):
        path = _path_of(graph, key)
        if is_test_path(path):
            continue
        sites = model.loop_sites(key)
        if not sites:
            continue
        first = sites[0]
        chain = f" via {first['chain']}" if first["chain"] else ""
        lines = sorted({s["line"] for s in sites})
        extra = "" if len(lines) == 1 else \
            f" ({len(lines)} blocking sites in this coroutine)"
        noun = "async generator" \
            if model.colors[key] == "asyncgen" else "coroutine"
        yield Finding(
            path=path, line=first["line"], col=0, code="RPR111",
            message=(
                f"{noun} `{graph.display(key)}` blocks the event "
                f"loop: `{first['detail']}`{chain} parks the loop "
                f"thread{extra}, stalling every task until it "
                "returns — route it through the worker pool "
                "(executor submit / run_in_executor / to_thread), "
                "or annotate why the stall is acceptable"))


@rule("RPR112", "dropped-awaitable",
      "a coroutine object or created task is discarded un-awaited",
      scope="project")
def check_dropped_awaitable(project: Project) -> Iterator[Finding]:
    """Expression statements that drop a coroutine object (never
    runs) or a freshly created task's handle (leaks)."""
    model = async_model(project)
    graph = model.graph
    for key in sorted(graph.defs):
        path = _path_of(graph, key)
        if is_test_path(path):
            continue
        _, rec = graph.defs[key]
        for call in rec.get("calls") or ():
            if not call.get("discarded"):
                continue
            name = call["name"]
            if call.get("creates_task"):
                yield Finding(
                    path=path, line=call["line"], col=call["col"],
                    code="RPR112",
                    message=(
                        f"`{graph.display(key)}` drops the task "
                        f"handle returned by `{name}(...)`; a "
                        "fire-and-forget task can be garbage-"
                        "collected mid-flight and its exception is "
                        "silently lost — keep the reference and "
                        "await or cancel it"))
                continue
            target = model.resolve(key, name)
            if target is not None and \
                    model.colors.get(target) == "coroutine":
                yield Finding(
                    path=path, line=call["line"], col=call["col"],
                    code="RPR112",
                    message=(
                        f"`{graph.display(key)}` calls coroutine "
                        f"function `{name}(...)` without awaiting "
                        "it; the coroutine object is discarded and "
                        "its body never runs — await it, or wrap it "
                        "in asyncio.create_task and keep the handle"))


@rule("RPR113", "await-point-race",
      "shared state is mutated across an await point without an "
      "asyncio.Lock", scope="project")
def check_await_point_race(project: Project) -> Iterator[Finding]:
    """Per coroutine and shared location: accesses in two or more
    await-separated epochs, at least one a write, with no common
    asyncio lock held over all of them."""
    model = async_model(project)
    graph = model.graph
    for key in sorted(model.colors):
        path = _path_of(graph, key)
        if is_test_path(path):
            continue
        _, rec = graph.defs[key]
        groups: Dict[str, List[dict]] = {}
        for acc in rec.get("accesses") or ():
            ident = canon_token(model.graph, key, acc["target"])
            if ident is None:
                continue
            groups.setdefault(ident, []).append(acc)
        for ident in sorted(groups):
            accs = groups[ident]
            epochs = {acc.get("epoch", 0) for acc in accs}
            if len(epochs) < 2:
                continue
            if not any(acc["kind"] == "write" for acc in accs):
                continue
            common = None
            for acc in accs:
                locks = canon_held(model.graph, key, acc.get("aio_held"))
                common = locks if common is None else (common & locks)
            if common:
                continue  # one asyncio lock spans every access
            first_epoch = min(epochs)
            later = sorted((acc for acc in accs
                            if acc.get("epoch", 0) != first_epoch),
                           key=lambda acc: (acc["line"], acc["col"]))
            anchor = later[0]
            yield Finding(
                path=path, line=anchor["line"], col=anchor["col"],
                code="RPR113",
                message=(
                    f"`{model.display(ident)}` is accessed in "
                    f"{len(epochs)} await-separated sections of "
                    f"coroutine `{graph.display(key)}` (one a "
                    "write) with no asyncio.Lock spanning them; "
                    "another task can interleave at the await and "
                    "see or clobber intermediate state — hold one "
                    "asyncio.Lock across the section, or confine "
                    "the state to a single epoch"))


@rule("RPR114", "await-under-thread-lock",
      "a coroutine awaits while holding a threading lock",
      scope="project")
def check_await_under_thread_lock(project: Project
                                  ) -> Iterator[Finding]:
    """One finding per coroutine whose awaits suspend with a
    ``threading.Lock`` held (locally or caller-guaranteed)."""
    model = async_model(project)
    graph = model.graph
    lm = lock_model(project)
    for key in sorted(model.colors):
        path = _path_of(graph, key)
        if is_test_path(path):
            continue
        entry = lm.entry_must.get(key, frozenset())
        offending = []
        for aw in model.awaits.get(key, ()):
            held = canon_held(model.graph, key, aw.get("held")) | entry
            if held:
                offending.append((aw, held))
        if not offending:
            continue
        first, held = offending[0]
        locks = ", ".join(f"`{model.display(lock)}`"
                          for lock in sorted(held))
        extra = "" if len(offending) == 1 else \
            f" ({len(offending)} such awaits in this coroutine)"
        yield Finding(
            path=path, line=first["line"], col=first["col"],
            code="RPR114",
            message=(
                f"coroutine `{graph.display(key)}` awaits while "
                f"holding {locks}{extra}; the lock stays held across "
                "the suspension, so any pool thread contending for "
                "it parks until this task resumes — and if resuming "
                "depends on that thread, both schedulers deadlock; "
                "release the lock before awaiting or use "
                "asyncio.Lock"))
