"""Interprocedural lockset analysis over the project call graph.

:mod:`repro.analysis.callgraph` records, per function, which locks
are acquired (``with self._lock:``, ``.acquire()``/``.release()``),
which shared locations are written or iterated, and which calls block
— each fact tagged with the locks *locally* held at that point.  This
module lifts those per-function facts to the whole project
(Eraser-style static lockset analysis, Savage et al.):

* **Canonical lock and location ids.**  ``self._lock`` inside
  ``obs.metrics:MetricsRegistry.inc`` and inside
  ``MetricsRegistry._get`` are the same lock:
  ``obs.metrics:MetricsRegistry._lock``.  Module-global locks
  canonicalize as ``module:_NAME``; shared locations use the same
  scheme (``obs.metrics:MetricsRegistry._metrics``,
  ``kernels:_ACTIVE_NAME``).  A nested def's ``self._x`` belongs to
  its enclosing method's class (:func:`owner_class`), so a closure
  handed to a pool thread is checked like a method.  The async model
  canonicalizes with the same functions.

* **Entry locksets** (:attr:`LockModel.entry_must`).  The locks a
  function provably holds *at entry*, whichever call path reached it:
  the intersection over all call sites of (locks held at the site ∪
  the caller's own entry lockset).  Roots — public functions,
  functions with no in-edges, and anything submitted to an executor
  or ``Thread(target=...)`` — hold nothing at entry.  Computed as a
  decreasing fixpoint from the all-locks top element, so recursion
  converges.  This is what lets a private helper called only from
  already-locked callers pass RPR041 without a redundant local lock.

* **Constructor-only reachability** (:attr:`LockModel.ctor_only`).
  Methods reachable *only* from ``__init__``/``__post_init__``/
  ``__new__`` operate on a virgin instance no other thread can see
  yet; their ``self.*`` accesses are exempt from lock discipline.

* **The acquired-while-holding graph** (:attr:`LockModel.order_edges`)
  — one edge per ``(held, acquired)`` pair, with witnesses.  Cycles
  are RPR102's lock-order inversions; a non-reentrant self-edge is a
  guaranteed self-deadlock.

* **Access and blocking tables** — every shared-location access with
  its *effective* lockset (local ∪ entry), and every blocking wait
  made while holding a lock, feeding RPR101/RPR103.

The model is pure summary-plumbing (JSON in, tables out): it never
touches an AST.  The rules that interpret it live in
``rules/concurrency.py`` (RPR10x) and ``rules/locks.py`` (RPR041).
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.dataflow import BLOCKING, FILESYSTEM, CallGraph, \
    analyze_project

__all__ = ["LockModel", "lock_model", "is_test_path", "CTOR_NAMES",
           "owner_class", "canon_token", "canon_held"]


def is_test_path(path: str) -> bool:
    """Path-string version of ``SourceFile.is_test_module`` for the
    project-scoped concurrency rules (which may only have a display
    path in hand): ``test_*.py`` / ``*_test.py`` files and anything
    under a ``tests`` directory."""
    parts = PurePath(path).parts
    if not parts:
        return False
    stem = parts[-1]
    return (stem.startswith("test_") or stem.endswith("_test.py")
            or "tests" in parts[:-1])

#: Methods that run before the instance is shared: accesses inside
#: them (or inside helpers reachable only from them) see virgin state.
CTOR_NAMES = frozenset({"__init__", "__post_init__", "__new__"})

#: Blocking methods on class-level queue / executor attributes
#: (``self._q.get()`` where ``__init__`` bound ``self._q = Queue()``).
#: Mirrors the receiver tables in :mod:`repro.analysis.callgraph`.
_ATTR_QUEUE_BLOCKING = frozenset({"get", "put", "join"})
_ATTR_EXEC_BLOCKING = frozenset({"map", "submit", "shutdown"})


def owner_class(graph: CallGraph, key: str) -> Optional[str]:
    """The class whose ``self`` a def's body sees — its own ``cls``,
    or the enclosing method's for a nested def (a closure handed to a
    pool thread still touches its method's instance)."""
    mod, rec = graph.defs[key]
    if rec.get("cls"):
        return rec["cls"]
    qual = key.split(":", 1)[1]
    if ".<locals>." not in qual:
        return None
    outer = qual.split(".<locals>.", 1)[0]
    outer_rec = graph.defs.get(f"{mod}:{outer}")
    return outer_rec[1].get("cls") if outer_rec else None


def canon_token(graph: CallGraph, key: str, token: str) -> Optional[str]:
    """Canonical id of a lock/location token spelled in ``key``:
    ``self._x`` becomes ``module:Cls._x`` and a global ``_X`` becomes
    ``module:_X``.  None when a ``self`` token has no class to attach
    to (a def outside any class)."""
    mod = graph.defs[key][0]
    first, _, rest = token.partition(".")
    if first == "self":
        cls = owner_class(graph, key)
        if cls is None or not rest:
            return None
        return f"{mod}:{cls}.{rest}"
    return f"{mod}:{token}"


def canon_held(graph: CallGraph, key: str, held) -> FrozenSet[str]:
    """The canonical ids of a held-lock token list (unattachable
    ``self`` tokens dropped)."""
    out = set()
    for tok in (held or ()):
        ident = canon_token(graph, key, tok)
        if ident is not None:
            out.add(ident)
    return frozenset(out)


def _short(ident: str) -> str:
    """Human spelling of a canonical id: drop the module prefix."""
    return ident.partition(":")[2] or ident


class LockModel:
    """Project-wide lockset tables (see the module docstring)."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        #: canonical lock id -> "lock" | "rlock" | "unknown"
        self.lock_kinds: Dict[str, str] = {}
        #: (module, cls) -> sorted class-owned lock ids
        self.class_locks: Dict[Tuple[str, str], List[str]] = {}
        #: (module, cls) -> {attr: "queue"} / {attr: exec kind}
        self.queue_attrs: Dict[Tuple[str, str], Set[str]] = {}
        self.exec_attrs: Dict[Tuple[str, str], Set[str]] = {}
        #: module -> sorted module-level lock ids
        self.module_locks: Dict[str, List[str]] = {}
        #: def key -> canonicalized acquire/access/blocking records
        self._acquires: Dict[str, List[dict]] = {}
        self._accesses: Dict[str, List[dict]] = {}
        self._blocking: Dict[str, List[dict]] = {}
        #: def key -> [(caller key, held-at-site, line)]
        self.callers: Dict[str, List[Tuple[str, FrozenSet[str], int]]] \
            = {key: [] for key in graph.defs}
        #: def keys handed to an executor / Thread (any kind)
        self.submitted: Set[str] = set()
        self._collect()
        #: def key -> locks provably held at every entry
        self.entry_must: Dict[str, FrozenSet[str]] = {}
        #: def key -> one (caller, line) witnessing the entry lockset
        self.entry_witness: Dict[str, Tuple[str, int]] = {}
        self._solve_entry()
        #: def keys reachable only from constructors
        self.ctor_only: Set[str] = set()
        self._solve_ctor_only()
        #: location id -> access records with effective locksets
        self.access_table: Dict[str, List[dict]] = {}
        self._build_access_table()
        #: (held lock, acquired lock) -> [(def key, line, col)]
        self.order_edges: Dict[Tuple[str, str], List[Tuple[str, int,
                                                           int]]] = {}
        self._build_order_edges()

    # -- construction ---------------------------------------------------

    def _collect(self) -> None:
        graph = self.graph
        for mod in sorted(graph.modules):
            summ = graph.modules[mod]
            locks = summ.get("module_locks") or {}
            ids = []
            for name in sorted(locks):
                ident = f"{mod}:{name}"
                self.lock_kinds[ident] = locks[name][0]
                ids.append(ident)
            if ids:
                self.module_locks[mod] = ids
        for key in sorted(graph.defs):
            mod, rec = graph.defs[key]
            qual = key.split(":", 1)[1]
            cls = rec.get("cls")
            if cls is not None:
                for attr in sorted(rec.get("lock_attrs") or {}):
                    kind = rec["lock_attrs"][attr][0]
                    ident = f"{mod}:{cls}.{attr}"
                    self.lock_kinds[ident] = kind
                    owned = self.class_locks.setdefault((mod, cls), [])
                    if ident not in owned:
                        owned.append(ident)
                for attr in sorted(rec.get("queue_attrs") or {}):
                    self.queue_attrs.setdefault((mod, cls),
                                                set()).add(attr)
                for attr in sorted(rec.get("exec_attrs") or {}):
                    self.exec_attrs.setdefault((mod, cls),
                                               set()).add(attr)
            for acq in rec.get("acquires") or ():
                ident = canon_token(graph, key, acq["lock"])
                if ident is None:
                    continue
                self.lock_kinds.setdefault(ident, "unknown")
                self._acquires.setdefault(key, []).append(
                    {"lock": ident,
                     "held": canon_held(graph, key, acq["held"]),
                     "line": acq["line"], "col": acq["col"]})
            for acc in rec.get("accesses") or ():
                target = canon_token(graph, key, acc["target"])
                if target is None:
                    continue
                self._accesses.setdefault(key, []).append(
                    {"target": target, "kind": acc["kind"],
                     "held": canon_held(graph, key, acc["held"]),
                     "line": acc["line"], "col": acc["col"]})
            for blk in rec.get("blocking") or ():
                self._blocking.setdefault(key, []).append(
                    {"detail": blk["detail"],
                     "held": canon_held(graph, key, blk["held"]),
                     "line": blk["line"]})
            # Call edges out of test files are excluded: a test
            # driving a private helper directly is single-threaded
            # scaffolding and must not dissolve the caller-holds-the-
            # lock guarantee the library's own call sites establish.
            if not is_test_path(self.graph.modules[mod]["path"]):
                for call in rec.get("calls") or ():
                    target = graph.resolve(mod, qual, call["name"])
                    if target is not None and target != key:
                        self.callers[target].append(
                            (key, canon_held(graph, key, call.get("held")),
                             call["line"]))
            for sub in rec.get("submits") or ():
                fn = sub["fn"]
                if fn.get("name"):
                    target = graph.resolve(mod, qual, fn["name"])
                    if target is not None:
                        self.submitted.add(target)
        for owned in self.class_locks.values():
            owned.sort()

    def _solve_entry(self) -> None:
        graph = self.graph
        universe = frozenset(self.lock_kinds)
        empty: FrozenSet[str] = frozenset()
        roots = {key for key in graph.defs
                 if graph.defs[key][1].get("public")
                 or not self.callers[key]
                 or key in self.submitted}
        entry = {key: (empty if key in roots else universe)
                 for key in graph.defs}
        ordered = sorted(graph.defs)
        changed = True
        while changed:
            changed = False
            for key in ordered:
                if key in roots:
                    continue
                new = None
                for caller, held, _ in self.callers[key]:
                    at_site = entry[caller] | held
                    new = at_site if new is None else (new & at_site)
                new = empty if new is None else new
                if new != entry[key]:
                    entry[key] = new
                    changed = True
        self.entry_must = entry
        for key in ordered:
            if not entry[key]:
                continue
            sites = sorted(self.callers[key],
                           key=lambda site: (site[0], site[2]))
            if sites:
                caller, _, line = sites[0]
                self.entry_witness[key] = (caller, line)

    def _solve_ctor_only(self) -> None:
        graph = self.graph

        def is_ctor(key: str) -> bool:
            return graph.defs[key][1]["name"] in CTOR_NAMES

        candidates = {key for key in graph.defs
                      if not graph.defs[key][1].get("public")
                      and key not in self.submitted
                      and self.callers[key]}
        changed = True
        while changed:
            changed = False
            for key in sorted(candidates):
                ok = all(is_ctor(caller) or caller in candidates
                         for caller, _, _ in self.callers[key])
                if not ok:
                    candidates.discard(key)
                    changed = True
        self.ctor_only = candidates

    def in_ctor_context(self, key: str) -> bool:
        """True when ``key`` only ever runs on a not-yet-shared
        instance (a constructor, or reachable only from one)."""
        return self.graph.defs[key][1]["name"] in CTOR_NAMES \
            or key in self.ctor_only

    def effective_held(self, key: str, held: FrozenSet[str]
                       ) -> FrozenSet[str]:
        """Locally held locks plus the caller-guaranteed entry set."""
        return held | self.entry_must.get(key, frozenset())

    def _build_access_table(self) -> None:
        for key in sorted(self._accesses):
            mod, rec = self.graph.defs[key]
            path = self.graph.modules[mod]["path"]
            ctor = self.in_ctor_context(key)
            for acc in self._accesses[key]:
                target = acc["target"]
                is_class_loc = "." in _short(target)
                self.access_table.setdefault(target, []).append(
                    {"key": key, "path": path, "kind": acc["kind"],
                     "line": acc["line"], "col": acc["col"],
                     "locks": self.effective_held(key, acc["held"]),
                     "exempt": ctor and is_class_loc})

    def _build_order_edges(self) -> None:
        for key in sorted(self._acquires):
            for acq in self._acquires[key]:
                held = self.effective_held(key, acq["held"])
                for prior in sorted(held):
                    self.order_edges.setdefault(
                        (prior, acq["lock"]), []).append(
                            (key, acq["line"], acq["col"]))

    # -- views consumed by the rules ------------------------------------

    def owner_locks(self, location: str) -> List[str]:
        """The locks that could plausibly guard ``location`` (its
        class's lock attributes, or its module's module-level locks)."""
        mod = location.partition(":")[0]
        short = _short(location)
        if "." in short:
            cls = short.rsplit(".", 1)[0]
            return self.class_locks.get((mod, cls), [])
        return self.module_locks.get(mod, [])

    def lock_table(self) -> Dict[str, str]:
        """Every lock the model knows about -> its kind.  The CI
        coverage gate diffs this against an independent AST scan."""
        return dict(sorted(self.lock_kinds.items()))

    def blocking_evidence(self, key: str) -> List[dict]:
        """Blocking waits ``key`` performs while holding a lock:
        local records, held calls into blocking/filesystem callees,
        and blocking methods on class queue/executor attributes."""
        graph = self.graph
        mod, rec = graph.defs[key]
        qual = key.split(":", 1)[1]
        cls = rec.get("cls")
        evidence: List[dict] = []
        for blk in self._blocking.get(key, ()):
            locks = self.effective_held(key, blk["held"])
            if locks:
                evidence.append({"line": blk["line"],
                                 "detail": blk["detail"],
                                 "locks": locks, "chain": None})
        queue_attrs = self.queue_attrs.get((mod, cls), set()) \
            if cls else set()
        exec_attrs = self.exec_attrs.get((mod, cls), set()) \
            if cls else set()
        for call in rec.get("calls") or ():
            locks = self.effective_held(
                key, canon_held(graph, key, call.get("held")))
            if not locks:
                continue
            name = call["name"]
            parts = name.split(".")
            if len(parts) == 3 and parts[0] == "self":
                attr, method = parts[1], parts[2]
                if (attr in queue_attrs
                        and method in _ATTR_QUEUE_BLOCKING) or \
                        (attr in exec_attrs
                         and method in _ATTR_EXEC_BLOCKING):
                    evidence.append({"line": call["line"],
                                     "detail": f"{name}()",
                                     "locks": locks, "chain": None})
                    continue
            target = graph.resolve(mod, qual, name)
            if target is None or target == key:
                continue
            effects = graph.effects.get(target, {})
            effect = BLOCKING if BLOCKING in effects else (
                FILESYSTEM if FILESYSTEM in effects else None)
            if effect is None:
                continue
            evidence.append({"line": call["line"],
                             "detail": f"{name}()", "locks": locks,
                             "chain": graph.chain(target, effect)})
        evidence.sort(key=lambda e: e["line"])
        return evidence

    def display(self, ident: str) -> str:
        """Human spelling of a canonical lock/location id."""
        return _short(ident)


def lock_model(project) -> LockModel:
    """The (memoized) :class:`LockModel` of a lint project."""
    model = getattr(project, "_repro_lockmodel", None)
    if model is None:
        model = LockModel(analyze_project(project))
        project._repro_lockmodel = model
    return model
