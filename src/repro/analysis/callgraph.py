"""Per-file call-graph summaries (the ``"callgraph"`` summarizer).

This module digests one parsed source file into a JSON-serializable
**module summary** — the only thing the interprocedural engines
(:mod:`repro.analysis.dataflow`, :mod:`repro.analysis.locksets`) ever
see.  Keeping the digest pure JSON keeps the project-wide engines
independent of the AST: they build the whole call graph from these
digests alone.

A summary looks like::

    {
      "module": "warehouse.parallel",      # dotted id under repro/
      "path": "src/repro/warehouse/parallel.py",
      "imports": {"SplittableRng": "rng.SplittableRng", ...},
      "module_state": ["SCHEMES", ...],    # module-level mutables
      "module_locks": {"_LOCK": ["lock", 12]},
      "functions": {
        "sample_partition": {
          "name": "sample_partition", "cls": null, "nested": false,
          "line": 95, "col": 0, "public": true,
          "calls":    [{"name": "make_sampler", "line": 98, "col": 14}],
          "effects":  [["filesystem", "open()", 12]],
          "rng_params": ["rng"],
          "rng_draws":  [{"param": "rng", "call": "rng.next_float",
                          "line": 31}],
          "fresh_rng":  [{"name": "SplittableRng", "line": 97,
                          "col": 10, "guarded": false}],
          "submits":    [{"fn": {"kind": "ref", "name":
                          "sample_partition"}, "line": 60, "col": 8,
                          "exec_kind": "process"}]
        },
        ...
      }
    }

Qualified names follow ``inspect``-style spelling: methods are
``Cls.method``, nested defs are ``outer.<locals>.inner``.  ``calls``
keeps the *raw* call-site spelling (``self.feed``, ``wh.register``);
resolution against imports and class context happens in
:class:`~repro.analysis.dataflow.CallGraph`, which has the whole
project in view.

Local **effects** are detected against the canonical call tables in
:mod:`repro.analysis.dataflow`, after rewriting call names through
the file's import aliases (``import time as t; t.time()`` is still a
wall-clock read).  ``rng.py`` is exempt from the ``global-rng``
effect — it implements the discipline the effect polices.

Lockset facts (consumed by :mod:`repro.analysis.locksets`) ride along
on the same records when present:

* ``lock_attrs`` / ``queue_attrs`` / ``exec_attrs`` — ``self._x``
  attributes a method binds to a lock / queue / executor constructor
  (normally in ``__init__``), with the lock *kind* (``lock`` |
  ``rlock``) or executor kind (``process`` | ``thread``).
* ``acquires`` — every ``with <lock>:`` entry or ``.acquire()`` call,
  with the locks already **held** at that point (the acquired-while-
  holding edges RPR102 cycles over).
* ``accesses`` — writes to (and iterations over) shared locations:
  ``self._x`` attributes and module-global names, each with the held
  lockset.  Plain point reads are deliberately *not* recorded — the
  double-checked ``get``-then-locked-``setdefault`` idiom is lawful.
* ``blocking`` — blocking waits (``time.sleep``, queue get/put,
  executor map/submit/shutdown, filesystem calls) made while at least
  one lock was held (RPR103's local evidence).

Locks are recognized structurally where possible (a binding to a
``Lock()``/``RLock()`` constructor, the module-level lock table) and
by spelling otherwise: a ``with``-context or ``.acquire()`` receiver
whose last segment contains ``lock``/``mutex`` counts.  The naming
convention is documented in docs/static_analysis.md and enforced by
the CI lock-coverage gate.

Async facts (consumed by :mod:`repro.analysis.asyncrules`) ride along
the same way:

* ``async_kind`` — ``"coroutine"`` | ``"asyncgen"`` on every
  ``async def``.
* ``awaits`` — every ``await`` expression, with the threading locks
  and asyncio locks held at the suspension point.
* ``aio_lock_attrs`` / ``aio_acquires`` / ``aio_blocking`` — the
  asyncio-lock analogues of the threading tables above.
  ``asyncio.Lock`` is *cooperative* (acquiring it never parks the
  thread), so it lives in separate tables: it guards await-point
  interleavings, not threads.
* Await-point **epochs**: accesses in an ``async def`` carry the
  number of suspension points (``await`` / ``async with`` /
  ``async for``) crossed before them, so the async rules can see a
  read-modify-write straddle a yield to the scheduler.
* Per-call flags: ``awaited`` (directly under ``await``),
  ``discarded`` (an expression statement whose value is dropped),
  ``creates_task`` (``asyncio.create_task`` / ``ensure_future`` /
  ``loop.create_task``), ``blocks`` (the call parks the thread or
  touches the filesystem), and ``arg_of`` (the call sits inside a
  lambda argument of the named enclosing call — it runs wherever
  *that* call runs it, which exempts executor-routed work).
* ``submits`` additionally records ``loop.run_in_executor`` /
  ``asyncio.to_thread`` hand-offs and ``self.<attr>.submit`` on a
  class-level pool (``exec_kind`` ``"attr"``) — the routing
  primitives the blocks-event-loop analysis treats as safe.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import call_name, dotted_name
from repro.analysis.dataflow import (BLOCKING, BLOCKING_CALLS, ENTROPY,
                                     ENTROPY_CALLS, FILESYSTEM,
                                     FILESYSTEM_CALLS, GLOBAL_RNG,
                                     MUTATING_METHODS, RANDOM_MODULE_FNS,
                                     SALTED_HASH, SHARED_MUTATION,
                                     WALL_CLOCK, WALL_CLOCK_CALLS,
                                     is_seeded_numpy_ctor)
from repro.analysis.framework import SourceFile, summarizer

__all__ = ["callgraph_summary", "module_id"]

#: Stdlib modules whose aliases/from-imports we track so effect
#: detection survives ``import time as t`` / ``from secrets import
#: token_hex`` spellings.
_EXTERN_MODULES = frozenset({
    "time", "datetime", "os", "secrets", "uuid", "random", "shutil",
    "tempfile", "gzip", "numpy", "threading", "queue", "select",
    "signal", "multiprocessing", "concurrent", "asyncio", "socket",
})

#: ``pathlib.Path`` methods that touch the filesystem (receiver-based,
#: so ``self._root.write_text(...)`` counts).
_PATH_FS_METHODS = frozenset({
    "write_text", "write_bytes", "read_text", "read_bytes", "unlink",
    "mkdir", "rmdir", "touch", "rename", "replace", "rglob", "glob",
    "iterdir",
})

#: Constructor names that create a process pool.
_PROCESS_CTORS = frozenset({"ProcessExecutor", "ProcessPoolExecutor"})

#: Constructor names that create a thread pool (same-process
#: concurrency: submitted callables share memory with the caller).
_THREAD_CTORS = frozenset({"ThreadExecutor", "ThreadPoolExecutor"})

#: Methods that hand a callable to an executor.
_SUBMIT_METHODS = frozenset({"map", "submit"})

#: Lock constructor terminal names -> lock kind.  ``rlock`` re-entry
#: is legal (RPR102 skips rlock self-edges); plain ``lock`` re-entry
#: self-deadlocks.
_LOCK_CTORS = {"Lock": "lock", "RLock": "rlock"}

#: Canonical spellings that construct a *cooperative* asyncio lock.
#: Kept apart from the threading constructors: acquiring one never
#: parks the thread, so it must not feed the RPR10x lockset tables —
#: it guards await-point interleavings (RPR113) instead.
_AIO_LOCK_CTORS = frozenset({"asyncio.Lock"})

#: Canonical spellings that spawn a task whose handle must be kept
#: (RPR112's fire-and-forget check).
_TASK_SPAWN_CALLS = frozenset({"asyncio.create_task",
                               "asyncio.ensure_future"})

#: Queue constructor terminal names (``queue`` and ``multiprocessing``
#: spellings).  ``get``/``put``/``join`` on a bound queue block.
_QUEUE_CTORS = frozenset({
    "Queue", "SimpleQueue", "LifoQueue", "PriorityQueue",
    "JoinableQueue",
})

#: Blocking methods on a bound queue / executor receiver.
_QUEUE_BLOCKING = frozenset({"get", "put", "join"})
_EXEC_BLOCKING = frozenset({"map", "submit", "shutdown"})

#: Builtins whose call iterates their first argument — ``sorted(d)``
#: walks the dict and races with a concurrent resize even though no
#: element is mutated.
_ITER_BUILTINS = frozenset({
    "sorted", "list", "tuple", "set", "frozenset", "dict", "iter",
    "min", "max", "sum", "any", "all", "enumerate", "zip", "map",
    "filter",
})

#: Mapping view methods: creating the view is cheap but the idiomatic
#: ``list(d.items())`` snapshot must happen under the same lock as the
#: writers, so the view call is recorded as an iteration access.
_VIEW_METHODS = frozenset({"items", "keys", "values"})


def module_id(sf: SourceFile) -> str:
    """The dotted module id under the package root.

    ``core/sample.py`` -> ``core.sample``; a package
    ``__init__.py`` takes the package's own id (``core/__init__.py``
    -> ``core``); a top-level file is just its stem.
    """
    parts = list(sf.package_parts)
    if not parts:
        return ""
    last = parts[-1]
    if last == "__init__.py":
        parts = parts[:-1]
    elif last.endswith(".py"):
        parts[-1] = last[:-3]
    return ".".join(parts)


def _is_public(qual: str) -> bool:
    """Public API: module-level (not nested), no private path part.
    Dunders (``__init__``) count as public — constructing a public
    class is public API."""
    if ".<locals>." in qual:
        return False
    for part in qual.split("."):
        if part.startswith("_") and not (part.startswith("__")
                                         and part.endswith("__")):
            return False
    return True


def _last(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _executor_kind(call: ast.Call) -> Optional[str]:
    """``"process"`` / ``"thread"`` when the call constructs a pool."""
    name = call_name(call)
    if name is None:
        return None
    terminal = _last(name)
    if terminal in _PROCESS_CTORS:
        return "process"
    if terminal in _THREAD_CTORS:
        return "thread"
    return None


def _lock_kind(call: ast.Call,
               imports: Optional["_ImportTable"] = None) -> Optional[str]:
    """``"lock"`` / ``"rlock"`` for a threading-lock construction,
    ``"aio"`` for ``asyncio.Lock()`` (canonicalized through the import
    table, so ``from asyncio import Lock`` is not mistaken for a
    threading lock)."""
    name = call_name(call)
    if name is None:
        return None
    canon = imports.canonical(name) if imports is not None else name
    if canon in _AIO_LOCK_CTORS:
        return "aio"
    return _LOCK_CTORS.get(_last(name))


def _spawns_task(raw: str, canon: str) -> bool:
    """``asyncio.create_task`` / ``ensure_future`` /
    ``loop.create_task`` — receivers named ``*loop*`` count, bare
    ``tg.create_task`` (a TaskGroup owns its tasks) does not."""
    if canon in _TASK_SPAWN_CALLS:
        return True
    parts = raw.split(".")
    return len(parts) >= 2 and parts[-1] == "create_task" \
        and "loop" in parts[-2].lower()


def _is_queue_ctor(call: ast.Call) -> bool:
    name = call_name(call)
    return name is not None and _last(name) in _QUEUE_CTORS


def _lockish_name(name: str) -> bool:
    """Spelling heuristic for lock receivers (``self._lock``,
    ``_LOCK``, ``_ids_lock`` ...)."""
    terminal = _last(name).lower()
    return "lock" in terminal or "mutex" in terminal


class _ImportTable:
    """The file's import view: ``repro.*`` targets plus the stdlib
    aliases needed to canonicalize effect call names."""

    def __init__(self, tree: ast.Module, package: str) -> None:
        #: local name -> dotted target under the repro root
        self.internal: Dict[str, str] = {}
        #: ``import numpy as np`` -> {"np": "numpy"}
        self._alias: Dict[str, str] = {}
        #: ``from secrets import token_hex`` -> {"token_hex":
        #: "secrets.token_hex"}
        self._from: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                self._add_import(node)
            elif isinstance(node, ast.ImportFrom):
                self._add_import_from(node, package)

    def _add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            name, bound = alias.name, alias.asname
            if name.startswith("repro."):
                self.internal.setdefault(bound or name, name[6:])
            elif name.split(".", 1)[0] in _EXTERN_MODULES and bound:
                self._alias.setdefault(bound, name)

    def _add_import_from(self, node: ast.ImportFrom,
                         package: str) -> None:
        if node.level > 0:
            base_parts = package.split(".") if package else []
            drop = node.level - 1
            if drop > len(base_parts):
                return
            base_parts = base_parts[:len(base_parts) - drop]
            if node.module:
                base_parts = base_parts + node.module.split(".")
            base = ".".join(base_parts)
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                self.internal.setdefault(alias.asname or alias.name,
                                         target)
            return
        mod = node.module or ""
        if mod == "repro" or mod.startswith("repro."):
            base = mod[6:]  # "" for bare ``from repro import rng``
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                self.internal.setdefault(alias.asname or alias.name,
                                         target)
        elif mod.split(".", 1)[0] in _EXTERN_MODULES:
            for alias in node.names:
                if alias.name == "*":
                    continue
                self._from.setdefault(alias.asname or alias.name,
                                      f"{mod}.{alias.name}")

    def canonical(self, name: str) -> str:
        """Rewrite a call name through the alias tables so it can be
        matched against the dataflow effect tables."""
        if name in self._from:
            return self._from[name]
        first, dot, rest = name.partition(".")
        if first in self._alias:
            return f"{self._alias[first]}{dot}{rest}"
        if rest and first in self._from:
            return f"{self._from[first]}.{rest}"
        return name


def _module_state(tree: ast.Module) -> Set[str]:
    """Module-level names bound to plausibly-mutable values."""
    mutable = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
               ast.SetComp, ast.Call)
    state: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if not isinstance(value, mutable):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                state.add(target.id)
    return state


def _module_bindings(tree: ast.Module, imports: _ImportTable):
    """Module-level (executors, locks, queues, asyncio locks) bound
    by name.

    Returns ``(execs, locks, queues, aio_locks)`` where ``execs``
    maps name -> executor kind and ``locks`` maps name ->
    ``[kind, line]``.
    """
    execs: Dict[str, str] = {}
    locks: Dict[str, List[object]] = {}
    queues: Set[str] = set()
    aio_locks: Set[str] = set()
    for stmt in tree.body:
        if not (isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Call)):
            continue
        ekind = _executor_kind(stmt.value)
        lkind = _lock_kind(stmt.value, imports)
        is_queue = _is_queue_ctor(stmt.value)
        for target in stmt.targets:
            if not isinstance(target, ast.Name):
                continue
            if ekind is not None:
                execs[target.id] = ekind
            elif lkind == "aio":
                aio_locks.add(target.id)
            elif lkind is not None:
                locks[target.id] = [lkind, stmt.lineno]
            elif is_queue:
                queues.add(target.id)
    return execs, locks, queues, aio_locks


def _rng_params(node: ast.AST) -> List[str]:
    """Parameters that carry an RNG handle: named ``rng``/``*_rng``
    or annotated with a ``*Rng`` type."""
    args = node.args
    params: List[str] = []
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.arg == "rng" or arg.arg.endswith("_rng"):
            params.append(arg.arg)
            continue
        ann = arg.annotation
        if ann is not None and any(
                isinstance(n, ast.Name) and n.id.endswith("Rng")
                for n in ast.walk(ann)):
            params.append(arg.arg)
    return params


def _own_nodes(fn_node: ast.AST) -> Iterator[ast.AST]:
    """Every node in the function's own body, stopping at nested
    def/class boundaries (lambdas are part of the body)."""
    stack: List[ast.AST] = list(fn_node.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _flat_targets(targets: Sequence[ast.expr]) -> List[ast.expr]:
    """Assignment targets with tuple/list unpacking flattened, in
    syntactic order (``a, (b, c) = ...`` -> ``[a, b, c]``)."""
    flat: List[ast.expr] = []
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            flat.extend(_flat_targets(target.elts))
        elif isinstance(target, ast.Starred):
            flat.extend(_flat_targets([target.value]))
        else:
            flat.append(target)
    return flat


class _FunctionScan:
    """One function body -> its summary record."""

    def __init__(self, node: ast.AST, qual: str, cls: Optional[str],
                 nested: bool, imports: _ImportTable,
                 module_state: Set[str], module_execs: Dict[str, str],
                 module_locks: Dict[str, List[object]],
                 module_queues: Set[str], module_aio_locks: Set[str],
                 rng_exempt: bool) -> None:
        self._imports = imports
        self._module_state = module_state
        self._module_locks = module_locks
        self._rng_exempt = rng_exempt
        self._is_async = isinstance(node, ast.AsyncFunctionDef)
        self.record: Dict[str, object] = {
            "name": getattr(node, "name", "<lambda>"),
            "cls": cls,
            "nested": nested,
            "line": node.lineno,
            "col": node.col_offset,
            "public": _is_public(qual),
            "calls": [],
            "effects": [],
            "rng_params": _rng_params(node),
            "rng_draws": [],
            "fresh_rng": [],
            "submits": [],
        }
        self._rng_params = set(self.record["rng_params"])
        # Lockset facts — attached to the record only when non-empty
        # (finalized below) so unaffected summaries stay byte-stable.
        self._lock_attrs: Dict[str, List[object]] = {}
        self._queue_attrs: Dict[str, int] = {}
        self._exec_attrs: Dict[str, str] = {}
        self._acquires: List[dict] = []
        self._accesses: List[dict] = []
        self._blocking: List[dict] = []
        # Async facts (attached the same way).
        self._awaits: List[dict] = []
        self._aio_lock_attrs: Dict[str, int] = {}
        self._aio_acquires: List[dict] = []
        self._aio_blocking: List[dict] = []
        self._attr_binds: Dict[str, str] = {}
        self._aio_held: Set[str] = set()
        self._epoch = 0
        self._has_yield = False
        self._arg_of: Optional[str] = None
        self._lambda_ctx: Dict[int, str] = {}
        self._awaited_calls: Set[int] = set()
        self._discarded_calls: Set[int] = set()
        # Pass 1: scope facts the expression walk depends on.
        self._outer_names: Set[str] = set()
        self._global_names: Set[str] = set()
        self._local_execs: Dict[str, str] = dict(module_execs)
        self._local_queues: Set[str] = set(module_queues)
        self._local_locks: Set[str] = set()
        self._local_aio_locks: Set[str] = set(module_aio_locks)
        self._local_lambdas: Set[str] = set()
        self._alias_assigns: List[Tuple[List[ast.expr], str]] = []
        for own in _own_nodes(node):
            self._scan_scope(own)
        if self._is_async:
            self.record["async_kind"] = \
                "asyncgen" if self._has_yield else "coroutine"
        # Aliases like ``pool = ThreadPoolExecutor(); self._pool =
        # pool`` need a propagation sweep (scan order is arbitrary).
        for _ in range(2):
            for targets, src in self._alias_assigns:
                ekind = self._local_execs.get(src)
                in_queues = src in self._local_queues
                for target in targets:
                    name = dotted_name(target)
                    if name is None:
                        continue
                    if ekind is not None:
                        self._bind_executor([target], ekind)
                    if in_queues:
                        self._bind_queue([target])
        # Pass 2: calls, effects, draws, submissions, locksets.
        held: Set[str] = set()
        for stmt in node.body:
            self._visit(stmt, False, held)
        args = node.args
        params = [a.arg for a in [*args.posonlyargs, *args.args,
                                  *args.kwonlyargs]]
        for key, value in (("lock_attrs", self._lock_attrs),
                           ("queue_attrs", self._queue_attrs),
                           ("exec_attrs", self._exec_attrs),
                           ("acquires", self._acquires),
                           ("accesses", self._accesses),
                           ("blocking", self._blocking),
                           ("params", params),
                           ("attr_binds", self._attr_binds),
                           ("aio_lock_attrs", self._aio_lock_attrs),
                           ("aio_acquires", self._aio_acquires),
                           ("aio_blocking", self._aio_blocking),
                           ("awaits", self._awaits)):
            if value:
                self.record[key] = value

    # -- pass 1 ---------------------------------------------------------

    def _scan_scope(self, node: ast.AST) -> None:
        if isinstance(node, ast.Global):
            self._outer_names.update(node.names)
            self._global_names.update(node.names)
        elif isinstance(node, ast.Nonlocal):
            self._outer_names.update(node.names)
        elif isinstance(node, ast.Yield):
            self._has_yield = True
        elif isinstance(node, ast.Assign):
            value = node.value
            if isinstance(value, ast.Call):
                self._bind_attr_ctor(node.targets, value)
                ekind = _executor_kind(value)
                lkind = _lock_kind(value, self._imports)
                if ekind is not None:
                    self._bind_executor(node.targets, ekind)
                elif lkind == "aio":
                    self._bind_aio_lock(node.targets, node.lineno)
                elif lkind is not None:
                    self._bind_lock(node.targets, lkind, node.lineno)
                elif _is_queue_ctor(value):
                    self._bind_queue(node.targets)
            elif isinstance(value, ast.Lambda):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._local_lambdas.add(target.id)
            else:
                src = dotted_name(value)
                if src is not None:
                    self._alias_assigns.append(
                        (list(node.targets), src))
        elif isinstance(node, ast.withitem):
            if isinstance(node.context_expr, ast.Call) and \
                    node.optional_vars is not None:
                ekind = _executor_kind(node.context_expr)
                if ekind is not None:
                    self._bind_executor([node.optional_vars], ekind)

    def _bind_executor(self, targets: Sequence[ast.expr],
                       kind: str) -> None:
        for target in targets:
            name = dotted_name(target)
            if name is None:
                continue
            self._local_execs.setdefault(name, kind)
            first, _, rest = name.partition(".")
            if first == "self" and rest and "." not in rest:
                self._exec_attrs.setdefault(rest, kind)

    def _bind_lock(self, targets: Sequence[ast.expr], kind: str,
                   line: int) -> None:
        for target in targets:
            name = dotted_name(target)
            if name is None:
                continue
            self._local_locks.add(name)
            first, _, rest = name.partition(".")
            if first == "self" and rest and "." not in rest:
                self._lock_attrs.setdefault(rest, [kind, line])

    def _bind_queue(self, targets: Sequence[ast.expr]) -> None:
        for target in targets:
            name = dotted_name(target)
            if name is None:
                continue
            self._local_queues.add(name)
            first, _, rest = name.partition(".")
            if first == "self" and rest and "." not in rest:
                self._queue_attrs.setdefault(rest, target.lineno)

    def _bind_aio_lock(self, targets: Sequence[ast.expr],
                       line: int) -> None:
        for target in targets:
            name = dotted_name(target)
            if name is None:
                continue
            self._local_aio_locks.add(name)
            first, _, rest = name.partition(".")
            if first == "self" and rest and "." not in rest:
                self._aio_lock_attrs.setdefault(rest, line)

    def _bind_attr_ctor(self, targets: Sequence[ast.expr],
                        value: ast.Call) -> None:
        """``self._x = Ctor(...)`` -> the raw constructor spelling.
        The async model resolves it project-wide so a later
        ``self._x.method()`` call can be colored."""
        ctor = call_name(value)
        if ctor is None:
            return
        for target in targets:
            name = dotted_name(target)
            if name is None:
                continue
            first, _, rest = name.partition(".")
            if first == "self" and rest and "." not in rest:
                self._attr_binds.setdefault(rest, ctor)

    # -- pass 2 ---------------------------------------------------------

    def _is_lock_name(self, name: str) -> bool:
        return (name in self._local_locks
                or name in self._module_locks
                or name in self._local_aio_locks
                or _lockish_name(name))

    def _is_aio_lock_name(self, name: str) -> bool:
        return name in self._local_aio_locks

    def _visit(self, node: ast.AST, guarded: bool,
               held: Set[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # summarized as its own record
        if isinstance(node, ast.Expr) and isinstance(node.value,
                                                     ast.Call):
            # The call's value is dropped on the floor — RPR112's
            # un-awaited-coroutine / fire-and-forget evidence.
            self._discarded_calls.add(id(node.value))
        if isinstance(node, ast.Await):
            if isinstance(node.value, ast.Call):
                self._awaited_calls.add(id(node.value))
            self._visit(node.value, guarded, held)
            self._record_await(node, held)
            self._epoch += 1
            return
        if isinstance(node, ast.Lambda):
            ctx = self._lambda_ctx.get(id(node))
            if ctx is not None:
                outer = self._arg_of
                self._arg_of = ctx
                for child in ast.iter_child_nodes(node):
                    self._visit(child, guarded, held)
                self._arg_of = outer
                return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._handle_with(node, guarded, held)
            return
        if isinstance(node, ast.Call):
            self._handle_call(node, guarded, held)
        elif isinstance(node, (ast.Assign, ast.AugAssign,
                               ast.AnnAssign)) and self._is_async:
            # In a coroutine the value is evaluated (and may suspend)
            # *before* the store, so visit it first — the write must
            # land in the post-await epoch.
            value = getattr(node, "value", None)
            if value is not None:
                self._visit(value, guarded, held)
            self._handle_assignment(node, held)
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                self._visit(target, guarded, held)
            return
        elif isinstance(node, (ast.Assign, ast.AugAssign,
                               ast.AnnAssign)):
            self._handle_assignment(node, held)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._access_of_target(target, held)
        elif isinstance(node, ast.AsyncFor):
            self._iter_access(node.iter, held)
            self._visit(node.iter, guarded, held)
            self._epoch += 1  # every __anext__ is a suspension point
            for child in [node.target, *node.body, *node.orelse]:
                self._visit(child, guarded, held)
            return
        elif isinstance(node, ast.For):
            self._iter_access(node.iter, held)
        elif isinstance(node, ast.comprehension):
            self._iter_access(node.iter, held)
        if isinstance(node, (ast.If, ast.IfExp)):
            self._visit(node.test, guarded, held)
            body = node.body if isinstance(node.body, list) \
                else [node.body]
            orelse = node.orelse if isinstance(node.orelse, list) \
                else ([node.orelse] if node.orelse is not None else [])
            branch_guarded = guarded or self._mentions_rng(node.test)
            for child in [*body, *orelse]:
                self._visit(child, branch_guarded, held)
            return
        if isinstance(node, ast.BoolOp):
            op_guarded = guarded or any(self._mentions_rng(v)
                                        for v in node.values)
            for child in node.values:
                self._visit(child, op_guarded, held)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, guarded, held)

    def _handle_with(self, node: ast.AST, guarded: bool,
                     held: Set[str]) -> None:
        is_async = isinstance(node, ast.AsyncWith)
        acquired: List[str] = []
        aio_acquired: List[str] = []
        for item in node.items:
            expr = item.context_expr
            token = None
            if not isinstance(expr, ast.Call):
                name = dotted_name(expr)
                if name is not None and self._is_lock_name(name):
                    token = name
            if token is None:
                self._visit(expr, guarded, held)
            elif self._is_aio_lock_name(token) or is_async:
                # ``async with lock:`` — a cooperative asyncio lock.
                # Entering it never parks the thread, so it feeds the
                # aio tables, not the threading lockset.
                self._record_aio_acquire(token, expr.lineno,
                                         expr.col_offset)
                if token not in self._aio_held:
                    self._aio_held.add(token)
                    aio_acquired.append(token)
            else:
                self._record_acquire(token, expr.lineno,
                                     expr.col_offset, held)
                if token not in held:
                    held.add(token)
                    acquired.append(token)
        if is_async:
            self._epoch += 1  # __aenter__ suspends
        for stmt in node.body:
            self._visit(stmt, guarded, held)
        for token in acquired:
            held.discard(token)
        for token in aio_acquired:
            self._aio_held.discard(token)
        if is_async:
            self._epoch += 1  # __aexit__ suspends

    def _record_acquire(self, token: str, line: int, col: int,
                        held: Set[str]) -> None:
        self._acquires.append({"lock": token, "line": line, "col": col,
                               "held": sorted(held)})

    def _record_aio_acquire(self, token: str, line: int,
                            col: int) -> None:
        self._aio_acquires.append({"lock": token, "line": line,
                                   "col": col,
                                   "aio_held": sorted(self._aio_held)})

    def _record_await(self, node: ast.Await, held: Set[str]) -> None:
        entry: Dict[str, object] = {"line": node.lineno,
                                    "col": node.col_offset}
        if isinstance(node.value, ast.Call):
            name = call_name(node.value)
            if name is not None:
                entry["call"] = name
        if held:
            entry["held"] = sorted(held)
        if self._aio_held:
            entry["aio_held"] = sorted(self._aio_held)
        self._awaits.append(entry)

    def _record_access(self, target: str, kind: str, line: int,
                       col: int, held: Set[str]) -> None:
        entry: Dict[str, object] = {"target": target, "kind": kind,
                                    "line": line, "col": col,
                                    "held": sorted(held)}
        if self._epoch:
            entry["epoch"] = self._epoch
        if self._aio_held:
            entry["aio_held"] = sorted(self._aio_held)
        self._accesses.append(entry)

    def _access_target(self, base: str) -> Optional[str]:
        """Canonicalize a dotted receiver to a tracked shared location
        (``self._x`` or a module-global name), else ``None``."""
        first, _, rest = base.partition(".")
        if first == "self":
            if not rest:
                return None
            attr = rest.split(".", 1)[0]
            if not attr.startswith("_"):
                return None
            if self._is_lock_name(f"self.{attr}"):
                return None  # the lock itself is not guarded data
            return f"self.{attr}"
        if first in self._module_state or first in self._global_names:
            if self._is_lock_name(first):
                return None
            if first in self._local_execs or first in self._local_queues:
                return None  # pools/queues synchronize internally
            return first
        return None

    def _mentions_rng(self, node: ast.AST) -> bool:
        return any(isinstance(n, ast.Name) and n.id in self._rng_params
                   for n in ast.walk(node))

    def _handle_call(self, call: ast.Call, guarded: bool,
                     held: Set[str]) -> None:
        # Submission detection must not depend on the call having a
        # dotted name: ``ProcessExecutor().map(...)`` has a Call
        # receiver, which ``call_name`` cannot render.
        self._submission_of_call(call)
        func = call.func
        if isinstance(func, ast.Attribute) and \
                func.attr in ("acquire", "release"):
            token = dotted_name(func.value)
            if token is not None and self._is_aio_lock_name(token):
                if func.attr == "acquire":
                    self._record_aio_acquire(token, call.lineno,
                                             call.col_offset)
                    self._aio_held.add(token)
                else:
                    self._aio_held.discard(token)
                return
            if token is not None and self._is_lock_name(token):
                if func.attr == "acquire":
                    self._record_acquire(token, call.lineno,
                                         call.col_offset, held)
                    held.add(token)
                else:
                    held.discard(token)
                return
        raw = call_name(call)
        if raw is None:
            return
        for arg in [*call.args, *[kw.value for kw in call.keywords]]:
            if isinstance(arg, ast.Lambda):
                self._lambda_ctx[id(arg)] = raw
        entry: Dict[str, object] = {"name": raw, "line": call.lineno,
                                    "col": call.col_offset}
        if held:
            entry["held"] = sorted(held)
        if self._aio_held:
            entry["aio_held"] = sorted(self._aio_held)
        if id(call) in self._awaited_calls:
            entry["awaited"] = True
        elif id(call) in self._discarded_calls:
            entry["discarded"] = True
        if self._arg_of is not None:
            entry["arg_of"] = self._arg_of
        if _spawns_task(raw, self._imports.canonical(raw)):
            entry["creates_task"] = True
        self.record["calls"].append(entry)
        if self._effects_of_call(call, raw, held):
            entry["blocks"] = True
        self._rng_of_call(call, raw, guarded)
        self._access_of_call(call, raw, held)

    def _effects_of_call(self, call: ast.Call, raw: str,
                         held: Set[str]) -> bool:
        """Record the call's local effects; returns True when the
        call parks the thread (blocking or filesystem) — the local
        blocks-event-loop evidence."""
        canon = self._imports.canonical(raw)
        filesystem = False
        if canon in WALL_CLOCK_CALLS:
            self._effect(WALL_CLOCK, f"{raw}()", call.lineno)
        elif canon in ENTROPY_CALLS or canon == "random.SystemRandom" \
                or ((canon.startswith("numpy.random.")
                     or raw.startswith("np.random."))
                    and not is_seeded_numpy_ctor(raw, call)):
            # Seeded numpy generator construction is deterministic
            # (RPR003 sanctions it the same way); everything else
            # under numpy.random taints as entropy.
            self._effect(ENTROPY, f"{raw}()", call.lineno)
        elif raw in ("hash", "id"):
            self._effect(SALTED_HASH, f"{raw}()", call.lineno)
        elif canon.startswith("random.") and not self._rng_exempt \
                and canon[len("random."):] in RANDOM_MODULE_FNS:
            self._effect(GLOBAL_RNG, f"{raw}()", call.lineno)
        elif canon in FILESYSTEM_CALLS or (
                "." in raw and _last(raw) in _PATH_FS_METHODS):
            self._effect(FILESYSTEM, f"{raw}()", call.lineno)
            filesystem = True
        if isinstance(call.func, ast.Attribute) and \
                call.func.attr in MUTATING_METHODS:
            base = dotted_name(call.func.value)
            if base is not None:
                first = base.split(".", 1)[0]
                if first in self._outer_names or \
                        first in self._module_state:
                    self._effect(
                        SHARED_MUTATION,
                        f"{raw}() mutates module state '{first}'",
                        call.lineno)
        blocking = canon in BLOCKING_CALLS
        if not blocking and isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            base = dotted_name(call.func.value)
            if attr in _QUEUE_BLOCKING and base is not None and \
                    base in self._local_queues:
                blocking = True
            elif attr in _EXEC_BLOCKING and (
                    (base is not None and base in self._local_execs)
                    or (isinstance(call.func.value, ast.Call)
                        and _executor_kind(call.func.value)
                        is not None)):
                blocking = True
        if blocking:
            self._effect(BLOCKING, f"{raw}()", call.lineno)
        if (blocking or filesystem) and held:
            self._blocking.append({"detail": f"{raw}()",
                                   "line": call.lineno,
                                   "held": sorted(held)})
        if (blocking or filesystem) and self._aio_held:
            self._aio_blocking.append(
                {"detail": f"{raw}()", "line": call.lineno,
                 "aio_held": sorted(self._aio_held)})
        return blocking or filesystem

    def _access_of_call(self, call: ast.Call, raw: str,
                        held: Set[str]) -> None:
        func = call.func
        if isinstance(func, ast.Name) and raw in _ITER_BUILTINS \
                and call.args:
            arg = call.args[0]
            if not isinstance(arg, ast.Call):
                self._iter_access(arg, held)
            return
        if not isinstance(func, ast.Attribute):
            return
        base = dotted_name(func.value)
        if base is None:
            return
        target = self._access_target(base)
        if target is None:
            return
        if func.attr in _VIEW_METHODS and not call.args:
            self._record_access(target, "iter", call.lineno,
                                call.col_offset, held)
        elif func.attr in MUTATING_METHODS:
            self._record_access(target, "write", call.lineno,
                                call.col_offset, held)

    def _iter_access(self, node: ast.AST, held: Set[str]) -> None:
        name = dotted_name(node)
        if name is None:
            return
        target = self._access_target(name)
        if target is not None:
            self._record_access(target, "iter", node.lineno,
                                node.col_offset, held)

    def _rng_of_call(self, call: ast.Call, raw: str,
                     guarded: bool) -> None:
        first = raw.split(".", 1)[0]
        if "." in raw and first in self._rng_params:
            self.record["rng_draws"].append(
                {"param": first, "call": raw, "line": call.lineno})
            return
        terminal = _last(raw)
        if terminal.endswith("Rng") and terminal[:1].isupper():
            self.record["fresh_rng"].append(
                {"name": raw, "line": call.lineno,
                 "col": call.col_offset, "guarded": guarded})

    def _submission_of_call(self, call: ast.Call) -> None:
        func = call.func
        name = call_name(call)
        if name is not None and _last(name) == "Thread":
            # ``threading.Thread(target=fn)`` is a thread-entry
            # submission: ``fn`` runs concurrently with the creator.
            for kw in call.keywords:
                if kw.arg == "target":
                    self._append_submit(kw.value, call, "thread")
                    return
            return
        if name is not None and call.args and \
                self._imports.canonical(name) == "asyncio.to_thread":
            # ``asyncio.to_thread(fn, ...)`` routes fn off the loop.
            self._append_submit(call.args[0], call, "thread")
            return
        if isinstance(func, ast.Attribute) and \
                func.attr == "run_in_executor" and len(call.args) >= 2:
            # ``loop.run_in_executor(exec_or_None, fn, ...)``.
            self._append_submit(call.args[1], call, "thread")
            return
        if not isinstance(func, ast.Attribute) or \
                func.attr not in _SUBMIT_METHODS or not call.args:
            return
        receiver = func.value
        kind: Optional[str] = None
        if isinstance(receiver, ast.Call):
            kind = _executor_kind(receiver)
        else:
            rname = dotted_name(receiver)
            if rname is not None:
                kind = self._local_execs.get(rname)
                if kind is None:
                    first, _, rest = rname.partition(".")
                    if first == "self" and rest and "." not in rest:
                        # ``self._executor.submit(fn)``: the pool was
                        # bound in another method, so its kind lives on
                        # that record — the async model resolves it
                        # against the class's executor attributes.
                        kind = "attr"
        if kind is None:
            return
        self._append_submit(call.args[0], call, kind)

    def _append_submit(self, fn_arg: ast.expr, call: ast.Call,
                       exec_kind: str) -> None:
        if isinstance(fn_arg, ast.Lambda):
            fn = {"kind": "lambda", "name": None}
        else:
            name = dotted_name(fn_arg)
            if name is not None and name in self._local_lambdas:
                fn = {"kind": "lambda", "name": name}
            elif name is not None:
                fn = {"kind": "ref", "name": name}
            else:
                fn = {"kind": "opaque", "name": None}
        self.record["submits"].append(
            {"fn": fn, "line": call.lineno, "col": call.col_offset,
             "exec_kind": exec_kind})

    def _handle_assignment(self, node: ast.AST,
                           held: Set[str]) -> None:
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target]
        for target in _flat_targets(targets):
            if isinstance(target, ast.Name):
                if target.id in self._outer_names:
                    self._effect(
                        SHARED_MUTATION,
                        f"write to outer-scope name '{target.id}'",
                        node.lineno)
                if target.id in self._global_names:
                    tracked = self._access_target(target.id)
                    if tracked is not None:
                        self._record_access(tracked, "write",
                                            target.lineno,
                                            target.col_offset, held)
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                base = dotted_name(
                    target.value if isinstance(target, ast.Subscript)
                    else target)
                if base is None:
                    continue
                first = base.split(".", 1)[0]
                if first != "self" and (first in self._outer_names
                                        or first in self._module_state):
                    self._effect(
                        SHARED_MUTATION,
                        f"write to module state '{first}'",
                        node.lineno)
                tracked = self._access_target(base)
                if tracked is not None:
                    self._record_access(tracked, "write",
                                        target.lineno,
                                        target.col_offset, held)

    def _access_of_target(self, target: ast.expr,
                          held: Set[str]) -> None:
        if not isinstance(target, (ast.Attribute, ast.Subscript,
                                   ast.Name)):
            return
        if isinstance(target, ast.Name):
            base = target.id if target.id in self._global_names \
                else None
        else:
            base = dotted_name(
                target.value if isinstance(target, ast.Subscript)
                else target)
        if base is None:
            return
        tracked = self._access_target(base)
        if tracked is not None:
            self._record_access(tracked, "write", target.lineno,
                                target.col_offset, held)

    def _effect(self, effect: str, detail: str, line: int) -> None:
        self.record["effects"].append([effect, detail, line])


@summarizer("callgraph")
def callgraph_summary(sf: SourceFile) -> dict:
    """Digest ``sf`` into the module summary described above."""
    mod = module_id(sf)
    parts = list(sf.package_parts)
    if parts and parts[-1] == "__init__.py":
        package = mod
    else:
        package = mod.rsplit(".", 1)[0] if "." in mod else ""
    imports = _ImportTable(sf.tree, package)
    module_state = _module_state(sf.tree)
    module_execs, module_locks, module_queues, module_aio_locks = \
        _module_bindings(sf.tree, imports)
    rng_exempt = sf.is_module("rng.py")
    functions: Dict[str, dict] = {}

    def walk_defs(stmts: Sequence[ast.stmt], prefix: str,
                  cls: Optional[str], nested: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + stmt.name
                scan = _FunctionScan(stmt, qual, cls, nested, imports,
                                     module_state, module_execs,
                                     module_locks, module_queues,
                                     module_aio_locks, rng_exempt)
                functions[qual] = scan.record
                walk_defs(stmt.body, qual + ".<locals>.", None, True)
            elif isinstance(stmt, ast.ClassDef):
                cls_qual = prefix + stmt.name
                walk_defs(stmt.body, cls_qual + ".", cls_qual, nested)

    walk_defs(sf.tree.body, "", None, False)
    return {
        "module": mod,
        "path": sf.display_path,
        "imports": dict(sorted(imports.internal.items())),
        "module_state": sorted(module_state),
        "module_locks": {name: module_locks[name]
                         for name in sorted(module_locks)},
        "module_aio_locks": sorted(module_aio_locks),
        "functions": functions,
    }
