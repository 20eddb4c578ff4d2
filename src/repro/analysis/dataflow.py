"""Worklist taint/effect propagation over the project call graph.

:mod:`repro.analysis.callgraph` digests every file into a
JSON-serializable **module summary**: the functions it defines, the
calls they make, and the *local* effects each body exhibits.  This
module assembles those summaries into a project-wide
:class:`CallGraph`, resolves call edges (imports of ``repro.*``
modules, ``self.``-method dispatch, nested defs, one level of
package re-export), and runs a monotone worklist until every
function's **transitive effect set** is a fixpoint.

The effect lattice is a flat powerset over seven tags:

========================  ==============================================
``wall-clock``            ``time.time()``, ``datetime.now()``, ... —
                          different every run
``salted-hash``           builtin ``hash()`` / ``id()`` — different
                          every *process*
``global-rng``            draws or state on the stdlib ``random``
                          module (``rng.py`` itself is exempt: it
                          implements the discipline)
``unseeded-entropy``      ``os.urandom``, ``secrets.*``, ``uuid1/4``,
                          ``numpy.random.*``
``filesystem``            ``open()``, ``os``/``shutil``/``tempfile``
                          file ops
``shared-mutation``       writes to ``global``/``nonlocal`` names or
                          module-level state — lost silently when the
                          writer runs in a ``ProcessExecutor`` worker
``blocking-wait``         ``time.sleep``, queue gets/puts, executor
                          ``map``/``submit``/``shutdown`` — calls that
                          park the calling thread (RPR103 flags them
                          under a held lock)
========================  ==============================================

Each function keeps one **witness** per effect — either the local
call that exhibits it or the call edge it arrived through — so a
finding can print the full offending chain
(``ingest -> _route -> time.time()``).  Witness assignment is
first-wins under a deterministic iteration order (sorted function
keys, call-site order), which keeps repeated runs byte-identical.

Everything here is pure data-plumbing: the lint rules that interpret
the fixpoint live in ``rules/interprocedural.py`` (RPR06x) and
``rules/executors.py`` (RPR07x).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["WALL_CLOCK", "SALTED_HASH", "GLOBAL_RNG", "ENTROPY",
           "FILESYSTEM", "SHARED_MUTATION", "BLOCKING",
           "NONDETERMINISTIC_EFFECTS",
           "EFFECT_LABELS", "WALL_CLOCK_CALLS", "ENTROPY_CALLS",
           "RANDOM_MODULE_FNS", "NUMPY_SEEDED_CTORS",
           "is_seeded_numpy_ctor", "FILESYSTEM_CALLS", "BLOCKING_CALLS",
           "MUTATING_METHODS", "CallGraph", "analyze_project"]

# ----------------------------------------------------------------------
# The effect lattice
# ----------------------------------------------------------------------

WALL_CLOCK = "wall-clock"
SALTED_HASH = "salted-hash"
GLOBAL_RNG = "global-rng"
ENTROPY = "unseeded-entropy"
FILESYSTEM = "filesystem"
SHARED_MUTATION = "shared-mutation"
BLOCKING = "blocking-wait"

#: The effects that break same-seed reproducibility (RPR061 flags
#: these on sampling/merge entry points; ``filesystem`` and
#: ``shared-mutation`` are tracked for the executor-safety rules and
#: for tooling, not for determinism findings).
NONDETERMINISTIC_EFFECTS = (WALL_CLOCK, SALTED_HASH, GLOBAL_RNG,
                            ENTROPY)

#: Human phrasing used in finding messages.
EFFECT_LABELS = {
    WALL_CLOCK: "a wall-clock read",
    SALTED_HASH: "a per-process salted hash",
    GLOBAL_RNG: "the process-global random generator",
    ENTROPY: "an unseedable entropy source",
    FILESYSTEM: "filesystem access",
    SHARED_MUTATION: "mutation of shared module state",
    BLOCKING: "a blocking wait",
}

# ----------------------------------------------------------------------
# Canonical call-name tables (the file-scoped rule families import
# these, so the interprocedural engine and RPR01x/RPR00x never drift)
# ----------------------------------------------------------------------

#: Non-monotonic clock reads (``perf_counter``/``monotonic`` are fine:
#: the obs layer times with them and never feeds them into results).
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.localtime", "time.ctime",
    "time.gmtime", "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today", "date.today",
})

#: Entropy sources that bypass the seed-splitting discipline entirely.
ENTROPY_CALLS = frozenset({
    "os.urandom", "secrets.token_bytes", "secrets.token_hex",
    "secrets.token_urlsafe", "secrets.randbelow", "secrets.choice",
    "secrets.randbits", "uuid.uuid1", "uuid.uuid4",
})

#: Terminal names of numpy generator/bit-generator constructors that
#: are deterministic when given an explicit seed.  RPR003 and the
#: interprocedural effect engine both sanction a call like
#: ``np.random.PCG64(derive_seed(...))`` — construction *with at least
#: one argument* — while still flagging unseeded construction and every
#: module-level ``np.random.*`` draw (which consume global or OS
#: entropy).  Kept here so the rule and the taint engine cannot drift.
NUMPY_SEEDED_CTORS = frozenset({
    "default_rng", "Generator", "SeedSequence",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


def is_seeded_numpy_ctor(name: str, call) -> bool:
    """True for a seeded ``numpy.random`` generator construction.

    ``name`` is the dotted call name (``numpy.random.*`` or
    ``np.random.*``); ``call`` is the ``ast.Call`` node.  Seeded means
    at least one positional or keyword argument — the zero-argument
    forms fall back to OS entropy and stay banned.
    """
    terminal = name.rsplit(".", 1)[-1]
    return terminal in NUMPY_SEEDED_CTORS and bool(
        getattr(call, "args", None) or getattr(call, "keywords", None))


#: Module-level draw/state functions of the stdlib ``random`` module.
RANDOM_MODULE_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "gauss", "normalvariate",
    "lognormvariate", "expovariate", "betavariate", "gammavariate",
    "paretovariate", "weibullvariate", "vonmisesvariate", "seed",
    "getrandbits", "randbytes", "getstate", "setstate",
})

#: Filesystem touchpoints (effect bookkeeping only; no rule bans them).
FILESYSTEM_CALLS = frozenset({
    "open", "gzip.open", "os.replace", "os.rename", "os.unlink",
    "os.remove", "os.makedirs", "os.mkdir", "os.listdir", "os.rmdir",
    "os.scandir", "shutil.rmtree", "shutil.copy", "shutil.copytree",
    "shutil.move", "tempfile.mkstemp", "tempfile.mkdtemp",
    "tempfile.NamedTemporaryFile", "tempfile.TemporaryDirectory",
})

#: Calls that block the calling thread outright (the lockset engine
#: also derives blocking waits from queue/executor receivers and the
#: filesystem table above — see :mod:`repro.analysis.callgraph`).
#: RPR103 flags any of them made while a lock is held.
BLOCKING_CALLS = frozenset({
    "time.sleep", "select.select", "signal.pause",
    "socket.create_connection", "socket.getaddrinfo",
    "socket.gethostbyname",
})

#: Method calls that mutate a container in place.
MUTATING_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "pop", "popleft",
    "popitem", "remove", "clear", "update", "add", "discard",
    "setdefault", "write", "writelines",
})


# ----------------------------------------------------------------------
# The call graph over module summaries
# ----------------------------------------------------------------------

#: Witness: ``["local", detail, line]`` — this body exhibits the
#: effect at ``line`` — or ``["via", callee_key, line]`` — the effect
#: arrives through the call at ``line``.
Witness = List[object]

_REEXPORT_DEPTH = 4


class CallGraph:
    """Project-wide function table + resolved call edges + effects.

    Built from the ``callgraph`` summaries of every file in a
    :class:`~repro.analysis.framework.Project`.  Function keys look like
    ``"warehouse/parallel.py::SampleTask.__post_init__"`` rendered
    from ``module:qualname`` pairs; use :meth:`location` and
    :meth:`chain` to turn keys back into human-readable findings.
    """

    def __init__(self, summaries: Sequence[dict]) -> None:
        #: module id ("core.sample") -> module summary
        self.modules: Dict[str, dict] = {}
        for summ in summaries:
            self.modules.setdefault(summ["module"], summ)
        #: "module:qual" -> (module id, function record)
        self.defs: Dict[str, Tuple[str, dict]] = {}
        for mod in sorted(self.modules):
            for qual, rec in self.modules[mod]["functions"].items():
                self.defs[f"{mod}:{qual}"] = (mod, rec)
        self._edges: Dict[str, List[Tuple[str, int]]] = {}
        for key in sorted(self.defs):
            self._edges[key] = self._resolve_edges(key)
        self.effects: Dict[str, Dict[str, Witness]] = {}
        self._propagate()

    # -- construction ---------------------------------------------------

    def _resolve_edges(self, key: str) -> List[Tuple[str, int]]:
        mod, rec = self.defs[key]
        qual = key.split(":", 1)[1]
        edges: List[Tuple[str, int]] = []
        for call in rec.get("calls", ()):
            target = self.resolve(mod, qual, call["name"])
            if target is not None and target != key:
                edges.append((target, call["line"]))
        return edges

    def _def_or_init(self, mod: str, symbol: str) -> Optional[str]:
        """``module:symbol`` as a function, or its ``__init__`` when
        ``symbol`` names a class."""
        key = f"{mod}:{symbol}"
        if key in self.defs:
            return key
        init = f"{mod}:{symbol}.__init__"
        if init in self.defs:
            return init
        return None

    def _resolve_target(self, target: str,
                        depth: int = 0) -> Optional[str]:
        """A dotted import target ("core.sample.merge") to a def key,
        following one package-``__init__`` re-export per hop."""
        if depth > _REEXPORT_DEPTH:
            return None
        parts = target.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            if mod not in self.modules:
                continue
            symbol = ".".join(parts[cut:])
            resolved = self._def_or_init(mod, symbol)
            if resolved is not None:
                return resolved
            # Re-export: ``from repro.core import merge`` where
            # ``merge`` is itself imported into core/__init__.py.
            head = parts[cut]
            reexport = self.modules[mod].get("imports", {}).get(head)
            if reexport is not None:
                tail = target[len(mod) + 1 + len(head):]
                return self._resolve_target(reexport + tail, depth + 1)
            return None
        return None

    def resolve(self, mod: str, caller_qual: str,
                name: str) -> Optional[str]:
        """Resolve a call-site name inside ``mod:caller_qual``."""
        summ = self.modules.get(mod)
        if summ is None:
            return None
        functions = summ["functions"]
        imports = summ.get("imports", {})
        if name.startswith("self."):
            attr = name[len("self."):]
            cls = functions.get(caller_qual, {}).get("cls")
            if cls is not None and "." not in attr:
                key = f"{mod}:{cls}.{attr}"
                if key in self.defs:
                    return key
            return None
        if "." not in name:
            # Innermost-out: a def nested in the caller, then a
            # module-level def/class, then an imported symbol.
            scope = caller_qual
            while scope:
                key = f"{mod}:{scope}.<locals>.{name}"
                if key in self.defs:
                    return key
                scope = scope.rsplit(".<locals>.", 1)[0] \
                    if ".<locals>." in scope else ""
            local = self._def_or_init(mod, name)
            if local is not None:
                return local
            target = imports.get(name)
            if target is not None:
                return self._resolve_target(target)
            return None
        # Dotted: longest imported prefix wins ("wh.catalog.register"
        # where "wh" or "wh.catalog" is an imported repro module).
        parts = name.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            target = imports.get(prefix)
            if target is not None:
                rest = ".".join(parts[cut:])
                return self._resolve_target(f"{target}.{rest}")
        return None

    def _propagate(self) -> None:
        """Monotone worklist to the transitive-effect fixpoint."""
        for key in sorted(self.defs):
            _, rec = self.defs[key]
            local: Dict[str, Witness] = {}
            for effect, detail, line in rec.get("effects", ()):
                local.setdefault(effect, ["local", detail, line])
            self.effects[key] = local
        ordered = sorted(self.defs)
        changed = True
        while changed:
            changed = False
            for key in ordered:
                mine = self.effects[key]
                for target, line in self._edges[key]:
                    for effect in self.effects[target]:
                        if effect not in mine:
                            mine[effect] = ["via", target, line]
                            changed = True

    # -- rendering ------------------------------------------------------

    def location(self, key: str) -> Tuple[str, int, int]:
        """``(path, line, col)`` of a function's def statement."""
        mod, rec = self.defs[key]
        return (self.modules[mod]["path"], rec["line"], rec["col"])

    def display(self, key: str) -> str:
        """Human name for a function key: ``module.qualname``."""
        mod, _ = self.defs[key]
        qual = key.split(":", 1)[1].replace(".<locals>.", ".")
        return f"{mod}.{qual}" if mod else qual

    def chain(self, key: str, effect: str) -> str:
        """The witness call chain, rendered for a finding message:
        ``ingest (warehouse/ingest.py:42) -> _route (stream/splitter.py:18)
        -> time.time() (line 24)``."""
        hops: List[str] = []
        seen = set()
        current: Optional[str] = key
        while current is not None and current not in seen:
            seen.add(current)
            witness = self.effects[current].get(effect)
            if witness is None:
                break
            path, line, _ = self.location(current)
            if current == key:
                name = self.display(current)
            else:
                name = current.split(":", 1)[1] \
                    .replace(".<locals>.", ".")
            hops.append(f"{name} ({path}:{line})")
            if witness[0] == "local":
                hops.append(f"{witness[1]} (line {witness[2]})")
                break
            current = witness[1]  # type: ignore[assignment]
        return " -> ".join(hops)


def analyze_project(project) -> CallGraph:
    """The (memoized) :class:`CallGraph` of a lint project.

    RPR061 and RPR071 both need the same fixpoint; computing it once
    per :class:`~repro.analysis.framework.Project` keeps the cost at
    one pass over the merged summaries.
    """
    graph = getattr(project, "_repro_callgraph", None)
    if graph is None:
        summaries = [summ for _, summ in project.summaries("callgraph")]
        graph = CallGraph(summaries)
        project._repro_callgraph = graph
    return graph
