"""Lock discipline: classes owning ``self._lock`` mutate under it.

One ``MetricsRegistry`` is shared by every thread of a
``ThreadExecutor`` run, warehouse stores are updated by concurrent
ingests, and span sinks receive spans from all threads.  Such classes
follow one convention: a class that owns shared mutable state creates
a lock attribute (``self._lock = threading.Lock()``) and takes it
around **every** mutation.  This rule makes the convention
machine-checked — *project-wide*: any class, wherever it lives, that
binds a lock attribute may only mutate its underscore attributes
while that lock is held.  (Classes that never create a lock opt out
by construction; the rule enforces the convention where it is
claimed, it does not demand locking everywhere.)

Since the lockset engine (:mod:`repro.analysis.locksets`) landed, the
check is interprocedural: "held" means the *effective* lockset —
locks taken locally **plus** locks every caller provably holds at the
call site.  A private helper invoked only from already-locked methods
no longer needs (and should not take) a redundant local lock; the old
file-scoped version of this rule forced exactly that false positive.
Constructor-only code (``__init__`` and helpers reachable only from
constructors) is exempt: the instance is not visible to other threads
yet.

Reads stay unflagged on purpose — the registry deliberately reads
``self._metrics`` outside the lock on the double-checked fast path,
and snapshot readers tolerate a stale value.  Iterations and
wrong-lock writes are RPR101's findings; this rule keeps its
historical meaning (lock-free mutation in a lock-owning class).
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.framework import Finding, Project, rule
from repro.analysis.locksets import is_test_path, lock_model


@rule("RPR041", "lock-discipline",
      "shared state is mutated outside `with self._lock`",
      scope="project")
def check_lock_discipline(project: Project) -> Iterator[Finding]:
    """In any class owning a lock attribute, every write to a
    ``self._*`` attribute must happen with the lock held — locally or
    by every caller."""
    model = lock_model(project)
    for location in sorted(model.access_table):
        short = model.display(location)
        if "." not in short:
            continue  # module-global state: RPR101's territory
        owners = model.owner_locks(location)
        if not owners:
            continue  # lockless class: opted out of the convention
        cls = short.rsplit(".", 1)[0].rsplit(".", 1)[-1]
        for record in model.access_table[location]:
            if record["kind"] != "write" or record["exempt"]:
                continue
            if record["locks"]:
                continue  # held *some* lock; mismatches are RPR101
            if is_test_path(record["path"]):
                continue
            rec = model.graph.defs[record["key"]][1]
            # A closure is named by its qualified name, so the finding
            # shows its enclosing method (``Store.put.<locals>.op``).
            where = f"{cls}.{rec['name']}" if rec.get("cls") \
                else record["key"].split(":", 1)[1]
            yield Finding(
                path=record["path"], line=record["line"],
                col=record["col"], code="RPR041",
                message=(
                    f"{where} mutates shared state "
                    "outside `with self._lock:`; concurrent "
                    "ThreadExecutor updates would race"))


__all__ = ["check_lock_discipline"]
