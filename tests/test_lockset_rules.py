"""Tests for the RPR10x lockset rules and the migrated RPR041.

Fixture trees exercise each rule's positive and negative space:
inconsistent locksets (RPR101), lock-order inversions and
self-deadlocks (RPR102), blocking waits under a lock (RPR103), and
the interprocedural exemptions (caller-holds-the-lock helpers,
constructor-only code, RLock re-entry, the double-checked
get-then-locked-setdefault idiom, test-path scaffolding).

The final class is the lock coverage gate: an independent AST scan
of ``src/repro`` for ``threading.Lock``/``RLock`` bindings must find
nothing the :class:`~repro.analysis.locksets.LockModel` missed.
"""

from __future__ import annotations

import ast
import os
import textwrap

from repro.analysis import load_project, lock_model, run_lint, severity_for
from repro.analysis.locksets import is_test_path

CONCURRENCY = ["RPR041", "RPR101", "RPR102", "RPR103"]


def lint_tree(tmp_path, files, *, select=CONCURRENCY):
    """Write ``{relpath: source}`` under a tmp package root and lint it
    with the concurrency rules only."""
    root = tmp_path / "pkg"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    findings, _ = run_lint([str(root)], select=select)
    return findings


def codes(findings):
    return [f.code for f in findings]


class TestInconsistentLockset:
    def test_unlocked_iteration_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {"conc/reg.py": """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def add(self, k, v):
                    with self._lock:
                        self._items[k] = v

                def drop(self, k):
                    with self._lock:
                        del self._items[k]

                def names(self):
                    return sorted(self._items)
            """})
        assert codes(findings) == ["RPR101"]
        f = findings[0]
        assert "Registry._items" in f.message
        assert "Registry._lock" in f.message
        assert "iterated" in f.message
        assert "consistent site:" in f.message

    def test_locked_iteration_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"conc/reg.py": """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def add(self, k, v):
                    with self._lock:
                        self._items[k] = v

                def names(self):
                    with self._lock:
                        return sorted(self._items)
            """})
        assert findings == []

    def test_module_global_write_without_lock(self, tmp_path):
        findings = lint_tree(tmp_path, {"conc/cache.py": """
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}

            def put(k, v):
                with _LOCK:
                    _CACHE[k] = v

            def drop(k):
                with _LOCK:
                    del _CACHE[k]

            def sneak(k, v):
                _CACHE[k] = v
            """})
        assert codes(findings) == ["RPR101"]
        assert "written" in findings[0].message
        assert "no lock held" in findings[0].message

    def test_double_checked_idiom_clean(self, tmp_path):
        # The unlocked point read is never recorded; only iteration
        # and writes count.  get-then-locked-setdefault stays lawful.
        findings = lint_tree(tmp_path, {"conc/memo.py": """
            import threading

            class Memo:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._vals = {}

                def get(self, k):
                    v = self._vals.get(k)
                    if v is None:
                        with self._lock:
                            v = self._vals.setdefault(k, k * 2)
                    return v

                def drop(self, k):
                    with self._lock:
                        del self._vals[k]
            """})
        assert findings == []

    def test_never_locked_location_is_not_a_claim(self, tmp_path):
        # No access ever holds a lock: there is no majority discipline
        # to diverge from, so RPR101 stays silent (single-threaded
        # classes do not have to lock).
        findings = lint_tree(tmp_path, {"conc/plain.py": """
            class Plain:
                def __init__(self):
                    self._items = {}

                def add(self, k):
                    self._items[k] = k

                def names(self):
                    return sorted(self._items)
            """}, select=["RPR101"])
        assert findings == []

    def test_test_path_accesses_exempt(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "conc/reg.py": """
                import threading

                class Registry:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = {}

                    def add(self, k, v):
                        with self._lock:
                            self._items[k] = v

                    def drop(self, k):
                        with self._lock:
                            del self._items[k]
            """,
            "tests/test_reg.py": """
                import threading

                class Registry:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = {}

                    def add(self, k, v):
                        with self._lock:
                            self._items[k] = v

                    def drop(self, k):
                        with self._lock:
                            del self._items[k]

                    def names(self):
                        return sorted(self._items)
            """})
        assert findings == []


class TestLockDisciplineInterprocedural:
    def test_caller_holds_lock_helper_exempt(self, tmp_path):
        # The private helper writes without a local lock, but its only
        # caller provably holds it — entry locksets kill the old
        # file-local false positive.
        findings = lint_tree(tmp_path, {"conc/store.py": """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}

                def put(self, k, v):
                    with self._lock:
                        self._bump(k, v)

                def _bump(self, k, v):
                    self._data[k] = v
            """})
        assert findings == []

    def test_public_unlocked_write_still_rpr041(self, tmp_path):
        findings = lint_tree(tmp_path, {"conc/store.py": """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}

                def put(self, k, v):
                    with self._lock:
                        self._data[k] = v

                def reset(self):
                    self._data = {}
            """})
        assert codes(findings) == ["RPR041"]
        assert "Store.reset" in findings[0].message

    def test_closure_write_outside_lock_rpr041(self, tmp_path):
        # The closure runs on a pool thread and writes through its
        # method's ``self``: that is the class's shared state, held to
        # the same lock discipline as a method body.
        findings = lint_tree(tmp_path, {"conc/store.py": """
            import threading
            from concurrent.futures import ThreadPoolExecutor

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}
                    self._pool = ThreadPoolExecutor(max_workers=2)

                def put(self, k, v):
                    with self._lock:
                        self._data[k] = v

                def drop(self, k):
                    with self._lock:
                        del self._data[k]

                def put_later(self, k, v):
                    def op():
                        self._data[k] = v
                    return self._pool.submit(op)
            """})
        assert codes(findings) == ["RPR041"]
        assert findings[0].line == 21
        assert "Store.put_later.<locals>.op" in findings[0].message

    def test_closure_write_under_lock_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"conc/store.py": """
            import threading
            from concurrent.futures import ThreadPoolExecutor

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}
                    self._pool = ThreadPoolExecutor(max_workers=2)

                def put(self, k, v):
                    with self._lock:
                        self._data[k] = v

                def put_later(self, k, v):
                    def op():
                        with self._lock:
                            self._data[k] = v
                    return self._pool.submit(op)
            """})
        assert findings == []

    def test_ctor_only_helper_exempt(self, tmp_path):
        # _fill runs before the instance is shared: no lock needed.
        findings = lint_tree(tmp_path, {"conc/warm.py": """
            import threading

            class Warm:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cache = {}
                    self._fill()

                def _fill(self):
                    self._cache["a"] = 1

                def put(self, k):
                    with self._lock:
                        self._cache[k] = k
            """})
        assert findings == []


class TestLockOrder:
    def test_opposite_orders_flagged_once(self, tmp_path):
        findings = lint_tree(tmp_path, {"conc/order.py": """
            import threading

            _A = threading.Lock()
            _B = threading.Lock()

            def ab():
                with _A:
                    with _B:
                        pass

            def ba():
                with _B:
                    with _A:
                        pass
            """})
        assert codes(findings) == ["RPR102"]
        assert "lock-order inversion" in findings[0].message
        assert "opposite order" in findings[0].message

    def test_consistent_order_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"conc/order.py": """
            import threading

            _A = threading.Lock()
            _B = threading.Lock()

            def ab():
                with _A:
                    with _B:
                        pass

            def ab_again():
                with _A:
                    with _B:
                        pass
            """})
        assert findings == []

    def test_self_deadlock_on_plain_lock(self, tmp_path):
        findings = lint_tree(tmp_path, {"conc/re.py": """
            import threading

            class Bad:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        with self._lock:
                            pass
            """})
        assert codes(findings) == ["RPR102"]
        assert "self-deadlock" in findings[0].message

    def test_rlock_reentry_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"conc/re.py": """
            import threading

            class Fine:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        with self._lock:
                            pass
            """})
        assert findings == []

    def test_interprocedural_self_deadlock(self, tmp_path):
        # outer holds the lock; _inner (called only from outer) takes
        # it again — the entry lockset makes the self-edge visible.
        findings = lint_tree(tmp_path, {"conc/re.py": """
            import threading

            class Bad:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def outer(self):
                    with self._lock:
                        self._inner()

                def _inner(self):
                    with self._lock:
                        self._n += 1
            """})
        assert "RPR102" in codes(findings)


class TestBlockingUnderLock:
    def test_sleep_under_lock(self, tmp_path):
        findings = lint_tree(tmp_path, {"conc/slow.py": """
            import threading
            import time

            class Slow:
                def __init__(self):
                    self._lock = threading.Lock()

                def work(self):
                    with self._lock:
                        time.sleep(0.1)
            """})
        assert codes(findings) == ["RPR103"]
        assert "blocking wait" in findings[0].message
        assert "time.sleep" in findings[0].message

    def test_sleep_without_lock_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"conc/slow.py": """
            import time

            def nap():
                time.sleep(0.1)
            """})
        assert findings == []

    def test_queue_get_under_lock(self, tmp_path):
        findings = lint_tree(tmp_path, {"conc/pipe.py": """
            import queue
            import threading

            class Pipe:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._q = queue.Queue()

                def drain(self):
                    with self._lock:
                        return self._q.get()
            """})
        assert codes(findings) == ["RPR103"]
        assert "self._q.get()" in findings[0].message

    def test_transitive_file_io_cites_chain(self, tmp_path):
        findings = lint_tree(tmp_path, {"conc/save.py": """
            import threading

            _LOCK = threading.Lock()

            def _write_file(path):
                with open(path, "w") as f:
                    f.write("x")

            def save(path):
                with _LOCK:
                    _write_file(path)
            """})
        assert codes(findings) == ["RPR103"]
        assert "via" in findings[0].message
        assert "_write_file" in findings[0].message

    def test_one_finding_per_function(self, tmp_path):
        findings = lint_tree(tmp_path, {"conc/slow.py": """
            import threading
            import time

            _LOCK = threading.Lock()

            def work():
                with _LOCK:
                    time.sleep(0.1)
                    time.sleep(0.2)
            """})
        assert codes(findings) == ["RPR103"]
        assert "2 blocking sites" in findings[0].message

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_tree(tmp_path, {"conc/slow.py": """
            import threading
            import time

            _LOCK = threading.Lock()

            def work():
                with _LOCK:
                    time.sleep(0.1)  # repro: noqa[RPR103]
            """})
        assert findings == []


class TestSeverities:
    def test_rule_severities(self):
        assert severity_for("RPR101") == "error"
        assert severity_for("RPR102") == "error"
        assert severity_for("RPR103") == "warning"
        assert severity_for("RPR041") == "error"

    def test_is_test_path(self):
        assert is_test_path("tests/test_obs.py")
        assert is_test_path("pkg/tests/helper.py")
        assert is_test_path("src/foo_test.py")
        assert not is_test_path("src/repro/obs/metrics.py")
        assert not is_test_path("src/repro/testkit.py")


class TestLockCoverageGate:
    def test_every_real_lock_is_modeled(self):
        """CI gate: an independent AST scan of ``src/repro`` for
        ``threading.Lock()``/``RLock()`` bindings must be a subset of
        the lock-model's table — the analyzer sees every real lock."""
        src = os.path.join(os.path.dirname(__file__), "..",
                           "src", "repro")
        expected = set()
        for dirpath, _, names in os.walk(src):
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, "r", encoding="utf-8") as f:
                    tree = ast.parse(f.read())
                for node in ast.walk(tree):
                    if not isinstance(node, ast.Assign):
                        continue
                    call = node.value
                    if not (isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Attribute)
                            and call.func.attr in ("Lock", "RLock")
                            and isinstance(call.func.value, ast.Name)
                            and call.func.value.id == "threading"):
                        continue
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Attribute):
                            expected.add(tgt.attr)
                        elif isinstance(tgt, ast.Name):
                            expected.add(tgt.id)
        assert expected, "the scan should find the repo's real locks"
        project = load_project([src])
        table = lock_model(project).lock_table()
        modeled = {ident.rsplit(".", 1)[-1].rsplit(":", 1)[-1]
                   for ident in table}
        missing = expected - modeled
        assert not missing, (
            f"locks invisible to the lockset model: {sorted(missing)}")
