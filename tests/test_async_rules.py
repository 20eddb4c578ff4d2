"""Tests for the RPR11x async-soundness rules.

Fixture trees exercise each rule's positive and negative space:
event-loop blocking calls in coroutines with their executor-routing
exemptions (RPR111), dropped coroutine objects and fire-and-forget
task handles (RPR112), await-point races on shared state (RPR113),
awaits under a ``threading.Lock`` (RPR114), and RPR103's asyncio-lock
extension riding the shared blocks-event-loop effect.

The final class is the async coverage gate: an independent AST scan
of ``src/repro`` for ``async def``/``await`` must match the
:class:`~repro.analysis.asyncrules.AsyncModel`'s coloring tables
exactly — a summarizer regression that stops seeing coroutines would
silently turn the whole family into a no-op.
"""

from __future__ import annotations

import ast
import os
import textwrap
from collections import Counter

from repro.analysis import (async_model, load_project, run_lint,
                            severity_for)

ASYNC_RULES = ["RPR111", "RPR112", "RPR113", "RPR114"]


def lint_tree(tmp_path, files, *, select=ASYNC_RULES):
    """Write ``{relpath: source}`` under a tmp package root and lint
    it with the async rules only."""
    root = tmp_path / "pkg"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    findings, _ = run_lint([str(root)], select=select)
    return findings


def codes(findings):
    return [f.code for f in findings]


class TestBlockingInCoroutine:
    def test_direct_blocking_call_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/poll.py": """
            import time

            async def poll():
                time.sleep(0.1)
            """})
        assert codes(findings) == ["RPR111"]
        f = findings[0]
        assert "poll" in f.message
        assert "time.sleep()" in f.message
        assert "event loop" in f.message

    def test_severity_is_warning(self):
        assert severity_for("RPR111") == "warning"
        for code in ("RPR112", "RPR113", "RPR114"):
            assert severity_for(code) == "error"

    def test_transitive_blocking_with_witness_chain(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/fetch.py": """
            import time

            def backoff():
                time.sleep(0.5)

            async def fetch():
                backoff()
            """})
        assert codes(findings) == ["RPR111"]
        f = findings[0]
        assert "fetch" in f.message
        assert "via" in f.message and "backoff" in f.message
        assert "time.sleep" in f.message  # the chain prints the sink

    def test_async_generator_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/gen.py": """
            import time

            async def ticks():
                while True:
                    time.sleep(1.0)
                    yield 1
            """})
        assert codes(findings) == ["RPR111"]
        assert "async generator" in findings[0].message

    def test_run_in_executor_by_name_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/off.py": """
            import asyncio
            import time

            def work():
                time.sleep(0.1)

            async def fetch():
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(None, work)
            """})
        assert findings == []

    def test_to_thread_lambda_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/off2.py": """
            import asyncio
            import time

            async def fetch():
                return await asyncio.to_thread(
                    lambda: time.sleep(0.1))
            """})
        assert findings == []

    def test_router_helper_exempts_lambda_argument(self, tmp_path):
        # The serve-layer idiom: a helper that submits its callable
        # parameter to an executor routes the lambda's body off the
        # loop, so the caller's lambda is exempt.
        findings = lint_tree(tmp_path, {"aio/svc.py": """
            import asyncio
            import time
            from concurrent.futures import ThreadPoolExecutor

            class Svc:
                def __init__(self):
                    self._pool = ThreadPoolExecutor(2)

                async def _offload(self, fn):
                    return await asyncio.wrap_future(
                        self._pool.submit(fn))

                async def handle(self):
                    return await self._offload(
                        lambda: time.sleep(0.1))
            """})
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/poll.py": """
            import time

            async def poll():
                time.sleep(0.1)  # repro: noqa[RPR111]
            """})
        assert findings == []

    def test_test_paths_exempt(self, tmp_path):
        findings = lint_tree(tmp_path, {"tests/test_poll.py": """
            import time

            async def helper():
                time.sleep(0.1)
            """})
        assert findings == []


class TestDroppedAwaitable:
    def test_unawaited_coroutine_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/leak.py": """
            async def job():
                return 1

            async def main():
                job()
            """})
        assert codes(findings) == ["RPR112"]
        f = findings[0]
        assert "without awaiting" in f.message
        assert "job" in f.message

    def test_dropped_task_handle_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/fire.py": """
            import asyncio

            async def job():
                return 1

            async def main():
                asyncio.create_task(job())
            """})
        assert codes(findings) == ["RPR112"]
        assert "task handle" in findings[0].message

    def test_awaited_and_kept_handles_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/ok.py": """
            import asyncio

            async def job():
                return 1

            async def main():
                await job()
                task = asyncio.create_task(job())
                await task
            """})
        assert findings == []

    def test_sync_caller_dropping_coroutine_flagged(self, tmp_path):
        # The classic footgun: a sync def calls a coroutine function
        # and the coroutine object is silently discarded.
        findings = lint_tree(tmp_path, {"aio/sync.py": """
            async def job():
                return 1

            def kick():
                job()
            """})
        assert codes(findings) == ["RPR112"]


class TestAwaitPointRace:
    def test_mutation_across_await_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/count.py": """
            import asyncio

            class Counter:
                def __init__(self):
                    self._n = 0

                async def bump(self):
                    self._n += 1
                    await asyncio.sleep(0)
                    self._n -= 1
            """})
        assert codes(findings) == ["RPR113"]
        f = findings[0]
        assert "Counter._n" in f.message
        assert "await-separated" in f.message
        assert "asyncio.Lock" in f.message

    def test_asyncio_lock_spanning_accesses_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/locked.py": """
            import asyncio

            class Counter:
                def __init__(self):
                    self._lock = asyncio.Lock()
                    self._n = 0

                async def bump(self):
                    async with self._lock:
                        self._n += 1
                        await asyncio.sleep(0)
                        self._n -= 1
            """})
        assert findings == []

    def test_single_epoch_mutation_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/one.py": """
            import asyncio

            class Counter:
                def __init__(self):
                    self._n = 0

                async def bump(self):
                    self._n += 1
                    self._n -= 1
                    await asyncio.sleep(0)
            """})
        assert findings == []


class TestAwaitUnderThreadLock:
    def test_await_while_holding_thread_lock_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/bridge.py": """
            import asyncio
            import threading

            class Bridge:
                def __init__(self):
                    self._lock = threading.Lock()

                async def relay(self):
                    with self._lock:
                        await asyncio.sleep(0)
            """}, select=["RPR114"])
        assert codes(findings) == ["RPR114"]
        f = findings[0]
        assert "Bridge._lock" in f.message
        assert "deadlock" in f.message

    def test_asyncio_lock_held_across_await_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/aio.py": """
            import asyncio

            class Gate:
                def __init__(self):
                    self._lock = asyncio.Lock()

                async def relay(self):
                    async with self._lock:
                        await asyncio.sleep(0)
            """}, select=["RPR114"])
        assert findings == []

    def test_lock_released_before_await_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/rel.py": """
            import asyncio
            import threading

            class Bridge:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._item = None

                async def relay(self):
                    with self._lock:
                        item = self._item
                    await asyncio.sleep(0)
                    return item
            """}, select=["RPR114"])
        assert findings == []


class TestBlockingUnderAsyncioLock:
    def test_rpr103_fires_inside_async_with(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/gate.py": """
            import asyncio
            import time

            class Gate:
                def __init__(self):
                    self._lock = asyncio.Lock()

                async def refresh(self):
                    async with self._lock:
                        time.sleep(0.2)
            """}, select=["RPR103"])
        assert codes(findings) == ["RPR103"]
        f = findings[0]
        assert "asyncio lock" in f.message
        assert "Gate._lock" in f.message
        assert "loop thread" in f.message

    def test_blocking_outside_the_lock_has_no_rpr103(self, tmp_path):
        findings = lint_tree(tmp_path, {"aio/gate.py": """
            import asyncio
            import time

            class Gate:
                def __init__(self):
                    self._lock = asyncio.Lock()

                async def refresh(self):
                    async with self._lock:
                        pass
                    time.sleep(0.2)
            """}, select=["RPR103"])
        assert findings == []


class TestAsyncCoverageGate:
    def test_every_coroutine_is_colored(self):
        """CI gate: an independent AST scan of ``src/repro`` for
        ``async def`` definitions and their own-scope ``await`` sites
        must match the async model's tables exactly."""
        src = os.path.join(os.path.dirname(__file__), "..",
                           "src", "repro")

        def own_awaits(fn_node):
            count = 0
            stack = list(ast.iter_child_nodes(fn_node))
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    continue
                if isinstance(node, ast.Await):
                    count += 1
                stack.extend(ast.iter_child_nodes(node))
            return count

        expected: Counter = Counter()
        for dirpath, _, names in os.walk(src):
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, "r", encoding="utf-8") as f:
                    tree = ast.parse(f.read())
                for node in ast.walk(tree):
                    if isinstance(node, ast.AsyncFunctionDef):
                        expected[(node.name, own_awaits(node))] += 1
        assert expected, "the scan should find the serve coroutines"

        project = load_project([src])
        model = async_model(project)
        modeled: Counter = Counter()
        for key, kind in model.colors.items():
            assert kind in ("coroutine", "asyncgen")
            short = key.split(":", 1)[1] \
                .replace(".<locals>.", ".").split(".")[-1]
            modeled[(short, len(model.awaits[key]))] += 1
        assert modeled == expected, (
            f"async defs invisible to the model: "
            f"{expected - modeled} / phantom: {modeled - expected}")

    def test_blocks_effect_sees_the_real_sinks(self):
        """The transitive effect actually covers the library: the
        known loop-parking sync entry points are in the table, and
        the executor-routed serve path is not."""
        src = os.path.join(os.path.dirname(__file__), "..",
                           "src", "repro")
        project = load_project([src])
        model = async_model(project)
        blocked_shorts = {key.split(":", 1)[1]
                          for key in model.blocks}
        assert "MergeCache.invalidate" in blocked_shorts
        assert "FileStore.put" in blocked_shorts
        assert "ThreadExecutor.close" in blocked_shorts
        # The guarded dispatch path stays clean: coroutines are never
        # in the sync blocks table, and the guarded helper routes its
        # callable parameter off the loop (through its nested attempt).
        assert not any(key.endswith("WarehouseService._guarded")
                       for key in model.blocks)
        assert any(key.endswith("WarehouseService._guarded")
                   and fns == {"fn"}
                   for key, fns in model.routes.items())
