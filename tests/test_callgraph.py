"""Unit tests for the interprocedural layer: the ``callgraph``
module summaries and the :class:`~repro.analysis.dataflow.CallGraph`
fixpoint built from them.

These tests drive the engine directly (no rules): write a small
package tree, load it, and assert on defs, resolved edges, propagated
effect sets, and rendered witness chains.  The rule-level behavior
(RPR06x/RPR07x findings) lives in ``test_interprocedural_rules.py``.
"""

from __future__ import annotations

import json
import textwrap

from repro.analysis import analyze_project, load_project
from repro.analysis.dataflow import (FILESYSTEM, GLOBAL_RNG,
                                     SHARED_MUTATION, WALL_CLOCK)


def make_project(tmp_path, files):
    root = tmp_path / "pkg"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return load_project([str(root)])


def graph_of(tmp_path, files):
    return analyze_project(make_project(tmp_path, files))


class TestModuleSummary:
    def test_summary_is_pure_json(self, tmp_path):
        project = make_project(tmp_path, {"core/x.py": """\
            import time

            class Box:
                def __init__(self, rng):
                    self._rng = rng

                def stamp(self):
                    return time.time()
            """})
        (sf,) = project.files
        summ = sf.summary("callgraph")
        # Round-trips through JSON unchanged — the cache requirement.
        assert json.loads(json.dumps(summ)) == summ
        assert summ["module"] == "core.x"
        assert set(summ["functions"]) == {"Box.__init__", "Box.stamp"}
        init = summ["functions"]["Box.__init__"]
        assert init["cls"] == "Box"
        assert init["rng_params"] == ["rng"]

    def test_package_init_takes_package_id(self, tmp_path):
        project = make_project(tmp_path, {
            "core/__init__.py": "def top():\n    return 1\n"})
        (sf,) = project.files
        assert sf.summary("callgraph")["module"] == "core"

    def test_nested_defs_use_locals_spelling(self, tmp_path):
        project = make_project(tmp_path, {"core/x.py": """\
            def outer():
                def inner():
                    return 2
                return inner()
            """})
        (sf,) = project.files
        summ = sf.summary("callgraph")
        assert set(summ["functions"]) == {"outer", "outer.<locals>.inner"}
        assert summ["functions"]["outer.<locals>.inner"]["nested"]


class TestCallEdges:
    def test_cross_module_edge_via_from_import(self, tmp_path):
        graph = graph_of(tmp_path, {
            "core/a.py": """\
                from repro.core.b import helper

                def entry():
                    return helper()
                """,
            "core/b.py": "def helper():\n    return 1\n",
        })
        assert graph._edges["core.a:entry"] == [("core.b:helper", 4)]

    def test_relative_import_edge(self, tmp_path):
        graph = graph_of(tmp_path, {
            "core/__init__.py": "",
            "core/a.py": """\
                from .b import helper

                def entry():
                    return helper()
                """,
            "core/b.py": "def helper():\n    return 1\n",
        })
        assert graph._edges["core.a:entry"] == [("core.b:helper", 4)]

    def test_package_reexport_is_followed(self, tmp_path):
        graph = graph_of(tmp_path, {
            "core/__init__.py": "from repro.core.b import helper\n",
            "core/b.py": "def helper():\n    return 1\n",
            "warehouse/x.py": """\
                from repro.core import helper

                def entry():
                    return helper()
                """,
        })
        assert graph._edges["warehouse.x:entry"] == [("core.b:helper", 4)]

    def test_self_method_dispatch(self, tmp_path):
        graph = graph_of(tmp_path, {"core/x.py": """\
            class Sampler:
                def feed(self, v):
                    return self._accept(v)

                def _accept(self, v):
                    return v
            """})
        assert graph._edges["core.x:Sampler.feed"] == \
            [("core.x:Sampler._accept", 3)]

    def test_class_call_resolves_to_init(self, tmp_path):
        graph = graph_of(tmp_path, {
            "core/a.py": """\
                from repro.core.b import Sampler

                def make():
                    return Sampler(3)
                """,
            "core/b.py": """\
                class Sampler:
                    def __init__(self, n):
                        self._n = n
                """,
        })
        assert graph._edges["core.a:make"] == \
            [("core.b:Sampler.__init__", 4)]

    def test_dotted_module_alias_call(self, tmp_path):
        graph = graph_of(tmp_path, {
            "core/a.py": """\
                import repro.core.b as cb

                def entry():
                    return cb.helper()
                """,
            "core/b.py": "def helper():\n    return 1\n",
        })
        assert graph._edges["core.a:entry"] == [("core.b:helper", 4)]


class TestEffectPropagation:
    FILES = {
        "core/entry.py": """\
            from repro.util.mid import route

            def ingest(values):
                return route(values)
            """,
        "util/mid.py": """\
            from repro.util.leaf import stamp

            def route(values):
                return stamp(), values
            """,
        "util/leaf.py": """\
            import time

            def stamp():
                return time.time()
            """,
    }

    def test_transitive_effect_reaches_entry(self, tmp_path):
        graph = graph_of(tmp_path, self.FILES)
        assert WALL_CLOCK in graph.effects["core.entry:ingest"]
        assert WALL_CLOCK in graph.effects["util.mid:route"]
        witness = graph.effects["core.entry:ingest"][WALL_CLOCK]
        assert witness[0] == "via" and witness[1] == "util.mid:route"

    def test_chain_renders_every_hop(self, tmp_path):
        graph = graph_of(tmp_path, self.FILES)
        chain = graph.chain("core.entry:ingest", WALL_CLOCK)
        assert "core.entry.ingest" in chain
        assert "route" in chain and "stamp" in chain
        assert chain.endswith("time.time() (line 4)")

    def test_local_effect_has_local_witness(self, tmp_path):
        graph = graph_of(tmp_path, self.FILES)
        witness = graph.effects["util.leaf:stamp"][WALL_CLOCK]
        assert witness == ["local", "time.time()", 4]

    def test_recursion_reaches_fixpoint(self, tmp_path):
        graph = graph_of(tmp_path, {"core/x.py": """\
            import time

            def ping(n):
                return pong(n - 1) if n else time.time()

            def pong(n):
                return ping(n)
            """})
        assert WALL_CLOCK in graph.effects["core.x:ping"]
        assert WALL_CLOCK in graph.effects["core.x:pong"]
        # Chain rendering terminates despite the cycle.
        assert graph.chain("core.x:pong", WALL_CLOCK)

    def test_shared_mutation_of_module_state(self, tmp_path):
        graph = graph_of(tmp_path, {"core/x.py": """\
            _CACHE = {}

            def remember(k, v):
                _CACHE[k] = v
            """})
        assert SHARED_MUTATION in graph.effects["core.x:remember"]

    def test_global_rng_effect_respects_alias(self, tmp_path):
        graph = graph_of(tmp_path, {"core/x.py": """\
            import random as rnd

            def draw():
                return rnd.random()
            """})
        assert GLOBAL_RNG in graph.effects["core.x:draw"]

    def test_rng_py_is_exempt_from_global_rng(self, tmp_path):
        graph = graph_of(tmp_path, {"rng.py": """\
            import random

            def seed_master(s):
                random.seed(s)
            """})
        assert GLOBAL_RNG not in graph.effects["rng:seed_master"]

    def test_filesystem_effect(self, tmp_path):
        graph = graph_of(tmp_path, {"core/x.py": """\
            def load(path):
                with open(path) as f:
                    return f.read()
            """})
        assert FILESYSTEM in graph.effects["core.x:load"]


class TestDeterminism:
    def test_graph_is_stable_under_summary_roundtrip(self, tmp_path):
        from repro.analysis.dataflow import CallGraph

        project = make_project(tmp_path, dict(TestEffectPropagation.FILES))
        summaries = [sf.summary("callgraph") for sf in project.files]
        rt = json.loads(json.dumps(summaries))
        direct = CallGraph(summaries)
        round_tripped = CallGraph(rt)
        assert direct.effects == round_tripped.effects
        assert direct._edges == round_tripped._edges
