"""Tests for repro.analysis: the AST invariant checker itself.

Fixture-driven: each rule gets at least one triggering and one clean
snippet, laid out in a tmp tree that mimics the package layout
(``core/``, ``obs/``, ``rng.py`` ...) so the rules' scoping logic is
exercised for real.  Plus suppression semantics, reporter round-trips,
and framework plumbing (registry, syntax errors, bad paths).
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import (Finding, all_rules, finding_from_dict,
                            parse_json, render_json, render_text,
                            rule, rule_for, run_lint)
from repro.errors import ConfigurationError


def lint_tree(tmp_path, files, *, doc=None, select=None):
    """Write ``{relpath: source}`` under a tmp package root and lint it."""
    root = tmp_path / "pkg"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    contract = None
    if doc is not None:
        contract = tmp_path / "observability.md"
        contract.write_text(textwrap.dedent(doc), encoding="utf-8")
    findings, _ = run_lint([str(root)], contract_doc=contract,
                           select=select)
    return findings


def codes(findings):
    return [f.code for f in findings]


class TestRngDiscipline:
    def test_random_import_outside_rng_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": "import random\n"})
        assert codes(found) == ["RPR001"]

    def test_from_random_import_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {
            "sampling/x.py": "from random import choice\n"})
        assert "RPR001" in codes(found)

    def test_rng_module_itself_may_import_random(self, tmp_path):
        found = lint_tree(tmp_path, {"rng.py": "import random\n"})
        assert found == []

    def test_module_level_draw_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            def pick(xs):
                return random.choice(xs)
            """})
        assert codes(found) == ["RPR002"]

    def test_direct_random_instance_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {
            "warehouse/x.py": "r = random.Random(3)\n"})
        assert codes(found) == ["RPR002"]

    def test_splittable_rng_is_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            from repro.rng import SplittableRng

            def sampler(seed):
                rng = SplittableRng(seed)
                return rng.spawn("part", 0).random()
            """})
        assert found == []

    def test_urandom_flagged_even_in_rng(self, tmp_path):
        found = lint_tree(tmp_path, {
            "rng.py": "import os\nseed = os.urandom(8)\n"})
        assert codes(found) == ["RPR003"]

    def test_secrets_and_numpy_random_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            token = secrets.token_bytes(4)
            draw = np.random.rand()
            """})
        assert codes(found) == ["RPR003", "RPR003"]

    def test_unseeded_random_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"rng.py": """\
            import random
            r = random.Random()
            """})
        assert codes(found) == ["RPR004"]

    def test_clock_seeded_rng_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            from repro.rng import SplittableRng
            import time

            def fresh():
                return SplittableRng(int(time.time()))
            """})
        # The clock read also trips the determinism and timing-discipline
        # rules — all three fire.
        assert sorted(set(codes(found))) == ["RPR004", "RPR011", "RPR081"]

    def test_derived_seed_is_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            from repro.rng import SplittableRng, derive_seed

            def fresh(master):
                return SplittableRng(derive_seed(master, "ds", 3))
            """})
        assert found == []


class TestDeterminism:
    def test_wall_clock_on_sampling_path_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            import time

            def label():
                return time.time()
            """})
        # RPR011 (determinism) and RPR081 (timing discipline) both fire
        # on a wall-clock read inside a sampling package.
        assert codes(found) == ["RPR011", "RPR081"]

    def test_monotonic_clock_not_a_determinism_problem(self, tmp_path):
        # A monotonic read never feeds sampling decisions, so the
        # determinism family stays quiet; only the timing-discipline
        # rule asks it to go through repro.obs.clock.
        found = lint_tree(tmp_path, {"warehouse/x.py": """\
            import time

            def elapsed(t0):
                return time.perf_counter() - t0
            """})
        assert codes(found) == ["RPR081"]

    def test_wall_clock_off_sampling_path_is_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"bench/x.py": """\
            import time

            def stamp():
                return time.time()
            """})
        assert found == []

    def test_builtin_hash_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"stream/x.py": """\
            def route(v, k):
                return hash(v) % k
            """})
        assert codes(found) == ["RPR012"]

    def test_id_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            def key(obj):
                return id(obj)
            """})
        assert codes(found) == ["RPR012"]

    def test_stable_hash_is_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"stream/x.py": """\
            from repro.rng import stable_hash

            def route(v, k):
                return stable_hash(v) % k
            """})
        assert found == []

    def test_set_iteration_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            def walk(values):
                for v in set(values):
                    yield v
            """})
        assert codes(found) == ["RPR013"]

    def test_set_comprehension_source_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"sampling/x.py": """\
            def dedupe(values):
                return [v for v in {1, 2, 3}]
            """})
        assert codes(found) == ["RPR013"]

    def test_sorted_set_iteration_is_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            def walk(values):
                for v in sorted(set(values)):
                    yield v
            """})
        assert found == []


class TestTimingDiscipline:
    def test_perf_counter_outside_clock_packages_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            import time

            def elapsed(t0):
                return time.perf_counter() - t0
            """}, select=["RPR081"])
        assert codes(found) == ["RPR081"]

    def test_module_alias_caught(self, tmp_path):
        found = lint_tree(tmp_path, {"warehouse/x.py": """\
            import time as clock

            def stamp():
                return clock.monotonic_ns()
            """}, select=["RPR081"])
        assert codes(found) == ["RPR081"]

    def test_from_import_rename_caught(self, tmp_path):
        found = lint_tree(tmp_path, {"stream/x.py": """\
            from time import perf_counter as pc

            def elapsed(t0):
                return pc() - t0
            """}, select=["RPR081"])
        assert codes(found) == ["RPR081"]

    def test_bench_and_obs_are_exempt(self, tmp_path):
        found = lint_tree(tmp_path, {
            "bench/x.py": """\
                import time

                def t():
                    return time.perf_counter()
                """,
            "obs/x.py": """\
                from time import monotonic

                def t():
                    return monotonic()
                """}, select=["RPR081"])
        assert found == []

    def test_non_clock_time_functions_are_clean(self, tmp_path):
        # time.sleep and unrelated bare names must not trip the rule.
        found = lint_tree(tmp_path, {"core/x.py": """\
            import time

            def nap(monotonic):
                time.sleep(0.1)
                return monotonic()
            """}, select=["RPR081"])
        assert found == []

    def test_obs_clock_front_is_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"warehouse/x.py": """\
            from repro.obs.clock import monotonic

            def elapsed(t0):
                return monotonic() - t0
            """}, select=["RPR081"])
        assert found == []


_DOC_WITH_FOO = """\
    # Contract

    | name | kind |
    |---|---|
    | `foo.bar` | counter |
    """


class TestObsContract:
    def test_fstring_span_name_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            from repro.obs import span

            def work(i):
                with span(f"work.{i}"):
                    pass
            """})
        assert codes(found) == ["RPR021"]

    def test_variable_metric_name_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"warehouse/x.py": """\
            def bump(reg, name):
                reg.counter(name).inc()
            """})
        assert codes(found) == ["RPR021"]

    def test_literal_names_are_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            from repro.obs import span
            from repro.obs.runtime import OBS

            def work():
                with span("work.step", size=3):
                    OBS.registry.counter("foo.bar").inc()
            """}, doc=_DOC_WITH_FOO + "    | `work.step` | span |\n",
            select=["RPR021", "RPR022"])
        assert found == []

    def test_obs_package_is_exempt(self, tmp_path):
        found = lint_tree(tmp_path, {"obs/metrics.py": """\
            class Registry:
                def bump(self, reg, name):
                    reg.counter(name).inc()
            """})
        assert found == []

    def test_undocumented_emission_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            from repro.obs.runtime import OBS

            def work(reg):
                reg.counter("foo.bar").inc()
                reg.histogram("not.in.doc").observe(1)
            """}, doc=_DOC_WITH_FOO, select=["RPR022"])
        assert codes(found) == ["RPR022"]
        assert "not.in.doc" in found[0].message

    def test_ghost_doc_row_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {
            "obs/__init__.py": "",
            "core/x.py": """\
            def work(reg):
                reg.counter("foo.bar").inc()
            """}, doc=_DOC_WITH_FOO + "    | `ghost.name` | gauge |\n",
            select=["RPR023"])
        assert codes(found) == ["RPR023"]
        assert "ghost.name" in found[0].message
        assert found[0].path.endswith("observability.md")

    def test_ghost_rows_need_obs_in_view(self, tmp_path):
        # A partial run without the obs implementation (e.g. linting
        # only tests/) must not flag every contract row as a ghost.
        found = lint_tree(tmp_path, {"core/x.py": """\
            def work(reg):
                reg.counter("foo.bar").inc()
            """}, doc=_DOC_WITH_FOO + "    | `ghost.name` | gauge |\n",
            select=["RPR023"])
        assert found == []

    def test_traced_timer_keyword_is_resolved(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            from repro.obs import traced

            @traced("merge.x", timer="merge.x.seconds")
            def merge():
                pass
            """}, doc="""\
            | `merge.x` | span |
            | `merge.x.seconds` | timer |
            """, select=["RPR022", "RPR023"])
        assert found == []

    def test_no_doc_skips_contract_rules(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            def work(reg):
                reg.counter("undocumented.name").inc()
            """}, select=["RPR022", "RPR023"])
        assert found == []


class TestErrorDiscipline:
    def test_bare_valueerror_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"analytics/x.py": """\
            def check(p):
                if p < 0:
                    raise ValueError(f"bad {p}")
            """})
        assert codes(found) == ["RPR031"]

    def test_uncalled_builtin_raise_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            def boom():
                raise RuntimeError
            """})
        assert codes(found) == ["RPR031"]

    def test_repro_error_is_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            from repro.errors import ConfigurationError

            def check(p):
                if p < 0:
                    raise ConfigurationError(f"bad {p}")
            """})
        assert found == []

    def test_protocol_builtins_allowlisted(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            class Seq:
                def __getitem__(self, i):
                    if i >= 0:
                        raise IndexError(i)
                    raise NotImplementedError
            """})
        assert found == []

    def test_reraise_and_variable_raise_are_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            def relay(exc):
                try:
                    raise exc
                except Exception:
                    raise
            """})
        assert found == []


_LOCKED_CLASS = """\
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self._value = 0

        def inc(self):
            with self._lock:
                self._value += 1
    """


class TestLockDiscipline:
    def test_unlocked_augassign_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"obs/x.py": """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._value = 0

                def inc(self):
                    self._value += 1
            """})
        assert codes(found) == ["RPR041"]

    def test_locked_mutation_is_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"obs/x.py": _LOCKED_CLASS})
        assert found == []

    def test_unlocked_attribute_write_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"obs/x.py": """\
            import threading

            class Gauge:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._value = None

                def set(self, value):
                    self._value = float(value)
            """})
        assert codes(found) == ["RPR041"]

    def test_unlocked_container_mutation_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"obs/x.py": """\
            import threading

            class Sink:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._spans = []

                def emit(self, span):
                    self._spans.append(span)
            """})
        assert codes(found) == ["RPR041"]

    def test_lockless_class_is_exempt(self, tmp_path):
        found = lint_tree(tmp_path, {"obs/x.py": """\
            class Timer:
                def __init__(self):
                    self._t0 = 0.0

                def start(self, now):
                    self._t0 = now
            """})
        assert found == []

    def test_any_package_is_covered(self, tmp_path):
        # RPR041 is project-wide: any class claiming the self._lock
        # convention is held to it, wherever it lives.
        found = lint_tree(tmp_path, {"core/x.py": """\
            import threading

            class State:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    self._n += 1
            """})
        assert codes(found) == ["RPR041"]

    def test_unlocked_delete_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"warehouse/x.py": """\
            import threading

            class Index:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def drop(self, key):
                    del self._entries[key]
            """})
        assert codes(found) == ["RPR041"]

    def test_test_modules_are_exempt(self, tmp_path):
        found = lint_tree(tmp_path, {"tests/helper.py": """\
            import threading

            class FakeStore:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    self._n += 1
            """})
        assert found == []


class TestPvalueDiscipline:
    def test_direct_producer_threshold_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"tests/test_x.py": """\
            def test_uniform(rng):
                assert inclusion_frequency_test(fn, pop, 100, rng) > 1e-4
            """})
        assert codes(found) == ["RPR051"]

    def test_tainted_name_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"tests/test_x.py": """\
            def test_uniform(rng):
                score = subset_frequency_test(fn, pop, 2, 100, rng)
                assert score > 1e-4
            """})
        assert codes(found) == ["RPR051"]

    def test_tuple_unpack_tainted(self, tmp_path):
        found = lint_tree(tmp_path, {"tests/test_x.py": """\
            def test_gof(draws):
                stat, out = scipy_stats.kstest(draws, cdf)
                assert out > 1e-4
            """})
        assert codes(found) == ["RPR051"]

    def test_annotated_assignment_tainted(self, tmp_path):
        found = lint_tree(tmp_path, {"tests/test_x.py": """\
            def test_fit(draws):
                score: float = chi_square_pvalue(draws, expected)
                assert score > 1e-4
            """})
        assert codes(found) == ["RPR051"]

    def test_walrus_assignment_tainted(self, tmp_path):
        found = lint_tree(tmp_path, {"tests/test_x.py": """\
            def test_fit(draws):
                if (score := chi_square_pvalue(draws, expected)) < 1:
                    assert score > 1e-4
            """})
        assert codes(found) == ["RPR051"]

    def test_pvalue_spelling_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"tests/test_x.py": """\
            def test_fit(pval):
                assert pval > 1e-4
            """})
        assert codes(found) == ["RPR051"]

    def test_local_chi_square_wrapper_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"tests/test_x.py": """\
            def chi_square_vs_exact(draws):
                return 0.5

            def test_fit(draws):
                assert chi_square_vs_exact(draws) > 1e-4
            """})
        assert codes(found) == ["RPR051"]

    def test_sweep_result_is_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"tests/test_x.py": """\
            def test_uniform(rng):
                result = sweep(check, rng=rng, seeds=3, alpha=1e-4)
                assert result.accepted, result.describe()
            """})
        assert found == []

    def test_equality_comparison_is_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"tests/test_x.py": """\
            def test_machinery():
                assert chi_square_pvalue([10.0], [10.0]) == 1.0
            """})
        assert found == []

    def test_non_test_module_is_exempt(self, tmp_path):
        found = lint_tree(tmp_path, {"stats/helpers.py": """\
            def gate(pval):
                assert pval > 1e-4
            """})
        assert found == []


class TestKernelDiscipline:
    def test_loop_draw_in_vectorized_backend_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"kernels/numpy_backend.py": """\
            def binomial_counts(counts, q, rng):
                out = []
                for n in counts:
                    out.append(rng.binomial(n, q))
                return out
            """})
        assert codes(found) == ["RPR091"]

    def test_comprehension_draw_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"kernels/numpy_backend.py": """\
            def binomial_counts(counts, q, rng):
                return [rng.binomial(n, q) for n in counts]
            """})
        assert codes(found) == ["RPR091"]

    def test_nested_loops_flag_each_draw_once(self, tmp_path):
        found = lint_tree(tmp_path, {"kernels/numpy_backend.py": """\
            def draw_grid(rows, cols, q, rng):
                out = []
                for _ in range(rows):
                    for _ in range(cols):
                        out.append(rng.binomial(1, q))
                return out
            """})
        assert codes(found) == ["RPR091"]

    def test_reference_backend_is_exempt(self, tmp_path):
        found = lint_tree(tmp_path, {"kernels/python.py": """\
            def binomial_counts(counts, q, rng):
                return [rng.binomial(n, q) for n in counts]
            """})
        assert found == []

    def test_batched_generator_call_is_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"kernels/numpy_backend.py": """\
            def binomial_counts(counts, q, rng):
                gen = _generator(rng)
                return gen.binomial(_np.asarray(counts), q).tolist()
            """})
        assert found == []

    def test_loop_draw_outside_kernels_not_rpr091(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            def binomial_counts(counts, q, rng):
                return [rng.binomial(n, q) for n in counts]
            """})
        assert "RPR091" not in codes(found)

    def test_seeded_numpy_generator_is_clean(self, tmp_path):
        # The RPR003 exemption the numpy backend rides on: explicitly
        # seeded generator construction is deterministic.
        found = lint_tree(tmp_path, {"kernels/numpy_backend.py": """\
            def _generator(rng):
                return np.random.Generator(np.random.PCG64(rng.seed_value))
            """})
        assert found == []

    def test_unseeded_numpy_generator_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"kernels/numpy_backend.py": """\
            def _generator():
                return np.random.default_rng()
            """})
        assert codes(found) == ["RPR003"]


class TestLayering:
    def test_module_level_upward_import_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            from repro.analytics.estimators import Estimate
            """}, select=["RPR121"])
        assert codes(found) == ["RPR121"]
        assert found[0].line == 1

    def test_function_local_upward_import_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"warehouse/x.py": """\
            def stratified():
                import repro.analytics.aqp as aqp
                return aqp
            """}, select=["RPR121"])
        assert codes(found) == ["RPR121"]
        assert found[0].line == 2

    def test_relative_and_root_imports_resolve(self, tmp_path):
        found = lint_tree(tmp_path, {
            "sampling/x.py": "from ..kernels import python\n",
            "errors.py": "from repro import rng\n",
        }, select=["RPR121"])
        assert codes(found) == ["RPR121", "RPR121"]

    def test_lone_file_keeps_its_package_scope(self, tmp_path):
        files = {"repro/__init__.py": "", "repro/core/__init__.py": "",
                 "repro/core/x.py":
                     "from repro.analytics.estimators import Estimate\n"}
        tree = lint_tree(tmp_path, files, select=["RPR121"])
        lone, _ = run_lint([str(tmp_path / "pkg/repro/core/x.py")],
                           contract_doc=None, select=["RPR121"])
        assert codes(tree) == codes(lone) == ["RPR121"]
        assert lone[0].line == tree[0].line == 1

    def test_downward_and_same_layer_imports_clean(self, tmp_path):
        found = lint_tree(tmp_path, {
            "kernels/python.py": "from repro.sampling.skip import x\n",
            "core/x.py": ("from repro.core.sample import WarehouseSample\n"
                          "from . import merge\n"),
            "serve/app.py": "from repro.analytics.aqp import Engine\n",
        }, select=["RPR121"])
        assert found == []

    def test_packages_outside_the_table_are_exempt(self, tmp_path):
        found = lint_tree(tmp_path, {
            "obs/metrics.py": "from repro.bench.ascii_chart import bar\n",
            "testkit/x.py": "from repro.serve.app import Service\n",
            "rng.py": "from repro.obs.runtime import OBS\n",
        }, select=["RPR121"])
        assert found == []


#: Trimmed from the merge path's per-process alias-table cache, which
#: the one-step merge retired: the write happens two modules down,
#: behind the kernel API's run-time dispatch.
_NODE_CACHE_TREE = {
    "sampling/distributions.py": """\
        import threading

        class CachedHypergeometric:
            def __init__(self):
                self._tables = {}
                self._lock = threading.Lock()

            def sample(self, n1, n2, k, rng):
                key = (n1, n2, k)
                table = self._tables.get(key)
                if table is None:
                    built = (n1, n2, k)
                    with self._lock:
                        table = self._tables.setdefault(key, built)
                return table
        """,
    "kernels/python.py": """\
        from repro.sampling.distributions import sample_hypergeometric

        def draw_hypergeometric(n1, n2, k, rng, *, cache=None,
                                method="inversion"):
            if cache is not None:
                return cache.sample(n1, n2, k, rng)
            return sample_hypergeometric(n1, n2, k, rng, method=method)
        """,
    "kernels/__init__.py": """\
        import importlib
        import os
        import threading

        _BACKEND_MODULES = {"python": "repro.kernels.python"}
        _LOCK = threading.Lock()
        _ACTIVE_NAME = ""
        _ACTIVE_MODULE = None

        def set_backend(name):
            global _ACTIVE_NAME, _ACTIVE_MODULE
            module = importlib.import_module(_BACKEND_MODULES[name])
            with _LOCK:
                _ACTIVE_NAME = name
                _ACTIVE_MODULE = module
                os.environ["REPRO_KERNEL_BACKEND"] = name
            return name

        def _backend():
            return _ACTIVE_MODULE

        def draw_hypergeometric(n1, n2, k, rng, *, cache=None,
                                method="inversion"):
            return _backend().draw_hypergeometric(n1, n2, k, rng,
                                                  cache=cache,
                                                  method=method)
        """,
    "core/merge.py": """\
        from repro.kernels import draw_hypergeometric
        from repro.sampling.distributions import CachedHypergeometric

        def hr_merge(s1, s2, *, rng, cache=None):
            return draw_hypergeometric(s1, s2, 1, rng, cache=cache)

        def merge_samples(s1, s2, *, rng, hyper_cache=None):
            return hr_merge(s1, s2, rng=rng, cache=hyper_cache)

        _NODE_CACHE = CachedHypergeometric()

        def merge_tree(samples, *, rng):
            return merge_samples(samples[0], samples[1], rng=rng,
                                 hyper_cache=_NODE_CACHE)
        """,
}

#: Trimmed from the numpy backend's per-process cdf cache.
_CDF_CACHE_MODULE = """\
    import threading
    from typing import Dict, Tuple

    _CDF_CACHE: Dict[Tuple[int, int, int], object] = {}
    _CDF_LOCK = threading.Lock()

    def _cdf(n1, n2, k):
        key = (n1, n2, k)
        cdf = _CDF_CACHE.get(key)
        if cdf is None:
            built = (n1, n2, k)
            with _CDF_LOCK:
                cdf = _CDF_CACHE.setdefault(key, built)
        return cdf

    def draw_hypergeometric(n1, n2, k, rng):
        return _cdf(n1, n2, k)
    """


class TestModuleStateWrite:
    def test_node_cache_flagged_through_the_kernel_dispatch(self, tmp_path):
        found = lint_tree(tmp_path, _NODE_CACHE_TREE, select=["RPR122"])
        assert codes(found) == ["RPR122"]
        assert found[0].path.endswith("core/merge.py")
        assert found[0].line == 10
        message = found[0].message
        assert "`_NODE_CACHE`" in message
        assert ("core.merge.merge_tree(_NODE_CACHE) -> "
                "core.merge.merge_samples(hyper_cache) -> "
                "core.merge.hr_merge(cache) -> "
                "kernels.draw_hypergeometric(cache) -> a call dispatched "
                "at run time") in message

    def test_cdf_cache_flagged_and_its_lock_exempt(self, tmp_path):
        found = lint_tree(tmp_path, {
            "kernels/numpy_backend.py": _CDF_CACHE_MODULE},
            select=["RPR122"])
        assert codes(found) == ["RPR122"]
        assert found[0].line == 4
        assert "`_CDF_CACHE`" in found[0].message
        assert "_cdf(_CDF_CACHE) -> .setdefault() (line 13)" \
            in found[0].message

    def test_backend_switch_and_per_call_tables_clean(self, tmp_path):
        files = dict(_NODE_CACHE_TREE)
        files["core/merge.py"] = """\
            from repro.kernels import draw_hypergeometric

            def merge_tree(samples, *, rng):
                return draw_hypergeometric(samples[0], samples[1], 1, rng)
            """
        files["kernels/numpy_backend.py"] = """\
            def _cdf(n1, n2, k):
                return (n1, n2, k)

            def draw_hypergeometric(n1, n2, k, rng):
                return _cdf(n1, n2, k)
            """
        assert lint_tree(tmp_path, files, select=["RPR122"]) == []

    def test_method_call_on_a_module_object_flagged(self, tmp_path):
        files = {k: v for k, v in _NODE_CACHE_TREE.items()
                 if k.startswith("sampling/")}
        files["core/memo.py"] = """\
            from repro.sampling.distributions import CachedHypergeometric

            _TABLES = CachedHypergeometric()

            def draw(n1, n2, k, rng):
                return _TABLES.sample(n1, n2, k, rng)
            """
        found = lint_tree(tmp_path, files, select=["RPR122"])
        assert codes(found) == ["RPR122"]
        assert ("core.memo.draw(_TABLES) -> sampling.distributions."
                "CachedHypergeometric.sample(self) -> .setdefault()") \
            in found[0].message

    def test_read_only_state_and_other_layers_clean(self, tmp_path):
        found = lint_tree(tmp_path, {
            "core/names.py": """\
                _KINDS = {"hb": 1, "hr": 2}

                def kind(name):
                    return _KINDS.get(name), sorted(_KINDS)
                """,
            "warehouse/memo.py": """\
                _MEMO = {}

                def remember(key, value):
                    _MEMO[key] = value
                """,
        }, select=["RPR122"])
        assert found == []


class TestSuppressions:
    def test_noqa_with_code_suppresses(self, tmp_path):
        found = lint_tree(tmp_path, {
            "core/x.py":
                "import random  # repro: noqa[RPR001]\n"})
        assert found == []

    def test_bare_noqa_suppresses_everything(self, tmp_path):
        found = lint_tree(tmp_path, {
            "core/x.py": "import random  # repro: noqa\n"})
        assert found == []

    def test_wrong_code_does_not_suppress(self, tmp_path):
        found = lint_tree(tmp_path, {
            "core/x.py":
                "import random  # repro: noqa[RPR011]\n"})
        assert codes(found) == ["RPR001"]

    def test_noqa_is_line_scoped(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            import random  # repro: noqa[RPR001]

            def pick(xs):
                return random.choice(xs)
            """})
        assert codes(found) == ["RPR002"]

    def test_noqa_anywhere_in_multiline_statement(self, tmp_path):
        # The statement spans three physical lines; the noqa sits on
        # the *last* one but the finding anchors on the first.  Any
        # physical line of the statement must suppress the whole
        # statement.
        found = lint_tree(tmp_path, {"core/x.py": """\
            import random

            xs = random.choice(
                [1, 2,
                 3])  # repro: noqa[RPR002]
            """})
        assert codes(found) == ["RPR001"]

    def test_noqa_on_first_line_covers_continuation(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": """\
            import random

            xs = random.choice(  # repro: noqa[RPR002]
                [1, 2,
                 3])
            """})
        assert codes(found) == ["RPR001"]

    def test_multiline_noqa_does_not_leak_to_neighbors(self, tmp_path):
        # Suppression stops at the statement boundary: the second
        # choice() call on the following statement still fires.
        found = lint_tree(tmp_path, {"core/x.py": """\
            import random  # repro: noqa[RPR001]

            xs = random.choice(
                [1, 2])  # repro: noqa[RPR002]
            ys = random.choice([3, 4])
            """})
        assert codes(found) == ["RPR002"]


class TestSelection:
    SOURCE = {"core/x.py": "import random\nbad = hash(3)\n"}

    def test_comma_separated_tokens(self, tmp_path):
        found = lint_tree(tmp_path, self.SOURCE,
                          select=["RPR001,RPR012"])
        assert codes(found) == ["RPR001", "RPR012"]

    def test_family_prefix_expands(self, tmp_path):
        found = lint_tree(tmp_path, self.SOURCE, select=["RPR01x"])
        assert codes(found) == ["RPR012"]

    def test_family_prefix_is_case_insensitive(self, tmp_path):
        found = lint_tree(tmp_path, self.SOURCE, select=["rpr01X"])
        assert codes(found) == ["RPR012"]

    def test_unknown_code_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="RPR999"):
            lint_tree(tmp_path, self.SOURCE, select=["RPR999"])

    def test_empty_family_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="RPR90X"):
            lint_tree(tmp_path, self.SOURCE, select=["RPR90x"])

    def test_expand_select_mixes_codes_and_families(self):
        from repro.analysis import expand_select

        got = expand_select(["RPR061", "RPR07x"])
        assert got == {"RPR061", "RPR071", "RPR072"}

    def test_expand_select_none_passthrough(self):
        from repro.analysis import expand_select

        assert expand_select(None) is None


class TestReporters:
    def _sample_findings(self, tmp_path):
        return lint_tree(tmp_path, {
            "core/x.py": "import random\nbad = hash(3)\n"})

    def test_text_report_lines(self, tmp_path):
        found = self._sample_findings(tmp_path)
        text = render_text(found, checked_files=1)
        assert "RPR001" in text and "RPR012" in text
        assert "2 finding(s) in 1 file(s)" in text

    def test_clean_text_report(self):
        assert render_text([], checked_files=4) == "ok: 4 file(s) clean"

    def test_json_round_trip(self, tmp_path):
        found = self._sample_findings(tmp_path)
        payload = render_json(found, checked_files=1)
        assert parse_json(payload) == found
        data = json.loads(payload)
        assert data["checked_files"] == 1
        assert data["counts"] == {"RPR001": 1, "RPR012": 1}

    def test_finding_dict_round_trip(self):
        f = Finding(path="a.py", line=3, col=7, code="RPR001",
                    message="msg")
        assert finding_from_dict(f.to_dict()) == f


class TestFramework:
    def test_syntax_error_becomes_finding(self, tmp_path):
        found = lint_tree(tmp_path, {"core/x.py": "def broken(:\n"})
        assert codes(found) == ["RPR000"]

    def test_missing_path_raises(self):
        with pytest.raises(ConfigurationError):
            run_lint(["/no/such/dir/anywhere"])

    def test_select_restricts_rules(self, tmp_path):
        found = lint_tree(tmp_path, {
            "core/x.py": "import random\nbad = hash(3)\n"},
            select=["RPR012"])
        assert codes(found) == ["RPR012"]

    def test_rule_for_unknown_code_raises(self):
        with pytest.raises(ConfigurationError):
            rule_for("RPR999")

    def test_duplicate_code_rejected(self):
        existing = all_rules()[0]
        with pytest.raises(ConfigurationError):
            rule(existing.code, "dup", "duplicate")(lambda sf: iter(()))

    def test_bad_code_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            rule("XX1", "bad", "bad code shape")(lambda sf: iter(()))

    def test_findings_are_sorted(self, tmp_path):
        found = lint_tree(tmp_path, {
            "core/b.py": "import random\n",
            "core/a.py": "import random\n"})
        assert [f.path for f in found] == sorted(f.path for f in found)
