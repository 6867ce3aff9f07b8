"""Per-rule fixture tests: each rule fires on a seeded violation and stays
silent on a compliant twin of the same shape.

Fixtures are written under ``tmp_path`` at repo-like relative paths
(``repro/flat/flattree.py`` etc.) so the suffix-based module matching in
:class:`tools.reprolint.core.LintConfig` applies exactly as it does on
the real tree.
"""

import textwrap

import pytest

from tools.reprolint.core import CacheContract, Finding, make_config, run_paths


def lint(tmp_path, rel, source, config=None):
    """Write ``source`` at ``tmp_path/rel`` and lint the tmp tree."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_paths([tmp_path], config=config or make_config(repo_root=tmp_path))


def rules_fired(result):
    """The set of rule ids among new findings."""
    return {finding.rule for finding in result.findings}


# ----------------------------------------------------------------------
# RL001 kernel purity
# ----------------------------------------------------------------------
class TestKernelPurity:
    def test_fires_on_node_loop_in_kernel_function(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/flattree.py",
            """
            def solve(parent, n):
                total = 0.0
                for i in range(n):
                    total += parent[i]
                return total
            """,
        )
        assert "RL001" in rules_fired(result)

    def test_fires_on_while_loop_in_kernel_function(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/parallel/engine.py",
            """
            def _solve_range(levels):
                i = 0
                while i < 10:
                    i += 1
            """,
        )
        assert "RL001" in rules_fired(result)

    def test_silent_on_level_sweep_loop(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/scenarios.py",
            """
            def sweep_scenarios(levels, parent):
                for level in levels[1:]:
                    parent[level] = 0
            """,
        )
        assert "RL001" not in rules_fired(result)

    def test_silent_on_loop_in_compile_path(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/flattree.py",
            """
            def from_tree(nodes):
                for node in nodes:
                    node.visit()
            """,
        )
        assert "RL001" not in rules_fired(result)

    def test_silent_outside_kernel_modules(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/graph/designdb.py",
            """
            def solve(items):
                for item in items:
                    item.run()
            """,
        )
        assert "RL001" not in rules_fired(result)


# ----------------------------------------------------------------------
# RL002 dtype discipline
# ----------------------------------------------------------------------
class TestDtypeDiscipline:
    def test_fires_on_dtypeless_allocation(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/forest.py",
            """
            import numpy as np

            def build(n):
                return np.empty(n)
            """,
        )
        assert "RL002" in rules_fired(result)

    def test_fires_on_tolist_in_kernel_function(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/parallel/engine.py",
            """
            def _solve_serial(plane):
                return plane.tolist()
            """,
        )
        assert "RL002" in rules_fired(result)

    def test_fires_on_float_scalarization_in_kernel_function(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/flattree.py",
            """
            def solve(plane):
                return float(plane[0])
            """,
        )
        assert "RL002" in rules_fired(result)

    def test_silent_with_explicit_dtype_and_like_allocators(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/forest.py",
            """
            import numpy as np

            def build(n, template):
                a = np.zeros(n, dtype=np.float64)
                b = np.zeros_like(template)
                return a, b
            """,
        )
        assert "RL002" not in rules_fired(result)

    def test_silent_on_tolist_outside_kernel_functions(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/forest.py",
            """
            def summarize(plane):
                return plane.tolist()
            """,
        )
        assert "RL002" not in rules_fired(result)

    def test_silent_outside_kernel_modules(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/graph/timinggraph.py",
            """
            import numpy as np

            def build(n):
                return np.empty(n)
            """,
        )
        assert "RL002" not in rules_fired(result)


# ----------------------------------------------------------------------
# RL004 cache invalidation
# ----------------------------------------------------------------------
CONTRACT = CacheContract(
    module_suffix="repro/flat/cachy.py",
    class_name="Cachy",
    attrs=("_plane",),
    caches=("_times",),
    invalidators=("_rebucket",),
    exempt_methods=("_builder",),
)


def lint_contract(tmp_path, source):
    config = make_config(repo_root=tmp_path, contracts=(CONTRACT,))
    return lint(tmp_path, "repro/flat/cachy.py", source, config=config)


class TestCacheInvalidation:
    def test_fires_on_plain_assignment_without_invalidation(self, tmp_path):
        result = lint_contract(
            tmp_path,
            """
            class Cachy:
                def mutate(self, value):
                    self._plane = value
            """,
        )
        assert "RL004" in rules_fired(result)

    def test_fires_on_subscript_assignment_without_invalidation(self, tmp_path):
        result = lint_contract(
            tmp_path,
            """
            class Cachy:
                def mutate(self, i, value):
                    self._plane[i] = value
            """,
        )
        assert "RL004" in rules_fired(result)

    def test_silent_when_cache_cleared(self, tmp_path):
        result = lint_contract(
            tmp_path,
            """
            class Cachy:
                def mutate(self, value):
                    self._plane = value
                    self._times = None
            """,
        )
        assert "RL004" not in rules_fired(result)

    def test_silent_when_invalidator_called(self, tmp_path):
        result = lint_contract(
            tmp_path,
            """
            class Cachy:
                def mutate(self, i, value):
                    self._plane[i] = value
                    self._rebucket()
            """,
        )
        assert "RL004" not in rules_fired(result)

    def test_init_and_exempt_methods_are_skipped(self, tmp_path):
        result = lint_contract(
            tmp_path,
            """
            class Cachy:
                def __init__(self):
                    self._plane = None
                    self._times = None

                def _builder(self, value):
                    self._plane = value

                def _rebucket(self):
                    self._plane = self._plane
            """,
        )
        assert "RL004" not in rules_fired(result)


def lint_designdb(tmp_path, body):
    """Lint ``body`` as a ``DesignDB`` method under the shipped RL004 table."""
    source = "class DesignDB:\n" + textwrap.indent(textwrap.dedent(body), "    ")
    return lint(tmp_path, "repro/graph/designdb.py", source)


class TestDesignDBContract:
    """The shipped ``DesignDB`` row: models change only through a recompile."""

    def test_fires_on_model_write_without_recompile(self, tmp_path):
        result = lint_designdb(
            tmp_path,
            """
            def set_model(self, net, model):
                self._models[net] = model
            """,
        )
        assert "RL004" in rules_fired(result)

    def test_dropping_the_old_layout_cache_no_longer_counts(self, tmp_path):
        result = lint_designdb(
            tmp_path,
            """
            def set_model(self, net, model):
                self._models[net] = model
                self._scenario_layout_cache = None
            """,
        )
        assert "RL004" in rules_fired(result)

    def test_fires_on_lazy_layout_rebuild(self, tmp_path):
        result = lint_designdb(
            tmp_path,
            """
            def _scenario_layout(self):
                self._layout = self._rebuild_layout()
                return self._layout
            """,
        )
        assert "RL004" in rules_fired(result)

    def test_silent_when_the_stage_is_recompiled(self, tmp_path):
        result = lint_designdb(
            tmp_path,
            """
            def update_net(self, net, model):
                self._models[net] = model
                self._recompile([self._entries[net]])

            def _recompile(self, entries):
                for entry in entries:
                    self._pending[entry.tree_index] = entry

            def _compile(self):
                self._layout = None
            """,
        )
        assert "RL004" not in rules_fired(result)


def lint_flattree(tmp_path, body):
    """Lint ``body`` as a ``FlatTree`` method under the shipped RL004 table."""
    source = "class FlatTree:\n" + textwrap.indent(textwrap.dedent(body), "    ")
    return lint(tmp_path, "repro/flat/flattree.py", source)


class TestFlatTreeContract:
    """The shipped ``FlatTree`` row: the compiled arrays are never edited."""

    def test_fires_on_edit_even_when_the_solve_cache_is_dropped(self, tmp_path):
        result = lint_flattree(
            tmp_path,
            """
            def set_node_capacitance(self, i, c):
                self._node_c[i] = c
                self._times = None
            """,
        )
        messages = [f.message for f in result.findings if f.rule == "RL004"]
        assert messages and "immutable" in messages[0]

    def test_silent_in_init(self, tmp_path):
        result = lint_flattree(
            tmp_path,
            """
            def __init__(self, parent, edge_r, edge_c, node_c, is_output):
                self._parent = parent
                self._edge_r = edge_r
                self._edge_c = edge_c
                self._node_c = node_c
                self._is_output = is_output
                self._times = None
            """,
        )
        assert "RL004" not in rules_fired(result)


# ----------------------------------------------------------------------
# RL006 oracle pinning
# ----------------------------------------------------------------------
class TestBenchOracle:
    def test_fires_on_measuring_test_without_assert(self, tmp_path):
        result = lint(
            tmp_path,
            "benchmarks/bench_demo.py",
            """
            def test_speed(benchmark):
                benchmark(lambda: 1 + 1)
            """,
        )
        assert "RL006" in rules_fired(result)

    def test_fires_when_measurement_hides_in_helper(self, tmp_path):
        result = lint(
            tmp_path,
            "benchmarks/bench_demo.py",
            """
            import time

            def _best(fn):
                start = time.perf_counter()
                fn()
                return time.perf_counter() - start

            def test_speed(report):
                report["t"] = _best(lambda: 1 + 1)
            """,
        )
        assert "RL006" in rules_fired(result)

    def test_silent_when_parity_asserted_via_helper(self, tmp_path):
        result = lint(
            tmp_path,
            "benchmarks/bench_demo.py",
            """
            import time

            def _best(fn):
                start = time.perf_counter()
                out = fn()
                return time.perf_counter() - start, out

            def _check(result, oracle):
                assert abs(result - oracle) < 1e-12

            def test_speed(report):
                elapsed, out = _best(lambda: 1 + 1)
                _check(out, 2)
            """,
        )
        assert "RL006" not in rules_fired(result)

    def test_silent_on_non_measuring_test(self, tmp_path):
        result = lint(
            tmp_path,
            "benchmarks/bench_demo.py",
            """
            def test_shapes():
                data = [1, 2, 3]
                total = sum(data)
                return total
            """,
        )
        assert "RL006" not in rules_fired(result)

    def test_ignores_non_bench_modules(self, tmp_path):
        result = lint(
            tmp_path,
            "benchmarks/conftest.py",
            """
            def test_speed(benchmark):
                benchmark(lambda: 1 + 1)
            """,
        )
        assert "RL006" not in rules_fired(result)


# ----------------------------------------------------------------------
# RL007 compiled-kernel contract (+ JIT exemptions in RL001/RL002)
# ----------------------------------------------------------------------
class TestNativeKernels:
    def test_fires_on_njit_without_cache(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/native.py",
            """
            try:
                from numba import njit
            except Exception:
                njit = None

            @njit(parallel=True)
            def _sweep_levels_kernel(order, out):
                for i in range(order.shape[0]):
                    out[i] = order[i]
            """,
        )
        assert "RL007" in rules_fired(result)

    def test_fires_on_bare_njit_decorator(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/native.py",
            """
            try:
                from numba import njit
            except Exception:
                njit = None

            @njit
            def _path_round_kernel(idx, tgt):
                return idx + tgt
            """,
        )
        assert "RL007" in rules_fired(result)

    def test_fires_on_unguarded_numba_import(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/native.py",
            """
            import numba
            from numba import njit
            """,
        )
        fired = [f for f in result.findings if f.rule == "RL007"]
        assert len(fired) == 2

    def test_silent_on_compliant_kernel_module(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/native.py",
            """
            try:
                import numba
                from numba import njit
            except Exception:
                numba = None
                njit = None

            @njit(parallel=True, cache=True)
            def _sweep_levels_kernel(order, out):
                for i in range(order.shape[0]):
                    out[i] = order[i]

            @numba.njit(cache=True)
            def _path_round_kernel(idx, tgt):
                return idx + tgt
            """,
        )
        assert "RL007" not in rules_fired(result)

    def test_silent_on_importorskip_in_bench(self, tmp_path):
        result = lint(
            tmp_path,
            "benchmarks/bench_native.py",
            """
            import pytest

            numba = pytest.importorskip("numba")
            """,
        )
        assert "RL007" not in rules_fired(result)

    def test_applies_outside_kernel_modules(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/graph/designdb.py",
            """
            import numba
            """,
        )
        assert "RL007" in rules_fired(result)

    def test_rl001_exempts_jit_kernel_loops(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/native.py",
            """
            try:
                from numba import njit, prange
            except Exception:
                njit = None

            @njit(parallel=True, cache=True)
            def _sweep_levels_kernel(order, nc, c_down):
                for j in prange(order.shape[0]):
                    i = order[j]
                    c_down[i] = float(nc[i])
            """,
        )
        fired = rules_fired(result)
        assert "RL001" not in fired
        assert "RL002" not in fired

    def test_rl001_still_fires_on_uncompiled_kernel_twin(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/native.py",
            """
            def _sweep_levels_kernel(order, nc, c_down):
                for j in range(order.shape[0]):
                    c_down[j] = float(nc[j])
            """,
        )
        fired = rules_fired(result)
        assert "RL001" in fired
        assert "RL002" in fired


# ----------------------------------------------------------------------
# RL008 memmap lifetime
# ----------------------------------------------------------------------
class TestMemmapLifetime:
    def test_fires_on_raw_memmap_outside_store_package(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/loader.py",
            """
            import numpy as np
            from repro.store.format import release_memmap

            def load(path, n):
                block = np.memmap(path, dtype=np.float64, mode="r", shape=(n,))
                total = float(block.sum())
                release_memmap(block)
                return total
            """,
        )
        assert "RL008" in rules_fired(result)

    def test_fires_on_unreleased_memmap_in_store_package(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/store/leaky.py",
            """
            import numpy as np

            def read_plane(path, n):
                block = np.memmap(path, dtype=np.float64, mode="r", shape=(n,))
                return float(block.sum())
            """,
        )
        assert "RL008" in rules_fired(result)

    def test_fires_on_unreleased_factory_mapping(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/store/consumer.py",
            """
            from repro.store.format import map_field

            def peek(path, spec, rows):
                window = map_field(path, spec, rows, "r")
                return float(window[0])
            """,
        )
        assert "RL008" in rules_fired(result)

    def test_silent_on_released_memmap_in_store_package(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/store/format.py",
            """
            import numpy as np

            def release_memmap(*maps):
                for mapping in maps:
                    if isinstance(mapping, np.memmap) and mapping.mode != "r":
                        mapping.flush()

            def read_plane(path, n):
                block = np.memmap(path, dtype=np.float64, mode="r", shape=(n,))
                total = float(block.sum())
                release_memmap(block)
                return total
            """,
        )
        assert "RL008" not in rules_fired(result)

    def test_silent_on_finalize_paired_factory_mapping(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/store/views.py",
            """
            import weakref

            from repro.store.format import map_field, release_memmap

            def view(owner, path, spec, rows):
                window = map_field(path, spec, rows, "r")
                weakref.finalize(owner, release_memmap, window)
                return window
            """,
        )
        assert "RL008" not in rules_fired(result)

    def test_silent_on_factory_itself(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/store/format.py",
            """
            import numpy as np

            def map_field(path, spec, rows, mode):
                return np.memmap(path, dtype=np.float64, mode=mode, shape=(rows,))
            """,
        )
        assert "RL008" not in rules_fired(result)

    def test_silent_on_memmap_free_module(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/clean.py",
            """
            import numpy as np

            def load(path):
                return np.load(path)
            """,
        )
        assert "RL008" not in rules_fired(result)


# ----------------------------------------------------------------------
# RL009 serve handler discipline
# ----------------------------------------------------------------------
class TestServeHandlers:
    def test_fires_on_direct_kernel_call_in_coroutine(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/serve/handlers.py",
            """
            async def query_slack(session, model):
                return session.graph.worst_slack(model)
            """,
        )
        assert "RL009" in rules_fired(result)

    def test_fires_on_direct_eco_call_in_coroutine(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/serve/handlers.py",
            """
            async def eco(session, net, parasitics):
                async with session.lock:
                    return session.graph.update_net(net, parasitics)
            """,
        )
        assert "RL009" in rules_fired(result)

    def test_fires_on_bare_name_call(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/serve/batching.py",
            """
            from repro.graph import analyze_scenarios

            async def corners(scenarios):
                return analyze_scenarios(scenarios)
            """,
        )
        assert "RL009" in rules_fired(result)

    def test_fires_in_nested_coroutine(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/serve/handlers.py",
            """
            async def outer(session):
                async def inner():
                    return session.graph.endpoint_slacks()
                return await inner()
            """,
        )
        assert "RL009" in rules_fired(result)

    def test_silent_on_executor_reference(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/serve/handlers.py",
            """
            async def query_slack(loop, executor, session, model):
                async with session.lock:
                    return await loop.run_in_executor(
                        executor, session.graph.worst_slack, model
                    )
            """,
        )
        assert "RL009" not in rules_fired(result)

    def test_silent_on_lambda_and_nested_def_thunks(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/serve/handlers.py",
            """
            async def query(loop, executor, session, swaps):
                def thunk():
                    return session.graph.whatif_resize_worst_slack(swaps)

                deferred = lambda: session.graph.certify()
                return await loop.run_in_executor(executor, thunk)
            """,
        )
        assert "RL009" not in rules_fired(result)

    def test_silent_on_sync_functions_in_serve_package(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/serve/session.py",
            """
            def whatif_scores(graph, swaps, model):
                return graph.whatif_resize_worst_slack(swaps, model)
            """,
        )
        assert "RL009" not in rules_fired(result)

    def test_silent_outside_serve_package(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/apps/tuner.py",
            """
            async def sweep(graph, scenarios):
                return graph.analyze_scenarios(scenarios)
            """,
        )
        assert "RL009" not in rules_fired(result)
