"""RL006 -- oracle pinning: benchmarks must assert parity where they measure.

Every layer of this repository is pinned to its slower predecessor as a
parity oracle (flat <-> dict, graph <-> per-vertex analyzer, sharded <-> serial),
and the benchmarks are the place where "fast" and "correct" meet: a
benchmark that measures a speedup without asserting parity *in the same
run* will happily report a 20x win from a kernel that returns garbage.

The rule scans every ``benchmarks/bench_*.py`` module.  A *measuring*
test is a top-level ``test_*`` function that -- directly or through
module-local helpers (``_best()``-style timing wrappers are common) --
calls the ``benchmark`` fixture or ``time.perf_counter``.  Each
measuring test must also reach an ``assert`` statement through the same
module-local call graph.  Helpers are resolved transitively, so a
parity check factored into ``_check_parity()`` counts, but an assert in
some *other* test does not.
"""

from __future__ import annotations

import ast
from typing import Dict, Set

from tools.reprolint.core import LintConfig, Module, Rule


def _measures(func: ast.AST) -> bool:
    """Does ``func`` itself call ``benchmark(...)`` / ``perf_counter``?"""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if isinstance(target, ast.Name) and target.id == "benchmark":
            return True
        if isinstance(target, ast.Attribute):
            if target.attr == "perf_counter":
                return True
            # benchmark.pedantic(...) / benchmark.extra_info access
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "benchmark"
            ):
                return True
    return False


def _asserts(func: ast.AST) -> bool:
    """Does ``func`` itself contain an ``assert`` statement?"""
    return any(isinstance(node, ast.Assert) for node in ast.walk(func))


def _local_calls(func: ast.AST, local_names: Set[str]) -> Set[str]:
    """Module-local functions called (by name) anywhere inside ``func``."""
    called: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in local_names:
                called.add(node.func.id)
    return called


class BenchOracleRule(Rule):
    """Benchmarks must assert parity in the same run they measure."""

    rule_id = "RL006"
    title = "oracle pinning: benchmarks assert parity in the measuring run"
    rationale = (
        "A benchmark that measures without asserting parity will report "
        "speedups from kernels that return wrong answers."
    )
    node_types = ()

    def applies_to(self, module: Module, config: LintConfig) -> bool:
        """Only ``benchmarks/bench_*.py`` modules are in scope."""
        parts = module.rel.split("/")
        return (
            len(parts) >= 2
            and config.bench_dir in parts
            and parts[-1].startswith(config.bench_prefix)
        )

    def finish_module(self, module: Module, config: LintConfig) -> None:
        """Resolve each test's module-local call graph and check it."""
        top_level: Dict[str, ast.AST] = {
            node.name: node
            for node in module.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        local_names = set(top_level)
        for name, func in top_level.items():
            if not name.startswith("test_"):
                continue
            reachable = {name}
            frontier = [name]
            while frontier:
                current = frontier.pop()
                for callee in _local_calls(top_level[current], local_names):
                    if callee not in reachable:
                        reachable.add(callee)
                        frontier.append(callee)
            measures = any(_measures(top_level[f]) for f in reachable)
            asserts = any(_asserts(top_level[f]) for f in reachable)
            if measures and not asserts:
                self.report(
                    module,
                    func,
                    f"benchmark `{name}` measures (benchmark fixture / "
                    "perf_counter) but never asserts parity against an "
                    "oracle in the same run",
                )
