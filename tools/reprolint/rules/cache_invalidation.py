"""RL004 -- the cache-invalidation contract, as a declarative table.

docs/architecture.md documents the contract in prose: every class that
caches derived state (``FlatForest._times`` + level buckets,
``TimingGraph._arrivals``/``_required``) must invalidate that state in
every method that mutates the inputs it was derived from.  A mutation
that forgets to invalidate produces *silently stale timing numbers* --
no crash, just wrong answers.

``FlatTree`` is immutable: its element and topology arrays are fixed at
construction, and a changed tree is a new compile.  Its row has neither
a cache slot nor an invalidator, so any write to those arrays outside
``__init__`` fires -- even one followed by ``self._times = None``.

``DesignDB`` keeps no droppable cache: its stage forest and scenario
layout are maintained state.  A method that writes its net models (or
rebinds the layout) must recompile through ``_recompile_entry`` -- which
queues the stage that ``_active_forest`` splices into the forest and the
layout over one node window -- or ``_compile``.  Its row has no cache
slot, so setting some attribute to ``None`` never satisfies it.

The rule is driven by :class:`tools.reprolint.core.CacheContract` rows
(one per class).  A method of a contracted class that assigns to a
contracted attribute -- plainly (``self._node_c = x``), by subscript
(``self._node_c[i] = x``) or augmented (``self._node_c[i] += x``) --
must, somewhere in its own body, either write ``None`` into one of the
class's cache slots or call one of its invalidator methods.  The check
is deliberately path-insensitive: an invalidation behind a conditional
still counts (early-exit fast paths are legitimate), which keeps the
rule free of false positives at the cost of trusting the author's
branch structure.

``__init__`` is always exempt (construction precedes any cache);
per-contract ``exempt_methods`` name the invalidation machinery itself
and construction-phase helpers.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from tools.reprolint.core import CacheContract, LintConfig, Module, Rule

#: The repository's contract table.  Fixture tests substitute their own
#: via ``LintConfig(contracts=...)``.
DEFAULT_CONTRACTS = (
    CacheContract(
        module_suffix="repro/flat/flattree.py",
        class_name="FlatTree",
        attrs=("_parent", "_edge_r", "_edge_c", "_node_c", "_is_output"),
        caches=(),
        invalidators=(),
    ),
    CacheContract(
        module_suffix="repro/flat/forest.py",
        class_name="FlatForest",
        attrs=(
            "_parent",
            "_depth",
            "_edge_r",
            "_edge_c",
            "_node_c",
            "_offsets",
            "_tree_id",
            "_is_output",
            "_n",
        ),
        caches=("_times",),
        invalidators=("_rebucket",),
    ),
    CacheContract(
        module_suffix="repro/graph/designdb.py",
        class_name="DesignDB",
        attrs=("_models", "_layout"),
        caches=(),
        invalidators=("_recompile_entry", "_compile"),
        exempt_methods=("_model_of",),
    ),
    CacheContract(
        module_suffix="repro/store/forest.py",
        class_name="StoredForest",
        attrs=("_shards",),
        caches=("_layout_cache",),
        invalidators=("_invalidate_shard",),
    ),
    CacheContract(
        module_suffix="repro/graph/timinggraph.py",
        class_name="TimingGraph",
        attrs=("_edge_delay", "_edge_arcs"),
        caches=("_arrivals", "_required"),
        invalidators=("_repropagate",),
        exempt_methods=("_build_edges", "_patch_net_delays"),
    ),
)


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.<attr>`` -> attr name, unwrapping one subscript level."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _mutated_attrs(stmt: ast.AST) -> List[ast.AST]:
    """Assignment targets of ``stmt`` that are ``self.<x>`` writes."""
    targets: List[ast.AST] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    return [t for t in targets if _self_attr(t) is not None]


def _invalidates(method: ast.AST, contract: CacheContract) -> bool:
    """True when ``method`` clears a cache slot or calls an invalidator."""
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            if (
                isinstance(node.value, ast.Constant)
                and node.value.value is None
                and any(
                    _self_attr(t) in contract.caches for t in node.targets
                )
            ):
                return True
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and func.attr in contract.invalidators
            ):
                return True
    return False


class CacheInvalidationRule(Rule):
    """Mutating methods of cache-bearing classes must invalidate."""

    rule_id = "RL004"
    title = "cache-invalidation contract for cache-bearing classes"
    rationale = (
        "A mutation of a contracted input attribute without invalidating "
        "the derived cache yields silently stale timing results."
    )
    node_types = ()

    def finish_module(self, module: Module, config: LintConfig) -> None:
        """Check every contracted class defined in this module."""
        contracts = config.contracts or DEFAULT_CONTRACTS
        for contract in contracts:
            if not module.matches(contract.module_suffix):
                continue
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.ClassDef)
                    and node.name == contract.class_name
                ):
                    self._check_class(module, node, contract)

    def _check_class(
        self, module: Module, cls: ast.ClassDef, contract: CacheContract
    ) -> None:
        exempt = set(contract.exempt_methods) | {"__init__"}
        exempt.update(contract.invalidators)
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in exempt:
                continue
            offenders = []
            for node in ast.walk(method):
                for target in _mutated_attrs(node):
                    attr = _self_attr(target)
                    if attr in contract.attrs:
                        offenders.append((node, attr))
            if offenders and not _invalidates(method, contract):
                node, attr = offenders[0]
                remedies = []
                if contract.caches:
                    remedies.append(f"{' / '.join(contract.caches)} = None")
                if contract.invalidators:
                    remedies.append(f"calling {' / '.join(contract.invalidators)}")
                if remedies:
                    fix = f"without invalidating ({' or '.join(remedies)})"
                else:
                    fix = "of an immutable class (build a new one instead)"
                self.report(
                    module,
                    node,
                    f"`{contract.class_name}.{method.name}` mutates "
                    f"contracted attribute `{attr}` {fix}",
                )
