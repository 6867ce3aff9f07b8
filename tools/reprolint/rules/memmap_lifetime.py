"""RL008 -- memmap lifetime discipline for the shard store.

The out-of-core engine (:mod:`repro.store`) keeps resident memory bounded
by *releasing* shard mappings as soon as they are consumed: a dirty
``np.memmap`` that is merely dropped flushes at an arbitrary later time
(or, for the scratch result files, after the file has already been
unlinked), and a mapping that is never dropped pins a shard-sized window
of address space for the life of the process -- precisely the failure the
store exists to avoid.  Two checks keep the discipline:

* **placement** -- raw ``np.memmap(...)`` construction is confined to the
  store package (``LintConfig.memmap_package``); everywhere else must go
  through a layout-aware factory (``map_field``), which is what keeps the
  "one window per field" accounting checkable at all.
* **lifetime pairing** -- a function that creates a mapping (raw
  ``np.memmap`` or a factory call) must, in the same body, either call a
  *releaser* (``release_memmap`` -- which flushes write-mode maps before
  dropping the reference) or register a ``weakref.finalize`` tying the
  release to the consumer object's lifetime.  The factories and releasers
  themselves are exempt: a factory's whole job is returning an unreleased
  mapping to its caller.

Both checks are name-based and path-insensitive, like RL004: a
release behind a conditional counts, which keeps false positives out at
the cost of trusting branch structure.
"""

from __future__ import annotations

import ast
from typing import Dict, List

from tools.reprolint.core import LintConfig, Module, Rule


def _call_name(func: ast.AST) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _function_defs(tree: ast.AST) -> List[ast.AST]:
    """Every function definition in ``tree`` (any nesting depth)."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


class MemmapLifetimeRule(Rule):
    """Confine raw memmaps to the store; pair every mapping with release."""

    rule_id = "RL008"
    title = "memmap lifetime: store-confined creation + release pairing"
    rationale = (
        "A dropped-but-unreleased np.memmap flushes at an arbitrary later "
        "time and pins shard-sized address space; every mapping must be "
        "paired with release_memmap (flush + drop) or a weakref.finalize, "
        "and raw construction stays inside the store package."
    )
    node_types = ()

    def finish_module(self, module: Module, config: LintConfig) -> None:
        """Run the placement and pairing checks over the parsed module."""
        text = module.text
        if "memmap" not in text and not any(
            factory in text for factory in config.memmap_factories
        ):
            return
        tree = module.tree
        in_store = config.memmap_package in module.rel

        # --- check 1: raw np.memmap outside the store package ---------
        if not in_store:
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and _call_name(node.func) == "memmap":
                    self.report(
                        module,
                        node,
                        "raw `np.memmap(...)` outside the store package "
                        f"(`{config.memmap_package}`); map shard windows "
                        "through its layout-aware factories "
                        f"({', '.join(config.memmap_factories)}) so the "
                        "release accounting stays in one place",
                    )

        # --- check 2: creators must release or register a finalizer ---
        exempt = set(config.memmap_factories) | set(config.memmap_releasers)
        for func in _function_defs(tree):
            if func.name in exempt:
                continue
            calls: Dict[str, List[ast.Call]] = {}
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    calls.setdefault(_call_name(node.func), []).append(node)
            creators = list(calls.get("memmap", []))
            for factory in config.memmap_factories:
                creators.extend(calls.get(factory, []))
            if not creators:
                continue
            has_finalize = bool(calls.get("finalize"))
            calls_releaser = any(name in calls for name in config.memmap_releasers)
            if not has_finalize and not calls_releaser:
                creators.sort(key=lambda call: (call.lineno, call.col_offset))
                self.report(
                    module,
                    creators[0],
                    f"`{func.name}` creates a memmap without pairing it to "
                    f"a releaser ({', '.join(config.memmap_releasers)}) or "
                    "a `weakref.finalize` in the same body; an unreleased "
                    "mapping flushes late and pins shard-sized address "
                    "space",
                )
