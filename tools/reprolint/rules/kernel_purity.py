"""RL001 -- kernel purity: no Python loops over the node/scenario axes.

The Penfield--Rubinstein sweeps are fast *only* because the per-node
recurrences run as level-bucketed numpy expressions; one Python ``for``
over nodes or scenarios inside a solve kernel silently reverts the
engine to interpreter speed (the exact regression PR 1 exists to
prevent).  Kernel *modules* still legitimately loop in compile paths
(``from_tree``), lazy structure builders, and the O(path) incremental
updates, so this rule is scoped to the kernel *functions* named in
:attr:`LintConfig.kernel_functions`.

Inside a kernel function:

* ``while`` loops are always flagged (no kernel iterates an unbounded
  Python axis; the contraction engine's rounds are precomputed into a
  ``schedule``).
* ``for`` loops are flagged unless the iterable expression mentions one
  of the *allowed axis* names (``levels``, ``chunks``, ``schedule``):
  those iterate O(depth) / O(N/chunk) bounded plans, not the node or
  scenario axis itself.

Comprehensions are not flagged -- kernels use them only for small
metadata packing, and flagging them would force awkward rewrites with
no performance story.

JIT-compiled kernels (any function carrying a decorator named in
:attr:`LintConfig.jit_decorators`, e.g. ``@njit``) are exempt wholesale:
inside compiled code explicit loops over nodes and scenarios are exactly
the idiom -- the compiler fuses them into machine code, and the
"interpreter speed" failure mode this rule guards against does not
exist.  RL007 holds those kernels to the compiled-kernel contract
instead.
"""

from __future__ import annotations

import ast

from tools.reprolint.core import Context, LintConfig, Module, Rule


def _names_in(node: ast.AST) -> set:
    """Every identifier mentioned anywhere in ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


class KernelPurityRule(Rule):
    """Flag Python ``for``/``while`` over hot axes in kernel functions."""

    rule_id = "RL001"
    title = "kernel purity: no Python loops over node/scenario axes"
    rationale = (
        "A Python loop over nodes or scenarios inside a solve kernel "
        "reverts the vectorized engine to interpreter speed."
    )
    node_types = (ast.For, ast.While)

    def applies_to(self, module: Module, config: LintConfig) -> bool:
        """Only the kernel modules are in scope."""
        return any(module.matches(suffix) for suffix in config.kernel_modules)

    def visit(self, node: ast.AST, ctx: Context) -> None:
        """Flag loops whose enclosing function is a kernel function."""
        kernel = set(ctx.function_names()) & set(ctx.config.kernel_functions)
        if not kernel:
            return
        if ctx.in_jit_kernel():
            return
        where = sorted(kernel)[0]
        if isinstance(node, ast.While):
            self.report(
                ctx.module,
                node,
                f"Python `while` loop inside kernel function `{where}`; "
                "kernels must run as vectorized sweeps over precomputed "
                "level/chunk plans",
            )
            return
        assert isinstance(node, ast.For)
        allowed = set(ctx.config.allowed_loop_names)
        if _names_in(node.iter) & allowed:
            return
        self.report(
            ctx.module,
            node,
            f"Python `for` loop inside kernel function `{where}` iterates "
            "an unrecognized axis; kernels may only loop over bounded "
            f"plans ({', '.join(ctx.config.allowed_loop_names)})",
        )
