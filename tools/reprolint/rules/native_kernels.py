"""RL007 -- compiled-kernel contract: cached JIT, guarded accelerator imports.

The ``"native"`` backend's promise is that Numba is an *accelerator*,
never a dependency: every process must import the package and solve
correctly whether or not Numba exists, and when it does exist the
compile cost must be paid once per machine, not once per process (every
new interpreter -- a CLI run, a service restart -- would otherwise
recompile every kernel).  Two checks enforce the statically checkable
half of that contract, module-wide (any file may grow a JIT kernel):

* Every JIT-decorated function (decorator names in
  :attr:`LintConfig.jit_decorators`) must pass ``cache=True`` so the
  compiled artifact persists on disk and later processes load it
  instead of recompiling.  A bare ``@njit`` or an ``@njit(parallel=True)``
  without ``cache=True`` is flagged.
* Every import of an accelerator module
  (:attr:`LintConfig.jit_import_modules`, default ``numba``) must be
  *guarded* -- enclosed in a ``try`` statement at any nesting level --
  so a machine without the accelerator degrades instead of crashing at
  import time.  ``pytest.importorskip("numba")`` in tests is not an
  import statement and passes untouched.

The dynamic half of the contract (a working numpy fallback at solve
time) is pinned by ``tests/parallel/test_native.py``; this rule keeps
the static shape that makes the fallback reachable at all.
"""

from __future__ import annotations

import ast

from tools.reprolint.core import Context, LintConfig, Module, Rule, is_jit_decorated


def _decorator_declares_cache(decorator: ast.AST) -> bool:
    """True when a decorator is a call passing a truthy ``cache=`` constant."""
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "cache":
            value = keyword.value
            return isinstance(value, ast.Constant) and bool(value.value)
    return False


class NativeKernelRule(Rule):
    """Require ``cache=True`` on JIT kernels and guards on accelerator imports."""

    rule_id = "RL007"
    title = "JIT kernels declare cache=True; accelerator imports stay guarded"
    rationale = (
        "Uncached JIT kernels recompile in every new process; an "
        "unguarded accelerator import turns an optional speedup into a "
        "hard dependency that crashes machines without it."
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, ctx: Context) -> None:
        """Flag JIT-decorated functions that do not declare ``cache=True``."""
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        jit_names = ctx.config.jit_decorators
        if not is_jit_decorated(node, jit_names):
            return
        for decorator in node.decorator_list:
            target = (
                decorator.func if isinstance(decorator, ast.Call) else decorator
            )
            named = (
                isinstance(target, ast.Attribute) and target.attr in jit_names
            ) or (isinstance(target, ast.Name) and target.id in jit_names)
            if named and not _decorator_declares_cache(decorator):
                self.report(
                    ctx.module,
                    decorator,
                    f"JIT kernel `{node.name}` must declare `cache=True` so "
                    "later processes load the on-disk artifact instead of "
                    "recompiling per process",
                )

    def finish_module(self, module: Module, config: LintConfig) -> None:
        """Flag accelerator imports not enclosed in a ``try`` statement."""
        self._walk_imports(module, config, module.tree, guarded=False)

    def _walk_imports(
        self, module: Module, config: LintConfig, node: ast.AST, guarded: bool
    ) -> None:
        targets = set(config.jit_import_modules)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in child.names]
                if isinstance(child, ast.ImportFrom) and child.module:
                    names.append(child.module)
                hit = {name.split(".")[0] for name in names} & targets
                if hit and not guarded:
                    self.report(
                        module,
                        child,
                        f"unguarded import of optional accelerator "
                        f"`{sorted(hit)[0]}`; wrap it in try/except so "
                        "machines without it fall back to the numpy kernels",
                    )
                continue
            self._walk_imports(
                module,
                config,
                child,
                guarded or isinstance(child, ast.Try),
            )
