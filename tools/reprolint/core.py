"""The reprolint framework: module model, rule base class, dispatcher, baseline.

The design is a single-pass visitor dispatcher: every scanned file is parsed
once, its AST is walked once, and each node is handed only to the rules that
declared interest in that node type (:attr:`Rule.node_types`).  Rules are
small classes; cross-file rules (the registry-sync check) use the
:meth:`Rule.finish_project` hook, which runs after every module has been
visited and sees the whole :class:`Project`.

Everything a rule needs to know about the repository -- which modules count
as kernels, which classes carry caches, where the engine registry and its
mirrors live -- is carried by a :class:`LintConfig`, so the fixture tests in
``tests/tools/`` can point the same rules at synthetic trees.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Marker used in inline suppressions: ``# reprolint: disable=RL001,RL002``
#: silences those rules on that line, ``# reprolint: disable-file=RL001``
#: silences a rule for the whole file (use sparingly; justify in a comment).
SUPPRESS_MARKER = "reprolint:"


@dataclass(frozen=True)
class CacheContract:
    """One row of the RL004 declarative cache-invalidation table.

    A method of ``class_name`` (in any module whose path ends with
    ``module_suffix``) that assigns to one of ``attrs`` -- plainly
    (``self.x = ...``), by subscript (``self.x[i] = ...``) or augmented --
    must, somewhere in the same method, either set one of ``caches`` to
    ``None`` or call one of ``invalidators``.  ``exempt_methods`` lists
    methods that are part of the invalidation machinery itself (or
    construction-phase helpers that run before any cache exists) and are
    therefore not checked; ``__init__`` is always exempt.
    """

    module_suffix: str
    class_name: str
    attrs: Tuple[str, ...]
    caches: Tuple[str, ...]
    invalidators: Tuple[str, ...]
    exempt_methods: Tuple[str, ...] = ()


def _default_repo_root() -> Path:
    return Path(__file__).resolve().parent.parent.parent


@dataclass(frozen=True)
class LintConfig:
    """Repository-shape knobs shared by the rules.

    The defaults describe *this* repository; the fixture tests build
    configs pointing at synthetic trees (``dataclasses.replace`` keeps that
    a one-liner).  Paths in ``kernel_modules`` and the RL005 resource
    fields are posix suffixes matched against each scanned file's path.
    """

    #: Root used to resolve the RL005 resources and to relativize paths.
    repo_root: Path = field(default_factory=_default_repo_root)
    #: Modules holding the vectorized solve kernels (RL001/RL002 scope).
    kernel_modules: Tuple[str, ...] = (
        "repro/flat/flattree.py",
        "repro/flat/forest.py",
        "repro/flat/scenarios.py",
        "repro/flat/contraction.py",
        "repro/flat/native.py",
        "repro/parallel/engine.py",
    )
    #: Functions inside kernel modules that ARE the hot solve/sweep paths.
    #: Compile-time walks (``from_tree``) and lazy structure builders
    #: deliberately use Python loops; the per-solve kernels must not.
    kernel_functions: Tuple[str, ...] = (
        "solve",
        "solve_batch",
        "sweep_scenarios",
        "sweep_scenarios_contract",
        "path_sums",
        "subtree_sums",
        "_solve_range",
        "_solve_serial",
        "_solve_numpy",
        "_solve_contract",
        "_solve_native",
        "solve_forest_batch",
        "sweep_scenarios_native",
        "sweep_scenarios_contract_native",
        "path_sums_native",
        "subtree_sums_native",
        "_sweep_impl",
        "_contract_impl",
        "_sweep_levels_kernel",
        "_path_round_kernel",
        "_subtree_round_kernel",
    )
    #: Identifier names that mark a loop as iterating one of the *allowed*
    #: axes (depth levels, bounded scenario chunks, jump schedules) rather
    #: than the node/scenario axes.
    allowed_loop_names: Tuple[str, ...] = (
        "levels",
        "_levels",
        "chunks",
        "schedule",
    )
    #: numpy allocators that must carry an explicit ``dtype=`` (RL002).
    alloc_functions: Tuple[str, ...] = ("empty", "zeros", "ones", "full")
    #: Decorator names that mark a function as JIT-compiled (``@njit(...)``
    #: / ``@numba.jit(...)``).  Inside such functions explicit loops and
    #: scalar arithmetic ARE the idiom -- the compiler fuses them -- so
    #: RL001/RL002 exempt them, and RL007 holds them to the compiled-kernel
    #: contract (``cache=True``, guarded imports) instead.
    jit_decorators: Tuple[str, ...] = ("njit", "jit")
    #: Modules whose import must stay guarded (RL007): an optional
    #: accelerator must never take the package down by merely being absent.
    jit_import_modules: Tuple[str, ...] = ("numba",)
    #: RL004 contract table (see :class:`CacheContract`).
    contracts: Tuple[CacheContract, ...] = ()
    #: RL005 resources: the registry module (suffix) and its three mirrors
    #: (paths relative to ``repo_root``).
    registry_module: str = "repro/parallel/engine.py"
    cli_module_path: str = "src/repro/cli.py"
    docs_engine_table_path: str = "docs/architecture.md"
    engine_matrix_test_path: str = "tests/properties/test_engine_matrix.py"
    #: RL006 scope: directory name + filename prefix of benchmark modules.
    bench_dir: str = "benchmarks"
    bench_prefix: str = "bench_"
    #: RL008 scope: the package (posix path fragment) that owns raw
    #: ``np.memmap`` construction; everywhere else must go through one of
    #: ``memmap_factories``.  ``memmap_releasers`` are the functions that
    #: flush + drop a mapping (see ``repro.store.format.release_memmap``);
    #: a function creating or borrowing a mapping must call one of them or
    #: register a ``weakref.finalize`` in the same body.  Factories
    #: themselves return the mapping (ownership transfer) and are exempt.
    memmap_package: str = "repro/store/"
    memmap_releasers: Tuple[str, ...] = ("release_memmap",)
    memmap_factories: Tuple[str, ...] = ("map_field",)
    #: RL009 scope: the service package (posix path fragment).  Handler
    #: coroutines (``async def``) inside it must never call a solve/sweep
    #: kernel or ECO hook directly -- a kernel on the event loop blocks
    #: every connected client for the whole sweep.  Compute belongs in
    #: synchronous session methods handed to ``run_in_executor`` (or to the
    #: coalescing batcher); calls inside ``lambda``/nested ``def`` thunks
    #: are deferred work and therefore allowed.
    serve_package: str = "repro/serve/"
    #: Kernel / solve / ECO entry points banned from handler coroutines.
    serve_kernel_calls: Tuple[str, ...] = (
        "solve",
        "solve_batch",
        "solve_scenarios",
        "solve_forest_batch",
        "sweep_scenarios",
        "sweep_scenarios_contract",
        "analyze_scenarios",
        "scenario_pin_slacks",
        "worst_slack",
        "endpoint_slacks",
        "pin_slacks",
        "critical_path",
        "certify",
        "whatif_resize_worst_slack",
        "whatif_cell_elements",
        "update_net",
        "update_instance_cell",
        "resize_instance",
    )

    def relativize(self, path: Path) -> str:
        """Repo-relative posix path when possible, absolute posix otherwise."""
        try:
            return path.resolve().relative_to(self.repo_root.resolve()).as_posix()
        except ValueError:
            return path.resolve().as_posix()


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    message: str
    path: str
    line: int
    col: int
    snippet: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        """Stable ordering: by file, then position, then rule."""
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        """JSON-reporter form."""
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "snippet": self.snippet,
        }


def _parse_suppressions(
    text: str,
) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract inline suppressions from comment tokens.

    Returns ``(per_line, whole_file)``: rule ids disabled on specific lines
    and rule ids disabled for the entire file.  Tokenizing (rather than
    regexing raw lines) keeps string literals containing the marker inert.
    """
    per_line: Dict[int, Set[str]] = {}
    whole_file: Set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            comment = token.string.lstrip("#").strip()
            if not comment.startswith(SUPPRESS_MARKER):
                continue
            directive = comment[len(SUPPRESS_MARKER) :].strip()
            for clause in directive.split(";"):
                clause = clause.strip()
                if clause.startswith("disable-file="):
                    whole_file.update(
                        r.strip() for r in clause[len("disable-file=") :].split(",")
                    )
                elif clause.startswith("disable="):
                    rules = {r.strip() for r in clause[len("disable=") :].split(",")}
                    per_line.setdefault(token.start[0], set()).update(rules)
    except tokenize.TokenError:  # pragma: no cover - malformed tail
        pass
    return per_line, whole_file


class Module:
    """One parsed source file: path, text, AST and inline suppressions."""

    def __init__(self, path: Path, rel: str, text: str, tree: ast.Module):
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        self.line_disables, self.file_disables = _parse_suppressions(text)

    @classmethod
    def parse(cls, path: Path, config: LintConfig) -> "Module":
        """Read and parse ``path`` (raises ``SyntaxError`` on bad source)."""
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        return cls(path, config.relativize(path), text, tree)

    def source_line(self, line: int) -> str:
        """The (stripped) source text at 1-indexed ``line``."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def matches(self, suffix: str) -> bool:
        """True when this module's path ends with the posix ``suffix``."""
        return self.rel.endswith(suffix)

    def is_suppressed(self, finding: Finding) -> bool:
        """True when an inline directive silences ``finding``."""
        if finding.rule in self.file_disables:
            return True
        return finding.rule in self.line_disables.get(finding.line, set())


class Project:
    """Every module of one lint run plus shared configuration."""

    def __init__(self, modules: Sequence[Module], config: LintConfig):
        self.modules = list(modules)
        self.config = config
        self._by_rel = {module.rel: module for module in self.modules}

    def find_module(self, suffix: str) -> Optional[Module]:
        """The scanned module whose path ends with ``suffix``, if any."""
        for module in self.modules:
            if module.matches(suffix):
                return module
        return None


def is_jit_decorated(node: ast.AST, jit_names: Sequence[str]) -> bool:
    """True when a function definition carries a JIT decorator.

    Matches every spelling the Numba idiom uses: bare ``@njit``, attribute
    ``@numba.njit``, and the parametrized call forms ``@njit(...)`` /
    ``@numba.jit(...)``.
    """
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr in jit_names:
            return True
        if isinstance(target, ast.Name) and target.id in jit_names:
            return True
    return False


class Context:
    """Per-module walk state handed to every rule visit.

    ``stack`` holds the enclosing ``ClassDef`` / ``FunctionDef`` /
    ``AsyncFunctionDef`` nodes, outermost first, maintained by the
    dispatcher as it descends.
    """

    def __init__(self, module: Module, config: LintConfig):
        self.module = module
        self.config = config
        self.stack: List[ast.AST] = []

    @property
    def current_function(self) -> Optional[ast.AST]:
        """The innermost enclosing function definition, if any."""
        for node in reversed(self.stack):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node
        return None

    @property
    def current_class(self) -> Optional[ast.ClassDef]:
        """The innermost enclosing class definition, if any."""
        for node in reversed(self.stack):
            if isinstance(node, ast.ClassDef):
                return node
        return None

    def function_names(self) -> List[str]:
        """Names of every enclosing function, outermost first."""
        return [
            node.name
            for node in self.stack
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    def in_jit_kernel(self) -> bool:
        """True when any enclosing function is JIT-decorated.

        RL001/RL002 use this to exempt ``@njit`` kernels: inside compiled
        code, explicit loops and scalarization are exactly what the
        compiler wants to see.
        """
        return any(
            is_jit_decorated(node, self.config.jit_decorators)
            for node in self.stack
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )


class Rule:
    """Base class for one checker.

    Subclasses set :attr:`rule_id` / :attr:`title` and implement whichever
    hooks they need.  The dispatcher calls :meth:`visit` only for nodes
    whose type appears in :attr:`node_types` (empty means no per-node
    dispatch), and only for modules where :meth:`applies_to` returned True.
    """

    rule_id: str = "RL000"
    title: str = ""
    rationale: str = ""
    node_types: Tuple[type, ...] = ()

    def __init__(self) -> None:
        self.findings: List[Finding] = []

    def applies_to(self, module: Module, config: LintConfig) -> bool:
        """Whether this rule wants per-node dispatch for ``module``."""
        return True

    def start_module(self, module: Module, config: LintConfig) -> None:
        """Hook before ``module``'s AST walk begins."""

    def visit(self, node: ast.AST, ctx: Context) -> None:
        """Hook for every node of an interesting type, in source order."""

    def finish_module(self, module: Module, config: LintConfig) -> None:
        """Hook after ``module``'s AST walk ends."""

    def finish_project(self, project: Project) -> None:
        """Hook after every module has been walked (cross-file rules)."""

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def report(
        self,
        module: Module,
        node: ast.AST,
        message: str,
    ) -> None:
        """Record a finding anchored at ``node``'s location."""
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        self.report_at(module, line, col, message)

    def report_at(self, module: Module, line: int, col: int, message: str) -> None:
        """Record a finding at an explicit location in ``module``."""
        self.findings.append(
            Finding(
                rule=self.rule_id,
                message=message,
                path=module.rel,
                line=line,
                col=col,
                snippet=module.source_line(line),
            )
        )

    def report_resource(self, path: str, message: str) -> None:
        """Record a finding against a non-scanned resource (docs, config)."""
        self.findings.append(
            Finding(
                rule=self.rule_id, message=message, path=path, line=0, col=0,
                snippet="",
            )
        )


class _Dispatcher:
    """Single-pass AST walker that fans nodes out to interested rules."""

    def __init__(self, module: Module, rules: Sequence[Rule], config: LintConfig):
        self.module = module
        self.config = config
        self.ctx = Context(module, config)
        self.table: Dict[type, List[Rule]] = {}
        for rule in rules:
            for node_type in rule.node_types:
                self.table.setdefault(node_type, []).append(rule)

    def walk(self) -> None:
        """Visit the whole module tree once, in source order."""
        self._visit(self.module.tree)

    def _visit(self, node: ast.AST) -> None:
        for rule in self.table.get(type(node), ()):
            rule.visit(node, self.ctx)
        scoped = isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        )
        if scoped:
            self.ctx.stack.append(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)
        if scoped:
            self.ctx.stack.pop()


@dataclass
class LintResult:
    """Outcome of one lint run: new findings plus bookkeeping counters."""

    findings: List[Finding]
    suppressed: List[Finding]
    baselined: List[Finding]
    files_checked: int
    parse_errors: List[Finding]

    @property
    def all_current(self) -> List[Finding]:
        """New + baselined findings (what ``--write-baseline`` records)."""
        return sorted(self.findings + self.baselined, key=Finding.sort_key)

    @property
    def exit_code(self) -> int:
        """0 when clean, 1 when new findings (or unparsable files) exist."""
        return 1 if (self.findings or self.parse_errors) else 0


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def _fingerprints(findings: Iterable[Finding]) -> List[Tuple[Finding, str]]:
    """Stable content-addressed keys, tolerant of line renumbering.

    The key hashes ``rule + path + stripped source line``; identical lines
    in one file are disambiguated by occurrence order, so inserting code
    above a grandfathered finding does not un-baseline it.
    """
    seen: Dict[str, int] = {}
    keyed: List[Tuple[Finding, str]] = []
    for finding in sorted(findings, key=Finding.sort_key):
        raw = f"{finding.rule}|{finding.path}|{finding.snippet}"
        index = seen.get(raw, 0)
        seen[raw] = index + 1
        digest = hashlib.sha1(f"{raw}|{index}".encode("utf-8")).hexdigest()[:16]
        keyed.append((finding, digest))
    return keyed


def load_baseline(path: Path) -> Set[str]:
    """The committed fingerprint set (empty when the file is absent)."""
    if not path.exists():
        return set()
    records = json.loads(path.read_text(encoding="utf-8"))
    return {record["fingerprint"] for record in records}


def write_baseline(findings: Iterable[Finding], path: Path) -> None:
    """Serialize ``findings`` as the new grandfathered baseline."""
    records = [
        {
            "fingerprint": digest,
            "rule": finding.rule,
            "path": finding.path,
            "snippet": finding.snippet,
        }
        for finding, digest in _fingerprints(findings)
    ]
    path.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _collect_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` file under ``paths`` (files listed directly included)."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if "__pycache__" in candidate.parts:
                    continue
                files.append(candidate)
        elif path.suffix == ".py":
            files.append(path)
    return files


def run_paths(
    paths: Sequence[Path],
    *,
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Set[str]] = None,
) -> LintResult:
    """Lint every Python file under ``paths`` and return the result.

    ``rules`` defaults to the full registry
    (:func:`tools.reprolint.rules.all_rules`); ``baseline`` is a fingerprint
    set -- findings matching it are reported separately and do not affect
    the exit code.
    """
    if config is None:
        config = LintConfig()
    if rules is None:
        from tools.reprolint.rules import all_rules

        rules = all_rules()
    parse_errors: List[Finding] = []
    modules: List[Module] = []
    for path in _collect_files([Path(p) for p in paths]):
        try:
            modules.append(Module.parse(path, config))
        except SyntaxError as error:
            parse_errors.append(
                Finding(
                    rule="PARSE",
                    message=f"file does not parse: {error.msg}",
                    path=config.relativize(path),
                    line=error.lineno or 0,
                    col=error.offset or 0,
                    snippet="",
                )
            )
    project = Project(modules, config)
    for module in modules:
        active = [rule for rule in rules if rule.applies_to(module, config)]
        if not active:
            continue
        for rule in active:
            rule.start_module(module, config)
        _Dispatcher(module, active, config).walk()
        for rule in active:
            rule.finish_module(module, config)
    for rule in rules:
        rule.finish_project(project)

    raw = [finding for rule in rules for finding in rule.findings]
    suppressed: List[Finding] = []
    visible: List[Finding] = []
    for finding in sorted(raw, key=Finding.sort_key):
        module = project._by_rel.get(finding.path)
        if module is not None and module.is_suppressed(finding):
            suppressed.append(finding)
        else:
            visible.append(finding)
    baselined: List[Finding] = []
    if baseline:
        fresh: List[Finding] = []
        for finding, digest in _fingerprints(visible):
            (baselined if digest in baseline else fresh).append(finding)
        visible = sorted(fresh, key=Finding.sort_key)
    return LintResult(
        findings=visible,
        suppressed=suppressed,
        baselined=baselined,
        files_checked=len(modules),
        parse_errors=parse_errors,
    )


def make_config(**overrides: object) -> LintConfig:
    """A :class:`LintConfig` with fields replaced -- test-fixture helper."""
    return replace(LintConfig(), **overrides)  # type: ignore[arg-type]
