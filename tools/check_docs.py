#!/usr/bin/env python3
"""Docs health-check: links must resolve and the core API must be documented.

Scans ``README.md`` and every ``docs/*.md`` for

* dotted module references (``repro.core.bounds``, possibly followed by an
  attribute) -- the module part must import and the trailing attribute, when
  present, must resolve;
* ``path:line`` anchors (``src/repro/core/bounds.py:137``) -- the file must
  exist and contain at least that many lines;
* relative markdown links (``[text](docs/paper_map.md)``) -- the target file
  must exist.

The engine table of ``docs/architecture.md`` must have a row for every
name in :data:`repro.parallel.ENGINES` (:func:`check_engine_table`).

Additionally audits the engine-layer packages and the linter
(:data:`DOCSTRING_PACKAGES`: ``repro.flat``, ``repro.graph``,
``repro.scenarios``, ``repro.parallel``, ``repro.serve``,
``tools.reprolint``)
for **missing docstrings**: every public module-level function and class --
and every public method/property of those classes -- defined in one of
those packages must carry one, so the generated ``docs/api.md`` can never
silently degrade into a list of bare signatures.

Exits non-zero with a report of every broken reference.  Run from the
repository root (CI does); also exercised as ``tests/docs/test_docs_links.py``.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Packages whose public API must be fully docstringed.
DOCSTRING_PACKAGES = (
    "repro.flat",
    "repro.graph",
    "repro.scenarios",
    "repro.parallel",
    "repro.serve",
    "tools.reprolint",
)

#: repro.foo.bar or repro.foo.bar.attr (the attr is resolved when present).
MODULE_REF = re.compile(r"\brepro(?:\.\w+)+")
#: src/... or tests/... or benchmarks/... path, optionally with :line.
FILE_ANCHOR = re.compile(
    r"\b((?:src|tests|benchmarks|docs|examples|tools)/[\w./-]+?\.(?:py|md|sp|spef))(?::(\d+))?\b"
)
#: [text](relative/target) markdown links (external URLs are skipped).
MARKDOWN_LINK = re.compile(r"\]\(([^)#\s]+)(?:#[^)\s]*)?\)")
#: The document whose engine table documents every kernel engine.
ENGINE_TABLE_DOC = "docs/architecture.md"


def doc_files() -> List[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def check_module_reference(reference: str) -> str:
    """Empty string when ``reference`` resolves, else a failure description."""
    parts = reference.split(".")
    # Try the longest importable module prefix, then getattr the rest.
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        obj = module
        for attribute in parts[cut:]:
            if not hasattr(obj, attribute):
                return f"{reference}: {module_name!r} imports but has no attribute {attribute!r}"
            obj = getattr(obj, attribute)
        return ""
    return f"{reference}: no importable prefix"


def check_file_anchor(path: str, line: str) -> str:
    target = REPO_ROOT / path
    if not target.exists():
        return f"{path}: file does not exist"
    if line:
        count = len(target.read_text(encoding="utf-8").splitlines())
        if int(line) > count:
            return f"{path}:{line}: file has only {count} lines"
    return ""


def check_markdown_link(source: Path, link: str) -> str:
    if link.startswith(("http://", "https://", "mailto:")):
        return ""
    target = (source.parent / link).resolve()
    if not target.exists():
        return f"{source.name} -> {link}: target does not exist"
    return ""


def check_engine_table(text: str) -> List[str]:
    """One problem per name in ``ENGINES`` without a row in the engine table.

    A row is a markdown table line whose first cell is the quoted name
    (``| `"numpy"` | ...``).
    """
    from repro.parallel import ENGINES

    first_cells = {
        line.split("|")[1].strip()
        for line in text.splitlines()
        if line.startswith("|")
    }
    return [
        f"{ENGINE_TABLE_DOC}: engine {name!r} has no row in the engine table"
        for name in ENGINES
        if f'`"{name}"`' not in first_cells
    ]


def _docstring_package_modules() -> List[str]:
    """Every module of the audited packages, the packages themselves included."""
    names: List[str] = []
    for package_name in DOCSTRING_PACKAGES:
        package = importlib.import_module(package_name)
        names.append(package_name)
        search = getattr(package, "__path__", None)
        if search is None:
            continue
        for info in pkgutil.walk_packages(search, prefix=package_name + "."):
            if not info.name.rsplit(".", 1)[-1].startswith("_"):
                names.append(info.name)
    return names


def _missing_member_docstrings(cls, module_name: str) -> List[str]:
    problems: List[str] = []
    for name, member in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        target = member
        if isinstance(member, property):
            target = member.fget
        elif isinstance(member, (classmethod, staticmethod)):
            target = member.__func__
        elif not inspect.isfunction(member):
            continue
        if target is None or not inspect.getdoc(target):
            problems.append(
                f"{module_name}.{cls.__name__}.{name}: public member has no docstring"
            )
    return problems


def check_docstrings() -> List[str]:
    """Missing-docstring report for the packages in :data:`DOCSTRING_PACKAGES`."""
    problems: List[str] = []
    for module_name in _docstring_package_modules():
        module = importlib.import_module(module_name)
        if not inspect.getdoc(module):
            problems.append(f"{module_name}: module has no docstring")
        for name, value in sorted(vars(module).items()):
            if name.startswith("_"):
                continue
            if getattr(value, "__module__", None) != module_name:
                continue
            if inspect.isfunction(value):
                if not inspect.getdoc(value):
                    problems.append(
                        f"{module_name}.{name}: public function has no docstring"
                    )
            elif inspect.isclass(value):
                if not inspect.getdoc(value):
                    problems.append(
                        f"{module_name}.{name}: public class has no docstring"
                    )
                problems.extend(_missing_member_docstrings(value, module_name))
    return problems


def collect_failures() -> List[Tuple[Path, str]]:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    # tools.reprolint imports from the repository root, not src/.
    sys.path.insert(0, str(REPO_ROOT))
    failures: List[Tuple[Path, str]] = []
    for doc in doc_files():
        text = doc.read_text(encoding="utf-8")
        seen = set()
        for match in MODULE_REF.finditer(text):
            reference = match.group(0).rstrip(".")
            if reference in seen:
                continue
            seen.add(reference)
            problem = check_module_reference(reference)
            if problem:
                failures.append((doc, problem))
        for match in FILE_ANCHOR.finditer(text):
            key = match.group(0)
            if key in seen:
                continue
            seen.add(key)
            problem = check_file_anchor(match.group(1), match.group(2))
            if problem:
                failures.append((doc, problem))
        for match in MARKDOWN_LINK.finditer(text):
            problem = check_markdown_link(doc, match.group(1))
            if problem:
                failures.append((doc, problem))
    table_doc = REPO_ROOT / ENGINE_TABLE_DOC
    for problem in check_engine_table(table_doc.read_text(encoding="utf-8")):
        failures.append((table_doc, problem))
    return failures


def main() -> int:
    failures = collect_failures()
    docs = doc_files()
    status = 0
    if failures:
        print(f"docs link-check: {len(failures)} broken reference(s):")
        for doc, problem in failures:
            print(f"  {doc.relative_to(REPO_ROOT)}: {problem}")
        status = 1
    else:
        print(f"docs link-check: OK ({len(docs)} files checked)")
    missing = check_docstrings()
    if missing:
        print(f"docstring check: {len(missing)} missing docstring(s):")
        for problem in missing:
            print(f"  {problem}")
        status = 1
    else:
        print(
            "docstring check: OK "
            f"({', '.join(DOCSTRING_PACKAGES)} fully documented)"
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
