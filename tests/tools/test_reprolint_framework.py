"""Framework-level tests: suppressions, baseline, CLI, and the two
acceptance gates -- the current tree lints clean, and reverting a
shared-block ``np.frombuffer`` view to ``np.ndarray(buffer=...)`` (a
segfault class: the view outlives an unmapped buffer) is caught as RL003.
"""

import json
import textwrap
from pathlib import Path

import pytest

from tools.reprolint.__main__ import main
from tools.reprolint.core import (
    LintConfig,
    load_baseline,
    make_config,
    run_paths,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

VIOLATION = """
import numpy as np

def build(n):
    return np.empty(n)
"""


def write_module(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# Acceptance gates
# ----------------------------------------------------------------------
def test_current_tree_is_clean():
    """`python -m tools.reprolint src tools benchmarks` exits 0 today."""
    result = run_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tools", REPO_ROOT / "benchmarks"],
        config=LintConfig(),
    )
    assert result.parse_errors == []
    assert result.findings == [], [f.to_dict() for f in result.findings]
    assert result.exit_code == 0


#: A shared-block view helper in its safe form: a ``frombuffer`` view holds
#: a real buffer export, so closing the block under a live view raises
#: ``BufferError`` instead of unmapping pages the view still reads.
SHARED_VIEWS = """
import numpy as np


def _views(buffer, layout, fields):
    views = {}
    for field in fields:
        offset, shape, dtype = layout[field]
        count = int(np.prod(shape)) if shape else 0
        views[field] = np.frombuffer(
            buffer, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
    return views
"""


def test_reverting_frombuffer_view_to_ndarray_is_caught(tmp_path):
    """The ``np.ndarray(buffer=...)`` segfault class cannot come back.

    Revert a shared-block view helper to the ``np.ndarray(buffer=...)``
    form; reprolint must flag it as RL003.
    """
    good = (
        "views[field] = np.frombuffer(\n"
        "            buffer, dtype=dtype, count=count, offset=offset\n"
        "        ).reshape(shape)"
    )
    bad = (
        "views[field] = np.ndarray(\n"
        "            shape, dtype=dtype, buffer=buffer, offset=offset\n"
        "        )"
    )
    assert good in SHARED_VIEWS
    reverted = SHARED_VIEWS.replace(good, bad)
    path = write_module(tmp_path, "repro/parallel/engine.py", reverted)
    result = run_paths([path], config=LintConfig())
    rl003 = [f for f in result.findings if f.rule == "RL003"]
    assert rl003, "reverted ndarray(buffer=...) view was not caught"
    assert any("frombuffer" in f.message for f in rl003)
    # And the unmodified source stays clean, so the catch is the revert.
    clean = run_paths(
        [write_module(tmp_path, "clean/repro/parallel/engine.py", SHARED_VIEWS)],
        config=LintConfig(),
    )
    assert [f for f in clean.findings if f.rule == "RL003"] == []


# ----------------------------------------------------------------------
# Inline suppressions
# ----------------------------------------------------------------------
def test_inline_suppression_silences_one_line(tmp_path):
    path = write_module(
        tmp_path,
        "repro/flat/forest.py",
        """
        import numpy as np

        def build(n):
            a = np.empty(n)  # reprolint: disable=RL002
            b = np.empty(n)
            return a, b
        """,
    )
    result = run_paths([path], config=make_config(repo_root=tmp_path))
    assert len(result.findings) == 1
    assert len(result.suppressed) == 1


def test_file_level_suppression(tmp_path):
    path = write_module(
        tmp_path,
        "repro/flat/forest.py",
        """
        # reprolint: disable-file=RL002
        import numpy as np

        def build(n):
            return np.empty(n), np.zeros(n)
        """,
    )
    result = run_paths([path], config=make_config(repo_root=tmp_path))
    assert result.findings == []
    assert len(result.suppressed) == 2


def test_marker_inside_string_literal_is_inert(tmp_path):
    path = write_module(
        tmp_path,
        "repro/flat/forest.py",
        """
        import numpy as np

        NOTE = "reprolint: disable-file=RL002"

        def build(n):
            return np.empty(n)
        """,
    )
    result = run_paths([path], config=make_config(repo_root=tmp_path))
    assert len(result.findings) == 1


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def test_baseline_grandfathers_existing_findings(tmp_path):
    path = write_module(tmp_path, "repro/flat/forest.py", VIOLATION)
    config = make_config(repo_root=tmp_path)
    first = run_paths([path], config=config)
    assert len(first.findings) == 1

    baseline_file = tmp_path / "baseline.json"
    write_baseline(first.all_current, baseline_file)
    fingerprints = load_baseline(baseline_file)
    assert len(fingerprints) == 1

    second = run_paths([path], config=config, baseline=fingerprints)
    assert second.findings == []
    assert len(second.baselined) == 1
    assert second.exit_code == 0


def test_baseline_survives_line_renumbering(tmp_path):
    path = write_module(tmp_path, "repro/flat/forest.py", VIOLATION)
    config = make_config(repo_root=tmp_path)
    baseline_file = tmp_path / "baseline.json"
    write_baseline(run_paths([path], config=config).all_current, baseline_file)

    # Shift the finding down two lines; the fingerprint is content-based.
    path.write_text(
        "# a new leading comment\n# and another\n" + textwrap.dedent(VIOLATION),
        encoding="utf-8",
    )
    result = run_paths(
        [path], config=config, baseline=load_baseline(baseline_file)
    )
    assert result.findings == []
    assert len(result.baselined) == 1


def test_baseline_does_not_mask_new_findings(tmp_path):
    path = write_module(tmp_path, "repro/flat/forest.py", VIOLATION)
    config = make_config(repo_root=tmp_path)
    baseline_file = tmp_path / "baseline.json"
    write_baseline(run_paths([path], config=config).all_current, baseline_file)

    path.write_text(
        textwrap.dedent(VIOLATION) + "\ndef more(n):\n    return np.zeros(n)\n",
        encoding="utf-8",
    )
    result = run_paths(
        [path], config=config, baseline=load_baseline(baseline_file)
    )
    assert len(result.findings) == 1
    assert "np.zeros" in result.findings[0].message
    assert result.exit_code == 1


def test_committed_baseline_is_empty():
    """The repo ships a clean tree: no grandfathered findings."""
    records = json.loads(
        (REPO_ROOT / "tools/reprolint/baseline.json").read_text(encoding="utf-8")
    )
    assert records == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_exit_codes_and_json(tmp_path, capsys):
    bad = write_module(tmp_path, "repro/flat/forest.py", VIOLATION)
    assert main([str(bad)]) == 1
    captured = capsys.readouterr().out
    assert "RL002" in captured

    assert main(["--json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 1
    assert payload["findings"][0]["rule"] == "RL002"

    assert main([str(tmp_path / "does-not-exist")]) == 2

    assert main(["--list-rules"]) == 0
    listing = capsys.readouterr().out
    for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
        assert rule_id in listing


def test_cli_write_then_check_baseline(tmp_path, capsys):
    bad = write_module(tmp_path, "repro/flat/forest.py", VIOLATION)
    baseline_file = tmp_path / "baseline.json"
    assert main(["--write-baseline", "--baseline-file", str(baseline_file), str(bad)]) == 0
    capsys.readouterr()
    assert main(["--baseline", "--baseline-file", str(baseline_file), str(bad)]) == 0
    assert main([str(bad)]) == 1


def test_cli_reports_parse_errors(tmp_path, capsys):
    bad = write_module(tmp_path, "repro/flat/forest.py", "def broken(:\n")
    assert main([str(bad)]) == 1
    assert "PARSE" in capsys.readouterr().out
