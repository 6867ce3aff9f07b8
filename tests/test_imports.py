"""The library imports with nothing but numpy and scipy.

networkx is a test dependency only (the parity oracle of
``tests/graph/analyzer_oracle.py`` walks a networkx graph).  A subprocess
blocks it -- ``sys.modules["networkx"] = None`` makes every ``import
networkx`` raise ``ImportError`` -- and then imports ``repro``, the CLI and
every ``repro.*`` module.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib
import pkgutil
import sys

sys.modules["networkx"] = None
import repro
import repro.cli

names = [info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")]
for name in names:
    importlib.import_module(name)
print(len(names))
"""


def test_every_module_imports_without_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert int(result.stdout) > 50
