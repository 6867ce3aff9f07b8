"""A real file-size limit, not a patched write, against every store writer.

Each case runs one store operation -- ``ingest_spef``, ``replace_tree`` or
``solve_batch`` -- in a child process whose soft ``RLIMIT_FSIZE`` sits just
above the largest file of an existing store, with ``SIGXFSZ`` ignored so an
oversized write fails with ``EFBIG`` instead of killing the child.  The
limit is set inside the child, on the child only.  The test then asserts
that the operation raised a typed error within a bounded time, that no
``shard-*.bin``, ``.batch-*.bin`` or ``manifest.json.tmp`` outside the
manifest was left behind (checked in the child while the error is still
held, and again after it exits), and that the reopened store reads
bitwise as before.
"""

import errno
import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.generators import RandomTreeConfig, random_flat_tree, random_tree
from repro.spef.writer import tree_to_spef
from repro.store import ShardStoreWriter, StoredForest
from repro.store.format import MANIFEST_NAME, Manifest

pytest.importorskip("resource")

#: Seconds the child may take; a hang past this fails the test.
CHILD_TIMEOUT = 120

CHILD = r"""
import json, os, resource, signal, sys

import numpy as np

from repro.generators import RandomTreeConfig, random_flat_tree
from repro.store import StoredForest, ingest_spef

op, store, spef_path, target, limit = sys.argv[1:]
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
resource.setrlimit(resource.RLIMIT_FSIZE, (int(limit), hard))
report = {"error": None}
try:
    if op == "ingest":
        with open(spef_path, "r", encoding="utf-8") as handle:
            ingest_spef(handle, target, shard_nodes=64)
    elif op == "replace":
        tree = random_flat_tree(99, RandomTreeConfig(nodes=2000))
        StoredForest(store).replace_tree(0, tree)
    else:
        StoredForest(store).solve_batch(node_c=np.linspace(0.5, 1.5, 16), count=16)
except OSError as error:
    # Listed while the error (and the failed call's frames) are still held.
    report = {
        "error": type(error).__name__,
        "errno": error.errno,
        "files": {d: sorted(os.listdir(d)) for d in (store, target) if os.path.isdir(d)},
    }
print(json.dumps(report))
"""


def _rows(directory):
    stored = StoredForest(directory)
    results = {
        "solve": stored.solve(),
        "batch": stored.solve_batch(node_c=np.asarray([0.9, 1.1]), count=2),
    }
    rows = {
        (kind, name): np.array(getattr(times, name))
        for kind, times in results.items()
        for name in ("tp", "tde", "tre", "ree", "total_capacitance")
    }
    del results
    stored.close()
    gc.collect()
    return rows


def _strays(names, listed):
    """Store scratch or shard files among ``names`` that ``listed`` does not hold."""
    return [
        name
        for name in names
        if (name.startswith(("shard-", ".batch-")) and name.endswith(".bin"))
        or name == MANIFEST_NAME + ".tmp"
        if name not in listed
    ]


@pytest.fixture
def store(tmp_path):
    directory = str(tmp_path / "store")
    trees = [random_flat_tree(i, RandomTreeConfig(nodes=31)) for i in range(12)]
    with ShardStoreWriter(directory, shard_nodes=200) as writer:
        for tree in trees:
            writer.add_flat_tree(tree)
    before = _rows(directory)  # also persists results.bin
    return directory, before


@pytest.fixture
def spef_path(tmp_path):
    # Small nets fill small shards that fit under the limit; the last net
    # is one oversized shard that does not, so the ingest fails after
    # shards have already reached the disk.
    trees = {
        f"n{i}": random_tree(i, RandomTreeConfig(nodes=12, distributed_fraction=0.0))
        for i in range(20)
    }
    trees["big"] = random_tree(
        99, RandomTreeConfig(nodes=1500, distributed_fraction=0.0)
    )
    path = tmp_path / "design.spef"
    path.write_text(tree_to_spef(trees), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("op", ["ingest", "replace", "solve_batch"])
def test_file_size_limit_fails_cleanly(store, spef_path, tmp_path, op):
    directory, before = store
    limit = max(
        os.path.getsize(os.path.join(directory, name)) for name in os.listdir(directory)
    ) + 1
    target = str(tmp_path / "ingested")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    child = subprocess.run(
        [sys.executable, "-c", CHILD, op, directory, spef_path, target, str(limit)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
        env=env,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.strip().splitlines()[-1])
    assert report["error"] == "OSError", report
    assert report["errno"] == errno.EFBIG, report

    listed = {record.file_name for record in Manifest.load(directory).shards}
    assert _strays(report["files"].get(directory, []), listed) == []
    assert _strays(report["files"].get(target, []), set()) == []
    assert _strays(os.listdir(directory), listed) == []
    assert not os.path.isdir(target) or os.listdir(target) == []

    after = _rows(directory)
    for name, value in before.items():
        assert after[name].tobytes() == value.tobytes(), name
