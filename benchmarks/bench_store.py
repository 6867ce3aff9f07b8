"""Benchmark: out-of-core shard store vs a fully materialized forest.

The workload is a streamed million-net random design
(:func:`repro.generators.stream_random_nets` -> :func:`repro.store.ingest_blocks`,
~13M RC nodes at the default net-size distribution).  Three measurements:

* **bounded-RSS ingest + solve** -- a subprocess fabricates, ingests and
  solves the whole design out of core and reports its own peak RSS
  (``ru_maxrss``).  Asserted **<= 25%** of the fully-materialized forest
  footprint (``nodes x 8 bytes x 11`` resident planes: five element/topology
  arrays, offsets/solve plan, and the three node-indexed result planes
  plus per-tree reductions an in-RAM :class:`~repro.flat.FlatForest` solve
  holds at once).  The subprocess is the measurement boundary because
  ``ru_maxrss`` is a process-lifetime high-water mark.
* **throughput** -- wall-clock ingest and solve rates (nets/s, nodes/s),
  printed for ``docs/performance.md``.
* **parity** -- the persisted out-of-core results agree at rtol 1e-12 with
  an in-RAM :class:`~repro.flat.FlatForest` solve of a ~50k-net prefix
  subsample (the streamed generator is seed-stable block for block),
  under the numpy backend and -- where Numba is importable -- the native one.
  A memory bound over results that disagree would be meaningless.

``REPRO_BENCH_STORE_NETS`` scales the design (default 1,000,000 nets) so the
same benchmark smoke-tests in seconds under CI's constrained address space.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.flat.native import native_available
from repro.generators import stream_random_nets
from repro.flat import FlatForest
from repro.flat.scenarios import ScenarioForestTimes
from repro.store import StoredForest
from repro.store.format import depths_from_parent
from repro.utils.tables import format_table

N_NETS = int(os.environ.get("REPRO_BENCH_STORE_NETS", "1000000"))
SEED = 13
BLOCK_NETS = 4096
#: Planes a fully-materialized in-RAM solve keeps resident at once:
#: parent/depth/edge_r/edge_c/node_c + offsets/tree_id/solve plan
#: (~3 index planes' worth) + tde/tre/ree result planes.
MATERIALIZED_PLANES = 11
RSS_FRACTION = 0.25
#: The RSS oracle only binds at full scale: below ~1M nets the Python +
#: numpy interpreter baseline (~100 MB) dominates the subprocess's peak
#: RSS and the 25% budget measures nothing about the store.  Smoke runs
#: (CI's REPRO_BENCH_STORE_NETS override) still assert parity and print
#: the measured ratio.
RSS_ORACLE_MIN_NETS = 1_000_000
SUBSAMPLE_BLOCKS = max(1, min(12, N_NETS // BLOCK_NETS))  # ~50k nets
RTOL = 1e-12

_WORKER = """
import json, os, resource, sys, time
from repro.generators import stream_random_nets
from repro.store import StoredForest, ingest_blocks

n_nets, seed, block_nets, directory = (
    int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
)
t0 = time.perf_counter()
manifest = ingest_blocks(
    stream_random_nets(n_nets, seed=seed, block_nets=block_nets),
    directory,
    overwrite=True,
)
t1 = time.perf_counter()
forest = StoredForest(directory)
times = forest.solve()
t2 = time.perf_counter()
# Stream a checksum off the memmap-backed result planes: proves the solve
# is readable end-to-end without pinning the full planes in RAM at once.
checksum = float(times.tp.sum())
payload = {
    "node_count": manifest.node_count,
    "tree_count": manifest.tree_count,
    "shard_count": len(manifest.shards),
    "ingest_s": t1 - t0,
    "solve_s": t2 - t1,
    "checksum": checksum,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}
print(json.dumps(payload))
"""


@pytest.fixture(scope="module")
def out_of_core_run(tmp_path_factory):
    """Ingest + solve the full design in a subprocess; report its peak RSS."""
    directory = str(tmp_path_factory.mktemp("store") / "design.store")
    env = dict(os.environ)
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _WORKER, str(N_NETS), str(SEED), str(BLOCK_NETS), directory],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    stats = json.loads(completed.stdout.strip().splitlines()[-1])
    stats["directory"] = directory
    return stats


def _subsample_reference(engine):
    """In-RAM solve of the seed-stable ~50k-net prefix of the same stream."""
    blocks = list(
        stream_random_nets(
            SUBSAMPLE_BLOCKS * BLOCK_NETS, seed=SEED, block_nets=BLOCK_NETS
        )
    )
    node_offset = 0
    starts_parts, parent_parts, planes = [], [], ([], [], [])
    for block in blocks:
        starts_parts.append(block.starts[:-1] + node_offset)
        parent_parts.append(
            np.where(block.parent < 0, block.parent, block.parent + node_offset)
        )
        for part, name in zip(planes, ("edge_r", "edge_c", "node_c")):
            part.append(getattr(block, name))
        node_offset += block.node_count
    offsets = np.concatenate(starts_parts + [np.asarray([node_offset])])
    parent = np.concatenate(parent_parts)
    forest = FlatForest.from_block(
        offsets,
        parent,
        *(np.concatenate(part) for part in planes),
        depth=depths_from_parent(parent),
        is_output=np.zeros(node_offset, dtype=bool),
        names=None,
    )
    times = forest.solve_batch(count=1, engine=engine)
    # Node rows back to preorder, the store's numbering.
    position = forest._plan.position
    return offsets, ScenarioForestTimes(
        tp=times.tp,
        tde=times.tde[:, position],
        tre=times.tre[:, position],
        ree=times.ree[:, position],
        total_capacitance=times.total_capacitance,
    )


def _engines():
    engines = ["numpy"]
    if native_available():
        engines.append("native")
    return engines


def test_out_of_core_store(out_of_core_run, report):
    stats = out_of_core_run
    node_count = stats["node_count"]

    # --- bounded-RSS oracle ------------------------------------------
    materialized_bytes = node_count * 8 * MATERIALIZED_PLANES
    peak_bytes = stats["maxrss_kb"] * 1024
    budget = RSS_FRACTION * materialized_bytes
    rss_oracle = N_NETS >= RSS_ORACLE_MIN_NETS
    if rss_oracle:
        assert peak_bytes <= budget, (
            f"out-of-core peak RSS {peak_bytes / 1e6:.0f} MB exceeds "
            f"{RSS_FRACTION:.0%} of the {materialized_bytes / 1e6:.0f} MB "
            "materialized footprint"
        )

    # --- parity oracle on the seed-stable prefix subsample -----------
    stored = StoredForest(stats["directory"])
    stored_times = stored.solve()
    for engine in _engines():
        offsets, reference = _subsample_reference(engine)
        n = int(offsets[-1])
        trees = int(offsets.shape[0]) - 1
        np.testing.assert_allclose(
            np.asarray(stored_times.tde[:n]), reference.tde[0], rtol=RTOL
        )
        np.testing.assert_allclose(
            np.asarray(stored_times.tre[:n]), reference.tre[0], rtol=RTOL
        )
        np.testing.assert_allclose(
            np.asarray(stored_times.tp[:trees]), reference.tp[0], rtol=RTOL
        )
    subsample_nets = SUBSAMPLE_BLOCKS * BLOCK_NETS

    # --- report -------------------------------------------------------
    rows = [
        ("nets", f"{stats['tree_count']:,}"),
        ("nodes", f"{node_count:,}"),
        ("shards", f"{stats['shard_count']:,}"),
        ("ingest", f"{stats['ingest_s']:.2f} s "
                   f"({stats['tree_count'] / stats['ingest_s']:,.0f} nets/s)"),
        ("solve", f"{stats['solve_s']:.2f} s "
                  f"({node_count / stats['solve_s']:,.0f} nodes/s)"),
        ("peak RSS", f"{peak_bytes / 1e6:,.0f} MB"),
        ("materialized footprint", f"{materialized_bytes / 1e6:,.0f} MB"),
        ("RSS ratio", f"{peak_bytes / materialized_bytes:.1%}"
                      f" (budget {RSS_FRACTION:.0%}, "
                      + ("asserted" if rss_oracle else
                         f"informational below {RSS_ORACLE_MIN_NETS:,} nets")
                      + ")"),
        ("parity subsample", f"{subsample_nets:,} nets @ rtol {RTOL:g}"
                             f" [{', '.join(_engines())}]"),
    ]
    report(
        "out-of-core shard store (streamed ingest + solve)",
        format_table(["metric", "value"], [[k, v] for k, v in rows]),
    )
