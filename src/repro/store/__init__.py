"""Out-of-core storage tier: memory-mapped shard store for FlatForest.

The persistence unit is the shard: a contiguous run of whole trees.  A
store directory holds node-major ``np.memmap`` shard
files plus a small JSON manifest (:mod:`repro.store.format`); ingest
streams trees into shards with O(shard) peak RSS
(:class:`~repro.store.ShardStoreWriter`, :mod:`repro.store.ingest`); and
:class:`~repro.store.StoredForest` solves shard-by-shard through the
ordinary :mod:`repro.parallel` backend registry while keeping the
resident set bounded by the hot-shard LRU, the scenario chunk and one
shard's result window.

Typical flow::

    from repro.store import ingest_spef, StoredForest

    with open("design.spef") as handle:
        ingest_spef(handle, "design.store")
    forest = StoredForest("design.store")
    times = forest.solve()               # memmap-backed, incremental
    sweep = forest.solve_batch(edge_r=derates, count=len(derates))

`DesignDB(..., store_dir=...)` and ``timing --store DIR`` wire the same
machinery through the graph and CLI layers.
"""

from repro.store.format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    RESULTS_NAME,
    Manifest,
    ResultsRecord,
    ShardRecord,
    depths_from_parent,
    release_memmap,
)
from repro.store.forest import DEFAULT_HOT_SHARDS, HOT_SHARDS_ENV, StoredForest
from repro.store.ingest import ingest_blocks, ingest_spef
from repro.store.writer import DEFAULT_SHARD_NODES, ShardStoreWriter

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "RESULTS_NAME",
    "Manifest",
    "ShardRecord",
    "ResultsRecord",
    "depths_from_parent",
    "release_memmap",
    "DEFAULT_HOT_SHARDS",
    "HOT_SHARDS_ENV",
    "StoredForest",
    "ingest_blocks",
    "ingest_spef",
    "DEFAULT_SHARD_NODES",
    "ShardStoreWriter",
]
