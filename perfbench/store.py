"""``store``: out-of-core ECO steps on a 200k-net memory-mapped shard store.

Setup streams ``stream_random_nets(200_000, seed)`` through
``ingest_blocks`` (about 2.6M RC nodes in 20 shards) and runs the first
full solve.  One op replaces one seeded tree by a same-size tree
(``StoredForest.replace_tree``), re-solves (one dirty shard) and reads that
tree's ``T_P`` back from the result file.  Bounded RSS is the layer's point,
so ``peak_rss_mb`` matters most here.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, Tuple

import numpy as np

from repro.flat import FlatTree
from repro.generators import stream_random_nets
from repro.store import StoredForest, ingest_blocks

from perfbench.harness import Tracer, Workload, median

NETS = 200_000

Arrays = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def store_gate(tp: float, arrays: Arrays) -> bool:
    """The read-back ``T_P`` equals an in-RAM ``FlatTree`` solve at 1e-12."""
    expected = FlatTree.from_arrays(*arrays).solve().tp
    return bool(np.isfinite(tp)) and abs(tp - expected) <= 1e-12 * abs(expected)


class Store(Workload):
    def generate(self, seed: int) -> None:
        # The nets themselves stream from the generator inside ingest (they
        # are never held in memory), so their generation is part of setup.
        self.seed = seed
        self.rng = np.random.default_rng(seed + 1)
        self.ingest_s = []
        self.first_solve_s = []
        self.forest = None

    @property
    def directory(self) -> str:
        return os.path.join(self.workdir, "store")

    def setup(self) -> None:
        t0 = time.perf_counter()
        ingest_blocks(stream_random_nets(NETS, seed=self.seed), self.directory)
        t1 = time.perf_counter()
        self.forest = StoredForest(self.directory)
        self.forest.solve()
        self.ingest_s.append(t1 - t0)
        self.first_solve_s.append(time.perf_counter() - t1)
        self.offsets = np.asarray(self.forest.offsets)
        self.op(self.prepare(-1))

    def discard(self) -> None:
        self.forest.close()
        self.forest = None
        shutil.rmtree(self.directory)

    def prepare(self, k: int, tracer=None) -> Tuple[int, Arrays]:
        """A seeded tree index and a same-size random replacement tree."""
        rng = self.rng
        tree = int(rng.integers(len(self.offsets) - 1))
        size = int(self.offsets[tree + 1] - self.offsets[tree])
        local = np.arange(size)
        parent = np.where(local == 0, -1, (rng.random(size) * local).astype(np.int64))
        edge_r = np.where(local == 0, 0.0, rng.uniform(20.0, 400.0, size))
        edge_c = np.where(
            (local == 0) | (rng.random(size) >= 0.4), 0.0, rng.uniform(1e-15, 1.2e-14, size)
        )
        node_c = rng.uniform(1e-15, 1.2e-14, size)
        return tree, (parent, edge_r, edge_c, node_c)

    def op(self, arg, tracer: Tracer = None) -> float:
        tree, arrays = arg
        if tracer is None:
            self.forest.replace_tree(tree, arrays)
            times = self.forest.solve()
            return float(times.tp[tree])
        with tracer.span("store.replace_tree"):
            self.forest.replace_tree(tree, arrays)
        with tracer.span("store.resolve"):
            times = self.forest.solve()
        with tracer.span("store.readback"):
            return float(times.tp[tree])

    def check(self, arg, tp: float) -> bool:
        return store_gate(tp, arg[1])

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        return {
            "store.ingest_s": median(self.ingest_s),
            "store.first_solve_s": median(self.first_solve_s),
            "store.replace_tree_ms": tracer.p50_ms("store.replace_tree"),
            "store.resolve_ms": tracer.p50_ms("store.resolve"),
            "store.readback_ms": tracer.p50_ms("store.readback"),
        }

    def details(self) -> Dict[str, object]:
        return {
            "nets": NETS,
            "rc_nodes": int(self.offsets[-1]),
            "shards": self.forest.shard_count,
        }

    def teardown(self) -> None:
        if self.forest is not None:
            self.forest.close()
        shutil.rmtree(self.directory, ignore_errors=True)
