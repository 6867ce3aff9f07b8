"""Out-of-core forest: solve a shard store without a resident design.

:class:`StoredForest` is the drop-in counterpart of
:class:`repro.flat.FlatForest` for designs that do not fit in RAM.  Each
shard file holds the node-major planes of a contiguous run of whole
trees; a solve walks the shards, materializes one at a time (through a
bounded hot-shard LRU) as a :class:`~repro.flat.FlatForest` adopted whole
from the shard's arrays, solves it through
:meth:`~repro.flat.FlatForest.solve_batch` -- numpy, contract or native
per shard -- and streams the results into a
memory-mapped result file.  The resident set is O(shard + scenario
chunk) no matter how large the design is, because every mapping
is released as soon as its window has been consumed (see :func:`repro.store.format.release_memmap`).

Incremental ECO: :meth:`replace_tree` splices the owning shard's hot
forest (the one splice :class:`~repro.flat.FlatForest` implements), writes
it out under a new file name, commits it with the manifest and bumps the
shard's generation; :meth:`solve` then re-runs exactly the shards whose
generation moved past the persisted result generation -- a single-net
edit on a million-instance design re-solves one shard.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from collections import OrderedDict
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.core.exceptions import AnalysisError
from repro.flat.flattree import FlatTree, _scenario_count
from repro.flat.forest import FlatForest, ForestTimes
from repro.flat.scenarios import PlaneInput, ScenarioForestTimes
from repro.parallel.engine import normalize_plane
from repro.store.format import (
    INDEX_DTYPE,
    MANIFEST_NAME,
    RESULT_NODE_FIELDS,
    RESULTS_NAME,
    UNSOLVED,
    Manifest,
    ResultsRecord,
    ShardRecord,
    map_field,
    read_shard_arrays,
    release_memmap,
    result_layout,
    result_nbytes,
    shard_layout,
    write_shard_file,
)
from repro.store.writer import _as_value, _validate_block

#: Number of materialized shards kept hot.  Four shards at the
#: default shard size is ~25 MiB of planes -- enough that an ECO loop
#: hammering a locality cluster never re-reads, small enough to leave the
#: laptop-RAM budget to the solve temporaries.
DEFAULT_HOT_SHARDS = 4


#: A per-shard plane factory: ``(shard_index, node_lo, node_hi)`` ->
#: ``(edge_r, edge_c, node_c)`` in :func:`normalize_plane`-accepted shapes
#: over the shard's node range, ``(S, n)`` planes in the solve numbering of
#: the shard's forest (:meth:`StoredForest.materialize`).  This is how
#: scenario sweeps stay out-of-core: the caller fabricates each shard's
#: effective planes on demand instead of one (S, N) matrix for the whole
#: design.
PlaneFactory = Callable[[int, int, int], Tuple[PlaneInput, PlaneInput, PlaneInput]]

#: Replacement tree forms accepted by :meth:`StoredForest.replace_tree`.
TreeLike = Union[
    FlatTree,
    Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
]


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _allocate_file(path: str, nbytes: int) -> None:
    """Create (or retruncate) a sparse zero-filled file of ``nbytes``."""
    with open(path, "wb") as handle:
        handle.truncate(nbytes)


class _ScratchFile:
    """Owns a scratch result file; unlinked when the owner is collected."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._finalizer = weakref.finalize(self, _unlink_quietly, path)

    def discard(self) -> None:
        """Unlink the file now, without waiting for the owner's collection."""
        self._finalizer()


def _write_batch_windows(
    result_path: str,
    total_nodes: int,
    count: int,
    node_lo: int,
    times: ScenarioForestTimes,
    rows: np.ndarray,
) -> None:
    """Write one shard's node-indexed results into the scratch file.

    ``rows`` maps the shard's preorder nodes to the solve rows of
    ``times`` (the shard forest's plan positions), so the file keeps the
    store's preorder numbering.  Only the shard's row window of each field
    is mapped, written and released, so a full sweep's peak resident set
    never exceeds one shard's result rows.
    """
    layout = result_layout(total_nodes, 0, count)
    window = slice(node_lo, node_lo + len(rows))
    maps = [
        map_field(result_path, layout[name], window, "r+")
        for name in RESULT_NODE_FIELDS
    ]
    try:
        for mapping, name in zip(maps, RESULT_NODE_FIELDS):
            # Gathered straight into the mapping: no shard-sized temporary.
            np.take(getattr(times, name).T, rows, axis=0, out=mapping, mode="clip")
    finally:
        release_memmap(*maps)


class StoredForest:
    """A forest whose planes live in memory-mapped shard files.

    Satisfies the solve surface of :class:`~repro.flat.FlatForest`
    (``solve``, ``solve_batch``, ``replace_tree``, ``node_count``,
    ``tree_count``, ``_offsets``) so :class:`~repro.graph.DesignDB` can
    swap it in behind ``store_dir=`` without changing any caller.
    """

    def __init__(self, directory: str) -> None:
        self._directory = os.fspath(directory)
        self._manifest = Manifest.load(self._directory)
        # The shard list is the authoritative layout; every mutation goes
        # through replace_tree -> _invalidate_shard (RL004 contract).
        self._shards: List[ShardRecord] = self._manifest.shards
        self._hot: "OrderedDict[int, FlatForest]" = OrderedDict()
        self._layout_cache: Optional[dict] = None

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def directory(self) -> str:
        return self._directory

    @property
    def node_count(self) -> int:
        return self._manifest.node_count

    @property
    def tree_count(self) -> int:
        return self._manifest.tree_count

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def depth(self) -> int:
        """Maximum node depth across every shard (from the manifest)."""
        return self._manifest.depth

    def __len__(self) -> int:
        return self.tree_count

    def _layout(self) -> dict:
        if self._layout_cache is None:
            self._layout_cache = {
                "node_offsets": self._manifest.node_offsets(),
                "tree_offsets": self._manifest.tree_offsets(),
            }
        return self._layout_cache

    @property
    def shard_node_offsets(self) -> np.ndarray:
        """Global first-node index per shard (+ total sentinel)."""
        return self._layout()["node_offsets"]

    @property
    def shard_tree_offsets(self) -> np.ndarray:
        """Global first-tree index per shard (+ total sentinel)."""
        return self._layout()["tree_offsets"]

    @property
    def offsets(self) -> np.ndarray:
        """Global per-tree node offsets (``(trees + 1,)``), read lazily.

        Assembled from each shard's ``starts`` field through transient
        released mappings -- the only O(trees) array the store ever
        materializes (8 bytes/tree; 8 MB for a million instances).
        """
        layout = self._layout()
        cached = layout.get("offsets")
        if cached is None:
            node_offsets = layout["node_offsets"]
            parts: List[np.ndarray] = [np.zeros(1, dtype=INDEX_DTYPE)]
            for i, record in enumerate(self._shards):
                spec = shard_layout(record.nodes, record.trees)["starts"]
                mapping = map_field(
                    self._shard_path(i), spec, slice(0, record.trees + 1), "r"
                )
                try:
                    parts.append(
                        np.asarray(mapping[1:], dtype=INDEX_DTYPE)
                        + int(node_offsets[i])
                    )
                finally:
                    release_memmap(mapping)
                    mapping = None
            cached = np.concatenate(parts)
            layout["offsets"] = cached
        return cached

    # FlatForest spells its offsets array ``_offsets``; DesignDB reaches
    # for that name, so expose the same spelling.
    @property
    def _offsets(self) -> np.ndarray:
        return self.offsets

    def shard_of_tree(self, tree_index: int) -> int:
        """The shard holding ``tree_index``."""
        tree_offsets = self.shard_tree_offsets
        if not 0 <= tree_index < self.tree_count:
            raise AnalysisError(
                f"tree index {tree_index} out of range 0..{self.tree_count - 1}"
            )
        return int(np.searchsorted(tree_offsets, tree_index, side="right")) - 1

    def shard_bounds(self, shard: int) -> Tuple[int, int, int, int]:
        """``(node_lo, node_hi, tree_lo, tree_hi)`` of one shard."""
        node_offsets = self.shard_node_offsets
        tree_offsets = self.shard_tree_offsets
        return (
            int(node_offsets[shard]),
            int(node_offsets[shard + 1]),
            int(tree_offsets[shard]),
            int(tree_offsets[shard + 1]),
        )

    def _shard_path(self, shard: int) -> str:
        return os.path.join(self._directory, self._shards[shard].file_name)

    # ------------------------------------------------------------------
    # Hot-shard LRU
    # ------------------------------------------------------------------
    def materialize(self, shard: int) -> FlatForest:
        """The shard as an in-RAM forest, served from the bounded LRU.

        The :class:`~repro.flat.FlatForest` adopts the shard's preorder
        arrays and holds them in its own level-major solve numbering
        (shard-local; no node names, so no member trees).
        """
        hot = self._hot.get(shard)
        if hot is not None:
            self._hot.move_to_end(shard)
            return hot
        record = self._shards[shard]
        arrays = read_shard_arrays(self._shard_path(shard), record.nodes, record.trees)
        hot = FlatForest.from_block(
            arrays["starts"],
            arrays["parent"],
            arrays["edge_r"],
            arrays["edge_c"],
            arrays["node_c"],
            depth=arrays["depth"],
            is_output=np.zeros(record.nodes, dtype=bool),
            names=None,
        )
        self._hot[shard] = hot
        while len(self._hot) > DEFAULT_HOT_SHARDS:
            self._hot.popitem(last=False)
        return hot

    @property
    def hot_shard_count(self) -> int:
        """Currently materialized shards (<= the LRU capacity)."""
        return len(self._hot)

    # ------------------------------------------------------------------
    # Solves
    # ------------------------------------------------------------------
    def solve(self) -> ForestTimes:
        """Single-scenario times, persisted and incrementally maintained.

        Results live in ``results.bin``; only shards whose generation
        moved past their solved generation are re-run -- each by its hot
        forest's :meth:`~repro.flat.FlatForest.solve_batch` at one
        scenario, which caches no result planes in the LRU -- so the
        cost of a solve after :meth:`replace_tree` is one shard, not
        the design.
        The returned node-indexed arrays are read-mode memmap views --
        reductions over them stream from disk.
        """
        total_nodes = self.node_count
        total_trees = self.tree_count
        path = os.path.join(self._directory, RESULTS_NAME)
        nbytes = result_nbytes(total_nodes, total_trees, 1)
        results = self._manifest.results
        stale = (
            results is None
            or len(results.solved) != len(self._shards)
            or not os.path.exists(path)
            or os.path.getsize(path) != nbytes
        )
        if stale:
            _allocate_file(path, nbytes)
            results = ResultsRecord(solved=[UNSOLVED] * len(self._shards))
            self._manifest.results = results
        assert results is not None
        layout = result_layout(total_nodes, total_trees, 1)
        dirty = [
            i
            for i, record in enumerate(self._shards)
            if results.solved[i] != record.generation
        ]
        for shard in dirty:
            hot = self.materialize(shard)
            times = hot.solve_batch(count=1)
            rows = hot._plan.position
            node_lo, node_hi, tree_lo, tree_hi = self.shard_bounds(shard)
            node_window = slice(node_lo, node_hi)
            tree_window = slice(tree_lo, tree_hi)
            maps = [
                map_field(path, layout["tde"], node_window, "r+"),
                map_field(path, layout["tre"], node_window, "r+"),
                map_field(path, layout["ree"], node_window, "r+"),
                map_field(path, layout["tp"], tree_window, "r+"),
                map_field(path, layout["total"], tree_window, "r+"),
            ]
            values = (
                times.tde.T[rows],
                times.tre.T[rows],
                times.ree.T[rows],
                times.tp.T,
                times.total_capacitance.T,
            )
            try:
                for mapping, value in zip(maps, values):
                    mapping[...] = value
            finally:
                release_memmap(*maps)
            results.solved[shard] = self._shards[shard].generation
        if dirty:
            self._manifest.save(self._directory)
        node_maps = [
            map_field(path, layout[name], slice(0, total_nodes), "r")
            for name in RESULT_NODE_FIELDS
        ]
        tree_maps = [
            map_field(path, layout[name], slice(0, total_trees), "r")
            for name in ("tp", "total")
        ]
        try:
            tp_ram = np.asarray(tree_maps[0][:, 0])
            total_ram = np.asarray(tree_maps[1][:, 0])
        finally:
            release_memmap(*tree_maps)
        times = ForestTimes(
            tp=tp_ram,
            tde=node_maps[0][:, 0],
            tre=node_maps[1][:, 0],
            ree=node_maps[2][:, 0],
            total_capacitance=total_ram,
        )
        # The views alias the mappings; the finalizer both satisfies the
        # RL008 pairing and documents who unmaps them (the times object).
        weakref.finalize(times, release_memmap, *node_maps)
        return times

    def solve_batch(
        self,
        edge_r: PlaneInput = None,
        edge_c: PlaneInput = None,
        node_c: PlaneInput = None,
        *,
        count: Optional[int] = None,
        engine: Optional[str] = None,
        planes_for: Optional[PlaneFactory] = None,
    ) -> ScenarioForestTimes:
        """Scenario-batched solve, shard by shard, out of core.

        Planes follow :meth:`repro.flat.FlatForest.solve_batch` (``None``
        / ``(S,)`` / ``(S, N)``, over the store's preorder numbering);
        ``planes_for`` instead fabricates each shard's planes on demand, in
        the shard forest's solve numbering (see :data:`PlaneFactory`), so
        the sweep never holds an ``(S, N)`` matrix.  Node-indexed results
        come back in preorder, as memmap views over a scratch file that is
        deleted when the result object is garbage collected.
        """
        total_nodes = self.node_count
        total_trees = self.tree_count
        if planes_for is not None:
            if count is None:
                raise AnalysisError("count is required when planes_for is used")
            if edge_r is not None or edge_c is not None or node_c is not None:
                raise AnalysisError("pass either global planes or planes_for, not both")
            planes: Tuple[Optional[np.ndarray], ...] = (None, None, None)
            s = int(count)
        else:
            s = _scenario_count(count, edge_r, edge_c, node_c)
            planes = tuple(
                normalize_plane(plane, total_nodes, s)
                for plane in (edge_r, edge_c, node_c)
            )
        if s < 1:
            raise AnalysisError(f"scenario count must be >= 1, got {s}")
        handle, scratch_path = tempfile.mkstemp(
            prefix=".batch-", suffix=".bin", dir=self._directory
        )
        os.close(handle)
        scratch = _ScratchFile(scratch_path)
        tp = np.empty((total_trees, s), dtype=np.float64)
        total = np.empty((total_trees, s), dtype=np.float64)
        try:
            _allocate_file(scratch_path, result_nbytes(total_nodes, 0, s))
            for shard in range(self.shard_count):
                node_lo, node_hi, tree_lo, tree_hi = self.shard_bounds(shard)
                hot = self.materialize(shard)
                if planes_for is not None:
                    shard_planes = planes_for(shard, node_lo, node_hi)
                else:
                    order = hot._plan.order + node_lo
                    shard_planes = tuple(
                        plane if plane is None or plane.ndim == 1
                        else plane[:, order]
                        for plane in planes
                    )
                times = hot.solve_batch(*shard_planes, count=s, engine=engine)
                _write_batch_windows(
                    scratch_path, total_nodes, s, node_lo, times, hot._plan.position
                )
                tp[tree_lo:tree_hi] = times.tp.T
                total[tree_lo:tree_hi] = times.total_capacitance.T
        except BaseException:
            # The traceback keeps this frame, and so the scratch owner, alive.
            scratch.discard()
            raise
        layout = result_layout(total_nodes, 0, s)
        node_maps = [
            map_field(scratch_path, layout[name], slice(0, total_nodes), "r")
            for name in RESULT_NODE_FIELDS
        ]
        times_out = ScenarioForestTimes(
            tp=tp.T,
            tde=node_maps[0].T,
            tre=node_maps[1].T,
            ree=node_maps[2].T,
            total_capacitance=total.T,
        )
        # Keep the scratch file alive exactly as long as the result: the
        # finalizer releases the mappings, then the _ScratchFile unlinks.
        object.__setattr__(times_out, "_store_scratch", scratch)
        weakref.finalize(times_out, release_memmap, *node_maps)
        return times_out

    # ------------------------------------------------------------------
    # Incremental ECO
    # ------------------------------------------------------------------
    def replace_tree(self, tree_index: int, tree: TreeLike) -> None:
        """Splice a recompiled tree in place; only its shard is rewritten.

        Mirrors :meth:`repro.flat.FlatForest.replace_tree` -- sizes may
        differ -- and runs the same splice on the shard's hot forest.  A
        same-size replacement leaves every other shard's persisted results
        valid (one-shard re-solve); a size change shifts the global node
        numbering, so the whole result file is invalidated (the other shard
        files stay put).

        The spliced shard goes to a new file that the manifest save commits
        (write, then rename); only then is the old file unlinked.  A failure
        before the commit removes the new file, leaves the store as it was
        and drops the shard from the LRU, so the next read is from disk.
        """
        if isinstance(tree, FlatTree):
            parent, depth = tree._parent, tree._depth
            edge_r, edge_c, node_c = tree._edge_r, tree._edge_c, tree._node_c
        else:
            parent = np.asarray(tree[0]).astype(INDEX_DTYPE)
            nodes = parent.shape[0]
            # Checked before anything is spliced: a short plane would
            # otherwise surface from the shard write, after the hot
            # forest had already taken it.
            edge_r, edge_c, node_c = (
                _as_value(values, name, nodes)
                for values, name in zip(tree[1:], ("edge_r", "edge_c", "node_c"))
            )
            size_arr = np.asarray([0, nodes], dtype=INDEX_DTYPE)
            depth = _validate_block(size_arr, parent, None)
        shard = self.shard_of_tree(tree_index)
        record = self._shards[shard]
        _, _, tree_lo, _ = self.shard_bounds(shard)
        hot = self.materialize(shard)
        old_nodes = hot.node_count
        old_path = self._shard_path(shard)
        results = self._manifest.results
        solved = None if results is None else list(results.solved)
        generation = record.generation + 1
        file_name = f"shard-{shard:05d}-g{generation}.bin"
        path = os.path.join(self._directory, file_name)
        try:
            hot._splice(
                tree_index - tree_lo,
                parent,
                depth,
                edge_r,
                edge_c,
                node_c,
                np.zeros(parent.shape[0], dtype=bool),
            )
            parent_pre, depth_pre, edge_r_pre, edge_c_pre, node_c_pre, _ = (
                hot._preorder()
            )
            write_shard_file(
                path,
                parent_pre,
                depth_pre,
                hot._offsets,
                edge_r_pre,
                edge_c_pre,
                node_c_pre,
            )
            self._shards[shard] = ShardRecord(
                file_name=file_name,
                nodes=hot.node_count,
                trees=record.trees,
                depth=int(hot._depth.max()),
                level_counts=[int(c) for c in np.bincount(hot._depth, minlength=1)],
                generation=generation,
            )
            self._invalidate_shard(shard, size_changed=hot.node_count != old_nodes)
            self._manifest.save(self._directory)
        except BaseException:
            self._shards[shard] = record
            if results is not None and solved is not None:
                results.solved = solved
            self._hot.pop(shard, None)
            _unlink_quietly(path)
            _unlink_quietly(os.path.join(self._directory, MANIFEST_NAME + ".tmp"))
            raise
        _unlink_quietly(old_path)

    def _invalidate_shard(self, shard: int, *, size_changed: bool) -> None:
        """Drop every cache that could reflect the shard's old layout.

        The shard's hot forest is the spliced one, so it stays in the LRU.
        """
        self._layout_cache = None
        results = self._manifest.results
        if results is not None and len(results.solved) == len(self._shards):
            if size_changed:
                # The global node numbering shifted: every persisted
                # result row beyond this shard sits at a stale offset.
                results.solved = [UNSOLVED] * len(self._shards)
            else:
                results.solved[shard] = UNSOLVED

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop materialized shards (mappings are released eagerly anyway)."""
        self._hot.clear()

    def __enter__(self) -> "StoredForest":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"StoredForest({self._directory!r}, trees={self.tree_count},"
            f" nodes={self.node_count}, shards={self.shard_count})"
        )
