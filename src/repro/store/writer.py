"""Streaming writer that builds a shard store without a resident forest.

:class:`ShardStoreWriter` accepts trees one at a time (or in pre-batched
blocks) and flushes a shard file whenever the buffered node count reaches
the shard target, so ingesting a million-instance design keeps peak RSS at
O(shard) instead of O(design).  Trees are never split across shards --
the shard is a contiguous run of whole trees, which is a forest in its
own right -- so every downstream kernel consumes shard files unchanged.

The writer is a context manager with transactional semantics: leaving the
``with`` block on an exception calls :meth:`abort`, which deletes every
file written so far.  Ingest paths (e.g. SPEF streaming) rely on
this to guarantee that a malformed input leaves no partial shard files
behind.
"""

from __future__ import annotations

import os
from types import TracebackType
from typing import List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.exceptions import AnalysisError, ElementValueError
from repro.flat.flattree import FlatTree
from repro.store.format import (
    INDEX_DTYPE,
    MANIFEST_NAME,
    RESULTS_NAME,
    VALUE_DTYPE,
    Manifest,
    ShardRecord,
    depths_from_parent,
    write_shard_file,
)

#: Default shard size in nodes: 128k nodes keep one shard's planes (six
#: 8-byte fields) around 6 MiB, small enough that the ingest buffer, one
#: materialized hot shard and one solve's temporaries all fit a laptop-RAM
#: working set, yet large enough that level sweeps stay vector-wide.
DEFAULT_SHARD_NODES = 1 << 17

#: One buffered block: (starts, parent, depth, edge_r, edge_c, node_c),
#: parent block-local with roots -1.
_Block = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _as_index(values: Sequence[int], name: str) -> np.ndarray:
    array = np.ascontiguousarray(values, dtype=INDEX_DTYPE)
    if array.ndim != 1:
        raise AnalysisError(f"{name} must be one-dimensional")
    return array


def _as_value(values: Sequence[float], name: str, nodes: int) -> np.ndarray:
    """One element plane, checked for shape and for finite, non-negative values."""
    array = np.ascontiguousarray(values, dtype=VALUE_DTYPE)
    if array.shape != (nodes,):
        raise AnalysisError(f"{name} has shape {array.shape}, expected ({nodes},)")
    # NaN fails both comparisons, so two reductions cover NaN, inf and < 0.
    if nodes and not (array.min() >= 0.0 and array.max() < np.inf):
        bad = int(np.flatnonzero(~((array >= 0.0) & (array < np.inf)))[0])
        raise ElementValueError(
            f"{name}[{bad}] = {float(array[bad])!r}: element values must be"
            " finite and non-negative"
        )
    return array


def _validate_block(
    starts: np.ndarray, parent: np.ndarray, depth: Optional[np.ndarray]
) -> np.ndarray:
    """Check a block's topology and return its (computed) depth array.

    ``parent`` must be block-local and topological (every non-root parent
    precedes its child and stays inside its own tree), roots exactly at
    the ``starts`` positions.  All checks are vectorized -- validation
    cost is one pass over the block.
    """
    nodes = int(parent.shape[0])
    trees = int(starts.shape[0]) - 1
    if trees < 1:
        raise AnalysisError("a tree block needs at least one tree")
    if int(starts[0]) != 0 or int(starts[-1]) != nodes:
        raise AnalysisError("starts must begin at 0 and end at the node count")
    counts = np.diff(starts)
    if (counts <= 0).any():
        raise AnalysisError("every tree in a block needs at least one node")
    tree_of = np.repeat(np.arange(trees, dtype=INDEX_DTYPE), counts)
    lower = starts[tree_of]
    index = np.arange(nodes, dtype=INDEX_DTYPE)
    is_root = index == lower
    roots_ok = bool((parent[is_root] == -1).all())
    rest = ~is_root
    rest_ok = bool(
        ((parent[rest] >= lower[rest]) & (parent[rest] < index[rest])).all()
    )
    if not (roots_ok and rest_ok):
        raise AnalysisError(
            "block parent indices must be topological and tree-local"
            " (roots -1 at each tree start)"
        )
    if depth is None:
        return depths_from_parent(parent)
    if depth.shape != parent.shape:
        raise AnalysisError("depth must match parent in shape")
    gathered = depth[np.maximum(parent, 0)] + 1
    if not bool((depth[is_root] == 0).all()) or not bool(
        (depth[rest] == gathered[rest]).all()
    ):
        raise AnalysisError("depth array disagrees with parent topology")
    return depth


class ShardStoreWriter:
    """Incrementally write a shard store directory.

    Parameters
    ----------
    directory:
        Target directory; created if missing.  Refuses to overwrite an
        existing store unless ``overwrite=True``.
    shard_nodes:
        Flush threshold in buffered nodes.  A single oversized tree gets
        a shard of its own rather than being split.
    """

    def __init__(
        self,
        directory: str,
        *,
        shard_nodes: int = DEFAULT_SHARD_NODES,
        overwrite: bool = False,
    ) -> None:
        if shard_nodes < 1:
            raise AnalysisError(f"shard_nodes must be >= 1, got {shard_nodes}")
        self._directory = os.fspath(directory)
        self._shard_nodes = int(shard_nodes)
        os.makedirs(self._directory, exist_ok=True)
        manifest_path = os.path.join(self._directory, MANIFEST_NAME)
        if os.path.exists(manifest_path) and not overwrite:
            raise AnalysisError(
                f"{self._directory!r} already holds a store"
                " (pass overwrite=True to replace it)"
            )
        if overwrite:
            self._clear_directory()
        self._manifest = Manifest()
        self._written_files: List[str] = []
        self._blocks: List[_Block] = []
        self._pending_nodes = 0
        self._pending_trees = 0
        self._closed = False
        self._aborted = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> str:
        return self._directory

    @property
    def node_count(self) -> int:
        """Nodes accepted so far (flushed + buffered)."""
        return self._manifest.node_count + self._pending_nodes

    @property
    def tree_count(self) -> int:
        """Trees accepted so far (flushed + buffered)."""
        return self._manifest.tree_count + self._pending_trees

    @property
    def shard_count(self) -> int:
        """Shards flushed so far."""
        return len(self._manifest.shards)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def add_tree(
        self,
        parent: Sequence[int],
        edge_r: Sequence[float],
        edge_c: Sequence[float],
        node_c: Sequence[float],
        *,
        depth: Optional[Sequence[int]] = None,
    ) -> int:
        """Append one tree; returns its global tree index.

        ``parent`` is tree-local and topological with ``parent[0] == -1``.
        ``depth`` is optional -- producers that already know node depths
        (the streaming generators, :class:`~repro.flat.FlatTree`) pass it
        to skip the pointer-chase.
        """
        parent_arr = _as_index(parent, "parent")
        nodes = int(parent_arr.shape[0])
        if nodes < 1:
            raise AnalysisError("a tree needs at least one node")
        starts = np.asarray([0, nodes], dtype=INDEX_DTYPE)
        index = self.tree_count
        self._accept(
            starts,
            parent_arr,
            edge_r,
            edge_c,
            node_c,
            depth,
        )
        return index

    def add_block(
        self,
        starts: Sequence[int],
        parent: Sequence[int],
        edge_r: Sequence[float],
        edge_c: Sequence[float],
        node_c: Sequence[float],
        *,
        depth: Optional[Sequence[int]] = None,
    ) -> range:
        """Append a pre-concatenated block of trees; returns their indices.

        ``starts`` holds each tree's first node plus the node-count
        sentinel; ``parent`` is block-local with roots ``-1``.  This is
        the bulk path the streaming generators use -- one numpy batch per
        call, no per-tree python overhead.
        """
        starts_arr = _as_index(starts, "starts")
        parent_arr = _as_index(parent, "parent")
        first = self.tree_count
        self._accept(starts_arr, parent_arr, edge_r, edge_c, node_c, depth)
        return range(first, first + int(starts_arr.shape[0]) - 1)

    def add_flat_tree(self, tree: FlatTree) -> int:
        """Append a compiled :class:`~repro.flat.FlatTree`."""
        return self.add_tree(
            tree._parent,
            tree._edge_r,
            tree._edge_c,
            tree._node_c,
            depth=tree._depth,
        )

    def _accept(
        self,
        starts: np.ndarray,
        parent: np.ndarray,
        edge_r: Sequence[float],
        edge_c: Sequence[float],
        node_c: Sequence[float],
        depth: Optional[Sequence[int]],
    ) -> None:
        self._check_open()
        nodes = int(parent.shape[0])
        depth_arr = _validate_block(
            starts, parent, None if depth is None else _as_index(depth, "depth")
        )
        self._blocks.append(
            (
                starts,
                parent,
                depth_arr,
                _as_value(edge_r, "edge_r", nodes),
                _as_value(edge_c, "edge_c", nodes),
                _as_value(node_c, "node_c", nodes),
            )
        )
        self._pending_nodes += nodes
        self._pending_trees += int(starts.shape[0]) - 1
        if self._pending_nodes >= self._shard_nodes:
            self._drain(final=False)

    # ------------------------------------------------------------------
    # Shard flush / lifecycle
    # ------------------------------------------------------------------
    def _concatenate_pending(self) -> _Block:
        """Merge every buffered block into one, re-localizing parents."""
        if len(self._blocks) == 1:
            return self._blocks[0]
        starts_parts: List[np.ndarray] = []
        parent_parts: List[np.ndarray] = []
        offset = 0
        for starts, parent, _, _, _, _ in self._blocks:
            starts_parts.append(starts[:-1] + offset)
            parent_parts.append(np.where(parent < 0, parent, parent + offset))
            offset += int(parent.shape[0])
        starts_parts.append(np.asarray([offset], dtype=INDEX_DTYPE))
        return (
            np.concatenate(starts_parts),
            np.concatenate(parent_parts),
            np.concatenate([b[2] for b in self._blocks]),
            np.concatenate([b[3] for b in self._blocks]),
            np.concatenate([b[4] for b in self._blocks]),
            np.concatenate([b[5] for b in self._blocks]),
        )

    def _drain(self, final: bool) -> None:
        """Flush full shards off the buffer; keep the remainder buffered.

        Cuts are made at tree boundaries via one ``searchsorted`` per
        shard, so draining is O(buffer) regardless of tree count -- the
        property that keeps million-net ingest cheap.
        """
        if not self._blocks:
            return
        starts, parent, depth, edge_r, edge_c, node_c = self._concatenate_pending()
        trees_total = int(starts.shape[0]) - 1
        total = int(starts[-1])
        cursor = 0  # tree cursor
        node_pos = 0
        while True:
            remaining = total - node_pos
            if remaining == 0:
                break
            if remaining < self._shard_nodes and not final:
                break
            if final and remaining <= self._shard_nodes:
                cut = trees_total
            else:
                cut = int(
                    np.searchsorted(starts, node_pos + self._shard_nodes, side="left")
                )
                cut = max(cut, cursor + 1)
                cut = min(cut, trees_total)
            node_cut = int(starts[cut])
            local_starts = (starts[cursor : cut + 1] - node_pos).astype(INDEX_DTYPE)
            window = slice(node_pos, node_cut)
            local_parent = parent[window].copy()
            np.subtract(
                local_parent, node_pos, out=local_parent, where=local_parent >= 0
            )
            self._write_shard(
                local_parent,
                depth[window],
                local_starts,
                edge_r[window],
                edge_c[window],
                node_c[window],
            )
            cursor = cut
            node_pos = node_cut
        if node_pos == 0:
            # Nothing flushed; keep the merged block to amortize later work.
            self._blocks = [(starts, parent, depth, edge_r, edge_c, node_c)]
            return
        self._blocks = []
        self._pending_nodes = total - node_pos
        self._pending_trees = trees_total - cursor
        if node_pos < total:
            rest = slice(node_pos, total)
            rest_starts = (starts[cursor:] - node_pos).astype(INDEX_DTYPE)
            rest_parent = parent[rest].copy()
            np.subtract(
                rest_parent, node_pos, out=rest_parent, where=rest_parent >= 0
            )
            self._blocks = [
                (
                    rest_starts,
                    rest_parent,
                    depth[rest].copy(),
                    edge_r[rest].copy(),
                    edge_c[rest].copy(),
                    node_c[rest].copy(),
                )
            ]

    def _write_shard(
        self,
        parent: np.ndarray,
        depth: np.ndarray,
        starts: np.ndarray,
        edge_r: np.ndarray,
        edge_c: np.ndarray,
        node_c: np.ndarray,
    ) -> None:
        index = len(self._manifest.shards)
        file_name = f"shard-{index:05d}.bin"
        path = os.path.join(self._directory, file_name)
        # Recorded before the write: a write that fails part-way (disk full,
        # file-size limit) leaves a partial file that abort() must remove.
        self._written_files.append(path)
        write_shard_file(path, parent, depth, starts, edge_r, edge_c, node_c)
        nodes = int(parent.shape[0])
        level_counts = np.bincount(depth, minlength=1)
        self._manifest.shards.append(
            ShardRecord(
                file_name=file_name,
                nodes=nodes,
                trees=int(starts.shape[0]) - 1,
                depth=int(depth.max()) if nodes else 0,
                level_counts=[int(c) for c in level_counts],
            )
        )

    def close(self) -> Manifest:
        """Flush the remaining buffer and write the manifest.

        A failure here (no trees, or an ``OSError`` from the last shard or
        manifest write) rolls the store back like :meth:`abort` before it
        propagates.
        """
        self._check_open()
        try:
            self._drain(final=True)
            if not self._manifest.shards:
                raise AnalysisError("a shard store needs at least one tree")
            self._manifest.save(self._directory)
        except BaseException:
            self.abort()
            raise
        self._closed = True
        return self._manifest

    def abort(self) -> None:
        """Delete everything written so far (transactional rollback)."""
        if self._closed or self._aborted:
            return
        for path in self._written_files:
            try:
                os.remove(path)
            except OSError:
                pass
        scratch = os.path.join(self._directory, MANIFEST_NAME + ".tmp")
        if os.path.exists(scratch):
            os.remove(scratch)
        self._written_files.clear()
        self._blocks.clear()
        self._aborted = True

    def _clear_directory(self) -> None:
        """Remove a previous store's files (overwrite mode)."""
        for name in sorted(os.listdir(self._directory)):
            is_store_file = (
                name == MANIFEST_NAME
                or name == RESULTS_NAME
                or (name.startswith("shard-") and name.endswith(".bin"))
                or name.endswith(".tmp")
            )
            if is_store_file:
                os.remove(os.path.join(self._directory, name))

    def _check_open(self) -> None:
        if self._closed:
            raise AnalysisError("writer is closed")
        if self._aborted:
            raise AnalysisError("writer was aborted")

    def __enter__(self) -> "ShardStoreWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is None:
            if not self._closed:
                self.close()
        else:
            self.abort()
