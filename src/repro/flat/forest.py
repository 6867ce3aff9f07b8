"""Batched analysis of many RC trees at once.

A :class:`FlatForest` concatenates the arrays of many :class:`~repro.flat.flattree.FlatTree`
instances into one set of vectors (each tree's nodes stay contiguous, each
root keeps parent ``-1``) and runs the two characteristic-time passes over
**all trees simultaneously** through :func:`repro.parallel.solve_forest_batch`
(:meth:`FlatForest.solve` is that call at one scenario).  Because the
per-depth sweeps operate on global level buckets, the number of numpy calls
is set by the *deepest* tree in the batch rather than by the number of trees
-- analysing 1000 shallow nets costs barely more than analysing one.

This is the workhorse for sweep-style workloads: Monte-Carlo parasitic
sampling, net-topology comparisons (:func:`repro.apps.nets.compare_nets`),
and bulk scoring of generated trees
(:func:`repro.generators.random_trees.random_forest`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.exceptions import AnalysisError
from repro.core.timeconstants import CharacteristicTimes
from repro.core.tree import RCTree
from repro.flat.batchbounds import delay_bounds_batch, voltage_bounds_batch
from repro.flat.flattree import FlatTimes, FlatTree, _scenario_count
from repro.flat.scenarios import PlaneInput, ScenarioForestTimes, level_buckets

if TYPE_CHECKING:  # runtime import stays inside `structure` (layer order)
    from repro.parallel.engine import ForestStructure

__all__ = ["FlatForest", "ForestTimes"]


@dataclass(frozen=True)
class ForestTimes:
    """Characteristic times of every node of every tree in a forest.

    ``tde``/``tre``/``ree`` are global arrays over the concatenated node
    numbering; ``tp`` and ``total_capacitance`` carry one entry per tree.
    """

    tp: np.ndarray
    tde: np.ndarray
    tre: np.ndarray
    ree: np.ndarray
    total_capacitance: np.ndarray


class FlatForest:
    """A batch of flat trees analysed with shared vectorized passes.

    ``FlatForest(trees)`` concatenates compiled member trees;
    :meth:`from_block` adopts arrays that are already concatenated (the
    bulk path of :class:`repro.graph.DesignDB`), building member
    :class:`~repro.flat.flattree.FlatTree` objects only when asked for one;
    :meth:`subforest` gathers some members into a new forest the same way
    (the cone-local what-if of :class:`repro.graph.TimingGraph`).
    """

    def __init__(self, trees: Sequence[FlatTree]) -> None:
        if not trees:
            raise ValueError("a forest needs at least one tree")
        members = list(trees)
        sizes = np.asarray([len(t) for t in members], dtype=np.int64)
        starts = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        # Member parents are tree-local; shift every non-root to the block.
        parent = np.concatenate([t._parent for t in members])
        shift = np.repeat(starts[:-1], sizes)
        np.add(parent, shift, out=parent, where=parent >= 0)
        self._adopt(
            starts,
            parent,
            np.concatenate([t._depth for t in members]),
            np.concatenate([t._edge_r for t in members]),
            np.concatenate([t._edge_c for t in members]),
            np.concatenate([t._node_c for t in members]),
            np.concatenate([t._is_output for t in members]),
            None,  # every member is present and names its own nodes
        )
        self._trees: List[Optional[FlatTree]] = list(members)

    @classmethod
    def from_block(
        cls,
        starts: np.ndarray,
        parent: np.ndarray,
        edge_r: np.ndarray,
        edge_c: np.ndarray,
        node_c: np.ndarray,
        *,
        depth: np.ndarray,
        is_output: np.ndarray,
        names: Optional[List[str]],
    ) -> "FlatForest":
        """Adopt a pre-concatenated block of trees; the forest owns the arrays.

        The layout is the one :meth:`repro.store.ShardStoreWriter.add_block`
        takes: ``starts`` holds each tree's first node plus the node-count
        sentinel, ``parent`` is block-local with ``-1`` at every tree start,
        every tree is in topological order, ``depth`` is the per-node depth
        within its own tree and ``names`` holds one name per node, or is
        ``None`` for a forest without node names (a store shard:
        :meth:`repro.store.StoredForest.materialize`), which solves and
        splices like any other but builds no member trees.  Nothing
        is copied or validated: block compilers emit valid arrays by
        construction.  Member trees (:meth:`tree`) are built from the
        forest's slices on first access.
        """
        if len(starts) < 2:
            raise ValueError("a forest needs at least one tree")
        forest = cls.__new__(cls)
        forest._adopt(
            np.asarray(starts, dtype=np.int64),
            parent,
            depth,
            edge_r,
            edge_c,
            node_c,
            is_output,
            names,
        )
        forest._trees = [None] * forest._tree_count
        return forest

    def _adopt(
        self,
        starts: np.ndarray,
        parent: np.ndarray,
        depth: np.ndarray,
        edge_r: np.ndarray,
        edge_c: np.ndarray,
        node_c: np.ndarray,
        is_output: np.ndarray,
        names: Optional[List[str]],
    ) -> None:
        self._offsets = starts
        self._n = int(starts[-1])
        self._tree_count = len(starts) - 1
        self._parent = parent
        self._depth = depth
        self._edge_r = edge_r
        self._edge_c = edge_c
        self._node_c = node_c
        self._is_output = is_output
        self._tree_id = np.repeat(
            np.arange(self._tree_count, dtype=np.int64), np.diff(starts)
        )
        #: Node names over the concatenated numbering (``None``: the member
        #: trees, if present, name their own nodes).
        self._names = names
        self._rebucket()
        self._times: Optional[ForestTimes] = None

    def _rebucket(self) -> None:
        # Global level buckets: stable sort keeps per-tree preorder within a level.
        self._levels = level_buckets(self._depth)

    @classmethod
    def from_rctrees(cls, trees: Iterable[RCTree]) -> "FlatForest":
        """Compile a batch of :class:`~repro.core.tree.RCTree` instances."""
        return cls([FlatTree.from_tree(tree) for tree in trees])

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._tree_count

    @property
    def node_count(self) -> int:
        """Total number of nodes across the batch."""
        return self._n

    @property
    def trees(self) -> List[FlatTree]:
        """The member flat trees (sharing no arrays or solve state with the forest)."""
        return [self.tree(t) for t in range(self._tree_count)]

    def tree(self, tree_index: int) -> FlatTree:
        """One member flat tree, built from its forest slice on first access."""
        member = self._trees[tree_index]
        if member is None:
            if self._names is None:
                raise AnalysisError(
                    "this forest keeps no node names (a store shard), so it"
                    " builds no member trees"
                )
            window = self.tree_slice(tree_index)
            parent = self._parent[window] - window.start
            parent[0] = -1
            member = FlatTree(
                self._names[window],
                parent,
                self._edge_r[window].copy(),
                self._edge_c[window].copy(),
                self._node_c[window].copy(),
                self._is_output[window].copy(),
                _depth=self._depth[window].copy(),
                _trusted=True,
            )
            self._trees[tree_index] = member
        return member

    def subforest(self, tree_indices: Sequence[int]) -> "FlatForest":
        """A new forest of the listed member trees, in the listed order.

        The members' node windows are gathered (parents rebased to the new
        numbering, depths and element arrays copied) into one block that
        :meth:`from_block` adopts; no member :class:`FlatTree` is built.
        Every tree keeps its own node order and child order, so a solve of
        the sub-forest yields, for each member, bitwise the rows the parent
        forest's solve does under the same element values.
        """
        trees = np.asarray(tree_indices, dtype=np.int64)
        if not len(trees):
            raise ValueError("a forest needs at least one tree")
        lo = self._offsets[trees]
        sizes = self._offsets[trees + 1] - lo
        starts = np.zeros(len(trees) + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        # Global node index of every sub-forest node, window by window.
        shift = np.repeat(lo - starts[:-1], sizes)
        nodes = np.arange(int(starts[-1]), dtype=np.int64) + shift
        parent = self._parent[nodes]
        np.subtract(parent, shift, out=parent, where=parent >= 0)
        if self._names is not None:
            names = [self._names[i] for i in nodes.tolist()]
        else:
            names = [name for t in trees.tolist() for name in self.tree(t)._names]
        return FlatForest.from_block(
            starts,
            parent,
            self._edge_r[nodes],
            self._edge_c[nodes],
            self._node_c[nodes],
            depth=self._depth[nodes],
            is_output=self._is_output[nodes],
            names=names,
        )

    def tree_slice(self, tree_index: int) -> slice:
        """Global node-index range of one member tree."""
        return slice(int(self._offsets[tree_index]), int(self._offsets[tree_index + 1]))

    def global_index(self, tree_index: int, node: Union[str, int]) -> int:
        """Global node index of ``node`` within tree ``tree_index``."""
        local = node if isinstance(node, int) else self.tree(tree_index).index(node)
        return int(self._offsets[tree_index]) + local

    @property
    def output_indices(self) -> np.ndarray:
        """Global indices of every marked output across the batch."""
        return np.flatnonzero(self._is_output)

    def output_labels(self) -> List[Tuple[int, str]]:
        """``(tree_index, node_name)`` for every marked output, in global order."""
        return [
            (int(self._tree_id[i]), self._name_at(int(i))) for i in self.output_indices
        ]

    # ------------------------------------------------------------------
    # Incremental membership
    # ------------------------------------------------------------------
    def replace_tree(self, tree_index: int, tree: FlatTree) -> None:
        """Swap one member tree for another (sizes may differ).

        The concatenated arrays are spliced in place of the old member, the
        level buckets are rebuilt -- unless the new member has the old one's
        exact depth profile, which leaves them unchanged -- and the solved
        times are invalidated: the next :meth:`solve` is a full batched
        pass.  This is the ECO hook used by :class:`repro.graph.DesignDB`:
        one net's parasitics change, the shared forest stays coherent for
        batch consumers, and the *edited* net's fresh times come from its
        own small solve rather than from here.
        """
        if not 0 <= tree_index < self._tree_count:
            raise IndexError(f"tree index {tree_index} out of range")
        lo, hi = int(self._offsets[tree_index]), int(self._offsets[tree_index + 1])
        self._splice(
            tree_index,
            tree._parent,
            tree._depth,
            tree._edge_r,
            tree._edge_c,
            tree._node_c,
            tree._is_output,
        )
        if self._names is not None:
            self._names[lo:hi] = tree._names
        self._trees[tree_index] = tree

    def _splice(
        self,
        tree_index: int,
        parent: np.ndarray,
        depth: np.ndarray,
        edge_r: np.ndarray,
        edge_c: np.ndarray,
        node_c: np.ndarray,
        is_output: np.ndarray,
    ) -> None:
        """Splice one tree's arrays (``parent`` tree-local) over member ``tree_index``.

        The array form of :meth:`replace_tree`, shared with
        :meth:`repro.store.StoredForest.replace_tree`, whose shards carry
        no member trees or names.  The member slot is left empty.
        """
        lo, hi = int(self._offsets[tree_index]), int(self._offsets[tree_index + 1])
        delta = len(parent) - (hi - lo)
        # Buckets depend on depth alone: a same-shape member keeps them.
        same_levels = delta == 0 and np.array_equal(self._depth[lo:hi], depth)

        def splice(old: np.ndarray, new: np.ndarray) -> np.ndarray:
            return np.concatenate([old[:lo], new, old[hi:]])

        shifted = parent.copy()
        shifted[1:] += lo
        tail = self._parent[hi:].copy()
        # Roots keep -1; every other tail index shifts with the size change.
        tail[tail >= 0] += delta
        self._parent = np.concatenate([self._parent[:lo], shifted, tail])
        self._depth = splice(self._depth, depth)
        self._edge_r = splice(self._edge_r, edge_r)
        self._edge_c = splice(self._edge_c, edge_c)
        self._node_c = splice(self._node_c, node_c)
        self._is_output = splice(self._is_output, is_output)
        self._tree_id = splice(
            self._tree_id, np.full(len(parent), tree_index, dtype=np.int64)
        )
        self._offsets[tree_index + 1 :] += delta
        self._n += delta
        self._trees[tree_index] = None
        if not same_levels:
            self._rebucket()
        self._times = None

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def solve(self) -> ForestTimes:
        """Characteristic times of every node of every tree, batched.

        One-scenario :meth:`solve_batch` with base values, cached until the
        next :meth:`replace_tree`.
        """
        if self._times is None:
            times = self.solve_batch(count=1)
            self._times = ForestTimes(
                tp=times.tp[0],
                tde=times.tde[0],
                tre=times.tre[0],
                ree=times.ree[0],
                total_capacitance=times.total_capacitance[0],
            )
        return self._times

    @property
    def structure(self) -> "ForestStructure":
        """The forest's topology bundle for :mod:`repro.parallel` engines.

        Built fresh on every access from the *current* arrays (and the
        cached level buckets), so incremental splices
        (:meth:`replace_tree`) are always reflected -- the parallel layer
        caches nothing about a forest.
        """
        from repro.parallel import ForestStructure

        return ForestStructure(
            parent=self._parent,
            depth=self._depth,
            offsets=self._offsets,
            levels=self._levels,
        )

    def solve_batch(
        self,
        edge_r: PlaneInput = None,
        edge_c: PlaneInput = None,
        node_c: PlaneInput = None,
        *,
        count: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> ScenarioForestTimes:
        """Characteristic times of every tree under ``S`` parameterizations.

        Planes follow :meth:`repro.flat.FlatTree.solve_batch`: ``None`` (base
        values), ``(S,)`` per-scenario broadcasts, or ``(S, N)`` effective
        element matrices over the forest's concatenated node numbering.  One
        set of global level sweeps serves every scenario of every tree; the
        per-tree ``T_P`` and total-capacitance reductions become segmented
        sums over the member offsets.  The single-scenario solve cache is
        neither read nor invalidated.

        ``engine`` selects a :mod:`repro.parallel` backend by name
        (``"numpy"`` level sweeps, ``"contract"`` pointer jumping,
        ``"native"`` Numba JIT-compiled kernels, degrading to ``"numpy"``
        without Numba; ``None`` auto-selects by sweep size and depth
        pathology).  The scenario axis runs in bounded-memory chunks
        (:func:`repro.parallel.scenario_chunks`).  Every backend returns
        numerically identical results (to 1e-12 for ``"contract"`` and
        ``"native"``).
        """
        from repro.parallel import solve_forest_batch

        s = _scenario_count(count, edge_r, edge_c, node_c)
        return solve_forest_batch(
            self.structure,
            (self._edge_r, self._edge_c, self._node_c),
            (edge_r, edge_c, node_c),
            s,
            engine=engine,
        )

    def times_for(self, tree_index: int) -> FlatTimes:
        """The :class:`~repro.flat.flattree.FlatTimes` view of one member tree."""
        times = self.solve()
        window = self.tree_slice(tree_index)
        return FlatTimes(
            tp=float(times.tp[tree_index]),
            tde=times.tde[window],
            tre=times.tre[window],
            ree=times.ree[window],
            total_capacitance=float(times.total_capacitance[tree_index]),
        )

    def characteristic_times(
        self, tree_index: int, output: Union[str, int]
    ) -> CharacteristicTimes:
        """The scalar record for one output of one member tree."""
        times = self.solve()
        i = self.global_index(tree_index, output)
        return CharacteristicTimes(
            output=self._name_at(i),
            tp=float(times.tp[tree_index]),
            tde=float(times.tde[i]),
            tre=float(times.tre[i]),
            ree=float(times.ree[i]),
            total_capacitance=float(times.total_capacitance[tree_index]),
        )

    # ------------------------------------------------------------------
    # Batched bounds over every output of every tree
    # ------------------------------------------------------------------
    def delay_bounds_batch(
        self,
        thresholds: Union[Sequence[float], np.ndarray],
        indices: Optional[np.ndarray] = None,
    ) -> Tuple[List[Tuple[int, str]], np.ndarray, np.ndarray]:
        """Delay bound matrices for all marked outputs of all trees at once.

        Returns ``(labels, lower, upper)`` where ``labels`` is the
        ``(tree_index, node_name)`` list and the arrays have shape
        ``(len(labels), len(thresholds))``.
        """
        times = self.solve()
        if indices is None:
            indices = self.output_indices
        labels = [
            (int(self._tree_id[i]), self._name_at(int(i))) for i in indices
        ]
        lower, upper = delay_bounds_batch(
            times.tp[self._tree_id[indices]],
            times.tde[indices],
            times.tre[indices],
            thresholds,
            # Per queried sink's own tree: a degenerate tree elsewhere in the
            # batch must not poison queries of healthy trees.
            total_capacitance=times.total_capacitance[self._tree_id[indices]],
        )
        return labels, lower, upper

    def voltage_bounds_batch(
        self,
        sample_times: Union[Sequence[float], np.ndarray],
        indices: Optional[np.ndarray] = None,
    ) -> Tuple[List[Tuple[int, str]], np.ndarray, np.ndarray]:
        """Voltage bound matrices for all marked outputs of all trees at once."""
        times = self.solve()
        if indices is None:
            indices = self.output_indices
        labels = [
            (int(self._tree_id[i]), self._name_at(int(i))) for i in indices
        ]
        vmin, vmax = voltage_bounds_batch(
            times.tp[self._tree_id[indices]],
            times.tde[indices],
            times.tre[indices],
            sample_times,
            total_capacitance=times.total_capacitance[self._tree_id[indices]],
        )
        return labels, vmin, vmax

    def _name_at(self, global_index: int) -> str:
        if self._names is not None:
            return self._names[global_index]
        t = int(self._tree_id[global_index])
        return self.tree(t).name_of(global_index - int(self._offsets[t]))

    def elmore_delays(self) -> Dict[Tuple[int, str], float]:
        """Elmore delay of every marked output, keyed by ``(tree_index, name)``."""
        times = self.solve()
        return {
            (int(self._tree_id[i]), self._name_at(int(i))): float(times.tde[i])
            for i in self.output_indices
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"FlatForest(trees={self._tree_count}, nodes={self._n})"
