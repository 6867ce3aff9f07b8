"""Batched analysis of many RC trees at once.

A :class:`FlatForest` concatenates the arrays of many :class:`~repro.flat.flattree.FlatTree`
instances and runs the two characteristic-time passes over **all trees
simultaneously** through :func:`repro.parallel.solve_forest_batch`
(:meth:`FlatForest.solve` is that call at one scenario).  The trees are
concatenated in preorder (each tree's nodes contiguous, each root with
parent ``-1``, ``_offsets`` the tree starts), and the forest then holds
every node array in its level-major solve numbering
(:func:`repro.flat.scenarios.level_plan`): all roots first, then every
depth-1 node of every tree, and so on.  Each level of the whole batch is
one contiguous slice, so the number of numpy calls is set by the *deepest*
tree in the batch rather than by the number of trees -- analysing 1000
shallow nets costs barely more than analysing one.  Element planes and
node-indexed results use the solve numbering; the tree-facing methods
(:meth:`FlatForest.tree`, :meth:`~FlatForest.tree_nodes`,
:meth:`~FlatForest.global_index`, output labels) map preorder positions
through the plan, and list outputs in preorder.

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
from repro.flat.scenarios import (
    LevelPlan,
    PlaneInput,
    ScenarioForestTimes,
    level_plan,
)

if TYPE_CHECKING:  # runtime import stays inside `structure` (layer order)
    from repro.parallel.engine import ForestStructure

__all__ = ["FlatForest", "ForestTimes"]


@dataclass(frozen=True)
class ForestTimes:
    """Characteristic times of every node of every tree in a forest.

    ``tde``/``tre``/``ree`` are global arrays over the forest's solve
    numbering (:meth:`FlatForest.tree_nodes` lists one tree's rows);
    ``tp`` and ``total_capacitance`` carry one entry per tree.
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
        is validated (block compilers emit valid arrays by construction);
        the arrays are gathered once into the forest's level-major solve
        numbering.  Member trees (:meth:`tree`) are built from the
        forest's rows on first access.
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
        """Plan preorder arrays and hold them in the plan's solve rows."""
        plan = level_plan(parent, depth)
        order = plan.order
        self._offsets = starts
        self._n = int(starts[-1])
        self._tree_count = len(starts) - 1
        self._plan: LevelPlan = plan
        self._parent = plan.parent
        self._depth = depth[order]
        self._edge_r = edge_r[order]
        self._edge_c = edge_c[order]
        self._node_c = node_c[order]
        self._is_output = is_output[order]
        self._tree_id = np.repeat(
            np.arange(self._tree_count, dtype=np.int64), np.diff(starts)
        )[order]
        #: Node names in preorder (``None``: the member trees, if present,
        #: name their own nodes).
        self._names = names
        self._times: Optional[ForestTimes] = None

    def _preorder_parent(self, rows: np.ndarray) -> np.ndarray:
        """Preorder parent of the nodes at solve ``rows`` (``-1`` at roots)."""
        parent = self._parent[rows]
        return np.where(parent >= 0, self._plan.order[parent], -1)

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
        """One member flat tree, built from its forest rows on first access."""
        member = self._trees[tree_index]
        if member is None:
            if self._names is None:
                raise AnalysisError(
                    "this forest keeps no node names (a store shard), so it"
                    " builds no member trees"
                )
            lo, hi = int(self._offsets[tree_index]), int(self._offsets[tree_index + 1])
            rows = self.tree_nodes(tree_index)
            parent = self._preorder_parent(rows) - lo
            parent[0] = -1
            member = FlatTree(
                self._names[lo:hi],
                parent,
                self._edge_r[rows],
                self._edge_c[rows],
                self._node_c[rows],
                self._is_output[rows],
                _depth=self._depth[rows],
                _trusted=True,
            )
            self._trees[tree_index] = member
        return member

    def subforest(self, tree_indices: Sequence[int]) -> "FlatForest":
        """A new forest of the listed member trees, in the listed order.

        The members' rows are gathered in preorder (parents rebased to the
        new numbering, depths and element arrays copied) into one block
        that :meth:`from_block` adopts and plans; no member
        :class:`FlatTree` is built.  Every tree keeps its own node order
        and child order, so a solve of the sub-forest yields, for each
        member, bitwise the rows the parent forest's solve does under the
        same element values.
        """
        trees = np.asarray(tree_indices, dtype=np.int64)
        if not len(trees):
            raise ValueError("a forest needs at least one tree")
        lo = self._offsets[trees]
        sizes = self._offsets[trees + 1] - lo
        starts = np.zeros(len(trees) + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        # Preorder node of every sub-forest node, window by window.
        shift = np.repeat(lo - starts[:-1], sizes)
        nodes = np.arange(int(starts[-1]), dtype=np.int64) + shift
        rows = self._plan.position[nodes]
        parent = self._preorder_parent(rows)
        np.subtract(parent, shift, out=parent, where=parent >= 0)
        if self._names is not None:
            names = [self._names[i] for i in nodes.tolist()]
        else:
            names = [name for t in trees.tolist() for name in self.tree(t)._names]
        return FlatForest.from_block(
            starts,
            parent,
            self._edge_r[rows],
            self._edge_c[rows],
            self._node_c[rows],
            depth=self._depth[rows],
            is_output=self._is_output[rows],
            names=names,
        )

    def tree_nodes(self, tree_index: int) -> np.ndarray:
        """Solve rows of one member tree's nodes, in the tree's preorder."""
        return self._plan.position[
            int(self._offsets[tree_index]) : int(self._offsets[tree_index + 1])
        ]

    def global_index(self, tree_index: int, node: Union[str, int]) -> int:
        """Solve row of ``node`` (a name or preorder index) of tree ``tree_index``."""
        local = node if isinstance(node, int) else self.tree(tree_index).index(node)
        return int(self._plan.position[int(self._offsets[tree_index]) + local])

    @property
    def output_indices(self) -> np.ndarray:
        """Solve rows of every marked output across the batch, in preorder."""
        position = self._plan.position
        return position[np.flatnonzero(self._is_output[position])]

    def output_labels(self) -> List[Tuple[int, str]]:
        """``(tree_index, node_name)`` for every marked output, in preorder."""
        return [
            (int(self._tree_id[i]), self._name_at(int(i))) for i in self.output_indices
        ]

    # ------------------------------------------------------------------
    # Incremental membership
    # ------------------------------------------------------------------
    def replace_tree(self, tree_index: int, tree: FlatTree) -> None:
        """Swap one member tree for another (sizes may differ).

        The member's arrays are spliced in place of the old member's (see
        :meth:`_splice` for when the solve plan is kept), and the solved
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
        """Splice one tree's preorder arrays (``parent`` tree-local) over a member.

        The array form of :meth:`replace_tree`, shared with
        :meth:`repro.store.StoredForest.replace_tree`, whose shards carry
        no member trees or names.  A same-size member with the old one's
        exact ``parent`` array keeps the plan: its values are written at
        the member's rows.  Any other member changes the plan's parents or
        sibling ranks, so the forest is rebuilt in preorder, spliced and
        planned again -- O(N), like a concatenating splice.  The member
        slot is left empty.
        """
        lo, hi = int(self._offsets[tree_index]), int(self._offsets[tree_index + 1])
        rows = self.tree_nodes(tree_index)
        keep = len(parent) == hi - lo and np.array_equal(
            self._preorder_parent(rows)[1:] - lo, parent[1:]
        )
        self._trees[tree_index] = None
        self._times = None
        if keep:
            self._edge_r[rows] = edge_r
            self._edge_c[rows] = edge_c
            self._node_c[rows] = node_c
            self._is_output[rows] = is_output
            return
        delta = len(parent) - (hi - lo)
        old = self._preorder()

        def splice(array: np.ndarray, new: np.ndarray) -> np.ndarray:
            return np.concatenate([array[:lo], new, array[hi:]])

        shifted = parent.copy()
        shifted[1:] += lo
        tail = old[0][hi:]
        # Roots keep -1; every other tail index shifts with the size change.
        tail[tail >= 0] += delta
        starts = self._offsets.copy()
        starts[tree_index + 1 :] += delta
        self._adopt(
            starts,
            np.concatenate([old[0][:lo], shifted, tail]),
            *(
                splice(array, new)
                for array, new in zip(
                    old[1:], (depth, edge_r, edge_c, node_c, is_output)
                )
            ),
            self._names,
        )

    def _preorder(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(parent, depth, edge_r, edge_c, node_c, is_output)`` in preorder.

        The layout :meth:`from_block` takes (block-local parents), e.g. for
        writing the forest out as a store shard.
        """
        rows = self._plan.position
        return (
            self._preorder_parent(rows),
            self._depth[rows],
            self._edge_r[rows],
            self._edge_c[rows],
            self._node_c[rows],
            self._is_output[rows],
        )

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

        Built fresh on every access from the *current* plan and offsets, so
        incremental splices (:meth:`replace_tree`) are always reflected --
        the parallel layer caches nothing about a forest.
        """
        from repro.parallel import ForestStructure

        return ForestStructure(plan=self._plan, offsets=self._offsets)

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
        element matrices over the forest's node numbering -- its level-major
        solve rows, the numbering of ``_edge_r`` and of every node-indexed
        result.  One set of global level sweeps serves every scenario of
        every tree; the per-tree ``T_P`` and total-capacitance reductions
        become segmented sums over the member offsets.  The single-scenario
        solve cache is neither read nor invalidated.

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
        window = self.tree_nodes(tree_index)
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

    def _name_at(self, row: int) -> str:
        node = int(self._plan.order[row])
        if self._names is not None:
            return self._names[node]
        t = int(self._tree_id[row])
        return self.tree(t).name_of(node - int(self._offsets[t]))

    def elmore_delays(self) -> Dict[Tuple[int, str], float]:
        """Elmore delay of every marked output, keyed by ``(tree_index, name)``."""
        times = self.solve()
        return {
            (int(self._tree_id[i]), self._name_at(int(i))): float(times.tde[i])
            for i in self.output_indices
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"FlatForest(trees={self._tree_count}, nodes={self._n})"
