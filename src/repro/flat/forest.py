"""Batched analysis of many RC trees at once.

A :class:`FlatForest` concatenates the arrays of many :class:`~repro.flat.flattree.FlatTree`
instances into one set of vectors (each tree's nodes stay contiguous, each
root keeps parent ``-1``) and runs the two characteristic-time passes over
**all trees simultaneously**.  Because the per-depth sweeps operate on global
level buckets, the number of numpy calls is set by the *deepest* tree in the
batch rather than by the number of trees -- analysing 1000 shallow nets costs
barely more than analysing one.

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
    """A batch of flat trees analysed with shared vectorized passes."""

    def __init__(self, trees: Sequence[FlatTree]) -> None:
        if not trees:
            raise ValueError("a forest needs at least one tree")
        self._trees: List[FlatTree] = list(trees)
        sizes = np.asarray([len(t) for t in self._trees], dtype=np.int64)
        self._offsets = np.concatenate([[0], np.cumsum(sizes)])
        self._n = int(self._offsets[-1])
        self._tree_count = len(self._trees)

        parent = np.empty(self._n, dtype=np.int64)
        depth = np.empty(self._n, dtype=np.int64)
        self._edge_r = np.empty(self._n, dtype=np.float64)
        self._edge_c = np.empty(self._n, dtype=np.float64)
        self._node_c = np.empty(self._n, dtype=np.float64)
        self._is_output = np.empty(self._n, dtype=bool)
        self._tree_id = np.empty(self._n, dtype=np.int64)
        for t, tree in enumerate(self._trees):
            lo, hi = self._offsets[t], self._offsets[t + 1]
            shifted = tree._parent.copy()
            shifted[1:] += lo
            parent[lo:hi] = shifted
            depth[lo:hi] = tree._depth
            self._edge_r[lo:hi] = tree._edge_r
            self._edge_c[lo:hi] = tree._edge_c
            self._node_c[lo:hi] = tree._node_c
            self._is_output[lo:hi] = tree._is_output
            self._tree_id[lo:hi] = t
        self._parent = parent
        self._depth = depth
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
        """The member flat trees (views share no solve state with the forest)."""
        return list(self._trees)

    def tree_slice(self, tree_index: int) -> slice:
        """Global node-index range of one member tree."""
        return slice(int(self._offsets[tree_index]), int(self._offsets[tree_index + 1]))

    def global_index(self, tree_index: int, node: Union[str, int]) -> int:
        """Global node index of ``node`` within tree ``tree_index``."""
        tree = self._trees[tree_index]
        local = node if isinstance(node, int) else tree.index(node)
        return int(self._offsets[tree_index]) + local

    @property
    def output_indices(self) -> np.ndarray:
        """Global indices of every marked output across the batch."""
        return np.flatnonzero(self._is_output)

    def output_labels(self) -> List[Tuple[int, str]]:
        """``(tree_index, node_name)`` for every marked output, in global order."""
        labels = []
        for i in self.output_indices:
            t = int(self._tree_id[i])
            labels.append((t, self._trees[t].name_of(int(i - self._offsets[t]))))
        return labels

    # ------------------------------------------------------------------
    # Incremental membership
    # ------------------------------------------------------------------
    def replace_tree(self, tree_index: int, tree: FlatTree) -> None:
        """Swap one member tree for another (sizes may differ).

        The concatenated arrays are spliced in place of the old member, the
        level buckets are rebuilt and the solved times are invalidated -- the
        next :meth:`solve` is a full batched pass.  This is the ECO hook used
        by :class:`repro.graph.DesignDB`: one net's parasitics change, the
        shared forest stays coherent for batch consumers, and the *edited*
        net's fresh times come from its own small solve rather than from here.
        """
        if not 0 <= tree_index < self._tree_count:
            raise IndexError(f"tree index {tree_index} out of range")
        lo, hi = int(self._offsets[tree_index]), int(self._offsets[tree_index + 1])
        delta = len(tree) - (hi - lo)

        def splice(old: np.ndarray, new: np.ndarray) -> np.ndarray:
            return np.concatenate([old[:lo], new, old[hi:]])

        shifted = tree._parent.copy()
        shifted[1:] += lo
        tail = self._parent[hi:].copy()
        # Roots keep -1; every other tail index shifts with the size change.
        tail[tail >= 0] += delta
        self._parent = np.concatenate([self._parent[:lo], shifted, tail])
        self._depth = splice(self._depth, tree._depth)
        self._edge_r = splice(self._edge_r, tree._edge_r)
        self._edge_c = splice(self._edge_c, tree._edge_c)
        self._node_c = splice(self._node_c, tree._node_c)
        self._is_output = splice(self._is_output, tree._is_output)
        self._tree_id = splice(
            self._tree_id, np.full(len(tree), tree_index, dtype=np.int64)
        )
        self._offsets[tree_index + 1 :] += delta
        self._n += delta
        self._trees[tree_index] = tree
        self._rebucket()
        self._times = None

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def solve(self) -> ForestTimes:
        """Characteristic times of every node of every tree, batched."""
        if self._times is None:
            n = self._n
            parent = self._parent
            edge_r = self._edge_r
            edge_c = self._edge_c
            node_c = self._node_c
            # Aggregates (same sweeps as FlatTree, over global levels).
            rkk = edge_r.copy()
            for level in self._levels[1:]:
                rkk[level] += rkk[parent[level]]
            c_down = node_c.copy()
            for level in reversed(self._levels[1:]):
                np.add.at(c_down, parent[level], c_down[level] + edge_c[level])
            # Moments.
            tde = np.zeros(n, dtype=np.float64)
            tr_num = np.zeros(n, dtype=np.float64)
            for level in self._levels[1:]:
                p = parent[level]
                r = edge_r[level]
                lc = edge_c[level]
                below = c_down[level]
                rk = rkk[level]
                rp = rkk[p]
                tde[level] = tde[p] + r * (below + lc / 2.0)
                tr_num[level] = tr_num[p] + (rk * rk - rp * rp) * below + (rp * r + r * r / 3.0) * lc
            tre = np.divide(
                tr_num, rkk, out=np.zeros(n, dtype=np.float64), where=rkk > 0.0
            )
            # Per-tree T_P and total capacitance via segmented sums.
            rkk_parent = rkk[np.maximum(parent, 0)]
            tp_terms = rkk * node_c + (rkk_parent + edge_r / 2.0) * edge_c
            bins = self._tree_id
            tp = np.bincount(bins, weights=tp_terms, minlength=self._tree_count)
            total = np.bincount(
                bins, weights=node_c + edge_c, minlength=self._tree_count
            )
            self._times = ForestTimes(
                tp=tp, tde=tde, tre=tre, ree=rkk, total_capacitance=total
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
        scenario_chunk: Optional[int] = None,
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
        pathology) and ``scenario_chunk`` overrides the bounded-memory
        chunk width.  Every backend returns numerically identical results
        (to 1e-12 for ``"contract"`` and ``"native"``).
        """
        from repro.parallel import solve_forest_batch

        s = _scenario_count(count, edge_r, edge_c, node_c)
        return solve_forest_batch(
            self.structure,
            (self._edge_r, self._edge_c, self._node_c),
            (edge_r, edge_c, node_c),
            s,
            engine=engine,
            scenario_chunk=scenario_chunk,
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
        tree = self._trees[tree_index]
        local = i - int(self._offsets[tree_index])
        return CharacteristicTimes(
            output=tree.name_of(local),
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
        t = int(self._tree_id[global_index])
        return self._trees[t].name_of(global_index - int(self._offsets[t]))

    def elmore_delays(self) -> Dict[Tuple[int, str], float]:
        """Elmore delay of every marked output, keyed by ``(tree_index, name)``."""
        times = self.solve()
        return {
            (int(self._tree_id[i]), self._name_at(int(i))): float(times.tde[i])
            for i in self.output_indices
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"FlatForest(trees={self._tree_count}, nodes={self._n})"
