"""The array-backed flat-tree analysis engine.

:class:`FlatTree` compiles an :class:`~repro.core.tree.RCTree` into a handful
of numpy arrays indexed by *preorder position* (the root is index 0 and every
parent precedes its children):

* ``parent``        -- parent index per node (``-1`` for the root);
* ``edge_r``/``edge_c`` -- resistance / distributed capacitance of the edge
  *into* each node (zero for the root);
* ``node_c``        -- lumped grounded capacitance per node;
* ``levels``        -- node indices grouped by depth, which is what turns the
  paper's two tree traversals into a short sequence of vectorized sweeps.

The characteristic times of *every* node are then computed by exactly the two
passes of :func:`repro.core.timeconstants.characteristic_times_all` -- a
reverse (deep-to-shallow) accumulation of downstream capacitance and a
forward (shallow-to-deep) accumulation of the path recurrences for ``T_De``
and ``T_Re R_ee``, including the closed-form distributed-URC line
contributions -- but each level is processed as one numpy gather/scatter
instead of a Python loop over dict-keyed nodes.  :meth:`FlatTree.solve` and
:meth:`FlatTree.solve_batch` both hand the tree to
:func:`repro.parallel.solve_forest_batch` as a one-tree forest (a single
solve is a scenario plane of width one), so the backend auto-selection of
that engine applies to every solve.  The arithmetic per node is kept
*identical* to the dict-based reference (same operations, same association,
same child order), so the two engines agree to the last ulp on the
per-output recurrences and to rounding order on the global sums; the parity
property tests pin this at a relative tolerance of 1e-12.

A :class:`FlatTree` is an immutable compiled view: every number it reports
comes from its cached :meth:`solve`, and a changed tree is a new compile.
Candidate loops (:mod:`repro.opt.sizing`, :mod:`repro.opt.buffering`)
evaluate their variants as scenario planes of one :meth:`solve_batch`.

Complexity: compilation is one O(N) walk; a solve is O(N) work spread over
O(depth) numpy calls.  Bushy trees (clock trees, signal nets, the random
trees used in the benchmarks) have depth << N and run at numpy speed; a
pathological 10k-node *chain* is auto-routed to the O(log N)-round
contraction kernels -- see ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.elements import Resistor
from repro.core.exceptions import (
    ElementValueError,
    TopologyError,
    UnknownNodeError,
)
from repro.core.timeconstants import CharacteristicTimes
from repro.core.tree import RCTree
from repro.flat.batchbounds import delay_bounds_batch, voltage_bounds_batch
from repro.flat.scenarios import (
    PlaneInput,
    ScenarioForestTimes,
    ScenarioTimes,
    level_buckets,
)

__all__ = ["FlatTree", "FlatTimes"]


def _scenario_count(count: Optional[int], *planes: PlaneInput) -> int:
    """Infer the scenario count from the first non-``None`` plane."""
    if count is not None:
        return int(count)
    for plane in planes:
        if plane is not None:
            array = np.asarray(plane)
            return int(array.shape[0]) if array.ndim else 1
    return 1


@dataclass(frozen=True)
class FlatTimes:
    """Characteristic times of every node of a :class:`FlatTree`, as arrays.

    All arrays are indexed by preorder position (see ``FlatTree.index``).

    Attributes
    ----------
    tp:
        ``T_P`` (seconds) -- eq. (5); a scalar, shared by every output.
    tde:
        ``T_De`` (seconds) per node -- eq. (1), the Elmore delays.
    tre:
        ``T_Re`` (seconds) per node -- eq. (6).
    ree:
        ``R_ee`` (ohms) per node -- input-to-node path resistance.
    total_capacitance:
        ``C_T`` (farads) -- total capacitance of the network.
    """

    tp: float
    tde: np.ndarray
    tre: np.ndarray
    ree: np.ndarray
    total_capacitance: float

    @property
    def tr_num(self) -> np.ndarray:
        """The product ``T_Re * R_ee`` carried by the paper's APL programs."""
        return self.tre * self.ree


def _flat_times(times: ScenarioForestTimes) -> FlatTimes:
    """The :class:`FlatTimes` record of a one-tree, one-scenario solve."""
    return FlatTimes(
        tp=float(times.tp[0, 0]),
        tde=times.tde[0],
        tre=times.tre[0],
        ree=times.ree[0],
        total_capacitance=float(times.total_capacitance[0, 0]),
    )


class FlatTree:
    """An RC tree compiled to parent-index vectors for vectorized analysis.

    Build one with :meth:`from_tree` (from an :class:`~repro.core.tree.RCTree`)
    or :meth:`from_arrays` (directly from parent/element arrays, bypassing the
    dict-based builder entirely -- the fast path for synthetic workloads).
    """

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def __init__(
        self,
        names: Sequence[str],
        parent: np.ndarray,
        edge_r: np.ndarray,
        edge_c: np.ndarray,
        node_c: np.ndarray,
        is_output: np.ndarray,
        _depth: Optional[Sequence[int]] = None,
        _trusted: bool = False,
        _index: Optional[Dict[str, int]] = None,
    ) -> None:
        self._names: List[str] = list(names)
        # A caller that already holds the name -> index map hands it over.
        self._index_cache: Optional[Dict[str, int]] = _index
        if _trusted:
            # Private fast path for arrays that are valid by construction
            # (batch compilers): skip the conversion and validation passes.
            self._parent = parent
            self._edge_r = edge_r
            self._edge_c = edge_c
            self._node_c = node_c
            self._is_output = is_output
        else:
            self._parent = np.ascontiguousarray(parent, dtype=np.int64)
            self._edge_r = np.ascontiguousarray(edge_r, dtype=np.float64)
            self._edge_c = np.ascontiguousarray(edge_c, dtype=np.float64)
            self._node_c = np.ascontiguousarray(node_c, dtype=np.float64)
            self._is_output = np.ascontiguousarray(is_output, dtype=bool)
        self._n = len(self._names)
        if not _trusted:
            self._validate_topology()
        # Structure (depth, level buckets) is built lazily: a tree that is
        # only ever *batched* into a FlatForest never pays for its own
        # per-tree level buckets -- the forest runs its own global ones.
        self._depth_cache: Optional[np.ndarray] = (
            None if _depth is None else np.asarray(_depth, dtype=np.int64)
        )
        self._levels_cache: Optional[List[np.ndarray]] = None
        # The one solve, computed on first use.
        self._times: Optional[FlatTimes] = None

    def _validate_topology(self) -> None:
        n = self._n
        if n == 0:
            raise TopologyError("a flat tree needs at least the input node")
        for array in (self._edge_r, self._edge_c, self._node_c):
            if array.shape != (n,):
                raise TopologyError("element arrays must have one entry per node")
            if not np.all(np.isfinite(array)) or np.any(array < 0.0):
                raise ElementValueError("element values must be finite and non-negative")
        if self._parent.shape != (n,):
            raise TopologyError("parent array must have one entry per node")
        if self._parent[0] != -1:
            raise TopologyError("node 0 must be the input (parent -1)")
        if n > 1:
            rest = self._parent[1:]
            if np.any(rest < 0) or np.any(rest >= np.arange(1, n)):
                raise TopologyError(
                    "nodes must be in topological order: parent[i] in [0, i) for i > 0"
                )

    @property
    def _depth(self) -> np.ndarray:
        """Depth per node, computed on first use when not supplied."""
        if self._depth_cache is None:
            # parent[i] < i, so one forward pass fixes every depth.
            n = self._n
            parent_list = self._parent.tolist()
            depth_list = [0] * n
            for i in range(1, n):
                depth_list[i] = depth_list[parent_list[i]] + 1
            self._depth_cache = np.asarray(depth_list, dtype=np.int64)
        return self._depth_cache

    @property
    def _levels(self) -> List[np.ndarray]:
        """Node indices bucketed by depth, lazy.

        Stable sort by depth keeps preorder (== attachment) order per level.
        """
        if self._levels_cache is None:
            self._levels_cache = level_buckets(self._depth)
        return self._levels_cache

    @property
    def _index(self) -> Dict[str, int]:
        """Name -> preorder index map, built on first name-based access."""
        if self._index_cache is None:
            self._index_cache = {name: i for i, name in enumerate(self._names)}
            if len(self._index_cache) != self._n:
                raise TopologyError("duplicate node names in flat tree")
        return self._index_cache

    @classmethod
    def from_tree(cls, tree: RCTree) -> "FlatTree":
        """Compile an :class:`~repro.core.tree.RCTree` (one O(N) walk).

        Raises :class:`~repro.core.exceptions.TopologyError` when the tree has
        free-standing nodes that are not connected to the input.
        """
        n = len(tree)
        names: List[str] = []
        parent: List[int] = []
        edge_r: List[float] = []
        edge_c: List[float] = []
        node_c: List[float] = []
        is_output: List[bool] = []
        depth: List[int] = []
        # Same iterative preorder as RCTree.preorder(), inlined over the
        # internal dicts (and raw element fields) so compilation stays one
        # cheap pass even on 100k-node trees.
        children = tree._children
        parents = tree._parent
        nodes = tree._nodes
        resistor = Resistor
        append_name = names.append
        append_parent = parent.append
        append_r = edge_r.append
        append_c = edge_c.append
        append_nc = node_c.append
        append_out = is_output.append
        append_depth = depth.append
        stack = [(tree.root, -1, 0)]
        push = stack.append
        while stack:
            name, parent_index, level = stack.pop()
            index = len(names)
            node = nodes[name]
            edge = parents.get(name)
            append_name(name)
            append_parent(parent_index)
            append_depth(level)
            if edge is None:
                append_r(0.0)
                append_c(0.0)
            else:
                element = edge.element
                append_r(element.resistance)
                append_c(0.0 if element.__class__ is resistor else element.capacitance)
            append_nc(node.capacitance)
            append_out(node.is_output)
            level += 1
            for child in reversed(children[name]):
                push((child, index, level))
        if len(names) != n:
            reached = set(names)
            missing = [name for name in tree.nodes if name not in reached]
            raise TopologyError(
                f"nodes {missing!r} are not connected to the input {tree.root!r}"
            )
        # The walk emits valid preorder arrays (and RCTree validated element
        # values on construction), so the array re-validation is skipped.
        return cls(
            names,
            np.asarray(parent, dtype=np.int64),
            np.asarray(edge_r, dtype=np.float64),
            np.asarray(edge_c, dtype=np.float64),
            np.asarray(node_c, dtype=np.float64),
            np.asarray(is_output, dtype=bool),
            _depth=depth,
            _trusted=True,
        )

    @classmethod
    def from_arrays(
        cls,
        parent: Sequence[int],
        edge_r: Sequence[float],
        edge_c: Sequence[float],
        node_c: Sequence[float],
        *,
        names: Optional[Sequence[str]] = None,
        outputs: Optional[Sequence[int]] = None,
    ) -> "FlatTree":
        """Build a flat tree directly from arrays (no ``RCTree`` required).

        ``parent[i]`` must be in ``[0, i)`` for every non-root node and ``-1``
        for node 0 -- any topological order is accepted and is relabelled
        into depth-first preorder internally (the engine relies on every
        subtree occupying a contiguous index range).  ``names`` defaults to
        ``in, n1, n2, ...``; ``outputs`` is a sequence of node indices
        (in the *input* numbering) to mark, defaulting to every leaf.
        """
        parent = np.asarray(parent, dtype=np.int64)
        n = len(parent)
        if n == 0:
            raise TopologyError("a flat tree needs at least the input node")
        if parent[0] != -1 or (
            n > 1 and (np.any(parent[1:] < 0) or np.any(parent[1:] >= np.arange(1, n)))
        ):
            raise TopologyError(
                "nodes must be in topological order: parent[0] == -1 and parent[i] in [0, i)"
            )
        if names is None:
            names = ["in"] + [f"n{i}" for i in range(1, n)]
        # Relabel into preorder so subtrees are contiguous index ranges.
        parent_list = parent.tolist()
        children: List[List[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            children[parent_list[i]].append(i)
        perm: List[int] = []
        stack = [0]
        while stack:
            i = stack.pop()
            perm.append(i)
            stack.extend(reversed(children[i]))
        inverse = [0] * n
        for new, old in enumerate(perm):
            inverse[old] = new
        identity = perm == list(range(n))
        if not identity:
            order = np.asarray(perm, dtype=np.int64)
            names = [names[old] for old in perm]
            new_parent = np.asarray(
                [-1] + [inverse[parent_list[old]] for old in perm[1:]], dtype=np.int64
            )
        else:
            order = None
            new_parent = parent
        is_output = np.zeros(n, dtype=bool)
        if outputs is None:
            leaves = np.ones(n, dtype=bool)
            leaves[new_parent[new_parent >= 0]] = False
            is_output = leaves
        else:
            marked = np.asarray([inverse[i] for i in outputs], dtype=np.int64)
            is_output[marked] = True
        edge_r = np.asarray(edge_r, dtype=np.float64)
        edge_c = np.asarray(edge_c, dtype=np.float64)
        node_c = np.asarray(node_c, dtype=np.float64)
        if order is not None:
            edge_r = edge_r[order]
            edge_c = edge_c[order]
            node_c = node_c[order]
        return cls(names, new_parent, edge_r, edge_c, node_c, is_output)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @property
    def names(self) -> List[str]:
        """Node names in preorder (index order)."""
        return list(self._names)

    @property
    def root(self) -> str:
        """Name of the input node (index 0)."""
        return self._names[0]

    @property
    def outputs(self) -> List[str]:
        """Names of marked output nodes, in preorder."""
        return [self._names[i] for i in np.flatnonzero(self._is_output)]

    @property
    def depth(self) -> int:
        """Maximum node depth (number of vectorized sweeps per pass)."""
        return len(self._levels) - 1

    @property
    def total_capacitance(self) -> float:
        """Total lumped plus distributed capacitance (farads)."""
        return float(self._node_c.sum() + self._edge_c.sum())

    @property
    def output_indices(self) -> np.ndarray:
        """Preorder indices of marked outputs."""
        return np.flatnonzero(self._is_output)

    def index(self, name: str) -> int:
        """Preorder index of node ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownNodeError(name) from None

    def name_of(self, index: int) -> str:
        """Node name at preorder position ``index``."""
        return self._names[index]

    def path_resistance(self, name: str) -> float:
        """``R_kk``: input-to-node path resistance (from :meth:`solve`)."""
        return float(self.solve().ree[self.index(name)])

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def _solve_planes(
        self, planes: Tuple[PlaneInput, ...], count: int
    ) -> ScenarioForestTimes:
        """This tree as a one-tree forest through the engine entry point."""
        from repro.parallel import ForestStructure, solve_forest_batch

        structure = ForestStructure(
            parent=self._parent,
            depth=self._depth,
            offsets=np.asarray([0, self._n], dtype=np.int64),
            levels=self._levels,
        )
        return solve_forest_batch(
            structure,
            (self._edge_r, self._edge_c, self._node_c),
            planes,
            count,
        )

    def solve(self) -> FlatTimes:
        """Characteristic times of every node, recomputing only when stale."""
        if self._times is None:
            self._times = _flat_times(self._solve_planes((None, None, None), 1))
        return self._times

    def solve_batch(
        self,
        edge_r: PlaneInput = None,
        edge_c: PlaneInput = None,
        node_c: PlaneInput = None,
        *,
        count: Optional[int] = None,
    ) -> ScenarioTimes:
        """Characteristic times under ``S`` element parameterizations at once.

        Each plane is ``None`` (the tree's own values for every scenario), a
        ``(S,)`` vector of per-scenario *effective* values broadcast over the
        nodes, or a full ``(S, N)`` matrix of effective element values.  The
        solve is :meth:`solve`'s engine call at width ``S`` (auto-selected
        backend, bounded scenario chunks), and the result carries a leading
        scenario axis.  Batched solves neither read nor fill the
        single-scenario :meth:`solve` cache.
        """
        s = _scenario_count(count, edge_r, edge_c, node_c)
        times = self._solve_planes((edge_r, edge_c, node_c), s)
        return ScenarioTimes(
            tp=times.tp[:, 0],
            tde=times.tde,
            tre=times.tre,
            ree=times.ree,
            total_capacitance=times.total_capacitance[:, 0],
        )

    def solve_scenarios(self, scenarios: Any) -> ScenarioTimes:
        """Apply a scenario plane's derates to this tree and solve, batched.

        ``scenarios`` is a :class:`repro.scenarios.ParameterPlane` (fields
        ``r_scale``/``c_scale``, each ``(S,)`` or ``(S, N)``) or anything with
        a ``tree_plane()`` method producing one -- in particular a
        :class:`repro.scenarios.ScenarioSet`, whose net/driver/period knobs
        do not apply to a bare tree.
        """
        plane = scenarios.tree_plane() if hasattr(scenarios, "tree_plane") else scenarios
        r_scale = np.asarray(plane.r_scale, dtype=float)
        c_scale = np.asarray(plane.c_scale, dtype=float)
        if r_scale.ndim == 1:
            r_scale = r_scale[:, np.newaxis]
        if c_scale.ndim == 1:
            c_scale = c_scale[:, np.newaxis]
        return self.solve_batch(
            edge_r=self._edge_r * r_scale,
            edge_c=self._edge_c * c_scale,
            node_c=self._node_c * c_scale,
            count=r_scale.shape[0],
        )

    def characteristic_times(self, output: Union[str, int]) -> CharacteristicTimes:
        """``T_P``, ``T_De``, ``T_Re`` of one output (a row of :meth:`solve`)."""
        i = output if isinstance(output, int) else self.index(output)
        times = self.solve()
        return CharacteristicTimes(
            output=self._names[i],
            tp=times.tp,
            tde=float(times.tde[i]),
            tre=float(times.tre[i]),
            ree=float(times.ree[i]),
            total_capacitance=times.total_capacitance,
        )

    def characteristic_times_all(
        self, outputs: Optional[Iterable[Union[str, int]]] = None
    ) -> Dict[str, CharacteristicTimes]:
        """Drop-in replacement for :func:`repro.core.timeconstants.characteristic_times_all`.

        Defaults to the marked outputs, or every node when none are marked.
        """
        return {
            self._names[i]: self.characteristic_times(i)
            for i in self._select(outputs).tolist()
        }

    def elmore_delays(
        self, outputs: Optional[Iterable[Union[str, int]]] = None
    ) -> Dict[str, float]:
        """Elmore delay ``T_De`` of many outputs at once."""
        return {
            name: ct.tde for name, ct in self.characteristic_times_all(outputs).items()
        }

    # ------------------------------------------------------------------
    # Batched bounds, eqs. (8)-(17)
    # ------------------------------------------------------------------
    def _select(self, outputs: Optional[Iterable[Union[str, int]]]) -> np.ndarray:
        if outputs is None:
            indices = self.output_indices
            if len(indices) == 0:
                indices = np.arange(self._n)
            return indices
        return np.asarray(
            [o if isinstance(o, int) else self.index(o) for o in outputs],
            dtype=np.int64,
        )

    def delay_bounds_batch(
        self,
        thresholds: Union[Sequence[float], np.ndarray],
        outputs: Optional[Iterable[Union[str, int]]] = None,
    ) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """Eqs. (13)-(17) for a (sinks x thresholds) matrix in one numpy call.

        Returns ``(names, lower, upper)`` where the bound arrays have shape
        ``(len(names), len(thresholds))``.
        """
        indices = self._select(outputs)
        times = self.solve()
        lower, upper = delay_bounds_batch(
            times.tp,
            times.tde[indices],
            times.tre[indices],
            thresholds,
            total_capacitance=times.total_capacitance,
        )
        return [self._names[i] for i in indices], lower, upper

    def voltage_bounds_batch(
        self,
        sample_times: Union[Sequence[float], np.ndarray],
        outputs: Optional[Iterable[Union[str, int]]] = None,
    ) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """Eqs. (8)-(12) for a (sinks x times) matrix in one numpy call.

        Returns ``(names, vmin, vmax)`` with shape ``(len(names), len(times))``.
        """
        indices = self._select(outputs)
        times = self.solve()
        vmin, vmax = voltage_bounds_batch(
            times.tp,
            times.tde[indices],
            times.tre[indices],
            sample_times,
            total_capacitance=times.total_capacitance,
        )
        return [self._names[i] for i in indices], vmin, vmax

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"FlatTree(nodes={self._n}, depth={self.depth}, "
            f"outputs={int(self._is_output.sum())})"
        )
