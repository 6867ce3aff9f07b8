"""Design-scale parasitic ingest: every net of a design in one flat batch.

A :class:`DesignDB` takes a :class:`~repro.sta.netlist.Design` plus per-net
parasitics (dict :class:`~repro.sta.parasitics.NetParasitics`, or array-native
:class:`NetModel` records streamed straight out of
:func:`repro.spef.reader.iter_spef_nets` -- no intermediate dict ``RCTree``)
and compiles one *stage tree* per timed net: the driver's resistance in series
with the net's parasitics, with every sink pin's input capacitance attached at
its node.  All stage trees are concatenated into a single
:class:`~repro.flat.FlatForest` and solved together, so the characteristic
times of **every sink pin of every net** come out of one set of vectorized
level sweeps.

The database is also the incremental substrate for ECO loops:
:meth:`update_net` re-compiles and re-solves exactly one stage tree (O(net
size)) and :meth:`update_instance_cell` touches only the nets electrically
affected by a cell swap (the instance's output net, whose drive resistance
changed, and its input nets, whose sink capacitance changed).  Both splice the
shared forest via :meth:`~repro.flat.FlatForest.replace_tree` so batch
consumers (e.g. :func:`repro.apps.nets.design_net_summaries`) stay coherent,
and splice the scenario layout -- built once at compile time -- over the
same node window, so a what-if after an ECO costs what a warm one does.

Every stage is compiled one way
(:class:`~repro.sta.delaycalc.StageGather` into
:func:`~repro.sta.delaycalc.compile_stage_block`): a per-net loop only
gathers each net's base arrays, drive resistance and sink pins, and the
stages come out as one block -- the layout
:meth:`~repro.flat.FlatForest.from_block` adopts whole.  A bulk build
compiles every timed net; an ECO compiles and solves the nets it touches
as one small block.

With ``store_dir=`` the shared forest goes out of core: the block is cut at
about one shard of nodes and each piece goes straight into a
:class:`repro.store.ShardStoreWriter` (never a concatenated forest), and
every solve runs shard-by-shard through :class:`repro.store.StoredForest`
-- the same sink table, the same incremental updates, with working RSS
bounded by one shard plus one scenario chunk instead of the design.  A
store shard in RAM is a :class:`~repro.flat.FlatForest` too, so the
scenario derate planes come from one function (:func:`_derate_planes`),
run once over the in-RAM forest or once per shard.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import accumulate
from typing import (
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.exceptions import AnalysisError
from repro.flat import FlatForest, FlatTree
from repro.spef.reader import SpefNet, iter_spef_nets, spef_block
from repro.sta.cells import Cell
from repro.sta.delaycalc import DRIVE_NODE, StageBlock, StageGather
from repro.sta.netlist import Design, Instance, Net
from repro.sta.parasitics import NetParasitics
from repro.store import DEFAULT_SHARD_NODES, ShardStoreWriter, StoredForest

__all__ = [
    "DesignDB",
    "NetModel",
    "SinkTable",
    "ScenarioSinkTable",
    "WhatIfPlanes",
]


@dataclass(frozen=True)
class NetModel:
    """Array-native parasitics of one net: a compiled tree or a lumped cap.

    ``base`` is the net's parasitic tree compiled to a
    :class:`~repro.flat.FlatTree` (root = driver node); ``pin_nodes`` maps sink
    pins to node names inside it.  When ``base`` is ``None`` the net is a
    single lumped capacitor.  This is the representation
    :class:`DesignDB` keeps for every net -- dict
    :class:`~repro.sta.parasitics.NetParasitics` are converted on ingest, SPEF
    nets arrive in this form directly.
    """

    net: str
    lumped_capacitance: float = 0.0
    base: Optional[FlatTree] = None
    pin_nodes: Mapping[str, str] = field(default_factory=dict)

    @classmethod
    def from_parasitics(cls, parasitics: NetParasitics) -> "NetModel":
        """Compile dict parasitics once into the array form."""
        base = None
        if parasitics.tree is not None:
            base = FlatTree.from_tree(parasitics.tree)
        return cls(
            net=parasitics.net,
            lumped_capacitance=parasitics.lumped_capacitance,
            base=base,
            pin_nodes=dict(parasitics.pin_nodes),
        )


@dataclass(frozen=True)
class SinkTable:
    """Characteristic times of every sink pin of every timed net, as columns.

    Rows are grouped by net (``slice_of`` gives a net's contiguous row range)
    and ordered like ``Net.loads`` within each net.  ``live`` masks rows whose
    stage actually carries capacitance; dead rows have zero delay under every
    model.
    """

    nets: List[str]
    pins: List[str]
    tp: np.ndarray
    tde: np.ndarray
    tre: np.ndarray
    total_capacitance: np.ndarray

    @property
    def live(self) -> np.ndarray:
        """Rows whose stage tree carries capacitance (bounds are defined)."""
        return self.total_capacitance > 0.0

    def __len__(self) -> int:
        return len(self.pins)


@dataclass(frozen=True)
class ScenarioSinkTable:
    """Per-sink characteristic times under every scenario, as matrices.

    The row axis (``nets``/``pins``) is exactly the single-scenario
    :class:`SinkTable`'s; every numeric array gains a leading ``(S,)``
    scenario axis.  Produced by :meth:`DesignDB.solve_scenarios`.
    """

    scenario_names: List[str]
    nets: List[str]
    pins: List[str]
    tp: np.ndarray
    tde: np.ndarray
    tre: np.ndarray
    total_capacitance: np.ndarray

    @property
    def live(self) -> np.ndarray:
        """``(S, rows)`` mask of stages that carry capacitance per scenario."""
        return self.total_capacitance > 0.0

    @property
    def scenario_count(self) -> int:
        """Number of scenarios ``S``."""
        return self.tp.shape[0]

    def __len__(self) -> int:
        return len(self.pins)


class WhatIfPlanes(NamedTuple):
    """Candidate cell swaps as planes over the stage trees they touch.

    ``forest`` is the sub-forest of the touched trees (``None`` when no
    swap touches any tree) and ``nets`` names the timed net of each of its
    trees.  ``sink_nodes`` / ``sink_tree`` give the sub-forest solve row
    and tree of every sink row of those nets, rows in ``nets`` order.
    ``edge_r`` and ``node_c`` are ``(S, n_sub)``: plane ``s`` applies swap
    ``s``.  Produced by :meth:`DesignDB.whatif_cell_elements`.
    """

    forest: Optional[FlatForest]
    nets: List[str]
    sink_nodes: np.ndarray
    sink_tree: np.ndarray
    edge_r: np.ndarray
    node_c: np.ndarray


class _PendingStage(NamedTuple):
    """One recompiled stage waiting to be spliced into forest and layout."""

    flat: FlatTree
    wire_c: np.ndarray  # wire-only node capacitance of the stage
    sink_local: np.ndarray  # stage node per sink row, in row order
    sink_c: np.ndarray  # pin capacitance per sink row
    rows: slice  # the net's sink-table rows


class _ScenarioLayout:
    """Forest-aligned metadata the scenario solver derates against.

    Built once with the forest and patched by :meth:`splice` whenever the
    forest splices a recompiled stage, so it always describes the forest's
    current node numbering.
    """

    __slots__ = ("wire_c", "pin_c", "sink_nodes", "sink_tree")

    def __init__(self, wire_c, pin_c, sink_nodes, sink_tree):
        self.wire_c = wire_c  # (N,) wire-only node capacitance
        self.pin_c = pin_c  # (N,) pin-load capacitance merged at each node
        self.sink_nodes = sink_nodes  # (rows,) forest node per sink-table row
        self.sink_tree = sink_tree  # (rows,) forest tree per sink-table row

    def splice(self, lo: int, hi: int, stage: _PendingStage) -> None:
        """Replace one tree's node window ``[lo, hi)`` by ``stage``.

        ``lo``/``hi`` are the window the forest splices, so a size change
        shifts every later node here exactly as it does there.  Sink rows
        keep their tree (rows are fixed by the net's loads).
        """
        size = len(stage.wire_c)
        delta = size - (hi - lo)
        if delta:
            self.wire_c = np.concatenate(
                [self.wire_c[:lo], stage.wire_c, self.wire_c[hi:]]
            )
            self.pin_c = np.concatenate(
                [self.pin_c[:lo], np.zeros(size), self.pin_c[hi:]]
            )
            self.sink_nodes[stage.rows.stop :] += delta
        else:
            self.wire_c[lo:hi] = stage.wire_c
            self.pin_c[lo:hi] = 0.0
        nodes = stage.sink_local + lo
        self.sink_nodes[stage.rows] = nodes
        # Sequential in row order: bitwise the sums the compile formed.
        np.add.at(self.pin_c, nodes, stage.sink_c)


class _StageEntry:
    """Bookkeeping for one timed net's compiled stage tree."""

    __slots__ = ("net", "tree_index", "row_slice", "pin_index")

    def __init__(self, net: str, tree_index: int, row_slice: slice):
        self.net = net
        self.tree_index = tree_index
        self.row_slice = row_slice
        self.pin_index: Dict[str, int] = {}


#: One block's piece of the scenario layout: wire capacitance, sink nodes
#: and sink capacitances, in forest numbering.
_LayoutPart = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _emit_block(
    gather: StageGather,
    writer: Optional[ShardStoreWriter],
    layout: List[_LayoutPart],
) -> StageBlock:
    """Compile one gathered block and record its piece of the layout.

    A store-backed build hands the block straight to the shard writer.
    """
    block = gather.compile()
    offset = 0 if writer is None else writer.node_count
    layout.append(
        (
            block.wire_c,
            block.sink_nodes + offset,
            block.sink_c,
        )
    )
    if writer is not None:
        writer.add_block(
            block.starts,
            block.parent,
            block.edge_r,
            block.edge_c,
            block.node_c,
            depth=block.depth,
        )
    return block


def _stage_tree(block: StageBlock, names: List[str], lo: int, hi: int) -> FlatTree:
    """The stage at block nodes ``[lo, hi)`` as a tree (tree-local parents)."""
    parent = block.parent[lo:hi] - lo
    parent[0] = -1
    return FlatTree(
        names[lo:hi],
        parent,
        block.edge_r[lo:hi],
        block.edge_c[lo:hi],
        block.node_c[lo:hi],
        block.is_output[lo:hi],
        _depth=block.depth[lo:hi],
        # Stage arrays are valid by construction.
        _trusted=True,
    )


def _derate_planes(
    forest: FlatForest,
    first_tree: int,
    tree_scale: np.ndarray,
    scenarios,
    wire_c: np.ndarray,
    pin_c: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The effective ``(S, n)`` element planes of a stage forest.

    ``forest`` holds the stage trees from ``first_tree`` on (the whole
    design, or one store shard); ``tree_scale`` is the ``(trees, S)``
    per-net scale and ``wire_c`` / ``pin_c`` the forest's preorder slice
    of the scenario layout.  The planes are in the forest's solve
    numbering, which is what its ``solve_batch`` takes.  Factor planes
    are built node-major -- ``(n, S)``, the kernels' own orientation --
    and returned as transposed views, so the engine's contiguity pass
    costs nothing.
    """
    plan = forest._plan
    node_scale = tree_scale[first_tree : first_tree + len(forest)][forest._tree_id]
    r_factor = node_scale * scenarios.r_derates[np.newaxis, :]
    drive_rows = plan.position[forest._offsets[:-1] + DRIVE_NODE]
    r_factor[drive_rows, :] = scenarios.drive_derates[np.newaxis, :]
    c_derate = scenarios.c_derates[np.newaxis, :]
    wire_factor = node_scale * c_derate
    wire_c = wire_c[plan.order]
    pin_c = pin_c[plan.order]
    return (
        (forest._edge_r[:, np.newaxis] * r_factor).T,
        (forest._edge_c[:, np.newaxis] * wire_factor).T,
        (wire_c[:, np.newaxis] * wire_factor + pin_c[:, np.newaxis] * c_derate).T,
    )


class DesignDB:
    """A design plus parasitics compiled for batched, incremental analysis."""

    def __init__(
        self,
        design: Design,
        parasitics: Optional[Mapping[str, Union[NetParasitics, NetModel]]] = None,
        *,
        input_drive_resistance: float = 0.0,
        default_wire_capacitance: float = 0.0,
        store_dir: Optional[str] = None,
    ):
        models: Dict[str, NetModel] = {}
        for name, record in (parasitics or {}).items():
            models[name] = (
                record
                if isinstance(record, NetModel)
                else NetModel.from_parasitics(record)
            )
        self._build(
            design,
            design.connectivity(),
            models,
            input_drive_resistance,
            default_wire_capacitance,
            store_dir,
        )

    def _build(
        self,
        design: Design,
        nets: Dict[str, Net],
        models: Dict[str, NetModel],
        input_drive_resistance: float,
        default_wire_capacitance: float,
        store_dir: Optional[str],
    ) -> None:
        """Adopt an already-built net table and models, then compile."""
        self._design = design
        self._input_drive_resistance = input_drive_resistance
        self._default_wire_capacitance = default_wire_capacitance
        self._store_dir = store_dir
        self._store: Optional[StoredForest] = None
        self._nets = nets
        self._clock_nets = set(design.clocks)
        self._instances = design.instances
        self._models = models
        self._entries: Dict[str, _StageEntry] = {}
        self._compile()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _model_of(self, net: str) -> NetModel:
        model = self._models.get(net)
        if model is None:
            model = NetModel(
                net=net, lumped_capacitance=self._default_wire_capacitance
            )
            self._models[net] = model
        return model

    def _drive_resistance(self, net: Net) -> float:
        if net.driver.is_port:
            return self._input_drive_resistance
        return self._instances[net.driver.instance].cell.drive_resistance

    def _sink_capacitances(self, net: Net) -> Dict[str, float]:
        instances = self._instances
        return {
            str(load): (
                0.0
                if load.instance is None
                else instances[load.instance].cell.input_capacitance
            )
            for load in net.loads
        }

    def _gather_stage(
        self, gather: StageGather, net: Net, sinks: Dict[str, float]
    ) -> Dict[str, int]:
        """Add ``net``'s stage to ``gather``; returns its ``pin_index``."""
        model = self._model_of(net.name)
        return gather.add(
            model.base,
            model.lumped_capacitance,
            model.pin_nodes,
            self._drive_resistance(net),
            sinks,
        )

    def _compile(self) -> None:
        """Compile every timed net's stage tree and solve them together.

        The per-net loop only gathers inputs; :func:`compile_stage_block`
        then builds the stages in one vectorized pass.  In RAM that is one
        block, adopted whole as the forest.  With ``store_dir=`` the block
        is cut at about one shard of nodes and each piece goes straight
        into the shard writer, so peak RSS during compile stays O(shard).
        The scenario layout is assembled from the same blocks; ECOs patch
        it from then on (:meth:`_active_forest`).
        """
        self._pending: Dict[int, _PendingStage] = {}
        self._layout: Optional[_ScenarioLayout] = None
        self._forest: Optional[FlatForest] = None
        clock_nets = self._clock_nets
        in_ram = self._store_dir is None
        writer: Optional[ShardStoreWriter] = None
        if not in_ram:
            writer = ShardStoreWriter(
                self._store_dir, shard_nodes=DEFAULT_SHARD_NODES, overwrite=True
            )
        nets: List[str] = []
        pins: List[str] = []
        layout_parts: List[_LayoutPart] = []
        row = 0
        block: Optional[StageBlock] = None
        gather = StageGather(keep_names=in_ram)
        try:
            for net in self._nets.values():
                if net.driver is None or not net.loads:
                    continue
                if net.name in clock_nets:
                    continue
                name = net.name
                # One sink row per pin, in load order (pin_index keeps it).
                sinks = self._sink_capacitances(net)
                count = len(sinks)
                entry = _StageEntry(
                    name, len(self._entries), slice(row, row + count)
                )
                entry.pin_index = self._gather_stage(gather, net, sinks)
                self._entries[name] = entry
                nets += [name] * count
                pins += sinks
                row += count
                if writer is not None and gather.nodes >= DEFAULT_SHARD_NODES:
                    _emit_block(gather, writer, layout_parts)
                    gather = StageGather(keep_names=False)
            if gather.nodes:
                block = _emit_block(gather, writer, layout_parts)
        except BaseException:
            if writer is not None:
                writer.abort()
            raise
        self._timed_net_order = list(self._entries)

        times = None
        if writer is not None:
            if self._entries:
                writer.close()
                self._store = StoredForest(self._store_dir)
                times = self._store.solve()
            else:
                writer.abort()
        elif block is not None:
            self._forest = FlatForest.from_block(
                block.starts,
                block.parent,
                block.edge_r,
                block.edge_c,
                block.node_c,
                depth=block.depth,
                is_output=block.is_output,
                names=gather.names,
            )
            times = self._forest.solve()
        if times is not None:
            wire_c, indices, sink_c = (
                np.concatenate(column) for column in zip(*layout_parts)
            )
            tree_of_row = np.repeat(
                np.arange(len(self._entries), dtype=np.int64),
                [len(e.pin_index) for e in self._entries.values()],
            )
            pin_c = np.zeros(len(wire_c))
            # Sequential in row order: bitwise the compile's pin-cap sums.
            np.add.at(pin_c, indices, sink_c)
            self._layout = _ScenarioLayout(
                wire_c=wire_c,
                pin_c=pin_c,
                sink_nodes=indices,
                sink_tree=tree_of_row,
            )
            # A store's results are in preorder, the forest's in its rows.
            rows = indices
            if self._forest is not None:
                rows = self._forest._plan.position[indices]
            tp = np.asarray(times.tp)[tree_of_row]
            tde = np.asarray(times.tde[rows])
            tre = np.asarray(times.tre[rows])
            total = np.asarray(times.total_capacitance)[tree_of_row]
        else:
            tp = np.zeros(0)
            tde = np.zeros(0)
            tre = np.zeros(0)
            total = np.zeros(0)
        self._sinks = SinkTable(
            nets=nets, pins=pins, tp=tp, tde=tde, tre=tre, total_capacitance=total
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def design(self) -> Design:
        """The ingested design."""
        return self._design

    @property
    def nets(self) -> Dict[str, Net]:
        """The design's net table (driver and loads per net)."""
        return self._nets

    @property
    def clock_nets(self) -> set:
        """Nets declared as (ideal) clocks."""
        return set(self._clock_nets)

    @property
    def instances(self) -> Dict[str, "Instance"]:
        """Instances by name (shared with the design)."""
        return self._instances

    @property
    def sinks(self) -> SinkTable:
        """The batched per-sink characteristic times of every timed net."""
        return self._sinks

    def _active_forest(self) -> Optional[Union[FlatForest, StoredForest]]:
        """Whichever forest backs this database, with pending splices applied.

        Incremental updates queue their recompiled stages and the splices
        are applied here on first read -- an ECO loop that never consults the
        forest pays nothing for keeping it coherent.  Each stage splices the
        forest and the scenario layout over the same node window, so the
        two never disagree.  Both forest kinds expose the same
        ``replace_tree`` / ``solve_batch`` / ``_offsets`` surface, so the
        splice loop is shared.
        """
        target = self._store if self._store is not None else self._forest
        if self._pending:
            assert target is not None and self._layout is not None
            for tree_index, stage in self._pending.items():
                offsets = target._offsets  # a store re-reads it after a splice
                lo, hi = int(offsets[tree_index]), int(offsets[tree_index + 1])
                target.replace_tree(tree_index, stage.flat)
                self._layout.splice(lo, hi, stage)
            self._pending.clear()
        return target

    @property
    def forest(self) -> Optional[FlatForest]:
        """The in-RAM stage-tree forest (``None`` for a design with no timed nets).

        A store-backed database (``store_dir=``) has no resident forest by
        design; reach for :attr:`store` instead.
        """
        if self._store is not None:
            raise AnalysisError(
                "this database is store-backed (store_dir=); its forest lives"
                " on disk -- use .store for the StoredForest"
            )
        forest = self._active_forest()
        assert forest is None or isinstance(forest, FlatForest)
        return forest

    @property
    def store(self) -> Optional[StoredForest]:
        """The on-disk forest behind ``store_dir=`` (``None`` when in-RAM)."""
        if self._store is None:
            return None
        store = self._active_forest()
        assert isinstance(store, StoredForest)
        return store

    def stage_tree(self, net: str) -> FlatTree:
        """The compiled stage tree of one timed net.

        A store-backed database does not retain compiled stages in RAM, so
        the tree is recompiled on demand as a one-net block (O(net size)).
        """
        entry = self._entries.get(net)
        if entry is None:
            raise AnalysisError(f"net {net!r} is not a timed net of this design")
        if self._store is not None:
            record = self._nets[net]
            gather = StageGather(keep_names=True)
            self._gather_stage(gather, record, self._sink_capacitances(record))
            return _stage_tree(gather.compile(), gather.names, 0, gather.nodes)
        pending = self._pending.get(entry.tree_index)
        if pending is not None:
            return pending.flat
        assert self._forest is not None  # a timed net implies a forest
        return self._forest.tree(entry.tree_index)

    def sink_rows(self, net: str) -> slice:
        """Row range of ``net``'s sinks inside :attr:`sinks`."""
        entry = self._entries.get(net)
        if entry is None:
            raise AnalysisError(f"net {net!r} is not a timed net of this design")
        return entry.row_slice

    def timed_nets(self) -> List[str]:
        """Names of every net with a compiled stage tree, in table order."""
        return list(self._timed_net_order)

    def net_model(self, net: str) -> NetModel:
        """The (array-native) parasitics currently attached to ``net``."""
        return self._model_of(net)

    def drive_resistance_of(self, net: str) -> float:
        """Drive resistance at the head of ``net`` (cell R, or the input default)."""
        record = self._nets.get(net)
        if record is None or record.driver is None:
            raise AnalysisError(f"net {net!r} has no driver")
        return self._drive_resistance(record)

    def sink_capacitances_of(self, net: str) -> Dict[str, float]:
        """Input capacitance presented by each load pin of ``net``."""
        record = self._nets.get(net)
        if record is None:
            raise AnalysisError(f"unknown net {net!r}")
        return self._sink_capacitances(record)

    # ------------------------------------------------------------------
    # Scenario-batched analysis
    # ------------------------------------------------------------------
    def _scenario_layout(self) -> _ScenarioLayout:
        """Forest-aligned wire/pin/driver metadata, current with every ECO."""
        self._active_forest()  # splices pending stages into the layout too
        assert self._layout is not None  # callers check for timed nets
        return self._layout

    def solve_scenarios(
        self,
        scenarios,
        *,
        engine: Optional[str] = None,
    ) -> ScenarioSinkTable:
        """Characteristic times of every sink pin under every scenario.

        One scenario-batched forest solve replaces the per-scenario re-ingest
        loop: the set's derates compile to per-node factor planes (wire R x
        ``r_derate`` x per-net scale, driver R x ``drive_derate``, wire C x
        ``c_derate`` x per-net scale, pin loads x ``c_derate``) and
        :meth:`repro.flat.FlatForest.solve_batch` sweeps all scenarios at
        once.  Row order matches :attr:`sinks`; results always reflect the
        database's *current* state (incremental edits included).

        ``engine`` selects the :mod:`repro.parallel` kernel backend for the
        forest solve (``None`` auto-selects by sweep size);
        results are identical for every backend.
        """
        sinks = self._sinks
        names = list(scenarios.names)
        s = len(names)
        if self._forest is None and self._store is None:
            empty = np.zeros((s, 0))
            return ScenarioSinkTable(
                scenario_names=names,
                nets=list(sinks.nets),
                pins=list(sinks.pins),
                tp=empty,
                tde=empty.copy(),
                tre=empty.copy(),
                total_capacitance=empty.copy(),
            )
        timed = set(self._timed_net_order)
        for scenario in scenarios:
            unknown = sorted(set(scenario.net_scale) - timed)
            if unknown:
                raise AnalysisError(
                    f"scenario {scenario.name!r} scales nets {unknown!r} that are "
                    "not timed nets of this design (misspelled, undriven, "
                    "loadless or clock nets); a silent no-op corner would "
                    "report results for a scenario that was never applied"
                )
        layout = self._scenario_layout()
        forest = self._active_forest()
        # (trees, S): each forest gathers its trees' rows from here.
        tree_scale = np.ascontiguousarray(
            scenarios.net_scales(self._timed_net_order).T
        )
        if self._store is not None:
            store = forest

            def planes_for(shard: int, node_lo: int, node_hi: int):
                # One shard's effective (S, n) planes, fabricated on demand
                # from the shard's own hot forest -- the sweep never holds
                # an (S, N) design-wide matrix.
                _, _, tree_lo, _ = store.shard_bounds(shard)
                window = slice(node_lo, node_hi)
                return _derate_planes(
                    store.materialize(shard),
                    tree_lo,
                    tree_scale,
                    scenarios,
                    layout.wire_c[window],
                    layout.pin_c[window],
                )

            times = store.solve_batch(
                count=s, engine=engine, planes_for=planes_for
            )
            rows = layout.sink_nodes  # a store's results are in preorder
        else:
            times = forest.solve_batch(
                *_derate_planes(
                    forest, 0, tree_scale, scenarios, layout.wire_c, layout.pin_c
                ),
                count=s,
                engine=engine,
            )
            rows = forest._plan.position[layout.sink_nodes]
        return ScenarioSinkTable(
            scenario_names=names,
            nets=list(sinks.nets),
            pins=list(sinks.pins),
            tp=times.tp[:, layout.sink_tree],
            tde=times.tde[:, rows],
            tre=times.tre[:, rows],
            total_capacitance=times.total_capacitance[:, layout.sink_tree],
        )

    def whatif_cell_elements(self, swaps: Sequence[Tuple[str, Cell]]) -> "WhatIfPlanes":
        """Element planes over the stage trees a batch of cell swaps touches.

        Each candidate ``(instance, cell)`` touches the stage tree of the
        instance's output net (the candidate's drive resistance on the
        edge into :data:`~repro.sta.delaycalc.DRIVE_NODE`) and, when the
        input capacitance changes, every timed net the instance loads (the
        delta added at the instance's pin node).  Every other tree's times are exactly the
        base solve's, so only the touched trees are gathered into a
        sub-forest (:meth:`repro.flat.FlatForest.subforest`), and plane
        ``s`` edits only swap ``s``'s trees.  Nothing in the database is
        mutated -- this is the what-if substrate
        :meth:`repro.graph.TimingGraph.whatif_resize_worst_slack` solves.
        Each swap must pass :meth:`check_cell_swap`.
        """
        if self._store is not None:
            raise AnalysisError(
                "what-if cell planes need the in-RAM forest; a store-backed"
                " database (store_dir=) evaluates candidate swaps through"
                " update_instance_cell instead"
            )
        forest = self.forest
        if forest is None:
            raise AnalysisError("the design has no timed nets to evaluate")
        # (swap row, tree, local node, value): drive R is set, pin loads add.
        drives: List[Tuple[int, int, float]] = []
        loads: List[Tuple[int, int, int, float]] = []
        for row, (instance, cell) in enumerate(swaps):
            record = self.check_cell_swap(instance, cell)
            old = record.cell
            out_entry = self._entries.get(record.connections.get(old.output, ""))
            if out_entry is not None:
                drives.append((row, out_entry.tree_index, cell.drive_resistance))
            delta = cell.input_capacitance - old.input_capacitance
            if delta:
                # Every non-output pin (inputs and a sequential cell's clock
                # pin alike) presents the input capacitance on its net, so a
                # clock pin fed by a *timed* net must see the delta too --
                # exactly the nets update_instance_cell would recompile.
                for pin, net_name in record.connections.items():
                    if pin == old.output:
                        continue
                    entry = self._entries.get(net_name)
                    if entry is None:
                        continue
                    local = entry.pin_index.get(f"{instance}/{pin}")
                    if local is not None:
                        loads.append((row, entry.tree_index, local, delta))
        trees = sorted({edit[1] for edit in drives} | {edit[1] for edit in loads})
        s = len(swaps)
        if not trees:
            empty = np.zeros((s, 0))
            none = np.zeros(0, dtype=np.int64)
            return WhatIfPlanes(None, [], none, none, empty, empty)
        sub = forest.subforest(trees)
        starts = sub._offsets
        position = sub._plan.position  # preorder node -> the sub's solve row
        slot = {tree: k for k, tree in enumerate(trees)}
        # Node-major working planes, returned as transposed views (see
        # solve_scenarios): the solve engines consume them copy-free.
        edge_r = np.repeat(sub._edge_r[:, np.newaxis], s, axis=1).T
        node_c = np.repeat(sub._node_c[:, np.newaxis], s, axis=1).T
        for row, tree, resistance in drives:
            edge_r[row, position[starts[slot[tree]] + DRIVE_NODE]] = resistance
        for row, tree, local, delta in loads:
            node_c[row, position[starts[slot[tree]] + local]] += delta
        # Sink rows of the touched nets, net by net in sub-forest order.
        layout = self._layout
        assert layout is not None  # the forest read above spliced it
        offsets = forest._offsets
        nets = [self._timed_net_order[tree] for tree in trees]
        rows = [self._entries[net].row_slice for net in nets]
        sink_nodes = position[
            np.concatenate(
                [
                    layout.sink_nodes[window] + (starts[k] - offsets[tree])
                    for k, (tree, window) in enumerate(zip(trees, rows))
                ]
            )
        ]
        sink_tree = np.repeat(
            np.arange(len(trees), dtype=np.int64),
            [window.stop - window.start for window in rows],
        )
        return WhatIfPlanes(sub, nets, sink_nodes, sink_tree, edge_r, node_c)

    def check_cell_swap(self, instance: str, cell: Cell) -> Instance:
        """The instance's record, if its cell may be swapped for ``cell``.

        Raises :class:`~repro.core.exceptions.AnalysisError` for an unknown
        instance or a swap that changes the pin interface (pin set or
        output pin).  :meth:`update_instance_cell` and
        :meth:`whatif_cell_elements` both apply this one check, so a what-if
        never scores a swap the ECO would refuse.
        """
        record = self._instances.get(instance)
        if record is None:
            raise AnalysisError(f"unknown instance {instance!r}")
        old = record.cell
        if set(old.pins) != set(cell.pins) or old.output != cell.output:
            raise AnalysisError(
                f"cell swap {old.name!r} -> {cell.name!r} changes the pin "
                "interface; only footprint-compatible swaps are supported"
            )
        return record

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------
    def _resolve_net(self, net: str) -> _StageEntry:
        entry = self._entries.get(net)
        if entry is None:
            raise AnalysisError(
                f"net {net!r} has no stage tree (undriven, loadless or a clock net); "
                "incremental updates only apply to timed nets"
            )
        return entry

    def _recompile(self, entries: Sequence[_StageEntry]) -> None:
        """Re-compile + re-solve the stages of ``entries`` as one block.

        The nets are gathered and compiled together
        (:class:`~repro.sta.delaycalc.StageGather`), adopted as one small
        forest and solved once; every touched sink row is patched now, and
        each stage is queued for the forest and scenario-layout splice that
        :meth:`_active_forest` applies.
        """
        if not entries:
            return
        gather = StageGather(keep_names=True)
        for entry in entries:
            net = self._nets[entry.net]
            entry.pin_index = self._gather_stage(
                gather, net, self._sink_capacitances(net)
            )
        block = gather.compile()
        forest = FlatForest.from_block(
            block.starts,
            block.parent,
            block.edge_r,
            block.edge_c,
            block.node_c,
            depth=block.depth,
            is_output=block.is_output,
            names=None,
        )
        times = forest.solve()
        # Sink rows run stage by stage, each in its net's row order.
        nodes = forest._plan.position[block.sink_nodes]
        tde, tre = times.tde[nodes], times.tre[nodes]
        table = self._sinks
        bounds = block.starts.tolist()
        sink_bounds = list(accumulate(gather.sink_counts, initial=0))
        for k, entry in enumerate(entries):
            window = entry.row_slice
            first, last = sink_bounds[k], sink_bounds[k + 1]
            table.tp[window] = times.tp[k]
            table.tde[window] = tde[first:last]
            table.tre[window] = tre[first:last]
            table.total_capacitance[window] = times.total_capacitance[k]
            lo, hi = bounds[k], bounds[k + 1]
            self._pending[entry.tree_index] = _PendingStage(
                flat=_stage_tree(block, gather.names, lo, hi),
                wire_c=block.wire_c[lo:hi],
                sink_local=block.sink_nodes[first:last] - lo,
                sink_c=block.sink_c[first:last],
                rows=window,
            )

    def update_net(
        self, net: str, parasitics: Union[NetParasitics, NetModel]
    ) -> slice:
        """Replace one net's parasitics and re-solve just its stage tree.

        Returns the net's (unchanged) sink-row range so callers -- most
        importantly :meth:`repro.graph.TimingGraph.update_net` -- can patch
        exactly the affected arc delays.
        """
        entry = self._resolve_net(net)
        model = (
            parasitics
            if isinstance(parasitics, NetModel)
            else NetModel.from_parasitics(parasitics)
        )
        if model.net != net:
            raise AnalysisError(
                f"parasitics are for net {model.net!r}, not {net!r}"
            )
        self._models[net] = model
        self._recompile([entry])
        return entry.row_slice

    def update_instance_cell(self, instance: str, cell: Cell) -> List[str]:
        """Swap one instance's library cell and re-solve the affected nets.

        A cell swap changes the drive resistance of the instance's *output*
        net and the sink capacitance it presents on each of its *input* nets;
        only those stage trees are re-compiled, together as one block.
        Returns the affected timed net names (the instance's intrinsic-delay
        change is the caller's to propagate -- see
        :meth:`repro.graph.TimingGraph.resize_instance`).
        """
        record = self.check_cell_swap(instance, cell)
        record.cell = cell
        # A net on several of the instance's pins is recompiled once.
        affected = list(
            dict.fromkeys(
                net for net in record.connections.values() if net in self._entries
            )
        )
        self._recompile([self._entries[net] for net in affected])
        return affected

    # ------------------------------------------------------------------
    # SPEF ingest
    # ------------------------------------------------------------------
    @classmethod
    def from_spef(
        cls,
        design: Design,
        spef: str,
        *,
        is_path: bool = False,
        input_drive_resistance: float = 0.0,
        default_wire_capacitance: float = 0.0,
        store_dir: Optional[str] = None,
    ) -> "DesignDB":
        """Build a database by streaming a SPEF file straight into net models.

        Each ``*D_NET`` section is parsed directly into parent-index arrays
        (:func:`repro.spef.reader.iter_spef_nets` -- no intermediate dict
        ``RCTree``), matched to the design net of the same name, and its sink
        pins are bound to the parasitic nodes carrying the same
        ``instance/pin`` (or port) name.  Nets absent from the SPEF fall back
        to the default lumped wire capacitance.  With ``is_path=True`` the
        file is streamed line by line.  Malformed SPEF raises
        :class:`~repro.core.exceptions.ParseError`.
        """
        nets = design.connectivity()
        opened = open(spef, "r", encoding="utf-8") if is_path else nullcontext(spef)
        with opened as source:
            records = [
                record for record in iter_spef_nets(source) if record.name in nets
            ]
        db = cls.__new__(cls)
        db._build(
            design,
            nets,
            _spef_models(records, nets),
            input_drive_resistance,
            default_wire_capacitance,
            store_dir,
        )
        return db


def _spef_models(
    records: List[SpefNet], nets: Dict[str, Net]
) -> Dict[str, NetModel]:
    """Net models over the reader's preorder arrays, adopted as they are.

    :func:`~repro.spef.reader.spef_block` checks the values and marks the
    outputs; this binds design sink pins to parasitic nodes and views each
    record as a base tree.
    """
    if not records:
        return {}
    starts, _, _, _, _, is_output = spef_block(records)
    edge_c = np.zeros(len(is_output), dtype=np.float64)
    bounds = starts.tolist()
    models: Dict[str, NetModel] = {}
    for record, lo, hi in zip(records, bounds, bounds[1:]):
        index = record.index
        loads = map(str, nets[record.name].loads)
        pin_nodes = {pin: pin for pin in loads if pin in index}
        base = FlatTree(
            record.node_names,
            record.parent,
            record.resistance,
            edge_c[lo:hi],
            record.capacitance,
            is_output[lo:hi],
            _depth=record.depth,
            _trusted=True,
            _index=index,
        )
        models[record.name] = NetModel(net=record.name, base=base, pin_nodes=pin_nodes)
    return models
