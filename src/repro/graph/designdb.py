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
level sweeps -- this is what replaces the per-net, per-model dict walks of the
legacy :class:`~repro.sta.analysis.TimingAnalyzer`.

The database is also the incremental substrate for ECO loops:
:meth:`update_net` re-compiles and re-solves exactly one stage tree (O(net
size)) and :meth:`update_instance_cell` touches only the nets electrically
affected by a cell swap (the instance's output net, whose drive resistance
changed, and its input nets, whose sink capacitance changed).  Both splice the
shared forest via :meth:`~repro.flat.FlatForest.replace_tree` so batch
consumers (e.g. :func:`repro.apps.nets.design_net_summaries`) stay coherent.

With ``store_dir=`` the shared forest goes out of core: stage trees stream
straight into a :class:`repro.store.ShardStoreWriter` as they compile (one
resident stage at a time, never a concatenated forest) and every solve runs
shard-by-shard through :class:`repro.store.StoredForest` -- the same sink
table, the same incremental updates, with working RSS bounded by one shard
plus one scenario chunk instead of the design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import AnalysisError
from repro.flat import FlatForest, FlatTree
from repro.sta.cells import Cell
from repro.sta.delaycalc import compile_stage
from repro.sta.netlist import Design, Net
from repro.sta.parasitics import NetParasitics
from repro.store import ShardStoreWriter, StoredForest

__all__ = ["DesignDB", "NetModel", "SinkTable", "ScenarioSinkTable"]


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


class _ScenarioLayout:
    """Forest-aligned metadata the scenario solver derates against."""

    __slots__ = ("wire_c", "pin_c", "drive_nodes", "sink_nodes", "sink_tree")

    def __init__(self, wire_c, pin_c, drive_nodes, sink_nodes, sink_tree):
        self.wire_c = wire_c  # (N,) wire-only node capacitance
        self.pin_c = pin_c  # (N,) pin-load capacitance merged at each node
        self.drive_nodes = drive_nodes  # (trees,) node carrying the drive R edge
        self.sink_nodes = sink_nodes  # (rows,) forest node per sink-table row
        self.sink_tree = sink_tree  # (rows,) forest tree per sink-table row


class _StageEntry:
    """Bookkeeping for one timed net's compiled stage tree."""

    __slots__ = ("net", "tree_index", "row_slice", "pin_index", "flat", "wire_c")

    def __init__(self, net: str, tree_index: int, row_slice: slice):
        self.net = net
        self.tree_index = tree_index
        self.row_slice = row_slice
        self.pin_index: Dict[str, int] = {}
        self.flat: Optional[FlatTree] = None
        #: Wire-only node capacitance (pin loads excluded), from compile_stage.
        self.wire_c: Optional[np.ndarray] = None


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
        self._design = design
        self._input_drive_resistance = input_drive_resistance
        self._default_wire_capacitance = default_wire_capacitance
        self._store_dir = store_dir
        self._store: Optional[StoredForest] = None
        self._nets: Dict[str, Net] = design.connectivity()
        self._clock_nets = set(design.clocks)
        self._instances = design.instances
        self._models: Dict[str, NetModel] = {}
        for name, record in (parasitics or {}).items():
            self._models[name] = (
                record
                if isinstance(record, NetModel)
                else NetModel.from_parasitics(record)
            )
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
        sinks: Dict[str, float] = {}
        for load in net.loads:
            if load.is_port:
                sinks[str(load)] = 0.0
            else:
                sinks[str(load)] = self._instances[
                    load.instance
                ].cell.input_capacitance
        return sinks

    def _compile_net(self, net: Net) -> Tuple[FlatTree, Dict[str, int], np.ndarray]:
        model = self._model_of(net.name)
        return compile_stage(
            self._drive_resistance(net),
            self._sink_capacitances(net),
            lumped_capacitance=model.lumped_capacitance,
            base=model.base,
            pin_nodes=model.pin_nodes,
            # Stage arrays are valid by construction; skip re-validation.
            _trusted=True,
        )

    def _compile(self) -> None:
        nets: List[str] = []
        pins: List[str] = []
        trees: List[FlatTree] = []
        global_pin_index: List[int] = []  # per sink row, forest node index
        row_tree: List[int] = []  # per sink row, forest tree index
        row = 0
        offset = 0
        tree_index = 0
        self._forest_stale: Dict[int, FlatTree] = {}
        self._scenario_layout_cache: Optional[_ScenarioLayout] = None
        clock_nets = self._clock_nets
        writer: Optional[ShardStoreWriter] = None
        if self._store_dir is not None:
            writer = ShardStoreWriter(self._store_dir, overwrite=True)
        try:
            for net in self._nets.values():
                if net.driver is None or not net.loads:
                    continue
                if net.name in clock_nets:
                    continue
                flat, pin_index, wire_c = self._compile_net(net)
                entry = _StageEntry(
                    net.name, tree_index, slice(row, row + len(pin_index))
                )
                entry.pin_index = pin_index
                entry.wire_c = wire_c
                self._entries[net.name] = entry
                if writer is not None:
                    # Stream the stage into the store and drop it: peak RSS
                    # during compile stays O(shard), not O(design).
                    writer.add_flat_tree(flat)
                else:
                    entry.flat = flat
                    trees.append(flat)
                # pin_index preserves the sink order (one entry per load).
                for pin, local in pin_index.items():
                    nets.append(net.name)
                    pins.append(pin)
                    global_pin_index.append(offset + local)
                    row_tree.append(tree_index)
                offset += len(flat)
                row += len(pin_index)
                tree_index += 1
        except BaseException:
            if writer is not None:
                writer.abort()
            raise
        self._timed_net_order = [t for t in self._entries]

        times = None
        self._forest: Optional[FlatForest] = None
        if writer is not None:
            if tree_index:
                writer.close()
                self._store = StoredForest(self._store_dir)
                times = self._store.solve()
            else:
                writer.abort()
        elif trees:
            self._forest = FlatForest(trees)
            times = self._forest.solve()
        if times is not None:
            indices = np.asarray(global_pin_index, dtype=np.int64)
            tree_of_row = np.asarray(row_tree, dtype=np.int64)
            tp = np.asarray(times.tp)[tree_of_row]
            tde = np.asarray(times.tde[indices])
            tre = np.asarray(times.tre[indices])
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

        Incremental updates queue their member replacements and the splices
        are applied here on first read -- an ECO loop that never consults the
        forest pays nothing for keeping it coherent.  Both forest kinds
        expose the same ``replace_tree`` / ``solve_batch`` / ``_offsets``
        surface, so the splice loop is shared.
        """
        target = self._store if self._store is not None else self._forest
        if target is not None and self._forest_stale:
            for tree_index, flat in self._forest_stale.items():
                target.replace_tree(tree_index, flat)
            self._forest_stale.clear()
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
        the tree is recompiled on demand (O(net size)).
        """
        entry = self._entries.get(net)
        if entry is None:
            raise AnalysisError(f"net {net!r} is not a timed net of this design")
        if entry.flat is None:
            flat, _, _ = self._compile_net(self._nets[net])
            return flat
        return entry.flat

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
        """Forest-aligned wire/pin/driver metadata, rebuilt after any edit.

        The pin-load vector is derived here, lazily, so designs that never
        run a scenario solve pay nothing for the wire/pin split beyond the
        per-stage wire array ``compile_stage`` already emits.
        """
        forest = self._active_forest()  # applies pending splices first
        if self._scenario_layout_cache is None:
            n = forest.node_count
            wire_c = np.empty(n)
            pin_c = np.zeros(n)
            sink_nodes: List[int] = []
            sink_tree: List[int] = []
            offsets = forest._offsets
            for entry in self._entries.values():
                lo = int(offsets[entry.tree_index])
                hi = int(offsets[entry.tree_index + 1])
                wire_c[lo:hi] = entry.wire_c
                sinks = self._sink_capacitances(self._nets[entry.net])
                # pin_index preserves sink-table row order within the net.
                for pin, local in entry.pin_index.items():
                    pin_c[lo + local] += sinks[pin]
                    sink_nodes.append(lo + local)
                    sink_tree.append(entry.tree_index)
            self._scenario_layout_cache = _ScenarioLayout(
                wire_c=wire_c,
                pin_c=pin_c,
                # Node 1 of every stage tree carries the drive-resistance edge.
                drive_nodes=np.asarray(offsets[:-1] + 1, dtype=np.int64),
                sink_nodes=np.asarray(sink_nodes, dtype=np.int64),
                sink_tree=np.asarray(sink_tree, dtype=np.int64),
            )
        return self._scenario_layout_cache

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
        net_scale = scenarios.net_scales(self._timed_net_order)  # (S, trees)
        c_derate = scenarios.c_derates[np.newaxis, :]
        if self._store is not None:
            store = forest
            tree_scale = np.ascontiguousarray(net_scale.T)  # (trees, S)
            r_derates = scenarios.r_derates[np.newaxis, :]
            drive_derates = scenarios.drive_derates[np.newaxis, :]

            def planes_for(shard: int, node_lo: int, node_hi: int):
                # One shard's effective (S, n) planes, fabricated on demand
                # from the shard's own base arrays -- the sweep never holds
                # an (S, N) design-wide matrix.
                hot = store.materialize(shard)
                _, _, tree_lo, tree_hi = store.shard_bounds(shard)
                counts = np.diff(hot.starts)
                node_scale = np.repeat(
                    tree_scale[tree_lo:tree_hi], counts, axis=0
                )  # (n, S)
                r_factor = node_scale * r_derates
                # Node 1 of every stage tree carries the drive-R edge.
                r_factor[hot.starts[:-1] + 1, :] = drive_derates
                wire_factor = node_scale * c_derate
                window = slice(node_lo, node_hi)
                return (
                    (hot.edge_r[:, np.newaxis] * r_factor).T,
                    (hot.edge_c[:, np.newaxis] * wire_factor).T,
                    (
                        layout.wire_c[window, np.newaxis] * wire_factor
                        + layout.pin_c[window, np.newaxis] * c_derate
                    ).T,
                )

            times = store.solve_batch(
                count=s, engine=engine, planes_for=planes_for
            )
        else:
            # Factor planes are built node-major -- (N, S), the kernels' own
            # orientation -- and passed as transposed views: the engine's
            # contiguity pass then costs nothing instead of an (S, N)
            # transpose.
            node_scale = net_scale.T[forest._tree_id]  # (N, S)
            r_factor = node_scale * scenarios.r_derates[np.newaxis, :]
            r_factor[layout.drive_nodes, :] = scenarios.drive_derates[
                np.newaxis, :
            ]
            wire_factor = node_scale * c_derate
            times = forest.solve_batch(
                edge_r=(forest._edge_r[:, np.newaxis] * r_factor).T,
                edge_c=(forest._edge_c[:, np.newaxis] * wire_factor).T,
                node_c=(
                    layout.wire_c[:, np.newaxis] * wire_factor
                    + layout.pin_c[:, np.newaxis] * c_derate
                ).T,
                count=s,
                engine=engine,
            )
        return ScenarioSinkTable(
            scenario_names=names,
            nets=list(sinks.nets),
            pins=list(sinks.pins),
            tp=times.tp[:, layout.sink_tree],
            tde=times.tde[:, layout.sink_nodes],
            tre=times.tre[:, layout.sink_nodes],
            total_capacitance=times.total_capacitance[:, layout.sink_tree],
        )

    def whatif_cell_elements(
        self, swaps: Sequence[Tuple[str, Cell]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Forest element planes where plane ``s`` applies cell swap ``s``.

        Each candidate ``(instance, cell)`` becomes one scenario row: the
        instance's output net gets the candidate's drive resistance and every
        timed net it loads gets the candidate's input capacitance at the
        instance's pin node.  Nothing in the database is mutated -- this is
        the what-if substrate :meth:`repro.graph.TimingGraph.whatif_resize_worst_slack`
        evaluates in one batched solve, replacing per-candidate trial swaps.
        Returns ``(edge_r, node_c)``, each shaped ``(len(swaps), N)``.
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
        offsets = forest._offsets
        s = len(swaps)
        # Node-major working planes, returned as transposed views (see
        # solve_scenarios): the solve engines consume them copy-free.
        edge_r = np.repeat(forest._edge_r[:, np.newaxis], s, axis=1).T
        node_c = np.repeat(forest._node_c[:, np.newaxis], s, axis=1).T
        for row, (instance, cell) in enumerate(swaps):
            record = self._instances.get(instance)
            if record is None:
                raise AnalysisError(f"unknown instance {instance!r}")
            old = record.cell
            out_entry = self._entries.get(record.connections.get(old.output, ""))
            if out_entry is not None:
                resistance = (
                    cell.drive_resistance if cell.drive_resistance > 0 else 1e-6
                )
                edge_r[row, int(offsets[out_entry.tree_index]) + 1] = resistance
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
                        node_c[row, int(offsets[entry.tree_index]) + local] += delta
        return edge_r, node_c

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

    def _recompile_entry(self, entry: _StageEntry) -> None:
        """Re-compile + re-solve one net's stage and patch the shared state."""
        net = self._nets[entry.net]
        flat, pin_index, wire_c = self._compile_net(net)
        entry.flat = None if self._store is not None else flat
        entry.pin_index = pin_index
        entry.wire_c = wire_c
        self._scenario_layout_cache = None
        if self._forest is not None or self._store is not None:
            self._forest_stale[entry.tree_index] = flat
        times = flat.solve()
        indices = np.asarray(
            [pin_index[str(load)] for load in net.loads], dtype=np.int64
        )
        window = entry.row_slice
        sinks = self._sinks
        sinks.tp[window] = times.tp
        sinks.tde[window] = times.tde[indices]
        sinks.tre[window] = times.tre[indices]
        sinks.total_capacitance[window] = times.total_capacitance

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
        self._recompile_entry(entry)
        return entry.row_slice

    def update_instance_cell(self, instance: str, cell: Cell) -> List[str]:
        """Swap one instance's library cell and re-solve the affected nets.

        A cell swap changes the drive resistance of the instance's *output*
        net and the sink capacitance it presents on each of its *input* nets;
        only those stage trees are re-compiled.  Returns the affected timed
        net names (the instance's intrinsic-delay change is the caller's to
        propagate -- see :meth:`repro.graph.TimingGraph.resize_instance`).
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
        record.cell = cell
        affected: List[str] = []
        for pin, net_name in record.connections.items():
            if net_name in self._entries:
                if net_name not in affected:
                    affected.append(net_name)
        for net_name in affected:
            self._recompile_entry(self._entries[net_name])
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
        to the default lumped wire capacitance.
        """
        from repro.spef.reader import iter_spef_nets

        if is_path:
            with open(spef, "r", encoding="utf-8") as handle:
                spef = handle.read()
        connectivity = design.connectivity()
        models: Dict[str, NetModel] = {}
        for record in iter_spef_nets(spef):
            net = connectivity.get(record.name)
            if net is None:
                continue
            base = record.to_flat_tree()
            known = set(record.node_names)
            pin_nodes = {
                str(load): str(load) for load in net.loads if str(load) in known
            }
            models[record.name] = NetModel(
                net=record.name, base=base, pin_nodes=pin_nodes
            )
        return cls(
            design,
            models,
            input_drive_resistance=input_drive_resistance,
            default_wire_capacitance=default_wire_capacitance,
            store_dir=store_dir,
        )
