"""Stage delay calculation: gate + interconnect.

A *stage* is one driving cell plus the net it drives.  Its delay to each sink
pin is computed as

* the cell's intrinsic delay, plus
* the interconnect delay from an RC tree consisting of the cell's drive
  resistance in series with the net parasitics, with every sink pin's input
  capacitance attached at its node.

Because the drive resistance is part of the tree, the classic
``R_drive * C_load`` term of the linear gate model and the wire delay are
computed together and never double-counted.  Lumped nets are handled by the
same code path (a one-resistor, one-capacitor tree).

Three delay models are offered, mirroring the three uses the paper lists in
its abstract:

* ``DelayModel.ELMORE`` -- the Elmore delay ``T_De`` (an estimate);
* ``DelayModel.UPPER_BOUND`` -- the guaranteed-latest threshold crossing
  (eq. 16/17), what a sign-off check must use;
* ``DelayModel.LOWER_BOUND`` -- the guaranteed-earliest crossing (eq. 14/15),
  what hold-style "certainly too slow" conclusions use.

The interconnect analysis itself is model-independent, so it is performed
once per stage -- through the vectorized :mod:`repro.flat` engine -- and the
three models merely extract different numbers from the same
:class:`StageTimes` (see :func:`stage_characteristic_times`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.timeconstants import CharacteristicTimes
from repro.flat import FlatTree, delay_lower_bound_batch, delay_upper_bound_batch
from repro.sta.cells import Cell
from repro.sta.parasitics import NetParasitics
from repro.utils.checks import require_in_unit_interval, require_non_negative


class DelayModel(enum.Enum):
    """Which number to extract from the interconnect analysis."""

    ELMORE = "elmore"
    UPPER_BOUND = "upper_bound"
    LOWER_BOUND = "lower_bound"


@dataclass(frozen=True)
class StageDelay:
    """Delays of one stage (one driver, one net)."""

    net: str
    gate_delay: float
    #: Interconnect delay (driver output to sink pin), per sink pin name.
    wire_delays: Dict[str, float]

    def total(self, pin: str) -> float:
        """Total stage delay (gate + wire) to ``pin``."""
        return self.gate_delay + self.wire_delays[pin]

    @property
    def worst_sink(self) -> str:
        """Sink pin with the largest total delay."""
        return max(self.wire_delays, key=self.wire_delays.get)


def compile_stage(
    drive_resistance: Optional[float],
    sink_capacitance: Mapping[str, float],
    *,
    lumped_capacitance: float = 0.0,
    base: Optional[FlatTree] = None,
    pin_nodes: Optional[Mapping[str, str]] = None,
    _trusted: bool = False,
) -> Tuple[FlatTree, Dict[str, int], np.ndarray]:
    """Compile one stage (drive resistance + net + sink loads) straight to arrays.

    The stage tree is assembled without any intermediate dict
    :class:`~repro.core.tree.RCTree`: the driver's resistance becomes the edge
    into the net, a lumped net is a single extra node, and a distributed net
    grafts the (pre-compiled) ``base`` flat tree behind the drive resistance by
    prepending one node and shifting the parent indices.  Returns the compiled
    :class:`~repro.flat.FlatTree`, a map sink pin -> node index, and the
    *wire-only* node-capacitance array (the stage's node capacitances before
    any pin load was added).  The wire/pin split is what lets the
    scenario-batched solver of :class:`~repro.graph.DesignDB` derate wire
    parasitics and pin loads independently without a cancellation-prone
    subtraction.

    ``pin_nodes`` maps sink pins to ``base`` node names; unbound pins attach at
    the last preorder leaf (the far end of the tree, the most pessimistic
    choice for a chain), and pins bound to the base root land on the graft
    node directly behind the drive resistance.
    """
    resistance = drive_resistance if drive_resistance and drive_resistance > 0 else 1e-6
    if base is None:
        # Lumped net: one node carrying wire capacitance plus every pin cap.
        node_capacitance = lumped_capacitance
        for capacitance in sink_capacitance.values():
            node_capacitance += capacitance
        flat = FlatTree(
            ["src", "net"],
            np.asarray([-1, 0], dtype=np.int64),
            np.asarray([0.0, resistance]),
            np.zeros(2),
            np.asarray([0.0, node_capacitance]),
            np.asarray([False, True]),
            _depth=[0, 1],
            _trusted=_trusted,
        )
        wire_c = np.asarray([0.0, lumped_capacitance])
        return flat, {pin: 1 for pin in sink_capacitance}, wire_c

    # Distributed net: graft the compiled tree behind the drive resistance.
    n = len(base)
    parent = np.empty(n + 1, dtype=np.int64)
    parent[0] = -1
    parent[1] = 0
    np.add(base._parent[1:], 1, out=parent[2:])
    edge_r = np.empty(n + 1)
    edge_r[0] = 0.0
    edge_r[1] = resistance
    edge_r[2:] = base._edge_r[1:]
    edge_c = np.empty(n + 1)
    edge_c[:2] = 0.0
    edge_c[2:] = base._edge_c[1:]
    node_c = np.empty(n + 1)
    node_c[0] = 0.0
    node_c[1:] = base._node_c
    names = ["src", "drv"] + base._names[1:]
    depth = np.empty(n + 1, dtype=np.int64)
    depth[0] = 0
    np.add(base._depth, 1, out=depth[1:])
    is_output = np.zeros(n + 1, dtype=bool)

    # Last preorder leaf of the base tree, the unbound-pin fallback.
    has_child = np.zeros(n, dtype=bool)
    has_child[base._parent[1:]] = True
    fallback = int(np.flatnonzero(~has_child)[-1]) + 1

    pin_nodes = pin_nodes or {}
    pin_index: Dict[str, int] = {}
    wire_c = node_c.copy()
    for pin, capacitance in sink_capacitance.items():
        node = pin_nodes.get(pin)
        if node is None:
            index = fallback
        else:
            index = base.index(node) + 1
        node_c[index] += capacitance
        is_output[index] = True
        pin_index[pin] = index
    flat = FlatTree(
        names, parent, edge_r, edge_c, node_c, is_output, _depth=depth, _trusted=_trusted
    )
    return flat, pin_index, wire_c


@dataclass(frozen=True)
class StageBlock:
    """Many stage trees compiled at once, in the forest block layout.

    ``starts`` holds each stage's first node plus the node-count sentinel;
    ``parent`` is block-local with ``-1`` at every stage's source node --
    the layout :meth:`repro.flat.FlatForest.from_block` and
    :meth:`repro.store.ShardStoreWriter.add_block` take.  ``wire_c`` is the
    node capacitance before any pin load was added and ``sink_nodes`` the
    block node of every sink row.
    """

    starts: np.ndarray
    parent: np.ndarray
    edge_r: np.ndarray
    edge_c: np.ndarray
    node_c: np.ndarray
    depth: np.ndarray
    is_output: np.ndarray
    wire_c: np.ndarray
    sink_nodes: np.ndarray


def compile_stage_block(
    base_starts: np.ndarray,
    base_parent: np.ndarray,
    base_edge_r: np.ndarray,
    base_edge_c: np.ndarray,
    base_node_c: np.ndarray,
    base_depth: np.ndarray,
    drive_resistance: np.ndarray,
    sink_counts: np.ndarray,
    sink_local: np.ndarray,
    sink_capacitance: np.ndarray,
) -> StageBlock:
    """Compile many stages in one vectorized pass, bitwise as :func:`compile_stage`.

    The ``base_*`` arrays concatenate every stage's net tree (tree-local
    topological parents with root ``-1``, one tree per ``base_starts``
    window); a lumped net is a one-node base carrying its wire capacitance.
    Each stage prepends a source node, puts its drive resistance (``<= 0``
    becomes 1e-6) on the edge into the base root, and adds its sink pins'
    capacitances -- ``sink_counts`` rows per stage, each at stage-local
    node ``sink_local`` -- in sink order with :func:`numpy.add.at`, so every
    sum is the sequential one :func:`compile_stage` forms.
    """
    trees = len(drive_resistance)
    sizes = np.diff(base_starts)
    starts = np.zeros(trees + 1, dtype=np.int64)
    np.cumsum(sizes + 1, out=starts[1:])
    n = int(starts[-1])
    source = starts[:-1]
    # Base node k of tree t lands at k + t + 1: one source node per tree
    # before it, its own included.
    tree_of_base = np.repeat(np.arange(trees, dtype=np.int64), sizes)
    at = np.arange(len(base_parent), dtype=np.int64) + tree_of_base + 1

    parent = np.empty(n, dtype=np.int64)
    parent[source] = -1
    # A base root (parent -1) lands on its source node; every other parent
    # shifts with its tree.
    parent[at] = base_parent + source[tree_of_base] + 1
    depth = np.zeros(n, dtype=np.int64)
    depth[at] = base_depth + 1
    edge_r = np.zeros(n, dtype=np.float64)
    edge_r[at] = base_edge_r
    edge_r[source + 1] = np.where(drive_resistance > 0, drive_resistance, 1e-6)
    edge_c = np.zeros(n, dtype=np.float64)
    edge_c[at] = base_edge_c
    edge_c[source + 1] = 0.0
    node_c = np.zeros(n, dtype=np.float64)
    node_c[at] = base_node_c
    wire_c = node_c.copy()

    sink_nodes = np.repeat(source, sink_counts) + sink_local
    np.add.at(node_c, sink_nodes, sink_capacitance)
    is_output = np.zeros(n, dtype=bool)
    is_output[sink_nodes] = True
    return StageBlock(
        starts=starts,
        parent=parent,
        edge_r=edge_r,
        edge_c=edge_c,
        node_c=node_c,
        depth=depth,
        is_output=is_output,
        wire_c=wire_c,
        sink_nodes=sink_nodes,
    )


@dataclass(frozen=True)
class StageTimes:
    """Model-independent analysis of one stage (one driver, one net).

    The characteristic times of a stage do not depend on the delay model --
    only the number finally *extracted* from them does -- so one compiled
    :class:`~repro.flat.FlatTree` solve serves the Elmore run and both bound
    runs.  :class:`~repro.sta.analysis.TimingAnalyzer` caches one of these per
    net, which is what makes ``certify()`` (three delay models) cost one
    interconnect analysis instead of three.
    """

    net: str
    gate_delay: float
    #: Characteristic times per sink pin; empty when the net has no capacitance.
    pin_times: Dict[str, CharacteristicTimes] = field(default_factory=dict)

    def delays(self, model: DelayModel, threshold: float) -> Dict[str, float]:
        """Extract the wire delay per sink pin for one delay model."""
        if not self.pin_times:
            return {}
        if model is DelayModel.ELMORE:
            return {pin: times.tde for pin, times in self.pin_times.items()}
        pins = list(self.pin_times)
        records = [self.pin_times[pin] for pin in pins]
        bound = (
            delay_upper_bound_batch
            if model is DelayModel.UPPER_BOUND
            else delay_lower_bound_batch
        )
        values = bound(
            np.asarray([t.tp for t in records]),
            np.asarray([t.tde for t in records]),
            np.asarray([t.tre for t in records]),
            [threshold],
        )[:, 0]
        return dict(zip(pins, values.tolist()))


def stage_characteristic_times(
    driver_cell: Optional[Cell],
    parasitics: NetParasitics,
    sink_capacitance: Mapping[str, float],
    *,
    drive_resistance_override: Optional[float] = None,
    _base: Optional[FlatTree] = None,
) -> StageTimes:
    """Analyse one stage once, for every delay model.

    Compiles the stage straight to a :class:`~repro.flat.FlatTree` through
    :func:`compile_stage` -- the same array path the design-scale
    :class:`~repro.graph.DesignDB` batches over a whole netlist -- and returns
    the characteristic times of every sink pin.  A stage with no capacitance
    anywhere settles instantaneously in the linear model and yields an empty
    ``pin_times``.  ``_base`` lets callers that already compiled the net's
    parasitic tree skip the per-call compile.
    """
    if drive_resistance_override is not None:
        require_non_negative("drive_resistance_override", drive_resistance_override)
        resistance = drive_resistance_override
    elif driver_cell is not None:
        resistance = driver_cell.drive_resistance
    else:
        resistance = 0.0
    intrinsic = driver_cell.intrinsic_delay if driver_cell is not None else 0.0

    base = _base
    if base is None and parasitics.tree is not None:
        base = FlatTree.from_tree(parasitics.tree)
    flat, pin_index, _ = compile_stage(
        resistance,
        sink_capacitance,
        lumped_capacitance=parasitics.lumped_capacitance,
        base=base,
        pin_nodes=parasitics.pin_nodes,
    )
    if flat.total_capacitance <= 0.0:
        # Nothing to charge: the net settles instantaneously in the linear
        # model, whichever bound is requested.
        return StageTimes(net=parasitics.net, gate_delay=intrinsic)

    times = flat.solve()
    pin_times = {
        pin: CharacteristicTimes(
            output=flat.name_of(index),
            tp=times.tp,
            tde=float(times.tde[index]),
            tre=float(times.tre[index]),
            ree=float(times.ree[index]),
            total_capacitance=times.total_capacitance,
        )
        for pin, index in pin_index.items()
    }
    return StageTimes(net=parasitics.net, gate_delay=intrinsic, pin_times=pin_times)


def stage_delays(
    driver_cell: Optional[Cell],
    parasitics: NetParasitics,
    sink_capacitance: Mapping[str, float],
    *,
    model: DelayModel = DelayModel.ELMORE,
    threshold: float = 0.5,
    drive_resistance_override: Optional[float] = None,
) -> StageDelay:
    """Compute the delays of one stage.

    Parameters
    ----------
    driver_cell:
        The driving cell (supplies intrinsic delay and drive resistance).
        ``None`` models an ideal primary-input driver.
    parasitics:
        The net's interconnect description.
    sink_capacitance:
        Mapping sink pin name -> input capacitance (farads).
    model:
        Which delay number to extract (Elmore or one of the PR bounds).
    threshold:
        Voltage threshold used by the bound models (ignored for Elmore).
    drive_resistance_override:
        Use this resistance instead of the cell's (for input-port drivers).

    Callers that need several delay models of the same stage should use
    :func:`stage_characteristic_times` once and extract per model.
    """
    threshold = require_in_unit_interval("threshold", threshold)
    stage = stage_characteristic_times(
        driver_cell,
        parasitics,
        sink_capacitance,
        drive_resistance_override=drive_resistance_override,
    )
    if not stage.pin_times:
        return StageDelay(
            net=parasitics.net,
            gate_delay=stage.gate_delay,
            wire_delays={pin: 0.0 for pin in sink_capacitance},
        )
    return StageDelay(
        net=parasitics.net,
        gate_delay=stage.gate_delay,
        wire_delays=stage.delays(model, threshold),
    )
