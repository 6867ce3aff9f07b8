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

The interconnect analysis itself is model-independent: every stage is
compiled here (:class:`StageGather` into :func:`compile_stage_block`) and
solved once by the vectorized :mod:`repro.flat` engine, and the three models
merely extract different numbers from the same characteristic times (see
:class:`repro.graph.TimingGraph`).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Mapping, NamedTuple, Optional

import numpy as np

from repro.flat import FlatTree


class DelayModel(enum.Enum):
    """Which number to extract from the interconnect analysis."""

    ELMORE = "elmore"
    UPPER_BOUND = "upper_bound"
    LOWER_BOUND = "lower_bound"


#: Stage-local node the drive-resistance edge runs into from the source
#: node 0.  It is the net's base root, so base node ``k`` sits at stage node
#: ``k + DRIVE_NODE``; a lumped net is that one node.
DRIVE_NODE = 1


class StageBlock(NamedTuple):
    """Many stage trees compiled at once, in the forest block layout.

    ``starts`` holds each stage's first node plus the node-count sentinel;
    ``parent`` is block-local with ``-1`` at every stage's source node --
    the layout :meth:`repro.flat.FlatForest.from_block` and
    :meth:`repro.store.ShardStoreWriter.add_block` take.  ``wire_c`` is the
    node capacitance before any pin load was added, ``sink_nodes`` the
    block node of every sink row and ``sink_c`` its pin capacitance.
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
    sink_c: np.ndarray


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
    """Compile many stages in one vectorized pass.

    The ``base_*`` arrays concatenate every stage's net tree (tree-local
    topological parents with root ``-1``, one tree per ``base_starts``
    window); a lumped net is a one-node base carrying its wire capacitance.
    Each stage prepends a source node, puts its drive resistance (``<= 0``
    becomes 1e-6) on the edge into the base root (:data:`DRIVE_NODE`), and
    adds its sink pins' capacitances -- ``sink_counts`` rows per stage, each
    at stage-local node ``sink_local`` -- in sink order with
    :func:`numpy.add.at`, so every node sum is the sequential one.  Tests
    hold the result bit for bit to the per-net assembler kept as the oracle
    in ``tests/graph/stage_oracle.py``.  :class:`StageGather` collects
    these inputs net by net.
    """
    trees = len(drive_resistance)
    sizes = base_starts[1:] - base_starts[:-1]
    starts = np.zeros(trees + 1, dtype=np.int64)
    np.cumsum(sizes + 1, out=starts[1:])
    n = int(starts[-1])
    source = starts[:-1]
    drive_nodes = source + DRIVE_NODE
    # Base node k of stage t lands at starts[t] + DRIVE_NODE + k: the t
    # source nodes of the stages before it shift its base index by t.
    tree_of_base = np.arange(trees, dtype=np.int64).repeat(sizes)
    at = np.arange(len(base_parent), dtype=np.int64) + tree_of_base + DRIVE_NODE

    parent = np.empty(n, dtype=np.int64)
    parent[source] = -1
    # A base root (parent -1) lands on its source node, the one before the
    # drive node; every other parent shifts with its stage.
    parent[at] = base_parent + drive_nodes[tree_of_base]
    depth = np.zeros(n, dtype=np.int64)
    depth[at] = base_depth + 1
    edge_r = np.zeros(n, dtype=np.float64)
    edge_r[at] = base_edge_r
    edge_r[drive_nodes] = np.where(drive_resistance > 0, drive_resistance, 1e-6)
    edge_c = np.zeros(n, dtype=np.float64)
    edge_c[at] = base_edge_c
    edge_c[drive_nodes] = 0.0
    node_c = np.zeros(n, dtype=np.float64)
    node_c[at] = base_node_c
    wire_c = node_c.copy()

    sink_nodes = source.repeat(sink_counts) + sink_local
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
        sink_c=sink_capacitance,
    )


#: A lumped net's one-node base tree; only its node capacitance varies.
_LUMPED_PARENT = np.asarray([-1], dtype=np.int64)
_LUMPED_DEPTH = np.zeros(1, dtype=np.int64)
_LUMPED_ZERO = np.zeros(1, dtype=np.float64)


class StageGather:
    """Per-net inputs of one :func:`compile_stage_block` call.

    Every stage compile -- a bulk build, an ECO's nets -- gathers its nets
    here.  The per-net work is bookkeeping only (base arrays by reference,
    sink pins bound to stage-local nodes); :meth:`compile` builds the block.
    With ``keep_names`` the stage node names are collected too (a store
    keeps none).
    """

    def __init__(self, keep_names: bool):
        self.parent: List[np.ndarray] = []
        self.edge_r: List[np.ndarray] = []
        self.edge_c: List[np.ndarray] = []
        self.node_c: List[np.ndarray] = []
        self.depth: List[np.ndarray] = []
        self.lumped_tree: List[int] = []
        self.lumped_c: List[float] = []
        self.drive: List[float] = []
        self.sink_counts: List[int] = []
        self.sink_local: List[int] = []
        self.sink_c: List[float] = []
        self.keep_names = keep_names
        self.names: List[str] = []
        self.nodes = 0

    def add(
        self,
        base: Optional[FlatTree],
        lumped_capacitance: float,
        pin_nodes: Mapping[str, str],
        drive_resistance: float,
        sinks: Mapping[str, float],
    ) -> Dict[str, int]:
        """Queue one stage; returns its ``pin_index`` (pin -> stage node).

        ``base`` is the net's compiled parasitic tree, or ``None`` for a
        lumped net; ``pin_nodes`` binds sink pins to base node names and
        ``sinks`` maps each sink pin to its capacitance, in row order.  An
        unbound pin takes the base's last node: nothing can follow it as a
        child, so it is the last preorder leaf.
        """
        tree = len(self.drive)
        if base is None:
            size = 1
            self.parent.append(_LUMPED_PARENT)
            self.edge_r.append(_LUMPED_ZERO)
            self.edge_c.append(_LUMPED_ZERO)
            self.node_c.append(_LUMPED_ZERO)
            self.depth.append(_LUMPED_DEPTH)
            self.lumped_tree.append(tree)
            self.lumped_c.append(lumped_capacitance)
            pin_index = dict.fromkeys(sinks, DRIVE_NODE)
            if self.keep_names:
                self.names += ("src", "net")
        else:
            size = len(base)
            self.parent.append(base._parent)
            self.edge_r.append(base._edge_r)
            self.edge_c.append(base._edge_c)
            self.node_c.append(base._node_c)
            self.depth.append(base._depth)
            last = size - 1
            pin_index = {}
            for pin in sinks:
                node = pin_nodes.get(pin)
                local = last if node is None else base.index(node)
                pin_index[pin] = local + DRIVE_NODE
            if self.keep_names:
                first = len(self.names)
                self.names.append("src")
                self.names += base._names
                self.names[first + DRIVE_NODE] = "drv"
        self.drive.append(drive_resistance)
        self.sink_counts.append(len(sinks))
        self.sink_local += pin_index.values()
        self.sink_c += sinks.values()
        self.nodes += size + 1
        return pin_index

    def compile(self) -> StageBlock:
        """The gathered stages as one :class:`StageBlock`."""
        sizes = np.asarray([len(p) for p in self.parent], dtype=np.int64)
        base_starts = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=base_starts[1:])
        node_c = np.concatenate(self.node_c)
        if self.lumped_tree:
            node_c[base_starts[self.lumped_tree]] = self.lumped_c
        return compile_stage_block(
            base_starts,
            np.concatenate(self.parent),
            np.concatenate(self.edge_r),
            np.concatenate(self.edge_c),
            node_c,
            np.concatenate(self.depth),
            np.asarray(self.drive, dtype=np.float64),
            np.asarray(self.sink_counts, dtype=np.int64),
            np.asarray(self.sink_local, dtype=np.int64),
            np.asarray(self.sink_c, dtype=np.float64),
        )
