"""The per-net stage compiler, kept only as the parity oracle.

Before every stage went through :func:`repro.sta.delaycalc.compile_stage_block`,
a stage tree (drive resistance + net + sink loads) was also assembled one
net at a time, and that copy served single-net ECOs and the per-stage
API.  :func:`compile_stage` below is that assembler verbatim.  Tests hold
the block compile and the database's ECO recompiles bit for bit to it, and
the timing oracle of :mod:`tests.graph.analyzer_oracle` builds every stage
with it.
"""

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.flat import FlatTree


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
