"""Test oracle: the section-to-``RCTree`` converter the SPEF reader replaced.

:func:`repro.spef.reader.spef_to_trees` builds each tree from the reader's
:class:`~repro.spef.reader.SpefNet` record.  This module keeps the direct
breadth-first walk over a section's resistor adjacency that it used to run,
so tests can check the record path node for node: node order, child order,
element values and outputs.
"""

from __future__ import annotations

from typing import Dict

from repro.core.exceptions import TopologyError
from repro.core.tree import RCTree
from repro.spef.reader import (
    SpefSource,
    _iter_net_sections,
    _net_adjacency,
    _NetSection,
    _resolve_driver,
    _strip_net_prefix,
)


def oracle_trees(source: SpefSource, *, root_name: str = "in") -> Dict[str, RCTree]:
    """Every net of ``source`` converted by the breadth-first oracle."""
    return {
        net.name: _net_to_tree(net, root_name=root_name)
        for net in _iter_net_sections(source)
    }


def _net_to_tree(net: _NetSection, *, root_name: str) -> RCTree:
    adjacency = _net_adjacency(net)
    driver = _resolve_driver(net, adjacency)

    tree = RCTree(root_name)
    rename = {driver: root_name}

    def node_name(node: str) -> str:
        return rename.get(node, node)

    visited = {driver}
    queue = [driver]
    while queue:
        currentnode = queue.pop(0)
        for neighbour, value in adjacency.get(currentnode, []):
            if neighbour in visited:
                continue
            visited.add(neighbour)
            tree.add_resistor(node_name(currentnode), node_name(neighbour), value)
            queue.append(neighbour)

    # Loop detection: a tree with V nodes has V-1 edges.
    if adjacency and len(net.resistors) != len(visited) - 1:
        raise TopologyError(
            f"net {net.name!r} has {len(net.resistors)} resistors over {len(visited)} nodes; "
            "the parasitic network is not a tree"
        )

    for n1, n2, value in net.caps:
        if n2 is not None:
            raise TopologyError(
                f"net {net.name!r} contains a coupling capacitor ({n1} to {n2}); "
                "RC-tree analysis only supports grounded capacitors"
            )
        node = _strip_net_prefix(n1, net.prefixes)
        if node not in visited:
            raise TopologyError(
                f"capacitor node {node!r} of net {net.name!r} is not connected to the driver"
            )
        tree.add_capacitor(node_name(node), value)

    for kind, pin, direction in net.connections:
        if direction.upper() == "O":
            node = _strip_net_prefix(pin, net.prefixes)
            if node in visited:
                tree.mark_output(node_name(node))
    if not tree.outputs:
        for leaf in tree.leaves():
            tree.mark_output(leaf)
    return tree
