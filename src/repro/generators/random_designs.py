"""Seed-stable random gate-level designs with per-net parasitics.

The design-scale engine (:mod:`repro.graph`) and its benchmarks need whole
netlists, not just single RC trees: :func:`random_design` builds a
`Design` of ``n_instances`` library cells wired into a guaranteed-acyclic
graph (every gate's inputs come from already-created nets, so combinational
depth grows like ``log n``), declares an ideal clock for its flip-flops,
marks every sink-less net as a primary output (so every gate lies on a path
to a timing endpoint), and attaches random parasitics to every timed net --
a mix of lumped caps and small RC trees whose load pins sit on leaf nodes
named ``instance/pin``, the convention the SPEF writer/reader round-trips.

Everything is driven by one ``random.Random(seed)``: the same
``(n_instances, seed, knobs)`` always produces the identical design and
parasitics, which is what lets property tests shrink failures and benchmarks
compare engines on the same workload.

For out-of-core workloads the object graph above is the wrong shape: a
million-instance benchmark must never hold a million ``Design`` objects.
:func:`stream_random_nets` is the streaming twin -- it fabricates the *net
parasitics only*, as pre-concatenated numpy blocks (:class:`NetBlock`)
sized for :meth:`repro.store.ShardStoreWriter.add_block`, one
``numpy.random.default_rng(seed)`` driving every draw so the stream is
seed-stable block for block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.tree import RCTree
from repro.sta.cells import Cell, standard_cell_library
from repro.sta.netlist import Design
from repro.sta.parasitics import NetParasitics, lumped, rc_tree_parasitics
from repro.utils.checks import require_in_unit_interval

__all__ = ["NetBlock", "random_design", "stream_random_nets"]


def _random_net_tree(
    rng: random.Random,
    loads: List[str],
    *,
    resistance_range: Tuple[float, float],
    capacitance_range: Tuple[float, float],
    distributed_edge_fraction: float = 0.4,
) -> Tuple[RCTree, Dict[str, str]]:
    """A small random wire tree with one leaf per load pin, named after it."""
    tree = RCTree("root")
    attachable = ["root"]
    for index in range(rng.randint(1, 4)):
        name = f"w{index}"
        parent = rng.choice(attachable)
        resistance = rng.uniform(*resistance_range)
        if rng.random() < distributed_edge_fraction:
            tree.add_line(parent, name, resistance, rng.uniform(*capacitance_range))
        else:
            tree.add_resistor(parent, name, resistance)
        if rng.random() < 0.7:
            tree.add_capacitor(name, rng.uniform(*capacitance_range))
        attachable.append(name)
    pin_nodes: Dict[str, str] = {}
    for load in loads:
        tree.add_resistor(rng.choice(attachable), load, rng.uniform(*resistance_range))
        tree.mark_output(load)
        pin_nodes[load] = load
    return tree, pin_nodes


def random_design(
    n_instances: int,
    seed: int = 0,
    *,
    sequential_fraction: float = 0.12,
    distributed_fraction: float = 0.5,
    primary_input_count: Optional[int] = None,
    resistance_range: Tuple[float, float] = (20.0, 400.0),
    capacitance_range: Tuple[float, float] = (1e-15, 1.2e-14),
    library: Optional[Dict[str, Cell]] = None,
) -> Tuple[Design, Dict[str, NetParasitics]]:
    """Generate a seed-stable random design plus per-net parasitics.

    Parameters
    ----------
    n_instances:
        Number of cell instances to place (>= 1).
    seed:
        Seed for the single ``random.Random`` driving every choice.
    sequential_fraction:
        Probability that an instance is a flip-flop (its D input becomes a
        timing endpoint and its Q launches new paths).
    distributed_fraction:
        Probability that a timed net carries a small RC tree rather than a
        lumped capacitance.
    primary_input_count:
        Number of primary inputs (default scales as ``max(2, n/64)``).
    resistance_range, capacitance_range:
        Uniform value ranges for wire elements (ohms / farads).
    library:
        Cell library to draw from (default
        :func:`~repro.sta.cells.standard_cell_library`).

    Returns ``(design, parasitics)`` ready for
    :class:`~repro.graph.TimingGraph` or :class:`~repro.graph.DesignDB`.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    require_in_unit_interval("sequential_fraction", sequential_fraction)
    require_in_unit_interval("distributed_fraction", distributed_fraction)
    rng = random.Random(seed)
    library = library or standard_cell_library()
    sequential = sorted(name for name, cell in library.items() if cell.is_sequential)
    combinational = sorted(
        name for name, cell in library.items() if not cell.is_sequential
    )

    design = Design(f"random{n_instances}_s{seed}")
    if primary_input_count is None:
        primary_input_count = max(2, n_instances // 64)
    data_nets: List[str] = []
    for index in range(primary_input_count):
        name = f"pi{index}"
        design.add_primary_input(name)
        data_nets.append(name)

    uses_clock = sequential_fraction > 0.0 and bool(sequential)
    if uses_clock:
        design.add_clock("clk")

    for index in range(n_instances):
        output = f"n{index}"
        if uses_clock and rng.random() < sequential_fraction:
            cell = library[rng.choice(sequential)]
            design.add_instance(
                f"u{index}", cell, D=rng.choice(data_nets), CK="clk", **{cell.output: output}
            )
        else:
            cell = library[rng.choice(combinational)]
            connections = {pin: rng.choice(data_nets) for pin in cell.inputs}
            connections[cell.output] = output
            design.add_instance(f"u{index}", cell, **connections)
        data_nets.append(output)

    connectivity = design.connectivity()
    for net in connectivity.values():
        if net.driver is not None and not net.driver.is_port and not net.loads:
            design.add_primary_output(net.name)

    parasitics: Dict[str, NetParasitics] = {}
    clock_nets = set(design.clocks)
    for name, net in design.connectivity().items():
        if net.driver is None or not net.loads or name in clock_nets:
            continue
        if rng.random() < distributed_fraction:
            tree, pin_nodes = _random_net_tree(
                rng,
                [str(load) for load in net.loads],
                resistance_range=resistance_range,
                capacitance_range=capacitance_range,
            )
            parasitics[name] = rc_tree_parasitics(name, tree, pin_nodes)
        else:
            parasitics[name] = lumped(name, rng.uniform(*capacitance_range))
    return design, parasitics


@dataclass(frozen=True)
class NetBlock:
    """A batch of random RC trees in block-concatenated flat-array form.

    ``starts`` holds each tree's first block-local node index plus the
    node-count sentinel (length ``tree_count + 1``); ``parent`` is
    block-local and topological with ``-1`` at every tree root.  The field
    set matches :meth:`repro.store.ShardStoreWriter.add_block` exactly, so
    a block streams into a shard store with zero reshaping.
    """

    starts: np.ndarray
    parent: np.ndarray
    edge_r: np.ndarray
    edge_c: np.ndarray
    node_c: np.ndarray

    @property
    def tree_count(self) -> int:
        return int(self.starts.shape[0]) - 1

    @property
    def node_count(self) -> int:
        return int(self.parent.shape[0])


def stream_random_nets(
    n_nets: int,
    seed: int = 0,
    *,
    nodes_range: Tuple[int, int] = (2, 24),
    resistance_range: Tuple[float, float] = (20.0, 400.0),
    capacitance_range: Tuple[float, float] = (1e-15, 1.2e-14),
    distributed_edge_fraction: float = 0.4,
    block_nets: int = 4096,
) -> Iterator[NetBlock]:
    """Stream ``n_nets`` random RC nets as :class:`NetBlock` batches.

    The streaming twin of the parasitics half of :func:`random_design`:
    every net is a random-attachment tree (node ``i`` hangs off a uniform
    earlier node of its own tree, giving shallow ``O(log n)``-depth nets
    like real signal routing) with uniform element values from the given
    ranges; a ``distributed_edge_fraction`` slice of edges carries wire
    capacitance (URC-style), the rest are pure resistors with node caps.
    Everything is drawn from one ``numpy.random.default_rng(seed)`` and
    vectorized per block, so fabricating a million nets takes seconds and
    never holds more than ``block_nets`` nets in memory.  Identical
    ``(n_nets, seed, knobs)`` replay the identical stream.
    """
    if n_nets < 1:
        raise ValueError("n_nets must be >= 1")
    if block_nets < 1:
        raise ValueError("block_nets must be >= 1")
    lo, hi = int(nodes_range[0]), int(nodes_range[1])
    if lo < 2 or hi < lo:
        raise ValueError("nodes_range must satisfy 2 <= lo <= hi")
    require_in_unit_interval("distributed_edge_fraction", distributed_edge_fraction)
    rng = np.random.default_rng(seed)
    emitted = 0
    while emitted < n_nets:
        trees = min(block_nets, n_nets - emitted)
        sizes = rng.integers(lo, hi + 1, size=trees)
        starts = np.zeros(trees + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        nodes = int(starts[-1])
        tree_of = np.repeat(np.arange(trees, dtype=np.int64), sizes)
        lower = starts[tree_of]
        index = np.arange(nodes, dtype=np.int64)
        local = index - lower
        # Node i attaches to a uniform earlier node of its own tree:
        # floor(u * local) is in [0, local) for local >= 1.
        attach = (rng.random(nodes) * local).astype(np.int64)
        parent = np.where(local == 0, -1, lower + attach)
        edge_r = rng.uniform(*resistance_range, size=nodes)
        wire_c = rng.uniform(*capacitance_range, size=nodes)
        node_c = rng.uniform(*capacitance_range, size=nodes)
        distributed = rng.random(nodes) < distributed_edge_fraction
        edge_c = np.where(distributed, wire_c, 0.0)
        roots = local == 0
        edge_r[roots] = 0.0
        edge_c[roots] = 0.0
        yield NetBlock(
            starts=starts,
            parent=parent,
            edge_r=edge_r,
            edge_c=edge_c,
            node_c=node_c,
        )
        emitted += trees
