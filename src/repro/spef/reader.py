"""Read the simplified SPEF subset into parent-index arrays, RC trees or forests.

The reader understands the sections emitted by :mod:`repro.spef.writer` --
header unit statements, ``*D_NET`` with ``*CONN`` / ``*CAP`` / ``*RES`` --
plus files written by other tools as long as every net's resistor graph is a
tree and every capacitor is a ground capacitor (one node per ``*CAP`` line).
Coupling caps (two nodes on a ``*CAP`` line) raise a ``TopologyError``.

The tree root for each net is the ``I``-direction connection when present,
otherwise the first connection that is not an ``O``-direction load -- so a
file that lists a net's loads before its driver still roots correctly.

Every consumer reads through one path.  :func:`iter_spef_nets` streams each
``*D_NET`` section of a string, a line iterable or an open file into a
:class:`SpefNet` of preorder parent-index arrays, and :func:`spef_block`
concatenates records into one block of arrays, applying the outputs rule
(a net's loads, else its leaves) and the element-value check once.  The
consumers are :meth:`SpefNet.to_flat_tree` (a block of one),
:func:`spef_to_forest`, :meth:`repro.graph.DesignDB.from_spef` and
:func:`repro.store.ingest_spef`; :func:`spef_to_trees` / :func:`read_spef`
build dict :class:`~repro.core.tree.RCTree` objects from the same records.

There is one parse mode: a net cut short by the next ``*D_NET`` or by the
end of input, and a net with more than one ``I``-direction driver, raise
:class:`~repro.core.exceptions.ParseError` from every entry point.  A unit
statement applies from the line where it appears.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import ElementValueError, ParseError, TopologyError
from repro.core.tree import RCTree
from repro.utils.units import parse_engineering


@dataclass
class _NetSection:
    name: str
    total_cap: float
    connections: List[Tuple[str, str, str]] = field(default_factory=list)  # (kind, pin, direction)
    caps: List[Tuple[str, Optional[str], float]] = field(default_factory=list)
    resistors: List[Tuple[str, str, float]] = field(default_factory=list)
    #: The ``<net>/`` and ``<net>:`` pin prefixes, built once per section.
    prefixes: Tuple[str, str] = field(init=False)

    def __post_init__(self) -> None:
        self.prefixes = (f"{self.name}/", f"{self.name}:")


#: Accepted SPEF input: a whole string, or any iterable of lines (an open
#: file handle qualifies) for true streaming ingest.
SpefSource = Union[str, Iterable[str]]


_UNIT_KEYWORDS = ("*C_UNIT", "*R_UNIT", "*T_UNIT")


def _apply_unit(keyword: str, fields: List[str], units: Dict[str, float]) -> None:
    """Fold one ``*?_UNIT`` statement into the running unit table."""
    if len(fields) >= 3:
        value = parse_engineering(fields[1])
        unit_name = fields[2].upper()
        scale = {
            "PF": 1e-12,
            "FF": 1e-15,
            "NF": 1e-9,
            "UF": 1e-6,
            "F": 1.0,
            "OHM": 1.0,
            "KOHM": 1e3,
            "NS": 1e-9,
            "PS": 1e-12,
        }.get(unit_name)
        if scale is None:
            raise ParseError(f"unsupported SPEF unit {unit_name!r}")
        units[keyword[1]] = value * scale


def _iter_net_sections(source: SpefSource) -> Iterator[_NetSection]:
    """Stream the ``*D_NET`` sections of a SPEF source, one at a time.

    ``source`` is a whole SPEF string (read as its lines) or any iterable
    of lines -- an open file handle streams a multi-gigabyte extraction
    without ever holding the text.  Unit statements apply from the line
    where they appear.  A net not terminated by ``*END`` (cut short by the
    next ``*D_NET`` or by the end of input) and a net with more than one
    ``I``-direction ``*CONN`` driver raise :class:`ParseError`, which is
    what lets transactional store ingest (:mod:`repro.store.ingest`) abort
    before partial shard files can survive.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    units = {"C": 1e-12, "R": 1.0, "T": 1e-9}
    current: Optional[_NetSection] = None
    mode = None
    for number, line in enumerate(lines, 1):
        fields = line.split()
        if not fields:
            continue
        keyword = fields[0].upper()
        if keyword == "*D_NET":
            if current is not None:
                raise ParseError(
                    f"net {current.name!r} not terminated by *END before the"
                    " next *D_NET",
                    line=number,
                )
            if len(fields) < 3:
                raise ParseError("malformed *D_NET line", line=number)
            current = _NetSection(name=fields[1], total_cap=float(fields[2]) * units["C"])
            mode = None
        elif keyword == "*CONN":
            mode = "conn"
        elif keyword == "*CAP":
            mode = "cap"
        elif keyword == "*RES":
            mode = "res"
        elif keyword == "*END":
            if current is not None:
                drivers = [d for _, _, d in current.connections if d.upper() == "I"]
                if len(drivers) > 1:
                    raise ParseError(
                        f"net {current.name!r} has {len(drivers)} I-direction *CONN"
                        " drivers; a net has exactly one",
                        line=number,
                    )
                yield current
            current = None
            mode = None
        elif current is not None:
            if mode == "conn" and keyword in ("*I", "*P"):
                direction = fields[2] if len(fields) > 2 else "B"
                current.connections.append((keyword, fields[1], direction))
            elif mode == "cap":
                if len(fields) == 3:
                    current.caps.append((fields[1], None, float(fields[2]) * units["C"]))
                elif len(fields) >= 4:
                    current.caps.append((fields[1], fields[2], float(fields[3]) * units["C"]))
                else:
                    raise ParseError("malformed *CAP entry", line=number)
            elif mode == "res":
                if len(fields) < 4:
                    raise ParseError("malformed *RES entry", line=number)
                current.resistors.append((fields[1], fields[2], float(fields[3]) * units["R"]))
        elif keyword in _UNIT_KEYWORDS:
            _apply_unit(keyword, fields, units)
        # Other header lines and anything else outside a net are ignored.
    if current is not None:
        raise ParseError(
            f"truncated SPEF: net {current.name!r} not terminated by *END"
            " before end of input"
        )


def spef_to_trees(source: SpefSource, *, root_name: str = "in") -> Dict[str, RCTree]:
    """Parse SPEF into a mapping net name -> :class:`RCTree`.

    Each tree is built from the net's :class:`SpefNet` record: nodes are
    added level by level (a stable sort of the preorder by depth, so every
    node keeps its child order), the driver is renamed ``root_name``, and
    the net's loads -- else its leaves -- are marked as outputs.
    """
    trees: Dict[str, RCTree] = {}
    for record in iter_spef_nets(source):
        names = [root_name] + record.node_names[1:]
        parent = record.parent.tolist()
        resistance = record.resistance.tolist()
        tree = RCTree(root_name)
        for node in np.argsort(record.depth, kind="stable").tolist()[1:]:
            tree.add_resistor(names[parent[node]], names[node], resistance[node])
        for name, value in zip(names, record.capacitance.tolist()):
            if value:
                tree.add_capacitor(name, value)
        loads = [names[record.index[load]] for load in record.loads]
        for name in loads or tree.leaves():
            tree.mark_output(name)
        trees[record.name] = tree
    return trees


def _strip_net_prefix(pin: str, prefixes: Tuple[str, str]) -> str:
    """Drop a leading ``<net>/`` or ``<net>:`` (``prefixes`` of one section)."""
    if pin.startswith(prefixes):
        # Both prefixes are the net name plus one delimiter character.
        return pin[len(prefixes[0]):]
    return pin


def _select_driver(net: _NetSection) -> Optional[str]:
    """Pick the net's driver pin from its ``*CONN`` list, order-independently.

    An ``I``-direction connection wins wherever it appears; failing that, the
    first connection that is *not* an ``O``-direction load; failing that, the
    first connection.  (The previous rule took the first ``*I``-kind or
    first-listed connection, so a file listing loads before the driver -- legal
    SPEF -- was rooted at a load.)
    """
    for _, pin, direction in net.connections:
        if direction.upper() == "I":
            return _strip_net_prefix(pin, net.prefixes)
    for _, pin, direction in net.connections:
        if direction.upper() != "O":
            return _strip_net_prefix(pin, net.prefixes)
    if net.connections:
        return _strip_net_prefix(net.connections[0][1], net.prefixes)
    return None


def _net_adjacency(net: _NetSection) -> Dict[str, List[Tuple[str, float]]]:
    adjacency: Dict[str, List[Tuple[str, float]]] = {}
    # _strip_net_prefix inlined: this loop runs twice per resistor.
    prefixes = net.prefixes
    cut = len(prefixes[0])
    for n1, n2, value in net.resistors:
        a = n1[cut:] if n1.startswith(prefixes) else n1
        b = n2[cut:] if n2.startswith(prefixes) else n2
        adjacency.setdefault(a, []).append((b, value))
        adjacency.setdefault(b, []).append((a, value))
    return adjacency


def _resolve_driver(net: _NetSection, adjacency: Dict[str, List[Tuple[str, float]]]) -> str:
    driver = _select_driver(net)
    if driver is None:
        raise ParseError(f"net {net.name!r} has no *CONN section to locate its driver")
    if driver not in adjacency and adjacency:
        # The writer emits the driver pin as <net>:DRV while the resistor
        # spine starts at the tree root node; fall back to the resistor node
        # that appears only once (a topological root candidate).
        if driver.upper() == "DRV":
            driver = _strip_net_prefix(net.resistors[0][0], net.prefixes)
        else:
            raise TopologyError(
                f"driver pin {driver!r} of net {net.name!r} does not touch any resistor"
            )
    return driver


@dataclass(frozen=True)
class SpefNet:
    """One ``*D_NET`` section parsed straight into parent-index arrays.

    ``node_names`` is in depth-first preorder from the driver (index 0) and
    ``index`` maps each name back to its position; ``parent`` /
    ``resistance`` describe the edge *into* each node (root entries ``-1``
    / 0), ``capacitance`` the grounded cap per node and ``depth`` the node
    depth the preorder walk assigned.  ``loads`` lists the ``O``-direction
    connection pins (net prefix stripped) -- the sink pins a
    :class:`~repro.graph.DesignDB` binds to design loads.
    """

    name: str
    node_names: List[str]
    parent: np.ndarray
    resistance: np.ndarray
    capacitance: np.ndarray
    depth: np.ndarray
    index: Dict[str, int] = field(repr=False, compare=False)
    loads: List[str] = field(default_factory=list)
    total_capacitance: float = 0.0

    def to_flat_tree(self) -> "FlatTree":
        """Compile to a :class:`~repro.flat.FlatTree` (loads, else leaves, as outputs)."""
        from repro.flat import FlatTree

        _, parent, resistance, capacitance, depth, is_output = spef_block([self])
        return FlatTree(
            self.node_names,
            parent,
            resistance,
            np.zeros(len(parent)),
            capacitance,
            is_output,
            _depth=depth,
            _trusted=True,
            _index=self.index,
        )


def _net_to_flat(net: _NetSection) -> SpefNet:
    """Convert one parsed section to preorder arrays, checking its topology.

    A negative or NaN ``*CAP`` line is rejected here, line by line, since
    summing a node's lines could hide it from the block check.
    """
    adjacency = _net_adjacency(net)
    driver = _resolve_driver(net, adjacency)

    names: List[str] = []
    parent: List[int] = []
    resistance: List[float] = []
    depth: List[int] = []
    index: Dict[str, int] = {}
    stack: List[Tuple[str, int, float, int]] = [(driver, -1, 0.0, 0)]
    while stack:
        node, parent_index, value, level = stack.pop()
        if node in index:
            continue
        here = index[node] = len(names)
        names.append(node)
        parent.append(parent_index)
        resistance.append(value)
        depth.append(level)
        level += 1
        # Reverse so the first-listed neighbour is visited first (preorder).
        for neighbour, edge_value in reversed(adjacency.get(node, [])):
            if neighbour not in index:
                stack.append((neighbour, here, edge_value, level))

    # Loop detection: a tree with V nodes has V-1 edges.
    if adjacency and len(net.resistors) != len(names) - 1:
        raise TopologyError(
            f"net {net.name!r} has {len(net.resistors)} resistors over {len(names)} nodes; "
            "the parasitic network is not a tree"
        )

    capacitance = [0.0] * len(names)
    for n1, n2, value in net.caps:
        if n2 is not None:
            raise TopologyError(
                f"net {net.name!r} contains a coupling capacitor ({n1} to {n2}); "
                "RC-tree analysis only supports grounded capacitors"
            )
        node = _strip_net_prefix(n1, net.prefixes)
        if node not in index:
            raise TopologyError(
                f"capacitor node {node!r} of net {net.name!r} is not connected to the driver"
            )
        if not value >= 0.0:
            raise ElementValueError(
                f"net {net.name!r}: element values must be finite and"
                f" non-negative, got C={value!r} at node {node!r}"
            )
        capacitance[index[node]] += value

    loads = [
        _strip_net_prefix(pin, net.prefixes)
        for _, pin, direction in net.connections
        if direction.upper() == "O"
    ]
    return SpefNet(
        name=net.name,
        node_names=names,
        parent=np.asarray(parent, dtype=np.int64),
        resistance=np.asarray(resistance, dtype=np.float64),
        capacitance=np.asarray(capacitance, dtype=np.float64),
        depth=np.asarray(depth, dtype=np.int64),
        index=index,
        loads=[pin for pin in loads if pin in index],
        total_capacitance=net.total_cap,
    )


def iter_spef_nets(source: SpefSource) -> Iterator[SpefNet]:
    """Stream a SPEF source as :class:`SpefNet` records, one per ``*D_NET``.

    No dict :class:`~repro.core.tree.RCTree` is ever built -- each section
    goes straight from its resistor adjacency to preorder parent-index arrays,
    which is what keeps design-scale ingest
    (:meth:`repro.graph.DesignDB.from_spef`) linear with a small constant.
    ``source`` may be a whole string or any iterable of lines (e.g. an open
    file handle); malformed sections raise -- see :func:`_iter_net_sections`.
    """
    for section in _iter_net_sections(source):
        yield _net_to_flat(section)


#: One block of records: ``(starts, parent, resistance, capacitance, depth,
#: is_output)``, the layout :meth:`repro.flat.FlatForest.from_block` and
#: :meth:`repro.store.ShardStoreWriter.add_block` take.
SpefBlock = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def spef_block(records: Sequence[SpefNet]) -> SpefBlock:
    """Concatenate records into one block of preorder arrays.

    ``starts`` holds each net's first node plus the node-count sentinel and
    ``parent`` is block-local with ``-1`` at every net's driver.  Every
    element value is checked in one pass (finite and non-negative; the
    :class:`~repro.core.exceptions.ElementValueError` names the first
    offending net and node), and ``is_output`` marks each net's loads, or
    its leaves when it has none.
    """
    sizes = np.asarray([len(record.parent) for record in records], dtype=np.int64)
    starts = np.zeros(len(records) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    resistance = np.concatenate([record.resistance for record in records])
    capacitance = np.concatenate([record.capacitance for record in records])
    valid = np.isfinite(resistance) & np.isfinite(capacitance)
    valid &= (resistance >= 0.0) & (capacitance >= 0.0)
    if not valid.all():
        bad = int(np.flatnonzero(~valid)[0])
        t = int(np.searchsorted(starts, bad, side="right")) - 1
        record = records[t]
        raise ElementValueError(
            f"net {record.name!r}: element values must be finite and"
            f" non-negative, got R={float(resistance[bad])!r},"
            f" C={float(capacitance[bad])!r}"
            f" at node {record.node_names[bad - int(starts[t])]!r}"
        )
    parent = np.concatenate([record.parent for record in records])
    np.add(parent, np.repeat(starts[:-1], sizes), out=parent, where=parent >= 0)
    depth = np.concatenate([record.depth for record in records])
    bounds = starts.tolist()
    load_nodes = [
        lo + record.index[load]
        for lo, record in zip(bounds, records)
        for load in record.loads
    ]
    is_output = np.ones(len(parent), dtype=bool)
    is_output[parent[parent >= 0]] = False
    is_output[np.repeat([bool(record.loads) for record in records], sizes)] = False
    is_output[load_nodes] = True
    return starts, parent, resistance, capacitance, depth, is_output


def spef_to_forest(source: SpefSource):
    """Parse a whole SPEF file into one batched :class:`~repro.flat.FlatForest`.

    Returns ``(forest, nets)`` where ``nets`` is the list of
    :class:`SpefNet` records in file order (``forest`` member ``i`` is
    ``nets[i]``).  All nets are then solved together by the forest's shared
    level sweeps -- the bulk path for scoring every net of an extracted design
    without per-net Python traversals.
    """
    from repro.flat import FlatForest

    nets = list(iter_spef_nets(source))
    if not nets:
        raise ParseError("the SPEF text contains no *D_NET sections")
    starts, parent, resistance, capacitance, depth, is_output = spef_block(nets)
    forest = FlatForest.from_block(
        starts,
        parent,
        resistance,
        np.zeros(len(parent)),
        capacitance,
        depth=depth,
        is_output=is_output,
        names=[name for net in nets for name in net.node_names],
    )
    return forest, nets


def read_spef(path, **kwargs) -> Dict[str, RCTree]:
    """Read a SPEF file from ``path``, streaming its lines."""
    with open(path, "r", encoding="utf-8") as handle:
        return spef_to_trees(handle, **kwargs)
