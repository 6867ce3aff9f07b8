"""Read the simplified SPEF subset back into RC trees or flat arrays.

The reader understands the sections emitted by :mod:`repro.spef.writer` --
header unit statements, ``*D_NET`` with ``*CONN`` / ``*CAP`` / ``*RES`` --
plus files written by other tools as long as every net's resistor graph is a
tree and every capacitor is a ground capacitor (one node per ``*CAP`` line).
Coupling caps (two nodes on a ``*CAP`` line) raise a ``TopologyError``.

The tree root for each net is the ``I``-direction connection when present,
otherwise the first connection that is not an ``O``-direction load -- so a
file that lists a net's loads before its driver still roots correctly.

Two output forms are offered:

* :func:`spef_to_trees` / :func:`read_spef` build dict
  :class:`~repro.core.tree.RCTree` objects, the reference representation;
* :func:`iter_spef_nets` streams each ``*D_NET`` section directly into
  parent-index arrays (:class:`SpefNet`, convertible to a compiled
  :class:`~repro.flat.FlatTree` with no intermediate dict tree), and
  :func:`spef_to_forest` batches a whole file into one
  :class:`~repro.flat.FlatForest` -- the design-scale ingest path used by
  :meth:`repro.graph.DesignDB.from_spef`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.exceptions import ParseError, TopologyError
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


def _apply_unit(fields: List[str], units: Dict[str, float]) -> None:
    """Fold one ``*?_UNIT`` statement into the running unit table."""
    if len(fields) >= 3 and fields[0] in _UNIT_KEYWORDS:
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
        units[fields[0][1]] = value * scale


def _default_units() -> Dict[str, float]:
    return {"C": 1e-12, "R": 1.0, "T": 1e-9}


def _parse_units(lines: List[str]) -> Dict[str, float]:
    units = _default_units()
    for line in lines:
        # Only unit statements need splitting; _apply_unit still checks
        # the exact first field.
        if line.startswith(_UNIT_KEYWORDS):
            _apply_unit(line.split(), units)
    return units


def _count_drivers(net: _NetSection) -> int:
    return sum(1 for _, _, direction in net.connections if direction.upper() == "I")


def _iter_net_sections(
    source: SpefSource, *, strict: bool = False
) -> Iterator[_NetSection]:
    """Stream the ``*D_NET`` sections of a SPEF source, one at a time.

    ``source`` is a whole SPEF string or any iterable of lines -- an open
    file handle streams a multi-gigabyte extraction without ever holding
    the text.  String input keeps the historical whole-file unit scan
    (unit statements anywhere apply to every net); line-iterable input
    applies unit statements as they are encountered, which is identical
    for well-formed files (units live in the header).

    ``strict=True`` turns the malformations the lenient reader tolerates
    into clean :class:`ParseError`\\ s: a net truncated by end-of-input
    before its ``*END``, a new ``*D_NET`` opening mid-net, and duplicate
    ``I``-direction ``*CONN`` drivers.  Transactional ingest
    (:mod:`repro.store.ingest`) relies on strict mode so a broken stream
    aborts before partial shard files can survive.
    """
    if isinstance(source, str):
        stripped = [line.strip() for line in source.splitlines() if line.strip()]
        units = _parse_units(stripped)
        lines: Iterable[str] = stripped
        incremental_units = False
    else:
        lines = (line.strip() for line in source)
        units = _default_units()
        incremental_units = True

    current: Optional[_NetSection] = None
    mode = None
    number = 0
    for line in lines:
        if not line:
            continue
        number += 1
        fields = line.split()
        keyword = fields[0].upper()
        if incremental_units:
            _apply_unit(fields, units)
        if keyword == "*D_NET":
            if strict and current is not None:
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
                if strict and _count_drivers(current) > 1:
                    raise ParseError(
                        f"net {current.name!r} has {_count_drivers(current)}"
                        " I-direction *CONN drivers; a net has exactly one",
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
        # Header lines and anything outside a net section are ignored.
    if current is not None:
        if strict:
            raise ParseError(
                f"truncated SPEF: net {current.name!r} not terminated by *END"
                " before end of input"
            )
        # Tolerate a missing trailing *END.
        yield current


def spef_to_trees(text: str, *, root_name: str = "in") -> Dict[str, RCTree]:
    """Parse a SPEF string into a mapping net name -> :class:`RCTree`."""
    return {
        net.name: _net_to_tree(net, root_name=root_name)
        for net in _iter_net_sections(text)
    }


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


@dataclass(frozen=True)
class SpefNet:
    """One ``*D_NET`` section parsed straight into parent-index arrays.

    ``node_names`` is in depth-first preorder from the driver (index 0);
    ``parent`` / ``resistance`` describe the edge *into* each node (root
    entries ``-1`` / 0), ``capacitance`` the grounded cap per node and
    ``depth`` the node depth the preorder walk assigned (``None`` when the
    record was built by hand).  ``loads`` lists the ``O``-direction
    connection pins (net prefix stripped) -- the sink pins a
    :class:`~repro.graph.DesignDB` binds to design loads.
    """

    name: str
    node_names: List[str]
    parent: np.ndarray
    resistance: np.ndarray
    capacitance: np.ndarray
    loads: List[str] = field(default_factory=list)
    total_capacitance: float = 0.0
    depth: Optional[np.ndarray] = None

    def to_flat_tree(self) -> "FlatTree":
        """Compile to a :class:`~repro.flat.FlatTree` (loads, else leaves, as outputs)."""
        from repro.flat import FlatTree

        outputs = None
        loads = set(self.loads)
        marked = [
            index for index, name in enumerate(self.node_names) if name in loads
        ]
        if marked:
            outputs = marked
        return FlatTree.from_arrays(
            self.parent,
            self.resistance,
            np.zeros(len(self.parent)),
            self.capacitance,
            names=self.node_names,
            outputs=outputs,
        )


def _net_to_flat(net: _NetSection) -> SpefNet:
    """Convert one parsed section to arrays, with the same validation as the tree path."""
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
        loads=[pin for pin in loads if pin in index],
        total_capacitance=net.total_cap,
        depth=np.asarray(depth, dtype=np.int64),
    )


def iter_spef_nets(source: SpefSource, *, strict: bool = False) -> Iterator[SpefNet]:
    """Stream a SPEF source as :class:`SpefNet` records, one per ``*D_NET``.

    No dict :class:`~repro.core.tree.RCTree` is ever built -- each section
    goes straight from its resistor adjacency to preorder parent-index arrays,
    which is what keeps design-scale ingest
    (:meth:`repro.graph.DesignDB.from_spef`) linear with a small constant.
    ``source`` may be a whole string or any iterable of lines (e.g. an open
    file handle), and ``strict=True`` rejects truncated or duplicate-driver
    sections instead of tolerating them -- see :func:`_iter_net_sections`.
    """
    for section in _iter_net_sections(source, strict=strict):
        yield _net_to_flat(section)


def spef_to_forest(text: str):
    """Parse a whole SPEF file into one batched :class:`~repro.flat.FlatForest`.

    Returns ``(forest, nets)`` where ``nets`` is the list of
    :class:`SpefNet` records in file order (``forest`` member ``i`` is
    ``nets[i]``).  All nets are then solved together by the forest's shared
    level sweeps -- the bulk path for scoring every net of an extracted design
    without per-net Python traversals.
    """
    from repro.flat import FlatForest

    nets = list(iter_spef_nets(text))
    if not nets:
        raise ParseError("the SPEF text contains no *D_NET sections")
    return FlatForest([net.to_flat_tree() for net in nets]), nets


def read_spef(path, **kwargs) -> Dict[str, RCTree]:
    """Read a SPEF file from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return spef_to_trees(handle.read(), **kwargs)
