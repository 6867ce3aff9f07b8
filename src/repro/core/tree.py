"""The RC tree network model (paper, Section II).

An :class:`RCTree` is a rooted tree of circuit nodes.  The root is the
*input*, driven by the step source (the output of the switching driver).
Every non-root node is connected to its parent by exactly one *branch
element*: a lumped :class:`~repro.core.elements.Resistor` or a distributed
:class:`~repro.core.elements.URCLine`.  Every node may additionally carry a
lumped grounded capacitance.  Any node can be declared an *output* -- the
paper stresses that "outputs may be taken anywhere in the tree".

The defining property exploited by all of the analysis code is that **there
is a unique path from any point in the tree to the input**.

This module holds only the topology and element values.  Analysis lives in
:mod:`repro.core.path` (path and shared-path resistances),
:mod:`repro.core.timeconstants` (``T_P``, ``T_De``, ``T_Re``) and
:mod:`repro.core.bounds` (the Penfield-Rubinstein bounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core.elements import Capacitor, Resistor, URCLine
from repro.core.exceptions import (
    DegenerateNetworkError,
    DuplicateNodeError,
    ElementValueError,
    TopologyError,
    UnknownNodeError,
)
from repro.utils.checks import require_non_negative

BranchElement = Union[Resistor, URCLine]


@dataclass
class Node:
    """A circuit node: a name, a lumped grounded capacitance, and an output flag."""

    name: str
    capacitance: float = 0.0
    is_output: bool = False

    def __post_init__(self):
        self.capacitance = require_non_negative("node capacitance", self.capacitance)


@dataclass(frozen=True)
class Edge:
    """A directed tree edge from ``parent`` to ``child`` carrying ``element``."""

    parent: str
    child: str
    element: BranchElement

    @property
    def resistance(self) -> float:
        """Total series resistance of the edge."""
        return self.element.resistance

    @property
    def capacitance(self) -> float:
        """Total (distributed) capacitance of the edge; zero for lumped resistors."""
        return self.element.capacitance

    @property
    def is_distributed(self) -> bool:
        """True when the edge is a URC line with both resistance and capacitance."""
        return isinstance(self.element, URCLine) and self.element.resistance > 0 and self.element.capacitance > 0


class RCTree:
    """A single-input RC tree network.

    Parameters
    ----------
    root:
        Name of the input node (default ``"in"``).  The input node is where
        the unit step is applied; it never carries capacitance that matters
        for the response (a capacitor directly at the input is driven by an
        ideal source and contributes nothing to any characteristic time,
        because its shared resistance with every output is zero -- it is
        still allowed, for fidelity with extracted netlists).

    Examples
    --------
    Build the paper's Figure 7 example network::

        tree = RCTree("in")
        tree.add_resistor("in", "a", 15.0)
        tree.add_capacitor("a", 2.0)
        tree.add_resistor("a", "b", 8.0)
        tree.add_capacitor("b", 7.0)
        tree.add_line("a", "out", resistance=3.0, capacitance=4.0)
        tree.add_capacitor("out", 9.0)
        tree.mark_output("out")
    """

    def __init__(self, root: str = "in"):
        self._root = root
        self._nodes: Dict[str, Node] = {root: Node(root)}
        self._parent: Dict[str, Edge] = {}
        self._children: Dict[str, List[str]] = {root: []}
        # Insertion order of node creation; gives deterministic traversals.
        self._order: List[str] = [root]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _ensure_known(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownNodeError(name) from None

    def _create_node(self, name: str) -> Node:
        if name in self._nodes:
            raise DuplicateNodeError(name)
        node = Node(name)
        self._nodes[name] = node
        self._children[name] = []
        self._order.append(name)
        return node

    def add_node(self, name: str, capacitance: float = 0.0) -> Node:
        """Create a free-standing node (it must later be attached with an edge).

        Mostly useful for netlist readers; :meth:`add_resistor` and
        :meth:`add_line` create their child node automatically.
        """
        node = self._create_node(name)
        if capacitance:
            node.capacitance = require_non_negative("capacitance", capacitance)
        return node

    def _attach(self, parent: str, child: str, element: BranchElement) -> Edge:
        self._ensure_known(parent)
        if child not in self._nodes:
            self._create_node(child)
        elif child in self._parent:
            raise TopologyError(
                f"node {child!r} already has a parent ({self._parent[child].parent!r}); "
                "an RC tree node has exactly one path to the input"
            )
        elif child == self._root:
            raise TopologyError("the input node cannot be the child of an edge")
        if parent == child:
            raise TopologyError(f"self-loop on node {child!r} is not allowed")
        edge = Edge(parent, child, element)
        self._parent[child] = edge
        self._children[parent].append(child)
        return edge

    def add_resistor(self, parent: str, child: str, resistance: float) -> Edge:
        """Connect ``child`` to ``parent`` through a lumped resistor (ohms)."""
        return self._attach(parent, child, Resistor(resistance))

    def add_line(self, parent: str, child: str, resistance: float, capacitance: float) -> Edge:
        """Connect ``child`` to ``parent`` through a uniform distributed RC line.

        ``resistance`` and ``capacitance`` are the line totals (ohms, farads).
        """
        return self._attach(parent, child, URCLine(resistance, capacitance))

    def add_element(self, parent: str, child: str, element: BranchElement) -> Edge:
        """Connect ``child`` to ``parent`` through an existing element object."""
        if isinstance(element, Capacitor):
            raise ElementValueError(
                "a Capacitor cannot form a tree edge; use add_capacitor() to ground it at a node"
            )
        if not isinstance(element, (Resistor, URCLine)):
            raise ElementValueError(f"unsupported branch element {element!r}")
        return self._attach(parent, child, element)

    def add_capacitor(self, node: str, capacitance: float) -> None:
        """Add lumped grounded capacitance (farads) at ``node`` (accumulates)."""
        target = self._ensure_known(node)
        target.capacitance += require_non_negative("capacitance", capacitance)

    def set_capacitance(self, node: str, capacitance: float) -> None:
        """Replace the lumped grounded capacitance at ``node``."""
        target = self._ensure_known(node)
        target.capacitance = require_non_negative("capacitance", capacitance)

    def mark_output(self, node: str) -> None:
        """Declare ``node`` to be an output of interest."""
        self._ensure_known(node).is_output = True

    def unmark_output(self, node: str) -> None:
        """Remove the output flag from ``node``."""
        self._ensure_known(node).is_output = False

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def root(self) -> str:
        """Name of the input node."""
        return self._root

    @property
    def nodes(self) -> List[str]:
        """All node names, in creation order (root first)."""
        return list(self._order)

    @property
    def outputs(self) -> List[str]:
        """Names of nodes marked as outputs, in creation order."""
        return [name for name in self._order if self._nodes[name].is_output]

    @property
    def edges(self) -> List[Edge]:
        """All edges, in child-creation order."""
        return [self._parent[name] for name in self._order if name in self._parent]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> Node:
        """Return the :class:`Node` record for ``name``."""
        return self._ensure_known(name)

    def node_capacitance(self, name: str) -> float:
        """Lumped grounded capacitance at ``name`` (farads)."""
        return self._ensure_known(name).capacitance

    def parent_edge(self, name: str) -> Optional[Edge]:
        """The edge connecting ``name`` to its parent, or ``None`` for the root."""
        self._ensure_known(name)
        return self._parent.get(name)

    def parent_of(self, name: str) -> Optional[str]:
        """Name of the parent node, or ``None`` for the root."""
        edge = self.parent_edge(name)
        return edge.parent if edge else None

    def children_of(self, name: str) -> List[str]:
        """Names of the children of ``name``, in attachment order."""
        self._ensure_known(name)
        return list(self._children[name])

    def is_leaf(self, name: str) -> bool:
        """True when ``name`` has no children."""
        return not self.children_of(name)

    def leaves(self) -> List[str]:
        """All leaf node names."""
        return [name for name in self._order if not self._children[name]]

    def depth(self, name: str) -> int:
        """Number of edges between ``name`` and the input."""
        depth = 0
        current = name
        self._ensure_known(name)
        while current != self._root:
            current = self._parent[current].parent
            depth += 1
        return depth

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def preorder(self, start: Optional[str] = None) -> Iterator[str]:
        """Yield node names root-first (parents before children)."""
        start = start or self._root
        self._ensure_known(start)
        stack = [start]
        while stack:
            name = stack.pop()
            yield name
            # Reverse so the first-attached child is visited first.
            stack.extend(reversed(self._children[name]))

    def postorder(self, start: Optional[str] = None) -> Iterator[str]:
        """Yield node names children-first (every child before its parent)."""
        start = start or self._root
        self._ensure_known(start)
        stack: List[Tuple[str, bool]] = [(start, False)]
        while stack:
            name, expanded = stack.pop()
            if expanded:
                yield name
                continue
            stack.append((name, True))
            for child in reversed(self._children[name]):
                stack.append((child, False))

    def ancestors(self, name: str) -> List[str]:
        """Nodes on the path from ``name`` (exclusive) up to the root (inclusive)."""
        self._ensure_known(name)
        result = []
        current = name
        while current != self._root:
            current = self._parent[current].parent
            result.append(current)
        return result

    def path_nodes(self, name: str) -> List[str]:
        """Nodes on the unique path from the input to ``name``, both inclusive."""
        return list(reversed(self.ancestors(name))) + [name]

    def path_edges(self, name: str) -> List[Edge]:
        """Edges on the unique path from the input to ``name``, in input-to-node order."""
        self._ensure_known(name)
        result = []
        current = name
        while current != self._root:
            edge = self._parent[current]
            result.append(edge)
            current = edge.parent
        result.reverse()
        return result

    def subtree_nodes(self, name: str) -> List[str]:
        """All nodes in the subtree rooted at ``name`` (including ``name``)."""
        return list(self.preorder(name))

    def lca(self, a: str, b: str) -> str:
        """Lowest common ancestor of nodes ``a`` and ``b``.

        The shared-path resistance ``R_ke`` of the paper is the input-to-LCA
        resistance, so this is the topological primitive behind eq. (1).
        """
        self._ensure_known(a)
        self._ensure_known(b)
        seen = set(self.path_nodes(a))
        current = b
        while current not in seen:
            current = self._parent[current].parent
        return current

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_capacitance(self) -> float:
        """Sum of all lumped node capacitance and distributed line capacitance (farads)."""
        lumped = sum(node.capacitance for node in self._nodes.values())
        distributed = sum(edge.capacitance for edge in self._parent.values())
        return lumped + distributed

    @property
    def total_resistance(self) -> float:
        """Sum of all branch resistance in the tree (ohms)."""
        return sum(edge.resistance for edge in self._parent.values())

    def subtree_capacitance(self, name: str) -> float:
        """Total capacitance at and below ``name`` (excluding the edge *into* ``name``)."""
        total = 0.0
        for node_name in self.preorder(name):
            total += self._nodes[node_name].capacitance
            if node_name != name:
                total += self._parent[node_name].capacitance
        return total

    # ------------------------------------------------------------------
    # Validation and transformation
    # ------------------------------------------------------------------
    def validate(self, *, require_capacitance: bool = False, require_resistance: bool = False) -> None:
        """Check structural invariants; raise :class:`TopologyError` on failure.

        The tree-ness of the network is enforced at construction time (a node
        cannot acquire two parents), so this primarily checks connectivity --
        every node must be reachable from the input -- plus optional
        non-degeneracy requirements used before running the bound formulas.
        """
        reachable = set(self.preorder())
        missing = [name for name in self._order if name not in reachable]
        if missing:
            raise TopologyError(
                f"nodes {missing!r} are not connected to the input {self._root!r}"
            )
        if require_capacitance and self.total_capacitance <= 0.0:
            raise DegenerateNetworkError("the network has no capacitance anywhere")
        if require_resistance and self.total_resistance <= 0.0:
            raise DegenerateNetworkError("the network has no resistance anywhere")

    def copy(self) -> "RCTree":
        """Deep-copy the tree (element objects are immutable and shared)."""
        clone = RCTree(self._root)
        clone._nodes[self._root].capacitance = self._nodes[self._root].capacitance
        clone._nodes[self._root].is_output = self._nodes[self._root].is_output
        for name in self._order:
            if name == self._root:
                continue
            edge = self._parent.get(name)
            if edge is None:
                clone.add_node(name)
            else:
                clone._attach(edge.parent, edge.child, edge.element)
            clone._nodes[name].capacitance = self._nodes[name].capacitance
            clone._nodes[name].is_output = self._nodes[name].is_output
        return clone

    def lumped(self, segments_per_line: int = 10, *, style: str = "pi") -> "RCTree":
        """Return an equivalent tree with every URC line replaced by lumped segments.

        Parameters
        ----------
        segments_per_line:
            Number of RC sections each distributed line is divided into.
        style:
            ``"pi"`` (default) splits each segment's capacitance half-and-half
            between its two end nodes; ``"L"`` puts each segment's full
            capacitance at its far end.  Pi sections converge faster and are
            what SPICE's ``URC`` expansion uses.

        The lumped tree is what the exact simulator (:mod:`repro.simulate`)
        operates on; as ``segments_per_line`` grows, its response converges
        to the distributed line's (see ``benchmarks/bench_ablation_segmentation``).
        """
        if segments_per_line < 1:
            raise ElementValueError("segments_per_line must be >= 1")
        if style not in ("pi", "L"):
            raise ElementValueError(f"unknown lumping style {style!r}; expected 'pi' or 'L'")
        clone = RCTree(self._root)
        clone._nodes[self._root].capacitance = self._nodes[self._root].capacitance
        clone._nodes[self._root].is_output = self._nodes[self._root].is_output
        for name in self._order:
            if name == self._root:
                continue
            node = self._nodes[name]
            edge = self._parent.get(name)
            if edge is None:
                clone.add_node(name, node.capacitance)
            elif not edge.is_distributed:
                # Lumped resistor, or a degenerate line: keep as a resistor and
                # move any line capacitance onto the child node.
                clone.add_resistor(edge.parent, name, edge.resistance)
                clone.set_capacitance(name, node.capacitance + edge.capacitance)
            else:
                seg_r = edge.resistance / segments_per_line
                seg_c = edge.capacitance / segments_per_line
                previous = edge.parent
                extra_child_cap = 0.0
                for index in range(segments_per_line):
                    is_last = index == segments_per_line - 1
                    current = name if is_last else f"{name}__seg{index + 1}"
                    clone.add_resistor(previous, current, seg_r)
                    if style == "pi":
                        # Half a segment's capacitance at each end of the segment.
                        if index == 0:
                            clone.add_capacitor(previous, seg_c / 2)
                        else:
                            clone.add_capacitor(previous, seg_c)
                        if is_last:
                            extra_child_cap = seg_c / 2
                    else:  # "L": all of the segment's capacitance at its far end
                        if is_last:
                            extra_child_cap = seg_c
                        else:
                            clone.add_capacitor(current, seg_c)
                    previous = current
                clone.set_capacitance(name, node.capacitance + extra_child_cap)
            clone._nodes[name].is_output = node.is_output
        return clone

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable multi-line summary of the tree."""
        lines = [
            f"RCTree(root={self._root!r}, nodes={len(self._nodes)}, "
            f"edges={len(self._parent)}, outputs={len(self.outputs)})",
            f"  total resistance : {self.total_resistance:g} ohm",
            f"  total capacitance: {self.total_capacitance:g} F",
        ]
        for edge in self.edges:
            kind = "URC " if edge.is_distributed else "R   "
            lines.append(
                f"  {kind}{edge.parent} -> {edge.child}: "
                f"R={edge.resistance:g} C={edge.capacitance:g}"
            )
        for name in self._order:
            node = self._nodes[name]
            if node.capacitance or node.is_output:
                flag = " [output]" if node.is_output else ""
                lines.append(f"  C   {name}: {node.capacitance:g} F{flag}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"RCTree(root={self._root!r}, nodes={len(self._nodes)}, "
            f"edges={len(self._parent)}, outputs={len(self.outputs)})"
        )
