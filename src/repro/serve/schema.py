"""Wire schema of the timing service: JSON payload parsing and validation.

Every request body is a JSON object; this module turns the documented
payload shapes into engine objects (:class:`~repro.sta.netlist.Design`,
:class:`~repro.sta.parasitics.NetParasitics`, :class:`~repro.sta.cells.Cell`,
swap lists, :class:`~repro.sta.delaycalc.DelayModel`) and raises
:class:`ServeError` -- which carries the HTTP status the server should
answer with -- for anything malformed.  Keeping the parsing here, out of
the handler coroutines, means the handlers stay pure traffic plumbing and
the schema is unit-testable without a socket.

Payload shapes
--------------

``update_net`` parasitics (exactly one of the two forms)::

    {"net": "n3", "lumped_capacitance": 2.5e-14}
    {"net": "n3",
     "tree": {"root": "root",
              "branches": [{"parent": "root", "node": "a",
                            "resistance": 120.0,
                            "wire_capacitance": 1e-15}],   # optional per branch
              "caps": {"a": 2e-15}},                        # optional node caps
     "pin_nodes": {"u7/A": "a"}}

Cells (``resize_instance`` / what-if swaps) are referenced by library name
(``"INV_X2"``) or spelled out inline with the five linear-model fields::

    {"name": "CUSTOM", "inputs": ["A"], "output": "Y",
     "input_capacitance": 6e-15, "drive_resistance": 3e3,
     "intrinsic_delay": 4e-11}
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.tree import RCTree
from repro.parallel import ENGINES
from repro.sta.cells import Cell, standard_cell_library
from repro.sta.delaycalc import DelayModel
from repro.sta.netlist import Design, design_from_dict
from repro.sta.parasitics import NetParasitics, lumped, rc_tree_parasitics

__all__ = [
    "ServeError",
    "cell_from_payload",
    "design_from_payload",
    "engine_from_payload",
    "model_from_payload",
    "parasitics_from_payload",
    "parasitics_to_payload",
    "parse_json_body",
    "require_mapping",
    "swaps_from_payload",
]


class ServeError(Exception):
    """A request the service must refuse, with the HTTP status to answer.

    ``status`` is the HTTP response code (400 for malformed payloads, 404
    for unknown sessions/routes, 409 for conflicts such as a duplicate
    session name); ``code`` is a stable machine-readable token clients can
    branch on without parsing the human message.
    """

    def __init__(self, message: str, *, status: int = 400, code: str = "bad_request"):
        super().__init__(message)
        self.status = status
        self.code = code

    def to_payload(self) -> Dict[str, Any]:
        """The JSON error envelope the server writes back."""
        return {"ok": False, "error": {"code": self.code, "message": str(self)}}


def parse_json_body(body: bytes) -> Dict[str, Any]:
    """Decode a request body into a JSON object (empty body -> ``{}``)."""
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServeError(f"request body is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ServeError("request body must be a JSON object")
    return payload


def require_mapping(payload: Mapping, key: str) -> Mapping:
    """Fetch a mandatory object-valued field from ``payload``."""
    value = payload.get(key)
    if not isinstance(value, Mapping):
        raise ServeError(f"payload field {key!r} must be a JSON object")
    return value


def _require_number(payload: Mapping, key: str) -> float:
    value = payload.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ServeError(f"payload field {key!r} must be a number")
    return float(value)


def design_from_payload(payload: Mapping) -> Design:
    """The ``netlist`` field of a session-creation payload, as a Design.

    The shape is exactly the CLI's JSON netlist form
    (:func:`repro.sta.netlist.design_from_dict`); parse failures surface as
    400-level :class:`ServeError` with the underlying message.
    """
    netlist = require_mapping(payload, "netlist")
    try:
        return design_from_dict(netlist)
    except Exception as error:
        raise ServeError(f"malformed netlist: {error}") from None


def parasitics_from_payload(payload: Mapping) -> NetParasitics:
    """An ``update_net`` body as :class:`NetParasitics` (lumped or tree form)."""
    net = payload.get("net")
    if not isinstance(net, str) or not net:
        raise ServeError("payload field 'net' must be a non-empty string")
    has_tree = "tree" in payload
    has_lumped = "lumped_capacitance" in payload
    if has_tree == has_lumped:
        raise ServeError(
            "update_net takes exactly one of 'lumped_capacitance' or 'tree'"
        )
    if has_lumped:
        value = _require_number(payload, "lumped_capacitance")
        try:
            return lumped(net, value)
        except Exception as error:
            raise ServeError(f"bad lumped parasitics: {error}") from None
    spec = require_mapping(payload, "tree")
    root = spec.get("root", "root")
    if not isinstance(root, str) or not root:
        raise ServeError("tree field 'root' must be a non-empty string")
    branches = spec.get("branches")
    if not isinstance(branches, Sequence) or isinstance(branches, (str, bytes)):
        raise ServeError("tree field 'branches' must be a list of branch objects")
    caps = spec.get("caps", {})
    if not isinstance(caps, Mapping):
        raise ServeError("tree field 'caps' must be an object of node -> farads")
    pin_nodes = payload.get("pin_nodes", {})
    if not isinstance(pin_nodes, Mapping):
        raise ServeError("'pin_nodes' must be an object of pin -> tree node")
    try:
        tree = RCTree(root)
        for branch in branches:
            if not isinstance(branch, Mapping):
                raise ServeError("each branch must be a JSON object")
            parent = branch.get("parent")
            node = branch.get("node")
            if not isinstance(parent, str) or not isinstance(node, str):
                raise ServeError("branch 'parent' and 'node' must be strings")
            resistance = _require_number(branch, "resistance")
            if "wire_capacitance" in branch:
                tree.add_line(
                    parent, node, resistance, _require_number(branch, "wire_capacitance")
                )
            else:
                tree.add_resistor(parent, node, resistance)
        for node, value in caps.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ServeError(f"cap at node {node!r} must be a number")
            tree.add_capacitor(str(node), float(value))
        return rc_tree_parasitics(
            net, tree, {str(pin): str(node) for pin, node in pin_nodes.items()}
        )
    except ServeError:
        raise
    except Exception as error:
        raise ServeError(f"bad tree parasitics: {error}") from None


def parasitics_to_payload(parasitics: NetParasitics) -> Dict[str, Any]:
    """Serialize :class:`NetParasitics` into the ``update_net`` wire shape.

    The inverse of :func:`parasitics_from_payload`: lumped nets become the
    ``lumped_capacitance`` form, tree nets the ``tree``/``pin_nodes`` form
    with branches in child-creation order and distributed lines carrying
    their ``wire_capacitance``.  Round-tripping reproduces the same
    characteristic times bit for bit, which is what lets the test harness
    load generated designs over the wire.
    """
    if parasitics.tree is None:
        return {
            "net": parasitics.net,
            "lumped_capacitance": parasitics.lumped_capacitance,
        }
    tree = parasitics.tree
    branches: List[Dict[str, Any]] = []
    for edge in tree.edges:
        branch: Dict[str, Any] = {
            "parent": edge.parent,
            "node": edge.child,
            "resistance": edge.resistance,
        }
        if edge.capacitance:
            branch["wire_capacitance"] = edge.capacitance
        branches.append(branch)
    caps = {
        name: tree.node_capacitance(name)
        for name in tree.nodes
        if tree.node_capacitance(name)
    }
    return {
        "net": parasitics.net,
        "tree": {"root": tree.root, "branches": branches, "caps": caps},
        "pin_nodes": dict(parasitics.pin_nodes),
    }


_CELL_FIELDS = (
    "name",
    "inputs",
    "output",
    "input_capacitance",
    "drive_resistance",
    "intrinsic_delay",
)


def cell_from_payload(
    spec: Any, library: Optional[Dict[str, Cell]] = None
) -> Cell:
    """A cell reference: a library name string or an inline cell object."""
    library = library if library is not None else standard_cell_library()
    if isinstance(spec, str):
        cell = library.get(spec)
        if cell is None:
            raise ServeError(
                f"unknown cell {spec!r}; not in the session's library",
                code="unknown_cell",
            )
        return cell
    if not isinstance(spec, Mapping):
        raise ServeError("a cell must be a library name or an inline cell object")
    missing = [key for key in _CELL_FIELDS if key not in spec]
    if missing:
        raise ServeError(f"inline cell is missing fields {missing!r}")
    inputs = spec["inputs"]
    if not isinstance(inputs, Sequence) or isinstance(inputs, (str, bytes)):
        raise ServeError("inline cell 'inputs' must be a list of pin names")
    try:
        return Cell(
            name=str(spec["name"]),
            inputs=tuple(str(pin) for pin in inputs),
            output=str(spec["output"]),
            input_capacitance=_require_number(spec, "input_capacitance"),
            drive_resistance=_require_number(spec, "drive_resistance"),
            intrinsic_delay=_require_number(spec, "intrinsic_delay"),
            is_sequential=bool(spec.get("is_sequential", False)),
            clock_pin=str(spec.get("clock_pin", "")),
        )
    except ServeError:
        raise
    except Exception as error:
        raise ServeError(f"bad inline cell: {error}") from None


def swaps_from_payload(
    payload: Mapping, library: Optional[Dict[str, Cell]] = None
) -> List[Tuple[str, Cell]]:
    """The ``swaps`` list of a what-if body: ``[[instance, cell], ...]``."""
    raw = payload.get("swaps")
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)) or not raw:
        raise ServeError("'swaps' must be a non-empty list of [instance, cell] pairs")
    swaps: List[Tuple[str, Cell]] = []
    for item in raw:
        if (
            not isinstance(item, Sequence)
            or isinstance(item, (str, bytes))
            or len(item) != 2
        ):
            raise ServeError("each swap must be an [instance, cell] pair")
        instance, spec = item
        if not isinstance(instance, str) or not instance:
            raise ServeError("swap instance must be a non-empty string")
        swaps.append((instance, cell_from_payload(spec, library)))
    return swaps


def engine_from_payload(payload: Mapping, default: Optional[str]) -> Optional[str]:
    """The optional ``engine`` field, checked against the engine table.

    ``None`` and ``"auto"`` leave the choice to auto-selection; any other
    value must be one of :data:`repro.parallel.ENGINES`, so a misspelt
    engine is refused when the session loads instead of failing every
    later solve.
    """
    value = payload.get("engine", default)
    if value is None or value == "auto" or value in ENGINES:
        return value
    choices = ", ".join(("auto",) + ENGINES)
    raise ServeError(
        f"unknown engine {value!r}; choose one of: {choices}",
        code="unknown_engine",
    )


def model_from_payload(payload: Mapping, default: DelayModel) -> DelayModel:
    """The optional ``model`` field as a :class:`DelayModel`."""
    value = payload.get("model")
    if value is None:
        return default
    try:
        return DelayModel(value)
    except ValueError:
        choices = ", ".join(model.value for model in DelayModel)
        raise ServeError(
            f"unknown delay model {value!r}; choose one of: {choices}",
            code="unknown_model",
        ) from None
