"""Levelized, array-native static timing over a whole design.

A :class:`TimingGraph` compiles a :class:`~repro.graph.DesignDB` into flat
edge arrays -- one vertex per pin, *net arcs* from each driver pin to each
load pin, *cell arcs* from each input (or clock) pin to the output pin --
and numbers them **level-major** once: vertices in Kahn wave order (their
longest-path level, first-seen pin order within a level), edges sorted
stably by destination.  Each level is then one vertex range whose in-edges
are one edge range, so the forward sweep
(:meth:`TimingGraph._propagate_tensor`) computes arrival times for **all
pins and all three delay models at once** on contiguous slices: gather the
sources' arrivals, add the level's delay slice, fold each vertex's
candidates with one ``np.maximum`` per in-edge rank and clamp at ``0.0``
into the level's vertex slice.  Required times and per-pin slacks come
from the mirrored backward sweep (:meth:`TimingGraph._required_tensor`: a
segment min over each level's out-edges, source-major, then a min with the
endpoint's own required time).  Critical paths are traced for every
scenario together, one edge back per step (:meth:`TimingGraph._trace_paths`).
The renumbering is internal: :attr:`TimingGraph.vertex_names`, the matrix
properties and every per-pin dict keep the first-seen pin order, mapped
back through one stored permutation.

Net-arc delays are extracted from the database's single batched
:class:`~repro.flat.FlatForest` solve: the Elmore column reads ``T_De``
directly, the two bound columns come from one batched evaluation of
eqs. (14)-(17) over every sink of every net (:func:`_wire_delays`, which
every wire-delay evaluation of this module goes through).  A scenario
batch reads the sink table as ``(rows, S)`` and builds its ``(edges, S,
3)`` delay tensor with no masks: rows whose stage carries no capacitance
pass through the bound functions as zero delay (:func:`_bound_tp`).  Cell
arcs carry the cell's intrinsic delay in every column, and clock-net arcs
are zero (ideal clock network).

Incremental ECO re-timing
-------------------------
:meth:`update_net` re-solves exactly one stage tree in the forest, patches
that net's arc delays, and re-propagates arrivals only through the *downstream
cone*: one level-synchronous relaxation (:meth:`TimingGraph._relax_cone`)
re-evaluates the affected vertices of each level exactly
(:meth:`TimingGraph._relax_level`: the full sweep's gather, add and
:func:`_fold_max` over the same in-edges, so the result is identical to
a from-scratch run) and stops at any vertex whose arrival did not
change.  :meth:`resize_instance` does the same for a cell swap (drive
resistance, input loads and intrinsic delay all change).  The batched
what-if (:meth:`TimingGraph.whatif_resize_worst_slack`) runs the same
relaxation read-only, one column per candidate, after solving only the stage
trees the candidates touch.  This is what gives :mod:`repro.opt.sizing` a
design-scope ECO loop: worst slack after an edit, or under a candidate edit,
costs O(cone) instead of O(design).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.certify import Verdict
from repro.core.exceptions import AnalysisError
from repro.flat import delay_lower_bound_batch, delay_upper_bound_batch
from repro.graph.designdb import DesignDB, NetModel, ScenarioSinkTable
from repro.sta.cells import Cell
from repro.sta.delaycalc import DelayModel
from repro.sta.netlist import Design, PinRef
from repro.sta.parasitics import NetParasitics
from repro.utils.checks import require_in_unit_interval

__all__ = [
    "TimingGraph",
    "TimingReport",
    "PathSegment",
    "DesignTimingSummary",
    "ScenarioTimingReport",
]

#: Column order of the per-edge / per-vertex model axes.
_MODELS = (DelayModel.ELMORE, DelayModel.UPPER_BOUND, DelayModel.LOWER_BOUND)
_MODEL_COLUMN = {model: column for column, model in enumerate(_MODELS)}


@dataclass(frozen=True)
class PathSegment:
    """One hop of a reported timing path."""

    location: str
    arc: str
    incremental_delay: float
    arrival: float


@dataclass
class TimingReport:
    """Result of one timing run (:meth:`TimingGraph.run`)."""

    delay_model: DelayModel
    clock_period: float
    #: Arrival time at every graph vertex (seconds).
    arrivals: Dict[str, float]
    #: Slack at every endpoint (seconds).
    endpoint_slacks: Dict[str, float]
    #: The worst (most negative) slack endpoint and its critical path.
    critical_path: List[PathSegment] = field(default_factory=list)

    @property
    def worst_slack(self) -> float:
        """Most negative endpoint slack (or +clock_period when there are no endpoints)."""
        if not self.endpoint_slacks:
            return self.clock_period
        return min(self.endpoint_slacks.values())

    @property
    def worst_endpoint(self) -> Optional[str]:
        """Endpoint with the worst slack."""
        if not self.endpoint_slacks:
            return None
        return min(self.endpoint_slacks, key=self.endpoint_slacks.get)

    @property
    def meets_timing(self) -> bool:
        """True when every endpoint has non-negative slack."""
        return self.worst_slack >= 0.0

    def describe(self) -> str:
        """Multi-line text report in the style of classic STA tools."""
        lines = [
            f"timing report ({self.delay_model.value} delays, period {self.clock_period * 1e9:.3f} ns)",
            f"  worst slack: {self.worst_slack * 1e9:+.4f} ns at {self.worst_endpoint}",
            "  critical path:",
        ]
        for segment in self.critical_path:
            lines.append(
                f"    {segment.arrival * 1e9:9.4f} ns  (+{segment.incremental_delay * 1e9:.4f} ns)"
                f"  {segment.location}  [{segment.arc}]"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class DesignTimingSummary:
    """JSON-friendly design-level timing summary (the CLI's payload).

    ``worst_slack`` / ``worst_endpoint`` carry one entry per delay model; the
    verdict is the paper's ternary ``OK`` applied to the whole design
    (PASS / FAIL / INDETERMINATE), and the critical path is reported under the
    sign-off (upper-bound) model.
    """

    design: str
    clock_period: float
    threshold: float
    worst_slack: Dict[str, float]
    worst_endpoint: Dict[str, Optional[str]]
    verdict: str
    critical_path: List[PathSegment] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Plain-dict form, ready for ``json.dumps``."""
        return {
            "design": self.design,
            "clock_period": self.clock_period,
            "threshold": self.threshold,
            "worst_slack": dict(self.worst_slack),
            "worst_endpoint": dict(self.worst_endpoint),
            "verdict": self.verdict,
            "critical_path": [
                {
                    "location": segment.location,
                    "arc": segment.arc,
                    "incremental_delay": segment.incremental_delay,
                    "arrival": segment.arrival,
                }
                for segment in self.critical_path
            ],
        }


@dataclass(frozen=True)
class ScenarioTimingReport:
    """Design-level timing under every scenario of a batch.

    ``worst_slack`` has shape ``(S, 3)`` with columns in ``_MODELS`` order
    (Elmore, upper bound, lower bound); ``verdicts`` carries the paper's
    ternary ``OK`` per scenario; ``critical_paths`` holds one traced path per
    scenario under ``path_model`` (empty lists when tracing was skipped).
    """

    design: str
    scenario_names: List[str]
    clock_periods: np.ndarray
    thresholds: np.ndarray
    worst_slack: np.ndarray
    worst_endpoint: List[Dict[str, Optional[str]]]
    verdicts: List[str]
    critical_paths: List[List[PathSegment]]
    path_model: str

    @property
    def scenario_count(self) -> int:
        """Number of scenarios ``S``."""
        return len(self.scenario_names)

    @property
    def overall_verdict(self) -> str:
        """FAIL if any scenario fails, else INDETERMINATE if any is, else PASS."""
        if Verdict.FAIL.name in self.verdicts:
            return Verdict.FAIL.name
        if Verdict.INDETERMINATE.name in self.verdicts:
            return Verdict.INDETERMINATE.name
        return Verdict.PASS.name

    def worst_slack_of(
        self, scenario: Union[int, str], model: DelayModel = DelayModel.UPPER_BOUND
    ) -> float:
        """Worst slack of one scenario (by index or name) under one model."""
        index = (
            scenario
            if isinstance(scenario, int)
            else self.scenario_names.index(scenario)
        )
        return float(self.worst_slack[index, _MODEL_COLUMN[model]])

    def worst_scenario(self, model: DelayModel = DelayModel.UPPER_BOUND) -> int:
        """Index of the scenario with the most negative worst slack."""
        return int(np.argmin(self.worst_slack[:, _MODEL_COLUMN[model]]))

    def to_dict(self) -> dict:
        """JSON-friendly form (the CLI's ``--corners`` payload)."""
        scenarios = []
        for index, name in enumerate(self.scenario_names):
            scenarios.append(
                {
                    "name": name,
                    "clock_period": float(self.clock_periods[index]),
                    "threshold": float(self.thresholds[index]),
                    "worst_slack": {
                        model.value: float(self.worst_slack[index, column])
                        for column, model in enumerate(_MODELS)
                    },
                    "worst_endpoint": dict(self.worst_endpoint[index]),
                    "verdict": self.verdicts[index],
                    "critical_path": [
                        {
                            "location": segment.location,
                            "arc": segment.arc,
                            "incremental_delay": segment.incremental_delay,
                            "arrival": segment.arrival,
                        }
                        for segment in self.critical_paths[index]
                    ],
                }
            )
        return {
            "design": self.design,
            "path_model": self.path_model,
            "verdict": self.overall_verdict,
            "scenarios": scenarios,
        }


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(start, start + count)`` of every pair, concatenated."""
    first = counts.cumsum() - counts
    return np.arange(int(counts.sum())) + (starts - first).repeat(counts)


def _csr_ranges(ptr: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Concatenated CSR ranges ``[ptr[v], ptr[v + 1])`` of ``vertices``."""
    lo = ptr[vertices]
    return _ranges(lo, ptr[vertices + 1] - lo)


def _rank_plan(heads: np.ndarray, counts: np.ndarray) -> List[np.ndarray]:
    """The rank steps of :func:`_fold_max` for segments starting at rows
    ``heads`` with ``counts`` (at least one) rows each: per rank ``r >= 1``
    up to the longest segment, the row every segment folds in at that rank
    -- its ``r``-th, or its last if it is shorter.  The last rank is every
    segment's last row."""
    longest = int(counts.max(initial=1))
    if longest == 1:
        return []
    tails = heads + (counts - 1)
    ranks = [np.minimum(heads + rank, tails) for rank in range(1, longest - 1)]
    ranks.append(tails)
    return ranks


def _fold_max(
    candidates: np.ndarray, heads: np.ndarray, ranks: List[np.ndarray]
) -> np.ndarray:
    """Max of each segment of ``candidates`` rows, folded left to right
    (``heads`` and ``ranks`` from :func:`_rank_plan`).

    The fold ``np.maximum.reduceat`` performs, as one in-place
    ``np.maximum`` per rank, without ``reduceat``'s per-row cost on wide
    trailing axes.  A segment past its last row folds that row in again,
    which leaves its max bitwise unchanged.  With no rank past the first
    every segment is one row, and ``candidates`` itself is returned.
    """
    if not ranks:
        return candidates
    value = candidates[heads]
    for at in ranks:
        np.maximum(value, candidates[at], out=value)
    return value


def _kahn_waves(n: int, src: np.ndarray, dst: np.ndarray) -> List[np.ndarray]:
    """The vertices of each longest-path level, ascending, by a wave Kahn pass.

    The whole ready frontier releases its out-edges with one gather, so the
    Python cost is O(logic depth), not O(V + E).  A vertex becomes ready in
    the wave after its last predecessor, so its wave index is its
    longest-path level.  Raises on a combinational loop.
    """
    out_dst = dst[np.argsort(src, kind="stable")]
    out_ptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    remaining = np.bincount(dst, minlength=n)
    waves: List[np.ndarray] = []
    frontier = np.flatnonzero(remaining == 0)
    while frontier.size:
        waves.append(frontier)
        decrements = np.bincount(
            out_dst[_csr_ranges(out_ptr, frontier)], minlength=n
        )
        remaining -= decrements
        frontier = np.flatnonzero((remaining == 0) & (decrements > 0))
    if sum(len(wave) for wave in waves) != n:
        raise AnalysisError(
            "the timing graph has a combinational loop; break it before analysis"
        )
    return waves


def _bound_tp(tp: np.ndarray, total_capacitance: np.ndarray) -> np.ndarray:
    """``T_P`` ready for :func:`_wire_delays`: ``1.0`` on dead rows.

    A dead row (its stage carries no capacitance) has ``T_P = T_De = T_Re
    = 0`` exactly.  With ``T_P = 1`` the bound functions' own ``T_De > 0``
    mask maps it to zero delay, with no ``0/0`` on the way, so no row has
    to be masked out of the call.  Live rows keep their ``T_P``, which the
    1e-6 ohm drive clamp of the stage compiler keeps positive, so the
    bound functions' ``T_P > 0`` check still guards every live row.
    """
    return np.where(total_capacitance > 0.0, tp, 1.0)


def _wire_delays(
    tp: np.ndarray,
    tde: np.ndarray,
    tre: np.ndarray,
    thresholds: Union[float, np.ndarray],
    model: DelayModel,
) -> np.ndarray:
    """Wire delays of sink rows under one model, shaped like ``tde``.

    ``tp`` (dead rows at ``1.0``, see :func:`_bound_tp`), ``tde`` and
    ``tre`` share their shape.  ``thresholds`` is one float for every
    value, or one per column of ``(rows, S)`` inputs.  Elmore is ``tde``
    itself; a bound is one call over the flattened inputs per distinct
    threshold, so a single threshold skips the grouping.  The bound
    functions are looked up in this module's namespace at call time, so a
    wrapper installed there sees every evaluation.
    """
    if model is DelayModel.ELMORE:
        return tde
    if np.ndim(thresholds):
        values = np.unique(thresholds)
        if values.size > 1:
            out = np.empty(tde.shape)
            for threshold in values:
                group = np.flatnonzero(thresholds == threshold)
                out[:, group] = _wire_delays(
                    tp[:, group], tde[:, group], tre[:, group], threshold, model
                )
            return out
        thresholds = values[0]
    bound = (
        delay_upper_bound_batch
        if model is DelayModel.UPPER_BOUND
        else delay_lower_bound_batch
    )
    return bound(tp.ravel(), tde.ravel(), tre.ravel(), [thresholds]).reshape(
        tde.shape
    )


def _cell_arcs(cell: Cell) -> List[Tuple[str, str]]:
    """``(from pin, arc label)`` of each timing arc into ``cell``'s output."""
    if cell.is_sequential:
        return [(cell.clock_pin, f"{cell.name} CK->Q")]
    return [(pin, f"{cell.name} {pin}->Y") for pin in cell.inputs]


class TimingGraph:
    """Array-compiled timing graph of a whole design, all delay models at once."""

    def __init__(
        self,
        db: Union[DesignDB, Design],
        parasitics: Optional[Mapping[str, NetParasitics]] = None,
        *,
        clock_period: float = 1e-9,
        threshold: float = 0.5,
        input_drive_resistance: float = 0.0,
        default_wire_capacitance: float = 0.0,
    ):
        if clock_period <= 0:
            raise AnalysisError("clock_period must be positive")
        require_in_unit_interval("threshold", threshold)
        if isinstance(db, Design):
            db = DesignDB(
                db,
                parasitics,
                input_drive_resistance=input_drive_resistance,
                default_wire_capacitance=default_wire_capacitance,
            )
        elif parasitics is not None:
            raise AnalysisError(
                "pass parasitics either to the DesignDB or to TimingGraph, not both"
            )
        self._db = db
        self._clock_period = clock_period
        self._threshold = threshold
        self._levelize(self._build_edges())
        self._arrivals: Optional[np.ndarray] = None
        self._required: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _net_arc_delays(self, rows: np.ndarray) -> np.ndarray:
        """(rows, 3) wire delays for sink rows of the database's table.

        One threshold, the graph's own, which ``__init__`` checked with
        :func:`~repro.utils.checks.require_in_unit_interval`.
        """
        sinks = self._db.sinks
        tp = _bound_tp(sinks.tp[rows], sinks.total_capacitance[rows])
        tde = sinks.tde[rows]
        tre = sinks.tre[rows]
        return np.stack(
            [_wire_delays(tp, tde, tre, self._threshold, m) for m in _MODELS],
            axis=1,
        )

    def _build_edges(self) -> List[int]:
        """Compile every arc, then number vertices and edges level-major.

        Pins are first named in first-seen order (net arcs, then cell
        arcs): that is the public pin order of :attr:`vertex_names` and of
        every per-pin dict.  The vertices are then renumbered in Kahn wave
        order (ascending first-seen index within a level) and the edges
        sorted stably by destination, so each level is one vertex range
        whose in-edges are one edge range, and each vertex's in-edges keep
        their compile order (the critical-path tie-break).  Returns the
        vertex count of each level, for :meth:`_levelize`.
        """
        db = self._db
        vertex_index: Dict[str, int] = {}
        vertex_names: List[str] = []
        edge_src: List[int] = []
        edge_dst: List[int] = []
        edge_arcs: List[str] = []
        #: Compile-order edge range per net (net arcs, sink-row order) and
        #: per instance (cell arcs, :func:`_cell_arcs` order).
        self._net_spans: Dict[str, slice] = {}
        self._cell_spans: Dict[str, slice] = {}
        # Timed nets: first edge and first sink row of each, edge count.
        timed_edges: List[int] = []
        timed_rows: List[int] = []
        timed_counts: List[int] = []

        names_append = vertex_names.append
        src_append = edge_src.append
        dst_append = edge_dst.append
        arc_append = edge_arcs.append

        def vertex(name: str) -> int:
            index = vertex_index.get(name)
            if index is None:
                vertex_index[name] = index = len(vertex_names)
                names_append(name)
            return index

        sink_pins = db.sinks.pins
        clock_nets = db.clock_nets
        for net in db.nets.values():
            if net.driver is None or not net.loads:
                continue
            driver = vertex(str(net.driver))
            start = len(edge_src)
            if net.name in clock_nets:
                arc = f"clock net {net.name}"
                loads = [str(load) for load in net.loads]
            else:
                arc = f"net {net.name}"
                window = db.sink_rows(net.name)
                loads = sink_pins[window]
                timed_edges.append(start)
                timed_rows.append(window.start)
                timed_counts.append(len(loads))
            for load in loads:
                src_append(driver)
                dst_append(vertex(load))
                arc_append(arc)
            self._net_spans[net.name] = slice(start, len(edge_src))

        cell_start = len(edge_src)
        intrinsic: List[float] = []
        cell_counts: List[int] = []
        for instance in db.instances.values():
            cell = instance.cell
            name = instance.name
            output = vertex(f"{name}/{cell.output}")
            start = len(edge_src)
            for pin, arc in _cell_arcs(cell):
                src_append(vertex(f"{name}/{pin}"))
                dst_append(output)
                arc_append(arc)
            self._cell_spans[name] = slice(start, len(edge_src))
            intrinsic.append(cell.intrinsic_delay)
            cell_counts.append(len(edge_src) - start)

        n = len(vertex_names)
        e = len(edge_src)
        src = np.asarray(edge_src, dtype=np.int64)
        dst = np.asarray(edge_dst, dtype=np.int64)
        waves = _kahn_waves(n, src, dst)
        # position[first-seen index] -> level-major vertex id.
        order = np.concatenate(waves) if waves else np.zeros(0, dtype=np.int64)
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        dst = position[dst]
        edge_order = np.argsort(dst, kind="stable")
        #: ``_edge_id[compile-order edge]``: its (destination-sorted) edge id.
        renumber = np.empty(e, dtype=np.int64)
        renumber[edge_order] = np.arange(e)
        self._edge_id = renumber

        self._edge_src = position[src][edge_order]
        self._edge_dst = dst[edge_order]
        self._edge_arcs = np.asarray(edge_arcs, dtype=object)[edge_order].tolist()
        self._edge_count = e
        self._vertex_count = n
        #: Public pin order, and each public pin's level-major vertex.
        self._pin_names = vertex_names
        self._pin_vertex = position
        vertex_index.update(zip(vertex_names, position.tolist()))
        self._vertex_index = vertex_index
        self._vertex_names = np.asarray(vertex_names, dtype=object)[order].tolist()

        counts = np.asarray(timed_counts, dtype=np.int64)
        edges = renumber[_ranges(np.asarray(timed_edges, dtype=np.int64), counts)]
        rows = _ranges(np.asarray(timed_rows, dtype=np.int64), counts)
        delays = np.zeros((e, 3))
        delays[edges] = self._net_arc_delays(rows)
        delays[renumber[cell_start:]] = np.repeat(intrinsic, cell_counts)[
            :, np.newaxis
        ]
        self._edge_delay = delays
        ascending = np.argsort(edges)
        #: Net-arc edges (ascending) and the sink-table row of each.
        self._net_edge_rows = (edges[ascending], rows[ascending])
        fixed = np.ones(e, dtype=bool)
        fixed[edges] = False
        #: Cell arcs and clock-net arcs: one delay for every scenario.
        self._fixed_edges = np.flatnonzero(fixed)
        return [len(wave) for wave in waves]

    def _edges(self, spans: Dict[str, slice], names: Sequence[str]) -> np.ndarray:
        """Edge ids of the arcs of ``names`` (nets or instances, per ``spans``)."""
        return np.concatenate(
            [self._edge_id[spans[name]] for name in names]
            + [np.zeros(0, dtype=np.int64)]
        )

    def _levelize(self, sizes: List[int]) -> None:
        """Level ranges, CSR adjacency and the per-level sweep plans.

        ``sizes[k]`` is the vertex count of level ``k``; with level-major
        ids, level ``k`` is the id range ``[bounds[k], bounds[k + 1])``.
        Edges are sorted by destination, so ``_in_ptr`` alone is the
        in-edge CSR (edge ``i`` of a range is edge id ``i``) and a level's
        in-edges are one edge slice.  Out-edges keep a source-major CSR
        (``_out_ptr`` over ``_out_idx``).
        """
        n = self._vertex_count
        src = self._edge_src
        dst = self._edge_dst
        bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        #: Longest-path level per vertex, and each level's id range.
        self._level = np.repeat(np.arange(len(sizes)), sizes)
        self._level_bounds = bounds
        in_counts = np.bincount(dst, minlength=n)
        in_ptr = np.concatenate(([0], np.cumsum(in_counts)))
        self._in_ptr = in_ptr
        self._in_counts = in_counts
        #: ``arange(max in-degree)``: a vertex's in-edges are ``ptr + ranks``.
        self._in_ranks = np.arange(in_counts.max() if n else 0)
        self._out_idx = np.argsort(src, kind="stable")
        out_counts = np.bincount(src, minlength=n)
        out_ptr = np.concatenate(([0], np.cumsum(out_counts)))
        self._out_ptr = out_ptr

        ranges = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        #: Forward plan, levels above the sources: the level's vertex range,
        #: its in-edge range, each vertex's first in-edge within that range
        #: and the level's :func:`_rank_plan`.
        forward = []
        for lo, hi in ranges[1:]:
            first = int(in_ptr[lo])
            heads = in_ptr[lo:hi] - first
            ranks = _rank_plan(heads, in_counts[lo:hi])
            forward.append((lo, hi, first, int(in_ptr[hi]), heads, ranks))
        self._forward_plan = forward
        #: Backward plan, top level first: the level's vertices with
        #: out-edges, those out-edges (source-major), their destinations
        #: and the ``reduceat`` offset of each vertex.
        backward = []
        for lo, hi in ranges:
            fans = lo + np.flatnonzero(out_counts[lo:hi])
            if fans.size:
                out_edges = self._out_idx[out_ptr[lo] : out_ptr[hi]]
                backward.append(
                    (fans, out_edges, dst[out_edges], out_ptr[fans] - out_ptr[lo])
                )
        self._backward_plan = backward[::-1]

        # Endpoints: primary-output ports, then flip-flop D pins.
        endpoints: List[str] = list(self._db.design.primary_outputs)
        for instance in self._db.instances.values():
            if instance.cell.is_sequential:
                endpoints.append(str(PinRef(instance.name, instance.cell.inputs[0])))
        self._endpoints = endpoints
        self._endpoint_vertices = np.asarray(
            [
                self._vertex_index[name]
                for name in endpoints
                if name in self._vertex_index
            ],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _relax_level(
        self,
        frontier: np.ndarray,
        arrivals: np.ndarray,
        delay: np.ndarray,
        overlay: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        overrides: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """New arrivals of ``frontier``, some vertices of one level.

        The cone walk's forward step, with the full sweep's arithmetic:
        the frontier's in-edges (one ``_in_ptr`` range each, in edge
        order), their delays added to their sources' arrivals, the same
        :func:`_fold_max` per vertex, clamped at ``0.0``.  ``arrivals``
        ``(V, ...)`` and ``delay`` ``(E, ...)`` share their trailing shape
        (a broadcast view will do).  ``overlay`` ``(moved, work)`` reads a
        source's arrival from ``work`` where ``moved`` is set; ``overrides``
        ``(edges, values)`` stands ``values[i]`` in for ``delay[edges[i]]``
        (``edges`` sorted).  Every frontier vertex must have an in-edge.
        """
        counts = self._in_counts[frontier]
        in_edges = _ranges(self._in_ptr[frontier], counts)
        first = counts.cumsum() - counts
        src = self._edge_src[in_edges]
        candidates = arrivals[src]
        if overlay is not None:
            moved, work = overlay
            hit = moved[src]
            if np.count_nonzero(hit):
                candidates[hit] = work[src[hit]]
        step = delay[in_edges]
        if overrides is not None:
            edges, values = overrides
            at = np.searchsorted(edges, in_edges)
            np.minimum(at, len(edges) - 1, out=at)
            found = edges[at] == in_edges
            if np.count_nonzero(found):
                step[found] = values[at[found]]
        candidates += step
        value = _fold_max(candidates, first, _rank_plan(first, counts))
        np.maximum(value, 0.0, out=value)
        return value

    def _propagate_tensor(self, delay: np.ndarray) -> np.ndarray:
        """Forward arrival sweep for any ``(edges, ...)`` delay tensor.

        The trailing axes ride along for free: the single-scenario run uses
        ``(E, 3)``, a scenario batch ``(E, S, 3)`` and one model's pin
        slacks ``(E, S)``.  Each level above the sources runs on its
        contiguous slices: gather the sources' arrivals, add the level's
        delay slice, fold each vertex's candidates left to right
        (:func:`_fold_max`) and clamp at ``0.0`` into the level's vertex
        slice.
        """
        arrivals = np.zeros((self._vertex_count,) + delay.shape[1:])
        src = self._edge_src
        for lo, hi, first, last, heads, ranks in self._forward_plan:
            candidates = np.take(arrivals, src[first:last], axis=0)
            candidates += delay[first:last]
            value = _fold_max(candidates, heads, ranks)
            np.maximum(value, 0.0, out=arrivals[lo:hi])
        return arrivals

    def _required_tensor(
        self, delay: np.ndarray, periods: Union[float, np.ndarray]
    ) -> np.ndarray:
        """Backward required-time sweep for any ``(edges, ...)`` delay tensor.

        Endpoints start at ``periods`` (a scalar, or one value per trailing
        scenario), every other vertex at ``+inf``.  Level by level from the
        top, each vertex with out-edges takes one segment min of
        ``required[dst] - delay`` over them, then the min with its own
        starting value (an endpoint may also drive a cone that reaches no
        endpoint).
        """
        required = np.full((self._vertex_count,) + delay.shape[1:], np.inf)
        if len(self._endpoint_vertices):
            required[self._endpoint_vertices] = periods
        for fans, out_edges, heads, offsets in self._backward_plan:
            candidates = required[heads] - delay[out_edges]
            value = np.minimum.reduceat(candidates, offsets, axis=0)
            np.minimum(value, required[fans], out=value)
            required[fans] = value
        return required

    def _solved_arrivals(self) -> np.ndarray:
        """The cached ``(V, 3)`` arrivals in vertex-id order, solved on demand."""
        if self._arrivals is None:
            self._arrivals = self._propagate_tensor(self._edge_delay)
        return self._arrivals

    def _solved_required(self) -> np.ndarray:
        """The cached ``(V, 3)`` required times in vertex-id order."""
        if self._required is None:
            self._required = self._required_tensor(
                self._edge_delay, self._clock_period
            )
        return self._required

    @property
    def arrivals_matrix(self) -> np.ndarray:
        """Arrival times, shape ``(pins, 3)`` -- columns Elmore, upper, lower.

        Rows follow :attr:`vertex_names`.
        """
        return self._solved_arrivals()[self._pin_vertex]

    @property
    def required_matrix(self) -> np.ndarray:
        """Required times, shape ``(pins, 3)``; ``+inf`` off any endpoint cone.

        Rows follow :attr:`vertex_names`.
        """
        return self._solved_required()[self._pin_vertex]

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    @property
    def clock_period(self) -> float:
        """Clock period the slacks are measured against (seconds)."""
        return self._clock_period

    @property
    def threshold(self) -> float:
        """Voltage threshold used by the two bound models."""
        return self._threshold

    @property
    def db(self) -> DesignDB:
        """The underlying design database."""
        return self._db

    @property
    def vertex_names(self) -> List[str]:
        """Pin names in first-seen order.

        The row order of :attr:`arrivals_matrix` and :attr:`required_matrix`
        and the key order of every per-pin dict.
        """
        return list(self._pin_names)

    def endpoint_slacks(self, model: DelayModel = DelayModel.ELMORE) -> Dict[str, float]:
        """Slack at every endpoint (``clock_period - arrival``)."""
        column = _MODEL_COLUMN[model]
        arrivals = self._solved_arrivals()
        slacks: Dict[str, float] = {}
        for name in self._endpoints:
            vertex = self._vertex_index.get(name)
            arrival = float(arrivals[vertex, column]) if vertex is not None else 0.0
            slacks[name] = self._clock_period - arrival
        return slacks

    def worst_slack(self, model: DelayModel = DelayModel.ELMORE) -> float:
        """Most negative endpoint slack (or ``+clock_period`` with no endpoints)."""
        column = _MODEL_COLUMN[model]
        if not self._endpoints:
            return self._clock_period
        worst = 0.0
        if len(self._endpoint_vertices):
            worst = float(
                self._solved_arrivals()[self._endpoint_vertices, column].max()
            )
        return self._clock_period - worst

    def pin_slacks(self, model: DelayModel = DelayModel.ELMORE) -> Dict[str, float]:
        """``required - arrival`` for every pin (``+inf`` off endpoint cones)."""
        column = _MODEL_COLUMN[model]
        slack = (
            self._solved_required()[:, column] - self._solved_arrivals()[:, column]
        )
        return dict(zip(self._pin_names, slack[self._pin_vertex].tolist()))

    def arrivals(self, model: DelayModel = DelayModel.ELMORE) -> Dict[str, float]:
        """Arrival time per pin name, one delay model."""
        column = _MODEL_COLUMN[model]
        arrivals = self._solved_arrivals()[self._pin_vertex, column]
        return dict(zip(self._pin_names, arrivals.tolist()))

    def _trace_paths(
        self, endpoints: np.ndarray, arrival: np.ndarray, delay: np.ndarray
    ) -> List[List[PathSegment]]:
        """Critical path ``p`` back from ``endpoints[p]`` over column ``p``.

        ``arrival`` is ``(V, P)`` and ``delay`` ``(E, P)``.  Every step moves
        all unfinished paths back one edge together: to the first in-edge,
        in edge order, whose source arrival plus delay equals the vertex's
        arrival.  A vertex with no such in-edge is the path's startpoint.
        Each step lowers a path's level, so there are at most depth steps.
        """
        in_ptr = self._in_ptr
        src = self._edge_src
        last = self._edge_count - 1
        paths = np.arange(len(endpoints))
        vertices = np.asarray(endpoints, dtype=np.int64)
        # (path, vertex, chosen in-edge or -1) of every step, step-major.
        steps: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        while paths.size:
            # (paths, max in-degree): each vertex's in-edges in edge order,
            # padded past its range; pads are clipped in bounds and masked.
            in_edges = in_ptr[vertices, np.newaxis] + self._in_ranks
            real = in_edges < in_ptr[vertices + 1, np.newaxis]
            np.minimum(in_edges, last, out=in_edges)
            columns = paths[:, np.newaxis]
            match = (
                arrival[src[in_edges], columns] + delay[in_edges, columns]
                == arrival[vertices, paths][:, np.newaxis]
            )
            match &= real
            rows = np.arange(paths.size)
            pick = match.argmax(axis=1)
            found = match[rows, pick]
            chosen = np.where(found, in_edges[rows, pick], -1)
            steps.append((paths, vertices, chosen))
            paths = paths[found]
            vertices = src[chosen[found]]

        path, vertex, edge = (np.concatenate(column) for column in zip(*steps))
        # Path-major, startpoint first: a stable sort by path, reversed.
        order = np.argsort(path, kind="stable")[::-1]
        path, vertex, edge = path[order], vertex[order], edge[order]
        hop = edge >= 0
        increment = np.zeros(len(edge))
        increment[hop] = delay[edge[hop], path[hop]]
        names = self._vertex_names
        arcs = self._edge_arcs
        traced: List[List[PathSegment]] = [[] for _ in range(len(endpoints))]
        for p, v, e, step, value in zip(
            path.tolist(),
            vertex.tolist(),
            edge.tolist(),
            increment.tolist(),
            arrival[vertex, path].tolist(),
        ):
            traced[p].append(
                PathSegment(
                    location=names[v],
                    arc=arcs[e] if e >= 0 else "startpoint",
                    incremental_delay=step,
                    arrival=value,
                )
            )
        return traced

    def critical_path(self, model: DelayModel = DelayModel.ELMORE) -> List[PathSegment]:
        """Trace the worst endpoint's critical path (may be empty)."""
        ends = self._endpoint_vertices
        if not len(ends):
            return []
        column = _MODEL_COLUMN[model]
        arrivals = self._solved_arrivals()[:, column, np.newaxis]
        endpoint = ends[np.argmax(arrivals[ends, 0])]
        return self._trace_paths(
            np.array([endpoint]), arrivals, self._edge_delay[:, column, np.newaxis]
        )[0]

    def run(self, model: DelayModel = DelayModel.ELMORE) -> TimingReport:
        """A :class:`TimingReport` for one model: arrivals, endpoint slacks and
        the worst endpoint's critical path."""
        report = TimingReport(
            delay_model=model,
            clock_period=self._clock_period,
            arrivals=self.arrivals(model),
            endpoint_slacks=self.endpoint_slacks(model),
        )
        report.critical_path = self.critical_path(model)
        return report

    def certify(self) -> Verdict:
        """The paper's ternary verdict applied to the whole design.

        PASS when the guaranteed-latest arrivals (upper-bound delays) meet the
        clock period; FAIL when even the guaranteed-earliest arrivals
        (lower-bound delays) miss it; INDETERMINATE in between.  All three
        models were propagated together, so this reads two worst slacks.
        """
        if self.worst_slack(DelayModel.UPPER_BOUND) >= 0.0:
            return Verdict.PASS
        if self.worst_slack(DelayModel.LOWER_BOUND) < 0.0:
            return Verdict.FAIL
        return Verdict.INDETERMINATE

    def summary(
        self, path_model: DelayModel = DelayModel.UPPER_BOUND
    ) -> DesignTimingSummary:
        """The JSON-friendly design-level summary (see the CLI's ``timing``).

        ``path_model`` selects the delay model the critical path is traced
        under (the sign-off upper bound by default).
        """
        worst_slack = {model.value: self.worst_slack(model) for model in _MODELS}
        worst_endpoint: Dict[str, Optional[str]] = {}
        for model in _MODELS:
            slacks = self.endpoint_slacks(model)
            worst_endpoint[model.value] = (
                min(slacks, key=slacks.get) if slacks else None
            )
        return DesignTimingSummary(
            design=self._db.design.name,
            clock_period=self._clock_period,
            threshold=self._threshold,
            worst_slack=worst_slack,
            worst_endpoint=worst_endpoint,
            verdict=self.certify().name,
            critical_path=self.critical_path(path_model),
        )

    # ------------------------------------------------------------------
    # Scenario-batched analysis
    # ------------------------------------------------------------------
    def _scenario_edge_delays(
        self,
        table: ScenarioSinkTable,
        thresholds: np.ndarray,
        models: Sequence[DelayModel] = _MODELS,
    ) -> np.ndarray:
        """``(edges, S, len(models))`` delays: scenario wires, shared cell arcs.

        The sink table is read as ``(rows, S)`` (``table.tp.T`` and its
        siblings), every row at once: dead rows go through the bound
        functions as zero delay (:func:`_bound_tp`), so nothing is masked.
        Each model's wire delays are gathered by sink row straight into
        the net-arc edges; cell arcs and clock-net arcs take the graph's
        own delays.  ``thresholds`` are the scenarios' (``Scenario`` checks
        an override at construction, ``__init__`` the default).
        """
        delays = np.empty((self._edge_count, table.scenario_count, len(models)))
        fixed = self._fixed_edges
        shared = self._edge_delay[fixed]
        edges, rows = self._net_edge_rows
        tp = _bound_tp(table.tp.T, table.total_capacitance.T)
        for slot, model in enumerate(models):
            plane = delays[:, :, slot]
            plane[fixed] = shared[:, _MODEL_COLUMN[model], np.newaxis]
            wire = _wire_delays(tp, table.tde.T, table.tre.T, thresholds, model)
            plane[edges] = wire[rows]
        return delays

    def analyze_scenarios(
        self,
        scenarios,
        *,
        path_model: DelayModel = DelayModel.UPPER_BOUND,
        with_critical_paths: bool = True,
        engine: Optional[str] = None,
    ) -> ScenarioTimingReport:
        """Propagate every scenario and every delay model in one levelized pass.

        The database solves all stage trees under the scenario derates in one
        batched forest sweep; the resulting ``(edges, S, 3)`` delay tensor is
        pushed through the same per-level relaxations as the single-scenario
        run, with the scenario axis riding along.  Per-scenario worst slack,
        the ternary verdict (against each scenario's own clock period) and
        the critical path under ``path_model`` come out together.  The
        graph's cached single-scenario arrivals are untouched.

        ``engine`` picks the :mod:`repro.parallel` kernel backend for the
        forest solve (``None`` auto-selects by sweep size and depth) -- see
        the CLI's ``timing --engine``.  Results are backend-independent.
        """
        table = self._db.solve_scenarios(scenarios, engine=engine)
        s = table.scenario_count
        thresholds = scenarios.thresholds(self._threshold)
        periods = scenarios.clock_periods(self._clock_period)
        delays = self._scenario_edge_delays(table, thresholds)
        arrivals = self._propagate_tensor(delays)

        endpoint_names = [
            name for name in self._endpoints if name in self._vertex_index
        ]
        if len(self._endpoint_vertices):
            endpoint_arrivals = arrivals[self._endpoint_vertices]  # (K, S, 3)
            worst_slack = periods[:, np.newaxis] - endpoint_arrivals.max(axis=0)
            worst_index = endpoint_arrivals.argmax(axis=0)  # (S, 3)
            worst_endpoint = [
                {
                    model.value: endpoint_names[int(worst_index[index, column])]
                    for column, model in enumerate(_MODELS)
                }
                for index in range(s)
            ]
        else:
            worst_slack = np.repeat(periods[:, np.newaxis], 3, axis=1)
            worst_endpoint = [
                {model.value: None for model in _MODELS} for _ in range(s)
            ]

        upper = worst_slack[:, _MODEL_COLUMN[DelayModel.UPPER_BOUND]]
        lower = worst_slack[:, _MODEL_COLUMN[DelayModel.LOWER_BOUND]]
        verdicts = [
            Verdict.PASS.name
            if upper[index] >= 0.0
            else (
                Verdict.FAIL.name
                if lower[index] < 0.0
                else Verdict.INDETERMINATE.name
            )
            for index in range(s)
        ]

        critical_paths: List[List[PathSegment]] = [[] for _ in range(s)]
        ends = self._endpoint_vertices
        if with_critical_paths and len(ends):
            column = _MODEL_COLUMN[path_model]
            critical_paths = self._trace_paths(
                ends[np.argmax(arrivals[ends, :, column], axis=0)],
                arrivals[:, :, column],
                delays[:, :, column],
            )

        return ScenarioTimingReport(
            design=self._db.design.name,
            scenario_names=list(table.scenario_names),
            clock_periods=periods,
            thresholds=thresholds,
            worst_slack=worst_slack,
            worst_endpoint=worst_endpoint,
            verdicts=verdicts,
            critical_paths=critical_paths,
            path_model=path_model.value,
        )

    def scenario_pin_slacks(
        self,
        scenarios,
        model: DelayModel = DelayModel.UPPER_BOUND,
        *,
        engine: Optional[str] = None,
    ) -> Dict[str, np.ndarray]:
        """Per-pin slack vectors over the scenario axis, one delay model.

        Runs the forward *and* backward levelized sweeps over the scenario
        tensor and returns ``required - arrival`` per pin as an ``(S,)``
        array (``+inf`` off every endpoint cone), keyed by pin name.
        ``engine`` selects the forest-solve backend.
        """
        table = self._db.solve_scenarios(scenarios, engine=engine)
        thresholds = scenarios.thresholds(self._threshold)
        periods = scenarios.clock_periods(self._clock_period)
        delays = self._scenario_edge_delays(table, thresholds, (model,))[:, :, 0]
        slack = self._required_tensor(delays, periods) - self._propagate_tensor(delays)
        return dict(zip(self._pin_names, slack[self._pin_vertex]))

    def whatif_resize_worst_slack(
        self,
        swaps: Sequence[Tuple[str, Cell]],
        model: DelayModel = DelayModel.UPPER_BOUND,
        *,
        engine: Optional[str] = None,
    ) -> np.ndarray:
        """Worst slack if cell swap ``s`` were applied -- all swaps batched.

        Candidates are evaluated *as scenarios*, and only where they can
        change anything.  The database gathers the stage trees the swaps
        touch (each swap's output net, and the nets it loads) into one
        sub-forest with one element plane per candidate, and a single
        batched solve of that sub-forest yields every candidate's stage
        times; every other tree keeps the base solve's.  The touched nets'
        arc delays and the swapped instances' cell arcs then seed one
        ``(cone, S)`` relaxation over the base arrivals
        (:meth:`_relax_cone`), and worst slack is the max of the cone's
        endpoints and the base arrivals of the endpoints outside it --
        bitwise what solving and propagating the whole design per
        candidate gives.  Nothing is mutated: this is the decision kernel
        of :func:`repro.opt.sizing.upsize_critical_path` and of the serve
        batcher.  ``engine`` pins the batched solve's kernel backend
        exactly as in :meth:`analyze_scenarios`.  A swap that
        :meth:`resize_instance` would refuse (unknown instance, changed pin
        interface) raises :class:`~repro.core.exceptions.AnalysisError`.
        """
        if not swaps:
            return np.zeros(0)
        s = len(swaps)
        column = _MODEL_COLUMN[model]
        planes = self._db.whatif_cell_elements(swaps)
        net_edges = self._edges(self._net_spans, planes.nets)
        wire = np.zeros((s, 0))
        if planes.forest is not None:
            times = planes.forest.solve_batch(
                edge_r=planes.edge_r, node_c=planes.node_c, count=s, engine=engine
            )
            # Every candidate shares the graph's threshold (checked by __init__).
            wire = _wire_delays(
                _bound_tp(
                    times.tp[:, planes.sink_tree],
                    times.total_capacitance[:, planes.sink_tree],
                ),
                times.tde[:, planes.sink_nodes],
                times.tre[:, planes.sink_nodes],
                self._threshold,
                model,
            )
        # Swapped instances' cell arcs take the candidate's intrinsic delay.
        cell_edges = np.unique(self._edges(self._cell_spans, [n for n, _ in swaps]))
        cell_delay = np.repeat(
            self._edge_delay[cell_edges, column][:, np.newaxis], s, axis=1
        )
        for index, (name, cell) in enumerate(swaps):
            own = self._edges(self._cell_spans, [name])
            cell_delay[np.searchsorted(cell_edges, own), index] = cell.intrinsic_delay
        edges = np.concatenate([net_edges, cell_edges])
        order = np.argsort(edges)
        edges = edges[order]
        overrides = np.concatenate([wire.T, cell_delay])[order]

        base = self._solved_arrivals()[:, column]
        cone, values, _ = self._relax_cone(
            self._edge_dst[edges],
            np.broadcast_to(base[:, np.newaxis], (self._vertex_count, s)),
            np.broadcast_to(
                self._edge_delay[:, column, np.newaxis], (self._edge_count, s)
            ),
            (edges, overrides),
        )
        ends = self._endpoint_vertices
        in_cone = np.zeros(self._vertex_count, dtype=bool)
        in_cone[cone] = True
        is_end = np.zeros(self._vertex_count, dtype=bool)
        is_end[ends] = True
        worst = np.zeros(s)
        outside = base[ends[~in_cone[ends]]]
        if len(outside):
            worst[:] = outside.max()
        inside = values[is_end[cone]]
        if len(inside):
            np.maximum(worst, inside.max(axis=0), out=worst)
        return self._clock_period - worst

    # ------------------------------------------------------------------
    # Incremental ECO re-timing
    # ------------------------------------------------------------------
    def _patch_net_delays(self, nets: Sequence[str]) -> np.ndarray:
        """Refresh the arc delays of timed ``nets``; returns their edges.

        A timed net's edges run in its sink-row order, so one
        :meth:`_net_arc_delays` over the nets' concatenated rows serves all.
        """
        windows = [self._db.sink_rows(net) for net in nets]
        edges = self._edges(self._net_spans, nets)
        rows = np.asarray(
            [row for w in windows for row in range(w.start, w.stop)], dtype=np.int64
        )
        self._edge_delay[edges] = self._net_arc_delays(rows)
        return edges

    def _relax_cone(
        self,
        seeds: np.ndarray,
        arrivals: np.ndarray,
        delay: np.ndarray,
        overrides: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Re-relax the fan-out cone of ``seeds`` level by level, read-only.

        ``arrivals`` ``(V, ...)`` are the arrivals before the change and
        ``delay`` ``(E, ...)`` the edge delays; ``overrides`` ``(edges,
        values)`` stands ``values[i]`` in for ``delay[edges[i]]`` (``edges``
        sorted).  All share their trailing shape: the ECO relaxes ``(V, 3)``
        arrivals under ``(E, 3)`` delays, the what-if broadcast views of one
        model column under ``(k, S)`` candidate overrides.

        Each level's pending vertices take one :meth:`_relax_level` -- the
        full forward sweep's arithmetic (the same :func:`_fold_max`) over
        the same in-edges in the same order, so every value is bitwise a
        from-scratch propagation's -- reading the sources that already moved
        from the overlay.  Vertices whose new arrival equals the old one
        stop the walk.  Seeds must be edge destinations, so every vertex of
        the cone has an in-edge.  Returns ``(vertices, values, visited)``:
        the vertices whose arrival changed (in level order), their new
        arrivals, and the number of vertices re-evaluated.
        """
        work = np.empty(arrivals.shape)
        moved = np.zeros(self._vertex_count, dtype=bool)
        level = self._level
        ends = self._level_bounds[1:]
        # Pending vertices: ids rise with level, so the lowest level leads.
        keys = np.unique(np.asarray(seeds, dtype=np.int64))
        # Overridden edges end at seeds: no level past the last seed's has one.
        if overrides is None or not len(keys):
            override_until = -1
        else:
            override_until = int(level[keys[-1]])
        cone: List[np.ndarray] = []
        visited = 0
        while keys.size:
            depth = int(level[keys[0]])
            cut = int(np.searchsorted(keys, ends[depth]))
            frontier = keys[:cut]
            keys = keys[cut:]
            visited += cut
            value = self._relax_level(
                frontier,
                arrivals,
                delay,
                (moved, work),
                overrides if depth <= override_until else None,
            )
            changed = value != arrivals[frontier]
            if changed.ndim > 1:
                changed = changed.reshape(cut, -1).any(axis=1)
            if not np.count_nonzero(changed):
                continue
            vertices = frontier[changed]
            work[vertices] = value[changed]
            moved[vertices] = True
            cone.append(vertices)
            out_edges = self._out_idx[_csr_ranges(self._out_ptr, vertices)]
            keys = np.unique(np.concatenate((keys, self._edge_dst[out_edges])))
        vertices = np.concatenate(cone) if cone else np.zeros(0, dtype=np.int64)
        return vertices, work[vertices], visited

    def _repropagate(self, seeds: np.ndarray) -> int:
        """Exact arrival update over the downstream cone of ``seeds``, in place.

        :meth:`_relax_cone` re-evaluates the cone of all three model
        columns under the (already patched) edge delays, stopping at
        vertices whose arrivals did not change, so the updated arrivals
        are identical to a from-scratch propagation.  Required times are
        dropped.  Returns the number of vertices re-evaluated (the cone
        size).
        """
        if self._arrivals is None:
            # Nothing solved yet: the next access recomputes everything anyway.
            return 0
        self._required = None
        vertices, values, visited = self._relax_cone(
            seeds, self._arrivals, self._edge_delay
        )
        self._arrivals[vertices] = values
        return visited

    def update_net(
        self, net: str, parasitics: Union[NetParasitics, NetModel]
    ) -> int:
        """ECO hook: replace one net's parasitics and re-time its cone.

        Re-solves the net's stage tree in the database, patches the net's arc
        delays, and re-propagates arrivals through the downstream cone only.
        Returns the number of re-evaluated vertices.
        """
        self._db.update_net(net, parasitics)
        return self._repropagate(self._edge_dst[self._patch_net_delays([net])])

    def resize_instance(self, instance: str, cell: Cell) -> int:
        """ECO hook: swap one instance's cell and re-time its cone.

        The database re-solves the stage trees of the instance's output net
        (drive resistance changed) and of every net it loads (sink capacitance
        changed) as one block, and their arc delays are patched in one pass;
        the instance's cell arcs pick up the new intrinsic delay.  Returns
        the number of re-evaluated vertices.
        """
        affected = self._db.update_instance_cell(instance, cell)
        net_edges = self._patch_net_delays(affected)
        swapped = self._db.instances[instance].cell
        cell_edges = self._edges(self._cell_spans, [instance])
        self._edge_delay[cell_edges] = swapped.intrinsic_delay
        for edge, (_, label) in zip(cell_edges.tolist(), _cell_arcs(swapped)):
            self._edge_arcs[edge] = label
        edges = np.concatenate([net_edges, cell_edges])
        return self._repropagate(self._edge_dst[edges])
