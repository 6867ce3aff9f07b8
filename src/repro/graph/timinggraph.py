"""Levelized, array-native static timing over a whole design.

A :class:`TimingGraph` compiles a :class:`~repro.graph.DesignDB` into flat
edge arrays -- one vertex per pin, *net arcs* from each driver pin to each
load pin, *cell arcs* from each input (or clock) pin to the output pin -- and
levelizes the DAG once.  Arrival times for **all pins and all three delay
models at once** are then computed one level at a time by a single relaxation
step (:meth:`TimingGraph._relax_level`: gather the level's in-edges through
the CSR arrays, add their delays, take one segment max per vertex and clamp
at ``0.0``) instead of the legacy engine's per-vertex dict updates over a
networkx graph.  Required times and per-pin slacks come from the mirrored
backward sweep (:meth:`TimingGraph._required_tensor`: a segment min over
out-edges, then a min with the endpoint's own required time).

Net-arc delays are extracted from the database's single batched
:class:`~repro.flat.FlatForest` solve: the Elmore column reads ``T_De``
directly, the two bound columns come from one batched evaluation of
eqs. (14)-(17) over every sink of every net (:func:`_wire_delays`, which
every wire-delay evaluation of this module goes through).  Cell arcs carry
the cell's intrinsic delay in every column, and clock-net arcs are zero
(ideal clock network), exactly as :class:`~repro.sta.analysis.TimingAnalyzer`
-- which is kept, unchanged, as the parity oracle; the property tests pin
the two engines together at 1e-12 relative tolerance.

Incremental ECO re-timing
-------------------------
:meth:`update_net` re-solves exactly one stage tree in the forest, patches
that net's arc delays, and re-propagates arrivals only through the *downstream
cone*: one level-synchronous relaxation (:meth:`TimingGraph._relax_cone`)
re-evaluates the affected vertices of each level exactly (the full sweep's
own :meth:`TimingGraph._relax_level` step, so the result is identical to a
from-scratch run) and stops at any vertex whose arrival did
not change.  :meth:`resize_instance` does the same for a cell swap (drive
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
from repro.sta.analysis import PathSegment, TimingReport
from repro.sta.cells import Cell
from repro.sta.delaycalc import DelayModel
from repro.sta.netlist import Design, PinRef
from repro.sta.parasitics import NetParasitics
from repro.utils.checks import require_in_unit_interval

__all__ = ["TimingGraph", "DesignTimingSummary", "ScenarioTimingReport"]

#: Column order of the per-edge / per-vertex model axes.
_MODELS = (DelayModel.ELMORE, DelayModel.UPPER_BOUND, DelayModel.LOWER_BOUND)
_MODEL_COLUMN = {model: column for column, model in enumerate(_MODELS)}


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


def _csr_gather(
    ptr: np.ndarray, index: np.ndarray, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR ranges of (non-empty) ``vertices``, and where each starts."""
    lo = ptr[vertices]
    counts = ptr[vertices + 1] - lo
    first = counts.cumsum() - counts
    flat = np.arange(int(first[-1] + counts[-1])) + (lo - first).repeat(counts)
    return index[flat], first


def _wire_delays(
    tp: np.ndarray,
    tde: np.ndarray,
    tre: np.ndarray,
    live: np.ndarray,
    thresholds: np.ndarray,
    model: DelayModel,
) -> np.ndarray:
    """``(S, rows)`` wire delays under one model, per-scenario thresholds.

    ``tp``/``tde``/``tre``/``live`` are ``(S, rows)`` sink-row times and the
    mask of rows whose stage carries capacitance.  Elmore is ``tde``
    itself.  For a bound, scenarios sharing a threshold are evaluated in
    one batched call; rows that are not live stay at zero delay.  The
    bound functions are looked up in this module's namespace at call time,
    so a wrapper installed there sees every evaluation.
    """
    if model is DelayModel.ELMORE:
        return tde
    bound = (
        delay_upper_bound_batch
        if model is DelayModel.UPPER_BOUND
        else delay_lower_bound_batch
    )
    out = np.zeros(tde.shape)
    for threshold in np.unique(thresholds):
        rows = live & (thresholds == threshold)[:, np.newaxis]
        if np.any(rows):
            out[rows] = bound(tp[rows], tde[rows], tre[rows], [threshold])[:, 0]
    return out


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
        self._build_edges()
        self._levelize()
        self._arrivals: Optional[np.ndarray] = None
        self._required: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _net_arc_delays(self, rows: Union[slice, np.ndarray]) -> np.ndarray:
        """(rows, 3) wire delays for sink rows of the database's table."""
        sinks = self._db.sinks
        tp, tde, tre, live = (
            column[np.newaxis, rows]
            for column in (sinks.tp, sinks.tde, sinks.tre, sinks.live)
        )
        thresholds = np.array([self._threshold])
        return np.stack(
            [_wire_delays(tp, tde, tre, live, thresholds, m)[0] for m in _MODELS],
            axis=1,
        )

    def _build_edges(self) -> None:
        db = self._db
        vertex_index: Dict[str, int] = {}
        vertex_names: List[str] = []
        edge_src: List[int] = []
        edge_dst: List[int] = []
        edge_arcs: List[str] = []
        arc_edges: List[int] = []  # net-arc edge index, aligned with arc_rows
        arc_rows: List[int] = []  # sink-table row feeding that edge
        #: Edge indices per net (net arcs) / per instance (cell arcs).
        self._net_edges: Dict[str, List[int]] = {}
        self._cell_edges: Dict[str, List[int]] = {}

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
            indices = self._net_edges.setdefault(net.name, [])
            if net.name in clock_nets:
                arc = f"clock net {net.name}"
                for load in net.loads:
                    indices.append(len(edge_src))
                    src_append(driver)
                    dst_append(vertex(str(load)))
                    arc_append(arc)
                continue
            rows = db.sink_rows(net.name)
            arc = f"net {net.name}"
            for row in range(rows.start, rows.stop):
                edge = len(edge_src)
                indices.append(edge)
                arc_edges.append(edge)
                arc_rows.append(row)
                src_append(driver)
                dst_append(vertex(sink_pins[row]))
                arc_append(arc)

        intrinsic_edges: List[int] = []
        intrinsic_values: List[float] = []
        for instance in db.instances.values():
            cell = instance.cell
            name = instance.name
            output = vertex(f"{name}/{cell.output}")
            indices = self._cell_edges.setdefault(name, [])
            intrinsic = cell.intrinsic_delay
            for pin, arc in _cell_arcs(cell):
                edge = len(edge_src)
                indices.append(edge)
                intrinsic_edges.append(edge)
                intrinsic_values.append(intrinsic)
                src_append(vertex(f"{name}/{pin}"))
                dst_append(output)
                arc_append(arc)

        self._edge_src = np.asarray(edge_src, dtype=np.int64)
        self._edge_dst = np.asarray(edge_dst, dtype=np.int64)
        self._edge_arcs = edge_arcs
        self._edge_count = len(edge_src)
        self._vertex_index = vertex_index
        self._vertex_names = vertex_names
        self._vertex_count = len(vertex_names)

        delays = np.zeros((self._edge_count, 3))
        edges = np.asarray(arc_edges, dtype=np.int64)
        rows = np.asarray(arc_rows, dtype=np.int64)
        if len(edges):
            delays[edges] = self._net_arc_delays(rows)
        self._net_edge_rows = (edges, rows)
        if intrinsic_edges:
            delays[np.asarray(intrinsic_edges, dtype=np.int64)] = np.asarray(
                intrinsic_values
            )[:, np.newaxis]
        self._edge_delay = delays

    def _levelize(self) -> None:
        """Longest-path levels, the vertices of each level, and in/out CSR.

        Kahn's algorithm, but one numpy *wave* at a time: the whole ready
        frontier releases its out-edges with one gather, so the Python cost
        is O(logic depth), not O(V + E).  A vertex becomes ready in the wave
        after its last predecessor, so its wave index is its longest-path
        level, and each wave's frontier is exactly one level's vertex set.
        """
        n = self._vertex_count
        src = self._edge_src
        dst = self._edge_dst
        # CSR adjacency, shared by the level sweeps and the cone walks.
        self._out_idx = np.argsort(src, kind="stable")
        out_counts = np.bincount(src, minlength=n)
        self._out_ptr = np.concatenate(([0], np.cumsum(out_counts)))
        self._in_idx = np.argsort(dst, kind="stable")
        in_counts = np.bincount(dst, minlength=n)
        self._in_ptr = np.concatenate(([0], np.cumsum(in_counts)))

        level = np.zeros(n, dtype=np.int64)
        levels: List[np.ndarray] = []
        remaining = in_counts.copy()
        frontier = np.flatnonzero(remaining == 0)
        while frontier.size:
            level[frontier] = len(levels)
            levels.append(frontier)
            out_edges, _ = _csr_gather(self._out_ptr, self._out_idx, frontier)
            decrements = np.bincount(dst[out_edges], minlength=n)
            remaining -= decrements
            frontier = np.flatnonzero((remaining == 0) & (decrements > 0))
        if sum(len(vertices) for vertices in levels) != n:
            raise AnalysisError(
                "the timing graph has a combinational loop; break it before analysis"
            )
        self._level = level
        #: ``_levels[k]``: the vertices of level ``k``, ascending.
        self._levels = levels

        # Endpoints: primary-output ports and flip-flop D pins, legacy order.
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

    def _in_edge_list(self, vertex: int) -> np.ndarray:
        """Indices of the edges into ``vertex`` (CSR slice)."""
        return self._in_idx[self._in_ptr[vertex] : self._in_ptr[vertex + 1]]

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
        """New arrivals of one level's ``frontier``: the forward step.

        Gathers the frontier's in-edges through the CSR arrays, adds their
        delays to their sources' arrivals, and takes one segment max per
        vertex, clamped at ``0.0``.  ``arrivals`` ``(V, ...)`` and ``delay``
        ``(E, ...)`` share their trailing shape (a broadcast view will do).
        ``overlay`` ``(moved, work)`` reads a source's arrival from
        ``work`` where ``moved`` is set; ``overrides`` ``(edges, values)``
        stands ``values[i]`` in for ``delay[edges[i]]`` (``edges`` sorted).
        Every frontier vertex must have an in-edge.
        """
        in_edges, first = _csr_gather(self._in_ptr, self._in_idx, frontier)
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
        value = np.maximum.reduceat(candidates, first, axis=0)
        np.maximum(value, 0.0, out=value)
        return value

    def _propagate_tensor(self, delay: np.ndarray) -> np.ndarray:
        """Forward arrival sweep for any ``(edges, ...)`` delay tensor.

        The trailing axes ride along for free: the single-scenario run uses
        ``(E, 3)``, a scenario batch ``(E, S, 3)`` and one model's pin
        slacks ``(E, S)`` -- one :meth:`_relax_level` per level above the
        sources serves them all.
        """
        arrivals = np.zeros((self._vertex_count,) + delay.shape[1:])
        for frontier in self._levels[1:]:
            arrivals[frontier] = self._relax_level(frontier, arrivals, delay)
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
        fans_out = self._out_ptr[1:] > self._out_ptr[:-1]
        for frontier in reversed(self._levels[:-1]):
            frontier = frontier[fans_out[frontier]]
            out_edges, first = _csr_gather(self._out_ptr, self._out_idx, frontier)
            candidates = required[self._edge_dst[out_edges]] - delay[out_edges]
            value = np.minimum.reduceat(candidates, first, axis=0)
            np.minimum(value, required[frontier], out=value)
            required[frontier] = value
        return required

    @property
    def arrivals_matrix(self) -> np.ndarray:
        """Arrival times, shape ``(pins, 3)`` -- columns Elmore, upper, lower."""
        if self._arrivals is None:
            self._arrivals = self._propagate_tensor(self._edge_delay)
        return self._arrivals

    @property
    def required_matrix(self) -> np.ndarray:
        """Required times, shape ``(pins, 3)``; ``+inf`` off any endpoint cone."""
        if self._required is None:
            self._required = self._required_tensor(
                self._edge_delay, self._clock_period
            )
        return self._required

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
        """Pin name per vertex index."""
        return list(self._vertex_names)

    def endpoint_slacks(self, model: DelayModel = DelayModel.ELMORE) -> Dict[str, float]:
        """Slack at every endpoint (``clock_period - arrival``)."""
        column = _MODEL_COLUMN[model]
        arrivals = self.arrivals_matrix
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
            worst = float(self.arrivals_matrix[self._endpoint_vertices, column].max())
        return self._clock_period - worst

    def pin_slacks(self, model: DelayModel = DelayModel.ELMORE) -> Dict[str, float]:
        """``required - arrival`` for every pin (``+inf`` off endpoint cones)."""
        column = _MODEL_COLUMN[model]
        slack = self.required_matrix[:, column] - self.arrivals_matrix[:, column]
        return {name: float(slack[i]) for i, name in enumerate(self._vertex_names)}

    def arrivals(self, model: DelayModel = DelayModel.ELMORE) -> Dict[str, float]:
        """Arrival time per pin name, one delay model."""
        column = _MODEL_COLUMN[model]
        arrivals = self.arrivals_matrix
        return {
            name: float(arrivals[i, column])
            for i, name in enumerate(self._vertex_names)
        }

    def _trace_path(
        self, endpoint: int, arrival: np.ndarray, delay: np.ndarray
    ) -> List[PathSegment]:
        """Walk one critical path backwards over 1-D arrival/delay columns."""
        path: List[PathSegment] = []
        vertex = endpoint
        while True:
            value = float(arrival[vertex])
            best_edge = None
            for edge in self._in_edge_list(vertex):
                candidate = arrival[self._edge_src[edge]] + delay[edge]
                if candidate == value:
                    best_edge = edge
                    break
            if best_edge is None:
                path.append(
                    PathSegment(
                        location=self._vertex_names[vertex],
                        arc="startpoint",
                        incremental_delay=0.0,
                        arrival=value,
                    )
                )
                break
            path.append(
                PathSegment(
                    location=self._vertex_names[vertex],
                    arc=self._edge_arcs[best_edge],
                    incremental_delay=float(delay[best_edge]),
                    arrival=value,
                )
            )
            vertex = int(self._edge_src[best_edge])
        path.reverse()
        return path

    def critical_path(self, model: DelayModel = DelayModel.ELMORE) -> List[PathSegment]:
        """Trace the worst endpoint's critical path (may be empty)."""
        if not len(self._endpoint_vertices):
            return []
        column = _MODEL_COLUMN[model]
        arrivals = self.arrivals_matrix
        endpoint = int(
            self._endpoint_vertices[
                np.argmax(arrivals[self._endpoint_vertices, column])
            ]
        )
        return self._trace_path(
            endpoint, arrivals[:, column], self._edge_delay[:, column]
        )

    def run(self, model: DelayModel = DelayModel.ELMORE) -> TimingReport:
        """A legacy-shaped :class:`~repro.sta.analysis.TimingReport` for one model."""
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
        (lower-bound delays) miss it; INDETERMINATE in between.  Unlike the
        legacy analyzer, all three models were already propagated together, so
        this reads two numbers instead of running two analyses.
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
        """``(edges, S, len(models))`` delays: scenario wires, shared cell arcs."""
        s = table.scenario_count
        columns = [_MODEL_COLUMN[model] for model in models]
        delays = np.broadcast_to(
            self._edge_delay[:, np.newaxis, columns],
            (self._edge_count, s, len(columns)),
        ).copy()
        edges, rows = self._net_edge_rows
        if len(edges):
            live = table.live
            for slot, model in enumerate(models):
                wire = _wire_delays(
                    table.tp, table.tde, table.tre, live, thresholds, model
                )
                delays[edges, :, slot] = wire[:, rows].T
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
        if with_critical_paths and len(self._endpoint_vertices):
            column = _MODEL_COLUMN[path_model]
            for index in range(s):
                endpoint = int(
                    self._endpoint_vertices[
                        np.argmax(arrivals[self._endpoint_vertices, index, column])
                    ]
                )
                critical_paths[index] = self._trace_path(
                    endpoint, arrivals[:, index, column], delays[:, index, column]
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
        return {name: slack[i] for i, name in enumerate(self._vertex_names)}

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
        net_edges = np.asarray(
            [edge for net in planes.nets for edge in self._net_edges[net]],
            dtype=np.int64,
        )
        wire = np.zeros((s, 0))
        if planes.forest is not None:
            times = planes.forest.solve_batch(
                edge_r=planes.edge_r, node_c=planes.node_c, count=s, engine=engine
            )
            wire = _wire_delays(
                times.tp[:, planes.sink_tree],
                times.tde[:, planes.sink_nodes],
                times.tre[:, planes.sink_nodes],
                times.total_capacitance[:, planes.sink_tree] > 0.0,
                np.full(s, self._threshold),
                model,
            )
        # Swapped instances' cell arcs take the candidate's intrinsic delay.
        cell_edges = sorted(
            {edge for name, _ in swaps for edge in self._cell_edges.get(name, [])}
        )
        cell_delay = np.repeat(
            self._edge_delay[cell_edges, column][:, np.newaxis], s, axis=1
        )
        slot = {edge: index for index, edge in enumerate(cell_edges)}
        for index, (name, cell) in enumerate(swaps):
            for edge in self._cell_edges.get(name, []):
                cell_delay[slot[edge], index] = cell.intrinsic_delay
        edges = np.concatenate([net_edges, np.asarray(cell_edges, dtype=np.int64)])
        order = np.argsort(edges)
        edges = edges[order]
        overrides = np.concatenate([wire.T, cell_delay])[order]

        base = self.arrivals_matrix[:, column]
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
        edges = np.asarray(
            [edge for net in nets for edge in self._net_edges[net]], dtype=np.int64
        )
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
        step the full forward sweep performs, so every value is bitwise a
        from-scratch propagation's -- reading the sources that already
        moved from the overlay.  Vertices whose new arrival equals the old
        one stop the walk.  Seeds must be edge destinations, so every
        vertex of the cone has an in-edge.  Returns ``(vertices, values,
        visited)``: the vertices whose arrival changed (in level order),
        their new arrivals, and the number of vertices re-evaluated.
        """
        n = self._vertex_count
        work = np.empty(arrivals.shape)
        moved = np.zeros(n, dtype=bool)
        level = self._level
        seeds = np.asarray(seeds, dtype=np.int64)
        # Pending vertices keyed level-major: the lowest level leads.
        keys = np.unique(level[seeds] * n + seeds)
        # Overridden edges end at seeds: no level past the last seed's has one.
        if overrides is None or not len(keys):
            override_until = -1
        else:
            override_until = int(keys[-1])
        cone: List[np.ndarray] = []
        visited = 0
        while keys.size:
            floor = keys[0] - keys[0] % n
            cut = int(np.searchsorted(keys, floor + n))
            frontier = keys[:cut] - floor
            keys = keys[cut:]
            visited += cut
            value = self._relax_level(
                frontier,
                arrivals,
                delay,
                (moved, work),
                overrides if floor <= override_until else None,
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
            out_edges, _ = _csr_gather(self._out_ptr, self._out_idx, vertices)
            successors = self._edge_dst[out_edges]
            keys = np.unique(
                np.concatenate((keys, level[successors] * n + successors))
            )
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
        cell_edges = self._cell_edges.get(instance, [])
        for edge, (_, label) in zip(cell_edges, _cell_arcs(swapped)):
            self._edge_delay[edge, :] = swapped.intrinsic_delay
            self._edge_arcs[edge] = label
        edges = np.concatenate([net_edges, np.asarray(cell_edges, dtype=np.int64)])
        return self._repropagate(self._edge_dst[edges])
