"""Levelized, array-native static timing over a whole design.

A :class:`TimingGraph` compiles a :class:`~repro.graph.DesignDB` into flat
edge arrays -- one vertex per pin, *net arcs* from each driver pin to each
load pin, *cell arcs* from each input (or clock) pin to the output pin -- and
levelizes the DAG once.  Arrival times for **all pins and all three delay
models at once** are then computed by per-level vectorized relaxations
(``np.maximum.at`` over each level's edge bucket on a ``(V, 3)`` matrix)
instead of the legacy engine's per-vertex dict updates over a networkx graph.
Required times and per-pin slacks come from the mirrored backward sweep.

Net-arc delays are extracted from the database's single batched
:class:`~repro.flat.FlatForest` solve: the Elmore column reads ``T_De``
directly, the two bound columns come from one batched evaluation of
eqs. (14)-(17) over every sink of every net.  Cell arcs carry the cell's
intrinsic delay in every column, and clock-net arcs are zero (ideal clock
network), exactly as :class:`~repro.sta.analysis.TimingAnalyzer` -- which is
kept, unchanged, as the parity oracle; the property tests pin the two engines
together at 1e-12 relative tolerance.

Incremental ECO re-timing
-------------------------
:meth:`update_net` re-solves exactly one stage tree in the forest, patches
that net's arc delays, and re-propagates arrivals only through the *downstream
cone*: affected vertices are re-evaluated exactly (max over their in-edges,
the same reduction the full sweep performs, so the result is identical to a
from-scratch run) and propagation stops at any vertex whose arrival did not
change.  :meth:`resize_instance` does the same for a cell swap (drive
resistance, input loads and intrinsic delay all change).  This is what gives
:mod:`repro.opt.sizing` a design-scope ECO loop: worst slack after an edit
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
    def _net_arc_delays(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """(rows, 3) wire delays for sink rows of the database's table.

        ``rows`` restricts the (batched) bound evaluation to a subset -- the
        incremental path computes delays only for an edited net's sinks.
        """
        sinks = self._db.sinks
        tp, tde, tre = sinks.tp, sinks.tde, sinks.tre
        live = sinks.live
        if rows is not None:
            tp, tde, tre, live = tp[rows], tde[rows], tre[rows], live[rows]
        delays = np.zeros((len(tde), 3))
        delays[:, _MODEL_COLUMN[DelayModel.ELMORE]] = tde
        if np.any(live):
            upper = delay_upper_bound_batch(
                tp[live], tde[live], tre[live], [self._threshold]
            )[:, 0]
            lower = delay_lower_bound_batch(
                tp[live], tde[live], tre[live], [self._threshold]
            )[:, 0]
            delays[live, _MODEL_COLUMN[DelayModel.UPPER_BOUND]] = upper
            delays[live, _MODEL_COLUMN[DelayModel.LOWER_BOUND]] = lower
        return delays

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
            if cell.is_sequential:
                pins = (cell.clock_pin,)
                arcs = (f"{cell.name} CK->Q",)
            else:
                pins = cell.inputs
                arcs = [f"{cell.name} {pin}->Y" for pin in pins]
            for pin, arc in zip(pins, arcs):
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
        """Longest-path levels + per-level edge buckets + in/out CSR.

        Kahn's algorithm, but one numpy *wave* at a time: the whole ready
        frontier relaxes its out-edges with one gather/scatter, so the Python
        cost is O(logic depth), not O(V + E).
        """
        n = self._vertex_count
        src = self._edge_src
        dst = self._edge_dst
        # CSR adjacency (also reused by the incremental cone walks).
        self._out_idx = np.argsort(src, kind="stable")
        out_counts = np.bincount(src, minlength=n)
        self._out_ptr = np.concatenate(([0], np.cumsum(out_counts)))
        self._in_idx = np.argsort(dst, kind="stable")
        in_counts = np.bincount(dst, minlength=n)
        self._in_ptr = np.concatenate(([0], np.cumsum(in_counts)))

        level = np.zeros(n, dtype=np.int64)
        remaining = in_counts.copy()
        frontier = np.flatnonzero(remaining == 0)
        seen = 0
        while frontier.size:
            seen += int(frontier.size)
            lengths = out_counts[frontier]
            total = int(lengths.sum())
            if total == 0:
                break
            starts = self._out_ptr[frontier]
            # Flatten the frontier's CSR ranges into one edge-index vector.
            ends = np.cumsum(lengths)
            flat = (
                np.repeat(starts, lengths)
                + np.arange(total)
                - np.repeat(ends - lengths, lengths)
            )
            edges = self._out_idx[flat]
            successors = dst[edges]
            np.maximum.at(level, successors, np.repeat(level[frontier] + 1, lengths))
            decrements = np.bincount(successors, minlength=n)
            remaining -= decrements
            frontier = np.flatnonzero((remaining == 0) & (decrements > 0))
        if seen != n:
            raise AnalysisError(
                "the timing graph has a combinational loop; break it before analysis"
            )
        self._level = level
        self._max_level = int(level.max()) if n else 0

        # Forward buckets: edges grouped by destination level (ascending).
        if self._edge_count:
            dst_level = level[self._edge_dst]
            order = np.argsort(dst_level, kind="stable")
            counts = np.bincount(dst_level, minlength=self._max_level + 1)
            self._forward_buckets = [
                bucket
                for bucket in np.split(order, np.cumsum(counts)[:-1])
                if len(bucket)
            ]
            src_level = level[self._edge_src]
            order = np.argsort(src_level, kind="stable")
            counts = np.bincount(src_level, minlength=self._max_level + 1)
            self._backward_buckets = [
                bucket
                for bucket in np.split(order, np.cumsum(counts)[:-1])
                if len(bucket)
            ]
        else:
            self._forward_buckets = []
            self._backward_buckets = []

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

    def _out_edge_list(self, vertex: int) -> np.ndarray:
        """Indices of the edges out of ``vertex`` (CSR slice)."""
        return self._out_idx[self._out_ptr[vertex] : self._out_ptr[vertex + 1]]

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate_tensor(self, delay: np.ndarray) -> np.ndarray:
        """Forward arrival sweep for any ``(edges, ...)`` delay tensor.

        The trailing axes ride along for free: the single-scenario run uses
        ``(E, 3)``, a scenario batch ``(E, S, 3)`` and the what-if evaluator
        ``(E, S)`` -- one set of per-level gather/scatters serves them all.
        """
        arrivals = np.zeros((self._vertex_count,) + delay.shape[1:])
        src = self._edge_src
        dst = self._edge_dst
        for bucket in self._forward_buckets:
            candidates = arrivals[src[bucket]] + delay[bucket]
            np.maximum.at(arrivals, dst[bucket], candidates)
        return arrivals

    def _propagate(self) -> np.ndarray:
        return self._propagate_tensor(self._edge_delay)

    @property
    def arrivals_matrix(self) -> np.ndarray:
        """Arrival times, shape ``(pins, 3)`` -- columns Elmore, upper, lower."""
        if self._arrivals is None:
            self._arrivals = self._propagate()
        return self._arrivals

    @property
    def required_matrix(self) -> np.ndarray:
        """Required times, shape ``(pins, 3)``; ``+inf`` off any endpoint cone."""
        if self._required is None:
            required = np.full((self._vertex_count, 3), np.inf)
            if len(self._endpoint_vertices):
                required[self._endpoint_vertices] = self._clock_period
            src = self._edge_src
            dst = self._edge_dst
            delay = self._edge_delay
            for bucket in reversed(self._backward_buckets):
                candidates = required[dst[bucket]] - delay[bucket]
                np.minimum.at(required, src[bucket], candidates)
            self._required = required
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
    def _scenario_bound_matrix(
        self,
        table: ScenarioSinkTable,
        thresholds: np.ndarray,
        model: DelayModel,
    ) -> np.ndarray:
        """``(S, rows)`` wire delays for one bound model, per-scenario thresholds.

        Scenarios sharing a threshold are evaluated in one batched bound
        call; rows whose stage carries no capacitance in a scenario stay at
        zero delay, mirroring the single-scenario ``live`` handling.
        """
        bound = (
            delay_upper_bound_batch
            if model is DelayModel.UPPER_BOUND
            else delay_lower_bound_batch
        )
        out = np.zeros(table.tde.shape)
        live = table.live
        for threshold in np.unique(thresholds):
            group = thresholds == threshold
            group_live = live[group]
            if not np.any(group_live):
                continue
            values = bound(
                table.tp[group][group_live],
                table.tde[group][group_live],
                table.tre[group][group_live],
                [threshold],
            )[:, 0]
            block = out[group]
            block[group_live] = values
            out[group] = block
        return out

    def _scenario_edge_delays(
        self, table: ScenarioSinkTable, thresholds: np.ndarray
    ) -> np.ndarray:
        """``(edges, S, 3)`` delay tensor: scenario wire delays, shared cell arcs."""
        s = table.scenario_count
        delays = np.broadcast_to(
            self._edge_delay[:, np.newaxis, :], (self._edge_count, s, 3)
        ).copy()
        edges, rows = self._net_edge_rows
        if len(edges):
            delays[edges, :, _MODEL_COLUMN[DelayModel.ELMORE]] = table.tde[:, rows].T
            delays[edges, :, _MODEL_COLUMN[DelayModel.UPPER_BOUND]] = (
                self._scenario_bound_matrix(table, thresholds, DelayModel.UPPER_BOUND)[
                    :, rows
                ].T
            )
            delays[edges, :, _MODEL_COLUMN[DelayModel.LOWER_BOUND]] = (
                self._scenario_bound_matrix(table, thresholds, DelayModel.LOWER_BOUND)[
                    :, rows
                ].T
            )
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
        column = _MODEL_COLUMN[model]
        delays = self._scenario_edge_delays(table, thresholds)[:, :, column]
        arrivals = self._propagate_tensor(delays)
        required = np.full(arrivals.shape, np.inf)
        if len(self._endpoint_vertices):
            required[self._endpoint_vertices] = periods
        src = self._edge_src
        dst = self._edge_dst
        for bucket in reversed(self._backward_buckets):
            np.minimum.at(required, src[bucket], required[dst[bucket]] - delays[bucket])
        slack = required - arrivals
        return {name: slack[i] for i, name in enumerate(self._vertex_names)}

    def whatif_resize_worst_slack(
        self,
        swaps: Sequence[Tuple[str, Cell]],
        model: DelayModel = DelayModel.UPPER_BOUND,
        *,
        engine: Optional[str] = None,
    ) -> np.ndarray:
        """Worst slack if cell swap ``s`` were applied -- all swaps batched.

        Candidates are evaluated *as scenarios*: the database builds one
        forest element plane per candidate (drive resistance on its output
        net, input load on the nets it drives), a single batched solve yields
        every candidate's stage times, and one ``(edges, S)`` propagation
        produces every candidate's worst slack under ``model``.  Nothing is
        mutated -- this is the decision kernel of
        :func:`repro.opt.sizing.upsize_critical_path`, replacing its
        per-candidate trial loop.  ``engine`` pins the batched solve's kernel
        backend exactly as in :meth:`analyze_scenarios`.
        """
        if not swaps:
            return np.zeros(0)
        column = _MODEL_COLUMN[model]
        edge_r, node_c = self._db.whatif_cell_elements(swaps)
        forest = self._db.forest
        times = forest.solve_batch(
            edge_r=edge_r, node_c=node_c, count=len(swaps), engine=engine
        )
        layout = self._db._scenario_layout()
        tp = times.tp[:, layout.sink_tree]
        tde = times.tde[:, layout.sink_nodes]
        total = times.total_capacitance[:, layout.sink_tree]
        if model is DelayModel.ELMORE:
            wire = tde
        else:
            table = ScenarioSinkTable(
                scenario_names=[name for name, _ in swaps],
                nets=list(self._db.sinks.nets),
                pins=list(self._db.sinks.pins),
                tp=tp,
                tde=tde,
                tre=times.tre[:, layout.sink_nodes],
                total_capacitance=total,
            )
            wire = self._scenario_bound_matrix(
                table, np.full(len(swaps), self._threshold), model
            )
        delays = np.broadcast_to(
            self._edge_delay[:, column][:, np.newaxis],
            (self._edge_count, len(swaps)),
        ).copy()
        edges, rows = self._net_edge_rows
        if len(edges):
            delays[edges] = wire[:, rows].T
        for index, (instance, cell) in enumerate(swaps):
            for edge in self._cell_edges.get(instance, []):
                delays[edge, index] = cell.intrinsic_delay
        arrivals = self._propagate_tensor(delays)
        if len(self._endpoint_vertices):
            worst = arrivals[self._endpoint_vertices].max(axis=0)
        else:
            worst = np.zeros(len(swaps))
        return self._clock_period - worst

    # ------------------------------------------------------------------
    # Incremental ECO re-timing
    # ------------------------------------------------------------------
    def _patch_net_delays(self, rows: Union[slice, Sequence[int]]) -> List[int]:
        """Refresh the arc delays fed by the given sink-table rows."""
        edges, table_rows = self._net_edge_rows
        if isinstance(rows, slice):
            selector = (table_rows >= rows.start) & (table_rows < rows.stop)
        else:
            selector = np.isin(table_rows, np.asarray(list(rows), dtype=np.int64))
        touched = edges[selector]
        self._edge_delay[touched] = self._net_arc_delays(table_rows[selector])
        return touched.tolist()

    def _repropagate(self, seeds: Sequence[int]) -> int:
        """Exact arrival recomputation over the downstream cone of ``seeds``.

        Each affected vertex is re-evaluated as the max over *all* its
        in-edges -- the same reduction the full forward sweep performs, so the
        updated arrivals are identical to a from-scratch propagation --
        and the walk stops at vertices whose arrivals did not change.
        Returns the number of vertices re-evaluated (the cone size).
        """
        if self._arrivals is None:
            # Nothing solved yet: the next access recomputes everything anyway.
            return 0
        arrivals = self._arrivals
        self._required = None
        pending: Dict[int, set] = {}
        for vertex in seeds:
            pending.setdefault(int(self._level[vertex]), set()).add(int(vertex))
        visited = 0
        level = self._level
        src = self._edge_src
        delay = self._edge_delay
        dst_list = self._edge_dst
        while pending:
            current = min(pending)
            for vertex in sorted(pending.pop(current)):
                visited += 1
                in_edges = self._in_edge_list(vertex)
                if len(in_edges):
                    value = np.max(
                        arrivals[src[in_edges]] + delay[in_edges], axis=0
                    )
                    np.maximum(value, 0.0, out=value)
                else:
                    value = np.zeros(3)
                if np.array_equal(value, arrivals[vertex]):
                    continue
                arrivals[vertex] = value
                for successor in dst_list[self._out_edge_list(vertex)]:
                    pending.setdefault(int(level[successor]), set()).add(
                        int(successor)
                    )
        return visited

    def update_net(
        self, net: str, parasitics: Union[NetParasitics, NetModel]
    ) -> int:
        """ECO hook: replace one net's parasitics and re-time its cone.

        Re-solves the net's stage tree in the database, patches the net's arc
        delays, and re-propagates arrivals through the downstream cone only.
        Returns the number of re-evaluated vertices.
        """
        rows = self._db.update_net(net, parasitics)
        touched = self._patch_net_delays(rows)
        seeds = {int(self._edge_dst[edge]) for edge in touched}
        return self._repropagate(sorted(seeds))

    def resize_instance(self, instance: str, cell: Cell) -> int:
        """ECO hook: swap one instance's cell and re-time its cone.

        The database re-solves the stage trees of the instance's output net
        (drive resistance changed) and of every net it loads (sink capacitance
        changed); the instance's cell arcs pick up the new intrinsic delay.
        Returns the number of re-evaluated vertices.
        """
        affected = self._db.update_instance_cell(instance, cell)
        seeds = set()
        for net in affected:
            for edge in self._patch_net_delays(self._db.sink_rows(net)):
                seeds.add(int(self._edge_dst[edge]))
        swapped = self._db.instances[instance].cell
        if swapped.is_sequential:
            labels = [f"{swapped.name} CK->Q"]
        else:
            labels = [f"{swapped.name} {pin}->Y" for pin in swapped.inputs]
        for edge, label in zip(self._cell_edges.get(instance, []), labels):
            self._edge_delay[edge, :] = swapped.intrinsic_delay
            self._edge_arcs[edge] = label
            seeds.add(int(self._edge_dst[edge]))
        return self._repropagate(sorted(seeds))
