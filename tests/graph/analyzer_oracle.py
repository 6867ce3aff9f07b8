"""The networkx timing analyzer and the per-stage analysis, kept only as the
parity oracle.

Before :class:`repro.graph.TimingGraph` timed whole designs on levelized
arrays, :class:`TimingAnalyzer` below turned a
:class:`~repro.sta.netlist.Design`, its per-net parasitics and a clock
period into a timing report:

* the timing graph has one vertex per pin (plus one per primary port), a
  *cell arc* from each input pin of a combinational cell to its output pin,
  and a *net arc* from each net's driver pin to each of its load pins;
* cell arcs carry the cell's intrinsic delay; net arcs carry the
  interconnect delay of the net's stage tree (which already includes the
  ``R_drive * C_load`` loading term);
* flip-flop D pins and primary outputs are endpoints; flip-flop Q pins and
  primary inputs are startpoints (an ideal clock network is assumed);
* slack is ``clock_period - arrival`` at every endpoint.

It walks a networkx graph one vertex at a time, one delay model per run.
Each stage is compiled by the per-net assembler of
:mod:`tests.graph.stage_oracle` and solved with
:meth:`repro.flat.FlatTree.solve` (:func:`stage_characteristic_times`), so
no stage compiler or graph relaxation of the code under test runs here.
Tests and ``benchmarks/bench_timing_graph.py`` hold the graph to it at
1e-12 relative tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import networkx as nx
import numpy as np

from repro.core.certify import Verdict
from repro.core.exceptions import AnalysisError
from repro.core.timeconstants import CharacteristicTimes
from repro.flat import FlatTree, delay_lower_bound_batch, delay_upper_bound_batch
from repro.graph import PathSegment, TimingReport
from repro.sta.cells import Cell
from repro.sta.delaycalc import DelayModel
from repro.sta.netlist import Design, Net, PinRef
from repro.sta.parasitics import NetParasitics, lumped
from repro.utils.checks import require_in_unit_interval, require_non_negative
from tests.graph.stage_oracle import compile_stage


@dataclass(frozen=True)
class StageTimes:
    """Model-independent analysis of one stage (one driver, one net).

    The characteristic times of a stage do not depend on the delay model --
    only the number finally *extracted* from them does -- so one compiled
    :class:`~repro.flat.FlatTree` solve serves the Elmore run and both bound
    runs.  :class:`TimingAnalyzer` caches one of these per net, which is
    what makes ``certify()`` (three delay models) cost one interconnect
    analysis instead of three.
    """

    net: str
    gate_delay: float
    #: Characteristic times per sink pin; empty when the net has no capacitance.
    pin_times: Dict[str, CharacteristicTimes] = field(default_factory=dict)

    def delays(self, model: DelayModel, threshold: float) -> Dict[str, float]:
        """Extract the wire delay per sink pin for one delay model."""
        if not self.pin_times:
            return {}
        if model is DelayModel.ELMORE:
            return {pin: times.tde for pin, times in self.pin_times.items()}
        pins = list(self.pin_times)
        records = [self.pin_times[pin] for pin in pins]
        bound = (
            delay_upper_bound_batch
            if model is DelayModel.UPPER_BOUND
            else delay_lower_bound_batch
        )
        values = bound(
            np.asarray([t.tp for t in records]),
            np.asarray([t.tde for t in records]),
            np.asarray([t.tre for t in records]),
            [threshold],
        )[:, 0]
        return dict(zip(pins, values.tolist()))


def stage_characteristic_times(
    driver_cell: Optional[Cell],
    parasitics: NetParasitics,
    sink_capacitance: Mapping[str, float],
    *,
    drive_resistance_override: Optional[float] = None,
) -> StageTimes:
    """Analyse one stage once, for every delay model.

    Compiles the stage with the per-net :func:`compile_stage` and returns
    the characteristic times of every sink pin from its
    :meth:`~repro.flat.FlatTree.solve`.  A stage with no capacitance
    anywhere settles instantaneously in the linear model and yields an
    empty ``pin_times``.
    """
    if drive_resistance_override is not None:
        require_non_negative("drive_resistance_override", drive_resistance_override)
        resistance = drive_resistance_override
    elif driver_cell is not None:
        resistance = driver_cell.drive_resistance
    else:
        resistance = 0.0
    intrinsic = driver_cell.intrinsic_delay if driver_cell is not None else 0.0

    base = None
    if parasitics.tree is not None:
        base = FlatTree.from_tree(parasitics.tree)
    flat, pin_index, _ = compile_stage(
        resistance,
        sink_capacitance,
        lumped_capacitance=parasitics.lumped_capacitance,
        base=base,
        pin_nodes=parasitics.pin_nodes,
    )
    if flat.total_capacitance <= 0.0:
        # Nothing to charge: the net settles instantaneously in the linear
        # model, whichever bound is requested.
        return StageTimes(net=parasitics.net, gate_delay=intrinsic)

    times = flat.solve()
    pin_times = {
        pin: CharacteristicTimes(
            output=flat.name_of(index),
            tp=times.tp,
            tde=float(times.tde[index]),
            tre=float(times.tre[index]),
            ree=float(times.ree[index]),
            total_capacitance=times.total_capacitance,
        )
        for pin, index in pin_index.items()
    }
    return StageTimes(net=parasitics.net, gate_delay=intrinsic, pin_times=pin_times)


class TimingAnalyzer:
    """Static timing analysis of a gate-level design over RC-tree interconnect."""

    def __init__(
        self,
        design: Design,
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
        self._design = design
        self._parasitics = dict(parasitics or {})
        self._clock_period = clock_period
        self._threshold = threshold
        self._input_drive_resistance = input_drive_resistance
        self._default_wire_capacitance = default_wire_capacitance
        self._nets: Dict[str, Net] = design.connectivity()
        # Model-independent per-net interconnect analysis, computed once and
        # shared by every delay model (Elmore + both bounds): the flat-engine
        # solve of a net's RC tree does not depend on which number is read out.
        self._stage_cache: Dict[str, StageTimes] = {}

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def _vertex(self, ref: PinRef) -> str:
        return str(ref)

    def _net_parasitics(self, net: str) -> NetParasitics:
        if net in self._parasitics:
            return self._parasitics[net]
        return lumped(net, self._default_wire_capacitance)

    def _stage_times(self, net: Net) -> StageTimes:
        """Cached model-independent stage analysis of one net."""
        cached = self._stage_cache.get(net.name)
        if cached is None:
            driver_cell = None
            override = None
            if net.driver.is_port:
                override = self._input_drive_resistance
            else:
                driver_cell = self._design.instances[net.driver.instance].cell
            cached = stage_characteristic_times(
                driver_cell,
                self._net_parasitics(net.name),
                self._sink_capacitances(net),
                drive_resistance_override=override,
            )
            self._stage_cache[net.name] = cached
        return cached

    def _sink_capacitances(self, net: Net) -> Dict[str, float]:
        instances = self._design.instances
        sinks: Dict[str, float] = {}
        for load in net.loads:
            if load.is_port:
                sinks[str(load)] = 0.0
            else:
                sinks[str(load)] = instances[load.instance].cell.input_capacitance
        return sinks

    def build_graph(self, model: DelayModel) -> nx.DiGraph:
        """Build the timing graph with arc delays for the chosen delay model."""
        graph = nx.DiGraph()
        instances = self._design.instances
        clock_nets = set(self._design.clocks)

        # Net arcs.
        for net in self._nets.values():
            if net.driver is None or not net.loads:
                continue
            if net.name in clock_nets:
                # Ideal clock network: zero-delay arcs from the clock source.
                for load in net.loads:
                    graph.add_edge(
                        self._vertex(net.driver),
                        self._vertex(load),
                        delay=0.0,
                        arc=f"clock net {net.name}",
                    )
                continue
            stage = self._stage_times(net)
            wire_delays = stage.delays(model, self._threshold)
            for load in net.loads:
                graph.add_edge(
                    self._vertex(net.driver),
                    self._vertex(load),
                    delay=wire_delays.get(str(load), 0.0),
                    arc=f"net {net.name}",
                )

        # Cell arcs.
        for instance in instances.values():
            cell = instance.cell
            output_ref = self._vertex(PinRef(instance.name, cell.output))
            if cell.is_sequential:
                clock_ref = self._vertex(PinRef(instance.name, cell.clock_pin))
                graph.add_edge(
                    clock_ref, output_ref, delay=cell.intrinsic_delay, arc=f"{cell.name} CK->Q"
                )
                continue
            for pin in cell.inputs:
                input_ref = self._vertex(PinRef(instance.name, pin))
                graph.add_edge(
                    input_ref, output_ref, delay=cell.intrinsic_delay, arc=f"{cell.name} {pin}->Y"
                )
        return graph

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def _endpoints(self) -> List[str]:
        endpoints = [name for name in self._design.primary_outputs]
        for instance in self._design.instances.values():
            if instance.cell.is_sequential:
                endpoints.append(str(PinRef(instance.name, instance.cell.inputs[0])))
        return endpoints

    def run(self, model: DelayModel = DelayModel.ELMORE) -> TimingReport:
        """Propagate arrival times and produce a :class:`TimingReport`."""
        graph = self.build_graph(model)
        if not nx.is_directed_acyclic_graph(graph):
            raise AnalysisError(
                "the timing graph has a combinational loop; break it before analysis"
            )

        arrivals: Dict[str, float] = {}
        predecessor: Dict[str, Tuple[Optional[str], float, str]] = {}

        # Startpoints: primary inputs arrive at 0; everything else starts at 0 too
        # (vertices with no predecessors), which covers flip-flop clock pins.
        for vertex in graph.nodes:
            arrivals[vertex] = 0.0
            predecessor[vertex] = (None, 0.0, "startpoint")

        for vertex in nx.topological_sort(graph):
            for _, successor, data in graph.out_edges(vertex, data=True):
                candidate = arrivals[vertex] + data["delay"]
                if candidate > arrivals[successor]:
                    arrivals[successor] = candidate
                    predecessor[successor] = (vertex, data["delay"], data["arc"])

        endpoint_slacks: Dict[str, float] = {}
        for endpoint in self._endpoints():
            arrival = arrivals.get(endpoint, 0.0)
            endpoint_slacks[endpoint] = self._clock_period - arrival

        report = TimingReport(
            delay_model=model,
            clock_period=self._clock_period,
            arrivals=arrivals,
            endpoint_slacks=endpoint_slacks,
        )
        worst = report.worst_endpoint
        if worst is not None and worst in arrivals:
            report.critical_path = self._trace_path(worst, arrivals, predecessor)
        return report

    def _trace_path(
        self,
        endpoint: str,
        arrivals: Dict[str, float],
        predecessor: Dict[str, Tuple[Optional[str], float, str]],
    ) -> List[PathSegment]:
        path: List[PathSegment] = []
        current: Optional[str] = endpoint
        while current is not None:
            previous, delay, arc = predecessor.get(current, (None, 0.0, "startpoint"))
            path.append(
                PathSegment(
                    location=current,
                    arc=arc,
                    incremental_delay=delay,
                    arrival=arrivals.get(current, 0.0),
                )
            )
            current = previous
        path.reverse()
        return path

    def certify(self) -> Verdict:
        """The paper's ternary verdict applied to the whole design.

        PASS when the guaranteed-latest arrivals (upper-bound delays) meet the
        clock period; FAIL when even the guaranteed-earliest arrivals
        (lower-bound delays) miss it; INDETERMINATE in between.
        """
        pessimistic = self.run(DelayModel.UPPER_BOUND)
        if pessimistic.meets_timing:
            return Verdict.PASS
        optimistic = self.run(DelayModel.LOWER_BOUND)
        if not optimistic.meets_timing:
            return Verdict.FAIL
        return Verdict.INDETERMINATE
