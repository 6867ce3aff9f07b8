"""The full-forest what-if, kept only as the parity oracle.

``TimingGraph.whatif_resize_worst_slack`` solves just the stage trees a
swap touches and re-relaxes just the arrivals it changes.  These two
functions are the earlier whole-design form of the same computation: one
``(S, N)`` element plane per candidate over the entire stage forest, one
batched solve of all of it, and one ``(edges, S)`` propagation of the whole
graph.  The wire bounds and the propagation come from
:mod:`tests.graph.relax_oracle`, so the oracle runs none of the graph's
own relaxation or bound code.  Tests hold the cone-local scores to these
bit for bit.
"""

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import AnalysisError
from repro.graph import DesignDB, ScenarioSinkTable, TimingGraph
from repro.sta.cells import Cell
from repro.sta.delaycalc import DelayModel

from tests.graph.relax_oracle import propagate_tensor, scenario_bound_matrix

_MODEL_COLUMN = {
    DelayModel.ELMORE: 0,
    DelayModel.UPPER_BOUND: 1,
    DelayModel.LOWER_BOUND: 2,
}


def full_forest_cell_elements(
    db: DesignDB, swaps: Sequence[Tuple[str, Cell]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Forest element planes where plane ``s`` applies cell swap ``s``.

    Returns ``(edge_r, node_c)``, each shaped ``(len(swaps), N)`` over the
    whole forest, in its solve numbering.
    """
    forest = db.forest
    if forest is None:
        raise AnalysisError("the design has no timed nets to evaluate")
    # A tree's preorder node offsets[t] + local sits at row position[...].
    offsets = forest._offsets
    position = forest._plan.position
    s = len(swaps)
    # Node-major working planes, returned as transposed views (see
    # solve_scenarios): the solve engines consume them copy-free.
    edge_r = np.repeat(forest._edge_r[:, np.newaxis], s, axis=1).T
    node_c = np.repeat(forest._node_c[:, np.newaxis], s, axis=1).T
    for row, (instance, cell) in enumerate(swaps):
        record = db._instances.get(instance)
        if record is None:
            raise AnalysisError(f"unknown instance {instance!r}")
        old = record.cell
        out_entry = db._entries.get(record.connections.get(old.output, ""))
        if out_entry is not None:
            resistance = (
                cell.drive_resistance if cell.drive_resistance > 0 else 1e-6
            )
            edge_r[row, position[offsets[out_entry.tree_index] + 1]] = resistance
        delta = cell.input_capacitance - old.input_capacitance
        if delta:
            # Every non-output pin (inputs and a sequential cell's clock
            # pin alike) presents the input capacitance on its net, so a
            # clock pin fed by a *timed* net must see the delta too --
            # exactly the nets update_instance_cell would recompile.
            for pin, net_name in record.connections.items():
                if pin == old.output:
                    continue
                entry = db._entries.get(net_name)
                if entry is None:
                    continue
                local = entry.pin_index.get(f"{instance}/{pin}")
                if local is not None:
                    node_c[row, position[offsets[entry.tree_index] + local]] += delta
    return edge_r, node_c


def full_forest_whatif(
    graph: TimingGraph,
    swaps: Sequence[Tuple[str, Cell]],
    model: DelayModel = DelayModel.UPPER_BOUND,
    *,
    engine: Optional[str] = None,
) -> np.ndarray:
    """Worst slack per swap from a whole-forest solve and whole-graph sweep."""
    if not swaps:
        return np.zeros(0)
    column = _MODEL_COLUMN[model]
    edge_r, node_c = full_forest_cell_elements(graph._db, swaps)
    forest = graph._db.forest
    times = forest.solve_batch(
        edge_r=edge_r, node_c=node_c, count=len(swaps), engine=engine
    )
    layout = graph._db._scenario_layout()
    sink_rows = forest._plan.position[layout.sink_nodes]
    tp = times.tp[:, layout.sink_tree]
    tde = times.tde[:, sink_rows]
    total = times.total_capacitance[:, layout.sink_tree]
    if model is DelayModel.ELMORE:
        wire = tde
    else:
        table = ScenarioSinkTable(
            scenario_names=[name for name, _ in swaps],
            nets=list(graph._db.sinks.nets),
            pins=list(graph._db.sinks.pins),
            tp=tp,
            tde=tde,
            tre=times.tre[:, sink_rows],
            total_capacitance=total,
        )
        wire = scenario_bound_matrix(
            table, np.full(len(swaps), graph._threshold), model
        )
    delays = np.broadcast_to(
        graph._edge_delay[:, column][:, np.newaxis],
        (graph._edge_count, len(swaps)),
    ).copy()
    edges, rows = graph._net_edge_rows
    if len(edges):
        delays[edges] = wire[:, rows].T
    for index, (instance, cell) in enumerate(swaps):
        for edge in graph._edges(graph._cell_spans, [instance]):
            delays[edge, index] = cell.intrinsic_delay
    arrivals = propagate_tensor(graph, delays)
    if len(graph._endpoint_vertices):
        worst = arrivals[graph._endpoint_vertices].max(axis=0)
    else:
        worst = np.zeros(len(swaps))
    return graph._clock_period - worst
