"""The earlier relaxations, kept only as the parity oracle.

``TimingGraph`` numbers its vertices level-major and sorts its edges by
destination, so its forward sweep runs on contiguous level slices with
in-edge rank folds, its backward sweep on a source-major CSR, its critical
paths are traced for every scenario at once, and its scenario delay
tensor is built without masks.  These functions are the earlier form of
the same computations: edges grouped into per-level buckets (by
destination level forward, by source level backward) with one
``np.maximum.at`` / ``np.minimum.at`` scatter per bucket, the Kahn pass
that computed levels with ``np.maximum.at``, the masked bound evaluations
(single-scenario rows and scenario matrices), the per-path Python walker,
and the pin and edge order the graph compiled in before the renumbering
(:func:`build_order`, rebuilt here from the design database).  The buckets
are rebuilt from the graph's ``_level``, ``_edge_dst`` and ``_edge_src``,
so no relaxation of the code under test runs in the oracle.  Tests hold
the graph to these bit for bit.
"""

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.flat import delay_lower_bound_batch, delay_upper_bound_batch
from repro.graph import PathSegment, ScenarioSinkTable, TimingGraph
from repro.sta.delaycalc import DelayModel

MODELS = (DelayModel.ELMORE, DelayModel.UPPER_BOUND, DelayModel.LOWER_BOUND)
MODEL_COLUMN = {model: column for column, model in enumerate(MODELS)}


class BuildOrder(NamedTuple):
    """The pins and edges of a graph in the order arcs are compiled.

    ``pins`` is first-seen order (net arcs, then cell arcs): the public pin
    order.  Per edge: ``edges`` ``(source pin, destination pin, arc
    label)``, ``rows`` its sink-table row (``-1`` for cell and clock-net
    arcs) and ``fixed`` its delay when it is not a timed net arc.
    """

    pins: List[str]
    edges: List[Tuple[str, str, str]]
    rows: np.ndarray
    fixed: np.ndarray


def build_order(graph: TimingGraph) -> BuildOrder:
    """Rebuild the compile order of ``graph``'s arcs from its database."""
    db = graph.db
    seen: Dict[str, int] = {}
    pins: List[str] = []

    def pin(name: str) -> str:
        if name not in seen:
            seen[name] = len(pins)
            pins.append(name)
        return name

    edges: List[Tuple[str, str, str]] = []
    rows: List[int] = []
    fixed: List[float] = []
    for net in db.nets.values():
        if net.driver is None or not net.loads:
            continue
        driver = pin(str(net.driver))
        if net.name in db.clock_nets:
            for load in net.loads:
                edges.append((driver, pin(str(load)), f"clock net {net.name}"))
                rows.append(-1)
                fixed.append(0.0)
            continue
        window = db.sink_rows(net.name)
        for row in range(window.start, window.stop):
            edges.append((driver, pin(db.sinks.pins[row]), f"net {net.name}"))
            rows.append(row)
            fixed.append(0.0)
    for instance in db.instances.values():
        cell = instance.cell
        output = pin(f"{instance.name}/{cell.output}")
        if cell.is_sequential:
            arcs = [(cell.clock_pin, f"{cell.name} CK->Q")]
        else:
            arcs = [(name, f"{cell.name} {name}->Y") for name in cell.inputs]
        for name, label in arcs:
            edges.append((pin(f"{instance.name}/{name}"), output, label))
            rows.append(-1)
            fixed.append(cell.intrinsic_delay)
    return BuildOrder(
        pins, edges, np.asarray(rows, dtype=np.int64), np.asarray(fixed)
    )


def graph_edges(graph: TimingGraph, order: BuildOrder) -> np.ndarray:
    """The graph's edge id of each build-order edge, matched by endpoints and label."""
    names = graph._vertex_names
    ids = {
        (names[src], names[dst], arc): edge
        for edge, (src, dst, arc) in enumerate(
            zip(graph._edge_src.tolist(), graph._edge_dst.tolist(), graph._edge_arcs)
        )
    }
    return np.asarray([ids[edge] for edge in order.edges], dtype=np.int64)


def public(graph: TimingGraph, values: np.ndarray) -> np.ndarray:
    """Rows of a per-vertex array in build (public) pin order."""
    vertex = {name: index for index, name in enumerate(graph._vertex_names)}
    rows = [vertex[name] for name in build_order(graph).pins]
    return values[np.asarray(rows, dtype=np.int64)]


def in_edge_list(graph: TimingGraph, vertex: int) -> np.ndarray:
    """Indices of the edges into ``vertex``, in edge order."""
    return np.flatnonzero(graph._edge_dst == vertex)


def trace_path(
    graph: TimingGraph, endpoint: int, arrival: np.ndarray, delay: np.ndarray
) -> List[PathSegment]:
    """Walk one critical path backwards over 1-D arrival/delay columns."""
    path: List[PathSegment] = []
    vertex = endpoint
    while True:
        value = float(arrival[vertex])
        best_edge = None
        for edge in in_edge_list(graph, vertex):
            candidate = arrival[graph._edge_src[edge]] + delay[edge]
            if candidate == value:
                best_edge = edge
                break
        if best_edge is None:
            path.append(
                PathSegment(
                    location=graph._vertex_names[vertex],
                    arc="startpoint",
                    incremental_delay=0.0,
                    arrival=value,
                )
            )
            break
        path.append(
            PathSegment(
                location=graph._vertex_names[vertex],
                arc=graph._edge_arcs[best_edge],
                incremental_delay=float(delay[best_edge]),
                arrival=value,
            )
        )
        vertex = int(graph._edge_src[best_edge])
    path.reverse()
    return path


def kahn_levels(graph: TimingGraph) -> np.ndarray:
    """Longest-path levels from the wave Kahn pass with an ``np.maximum.at``."""
    n = graph._vertex_count
    src = graph._edge_src
    dst = graph._edge_dst
    out_idx = np.argsort(src, kind="stable")
    out_counts = np.bincount(src, minlength=n)
    out_ptr = np.concatenate(([0], np.cumsum(out_counts)))
    in_counts = np.bincount(dst, minlength=n)

    level = np.zeros(n, dtype=np.int64)
    remaining = in_counts.copy()
    frontier = np.flatnonzero(remaining == 0)
    while frontier.size:
        lengths = out_counts[frontier]
        total = int(lengths.sum())
        if total == 0:
            break
        starts = out_ptr[frontier]
        ends = np.cumsum(lengths)
        flat = (
            np.repeat(starts, lengths)
            + np.arange(total)
            - np.repeat(ends - lengths, lengths)
        )
        edges = out_idx[flat]
        successors = dst[edges]
        np.maximum.at(level, successors, np.repeat(level[frontier] + 1, lengths))
        decrements = np.bincount(successors, minlength=n)
        remaining -= decrements
        frontier = np.flatnonzero((remaining == 0) & (decrements > 0))
    return level


def _buckets(graph: TimingGraph) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Edges grouped by destination level and by source level (ascending)."""
    if not graph._edge_count:
        return [], []
    level = graph._level
    max_level = int(level.max())
    dst_level = level[graph._edge_dst]
    order = np.argsort(dst_level, kind="stable")
    counts = np.bincount(dst_level, minlength=max_level + 1)
    forward = [
        bucket for bucket in np.split(order, np.cumsum(counts)[:-1]) if len(bucket)
    ]
    src_level = level[graph._edge_src]
    order = np.argsort(src_level, kind="stable")
    counts = np.bincount(src_level, minlength=max_level + 1)
    backward = [
        bucket for bucket in np.split(order, np.cumsum(counts)[:-1]) if len(bucket)
    ]
    return forward, backward


def propagate_tensor(graph: TimingGraph, delay: np.ndarray) -> np.ndarray:
    """Forward arrivals: one ``np.maximum.at`` per destination-level bucket."""
    arrivals = np.zeros((graph._vertex_count,) + delay.shape[1:])
    src = graph._edge_src
    dst = graph._edge_dst
    for bucket in _buckets(graph)[0]:
        candidates = arrivals[src[bucket]] + delay[bucket]
        np.maximum.at(arrivals, dst[bucket], candidates)
    return arrivals


def required_tensor(graph: TimingGraph, delay: np.ndarray, periods) -> np.ndarray:
    """Backward required times: one ``np.minimum.at`` per source-level bucket."""
    required = np.full((graph._vertex_count,) + delay.shape[1:], np.inf)
    if len(graph._endpoint_vertices):
        required[graph._endpoint_vertices] = periods
    src = graph._edge_src
    dst = graph._edge_dst
    for bucket in reversed(_buckets(graph)[1]):
        candidates = required[dst[bucket]] - delay[bucket]
        np.minimum.at(required, src[bucket], candidates)
    return required


def net_arc_delays(graph: TimingGraph) -> np.ndarray:
    """``(rows, 3)`` wire delays of every sink row, single-scenario bounds."""
    sinks = graph._db.sinks
    tp, tde, tre = sinks.tp, sinks.tde, sinks.tre
    live = sinks.live
    delays = np.zeros((len(tde), 3))
    delays[:, MODEL_COLUMN[DelayModel.ELMORE]] = tde
    if np.any(live):
        upper = delay_upper_bound_batch(
            tp[live], tde[live], tre[live], [graph._threshold]
        )[:, 0]
        lower = delay_lower_bound_batch(
            tp[live], tde[live], tre[live], [graph._threshold]
        )[:, 0]
        delays[live, MODEL_COLUMN[DelayModel.UPPER_BOUND]] = upper
        delays[live, MODEL_COLUMN[DelayModel.LOWER_BOUND]] = lower
    return delays


def scenario_bound_matrix(
    table: ScenarioSinkTable, thresholds: np.ndarray, model: DelayModel
) -> np.ndarray:
    """``(S, rows)`` wire delays for one bound model, per-scenario thresholds."""
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


def scenario_edge_delays(
    graph: TimingGraph,
    table: ScenarioSinkTable,
    thresholds: np.ndarray,
    order: Optional[BuildOrder] = None,
) -> np.ndarray:
    """``(edges, S, 3)`` delay tensor in build edge order.

    Scenario wire delays on timed net arcs; cell arcs carry their cell's
    intrinsic delay and clock-net arcs zero, in every scenario.  ``order``
    is :func:`build_order`'s result, rebuilt when not given.
    """
    if order is None:
        order = build_order(graph)
    rows = order.rows
    net = rows >= 0
    delays = np.broadcast_to(
        order.fixed[:, np.newaxis, np.newaxis], (len(rows), table.scenario_count, 3)
    ).copy()
    if np.any(net):
        delays[net, :, MODEL_COLUMN[DelayModel.ELMORE]] = table.tde[:, rows[net]].T
        for model in (DelayModel.UPPER_BOUND, DelayModel.LOWER_BOUND):
            delays[net, :, MODEL_COLUMN[model]] = scenario_bound_matrix(
                table, thresholds, model
            )[:, rows[net]].T
    return delays


def graph_edge_delays(
    graph: TimingGraph,
    table: ScenarioSinkTable,
    thresholds: np.ndarray,
    order: Optional[BuildOrder] = None,
) -> np.ndarray:
    """:func:`scenario_edge_delays` in the graph's own edge order."""
    if order is None:
        order = build_order(graph)
    build = scenario_edge_delays(graph, table, thresholds, order)
    delays = np.empty(build.shape)
    delays[graph_edges(graph, order)] = build
    return delays


def arrivals_matrix(graph: TimingGraph) -> np.ndarray:
    """``(pins, 3)`` arrivals under the graph's current edge delays, public order."""
    return public(graph, propagate_tensor(graph, graph._edge_delay))


def required_matrix(graph: TimingGraph) -> np.ndarray:
    """``(pins, 3)`` required times under the graph's current edge delays."""
    return public(
        graph, required_tensor(graph, graph._edge_delay, graph._clock_period)
    )


def analyze_scenarios(
    graph: TimingGraph,
    scenarios,
    path_model: DelayModel = DelayModel.UPPER_BOUND,
    engine: Optional[str] = None,
) -> Tuple[np.ndarray, List[List[PathSegment]]]:
    """``(S, 3)`` worst slack and one critical path per scenario."""
    table = graph._db.solve_scenarios(scenarios, engine=engine)
    periods = scenarios.clock_periods(graph._clock_period)
    delays = graph_edge_delays(graph, table, scenarios.thresholds(graph._threshold))
    arrivals = propagate_tensor(graph, delays)
    ends = graph._endpoint_vertices
    if not len(ends):
        return np.repeat(periods[:, np.newaxis], 3, axis=1), [
            [] for _ in range(table.scenario_count)
        ]
    worst_slack = periods[:, np.newaxis] - arrivals[ends].max(axis=0)
    column = MODEL_COLUMN[path_model]
    paths = []
    for index in range(table.scenario_count):
        endpoint = int(ends[np.argmax(arrivals[ends, index, column])])
        paths.append(
            trace_path(
                graph, endpoint, arrivals[:, index, column], delays[:, index, column]
            )
        )
    return worst_slack, paths


def scenario_pin_slacks(
    graph: TimingGraph,
    scenarios,
    model: DelayModel = DelayModel.UPPER_BOUND,
    engine: Optional[str] = None,
) -> np.ndarray:
    """``(pins, S)`` slack under one model, both sweeps bucketed, public order."""
    table = graph._db.solve_scenarios(scenarios, engine=engine)
    thresholds = scenarios.thresholds(graph._threshold)
    periods = scenarios.clock_periods(graph._clock_period)
    delays = graph_edge_delays(graph, table, thresholds)[:, :, MODEL_COLUMN[model]]
    return public(
        graph,
        required_tensor(graph, delays, periods) - propagate_tensor(graph, delays),
    )
