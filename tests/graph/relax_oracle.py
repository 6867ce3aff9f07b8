"""The bucketed ``ufunc.at`` relaxations, kept only as the parity oracle.

``TimingGraph`` relaxes one level at a time with a CSR segment reduction
(``_relax_level`` forward, ``_required_tensor`` backward) and evaluates
every wire delay through one bound helper.  These functions are the
earlier form of the same computations: edges grouped into per-level
buckets (by destination level forward, by source level backward) with one
``np.maximum.at`` / ``np.minimum.at`` scatter per bucket, the Kahn pass
that computed levels with ``np.maximum.at``, and the two separate bound
evaluations (single-scenario rows and scenario matrices).  The buckets are
rebuilt here from the graph's ``_level``, ``_edge_dst`` and ``_edge_src``,
so no relaxation of the code under test runs in the oracle.  Tests hold
the graph to these bit for bit.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.flat import delay_lower_bound_batch, delay_upper_bound_batch
from repro.graph import ScenarioSinkTable, TimingGraph
from repro.sta.analysis import PathSegment
from repro.sta.delaycalc import DelayModel

MODELS = (DelayModel.ELMORE, DelayModel.UPPER_BOUND, DelayModel.LOWER_BOUND)
MODEL_COLUMN = {model: column for column, model in enumerate(MODELS)}


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
    graph: TimingGraph, table: ScenarioSinkTable, thresholds: np.ndarray
) -> np.ndarray:
    """``(edges, S, 3)`` delay tensor: scenario wire delays, shared cell arcs."""
    s = table.scenario_count
    delays = np.broadcast_to(
        graph._edge_delay[:, np.newaxis, :], (graph._edge_count, s, 3)
    ).copy()
    edges, rows = graph._net_edge_rows
    if len(edges):
        delays[edges, :, MODEL_COLUMN[DelayModel.ELMORE]] = table.tde[:, rows].T
        for model in (DelayModel.UPPER_BOUND, DelayModel.LOWER_BOUND):
            delays[edges, :, MODEL_COLUMN[model]] = scenario_bound_matrix(
                table, thresholds, model
            )[:, rows].T
    return delays


def arrivals_matrix(graph: TimingGraph) -> np.ndarray:
    """``(pins, 3)`` arrivals under the graph's current edge delays."""
    return propagate_tensor(graph, graph._edge_delay)


def required_matrix(graph: TimingGraph) -> np.ndarray:
    """``(pins, 3)`` required times under the graph's current edge delays."""
    return required_tensor(graph, graph._edge_delay, graph._clock_period)


def analyze_scenarios(
    graph: TimingGraph,
    scenarios,
    path_model: DelayModel = DelayModel.UPPER_BOUND,
    engine: Optional[str] = None,
) -> Tuple[np.ndarray, List[List[PathSegment]]]:
    """``(S, 3)`` worst slack and one critical path per scenario."""
    table = graph._db.solve_scenarios(scenarios, engine=engine)
    periods = scenarios.clock_periods(graph._clock_period)
    delays = scenario_edge_delays(
        graph, table, scenarios.thresholds(graph._threshold)
    )
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
            graph._trace_path(
                endpoint, arrivals[:, index, column], delays[:, index, column]
            )
        )
    return worst_slack, paths


def scenario_pin_slacks(
    graph: TimingGraph,
    scenarios,
    model: DelayModel = DelayModel.UPPER_BOUND,
    engine: Optional[str] = None,
) -> np.ndarray:
    """``(pins, S)`` slack under one model, both sweeps bucketed."""
    table = graph._db.solve_scenarios(scenarios, engine=engine)
    thresholds = scenarios.thresholds(graph._threshold)
    periods = scenarios.clock_periods(graph._clock_period)
    delays = scenario_edge_delays(graph, table, thresholds)[
        :, :, MODEL_COLUMN[model]
    ]
    return required_tensor(graph, delays, periods) - propagate_tensor(graph, delays)
