"""TimingGraph's level-major sweeps vs the bucketed ``ufunc.at`` oracle, bit for bit.

Every relaxation of the graph (full forward and backward sweeps, scenario
tensors, the ECO cone and the what-if overlay), every wire-delay
evaluation and every critical path must equal the oracle in
:mod:`tests.graph.relax_oracle` (and, for what-ifs,
:mod:`tests.graph.whatif_oracle`) byte for byte, on random designs, an
edgeless design and the state left by an ECO sequence.  The level-major
numbering itself is checked against the oracle's Kahn levels and
independently rebuilt compile order, and every per-pin output must keep
that first-seen pin order.
"""

import random

import numpy as np
import pytest

from repro.core.tree import RCTree
from repro.generators import random_design, random_scenarios
from repro.graph import TimingGraph, timinggraph
from repro.scenarios import Scenario, ScenarioSet
from repro.sta.cells import Cell, standard_cell_library
from repro.sta.netlist import Design
from repro.sta.parasitics import lumped, rc_tree_parasitics

from tests.graph import relax_oracle
from tests.graph.relax_oracle import MODEL_COLUMN, MODELS
from tests.graph.whatif_oracle import full_forest_whatif

PERIOD = 1.5e-9
INPUT_DRIVE = 120.0
LIBRARY = standard_cell_library()


def _graph(design, parasitics):
    return TimingGraph(
        design,
        dict(parasitics),
        clock_period=PERIOD,
        threshold=0.5,
        input_drive_resistance=INPUT_DRIVE,
    )


def _eco_sequence(graph, seed):
    """Resize and re-wire a few instances and nets through the ECO hooks."""
    rng = random.Random(seed)
    graph.arrivals_matrix  # the edits below run the incremental cone
    for _ in range(6):
        kind = rng.randrange(3)
        net = rng.choice(graph.db.timed_nets())
        if kind == 0:
            graph.update_net(net, lumped(net, rng.uniform(1e-16, 8e-14)))
        elif kind == 1:
            tree = RCTree("root")
            tree.add_line("root", "w", rng.uniform(30.0, 600.0), 1e-14)
            pin_nodes = {}
            for load in graph.db.nets[net].loads:
                pin = str(load)
                tree.add_resistor("w", pin, rng.uniform(10.0, 100.0))
                tree.mark_output(pin)
                pin_nodes[pin] = pin
            graph.update_net(net, rc_tree_parasitics(net, tree, pin_nodes))
        else:
            name = rng.choice(sorted(graph.db.instances))
            cell = graph.db.instances[name].cell
            prefix = cell.name.rpartition("_X")[0]
            replacement = LIBRARY.get(f"{prefix}_X{rng.choice([1, 2, 4])}")
            if replacement is not None:
                graph.resize_instance(name, replacement)
    return graph


def _edgeless():
    design = Design("edgeless")
    design.add_primary_input("a")
    return _graph(design, {})


def _random(seed):
    design, parasitics = random_design(120, seed=seed, sequential_fraction=0.2)
    return _graph(design, parasitics)


def _wide_fan_in():
    """A random design plus 3- and 4-input cells (the library stops at two)
    fed by inverter chains of different depths, two pins sharing a net: cell
    outputs with up to four in-edges and tied arcs."""
    design, parasitics = random_design(120, seed=6, sequential_fraction=0.2)
    parasitics = dict(parasitics)
    inverter = LIBRARY["INV_X1"]
    source = sorted(design.primary_inputs)[0]
    for depth in range(4):
        net = source
        for stage in range(depth + 1):
            out = f"w{depth}_{stage}"
            design.add_instance(f"u_w{depth}_{stage}", inverter, A=net, Y=out)
            parasitics[out] = lumped(out, 2e-15 * (stage + 1))
            net = out
    pins = {"A": "w1_1", "B": "w0_0", "C": "w3_3", "D": "w1_1"}
    for width, name in ((4, "u_nand4"), (3, "u_nand3")):
        cell = Cell(
            name=f"NAND{width}_X1",
            inputs=tuple(sorted(pins)[:width]),
            output="Y",
            input_capacitance=2e-15,
            drive_resistance=4e3,
            intrinsic_delay=3e-11,
        )
        out = f"{name}_y"
        design.add_instance(name, cell, Y=out, **dict(sorted(pins.items())[:width]))
        design.add_primary_output(out)
        parasitics[out] = lumped(out, 4e-15)
    return _graph(design, parasitics)


CASES = {
    "random-1": lambda: _random(1),
    "random-2": lambda: _random(2),
    "random-3": lambda: _random(3),
    "edgeless": _edgeless,
    "wide-fan-in": _wide_fan_in,
    "after-eco": lambda: _eco_sequence(_random(4), seed=7),
}


@pytest.fixture(params=sorted(CASES))
def graph(request):
    return CASES[request.param]()


@pytest.fixture(scope="module")
def scenarios():
    corners = list(random_scenarios(4, seed=11))
    corners.append(Scenario("tight", threshold=0.7, clock_period=2.2e-9))
    return ScenarioSet(corners)


def test_levels_equal_kahn_pass(graph):
    level = graph._level
    assert level.tobytes() == relax_oracle.kahn_levels(graph).tobytes()
    # Level k is the id range [bounds[k], bounds[k + 1]).
    bounds = graph._level_bounds
    assert len(bounds) == (int(level.max()) + 2 if len(level) else 1)
    for index, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        assert lo < hi
        assert np.flatnonzero(level == index).tobytes() == np.arange(lo, hi).tobytes()
    assert bounds[-1] == graph._vertex_count


def test_level_major_numbering(graph):
    """Kahn wave order over first-seen pins, edges sorted stably by destination."""
    order = relax_oracle.build_order(graph)
    first_seen = {name: index for index, name in enumerate(order.pins)}
    seen = np.asarray(
        [first_seen[name] for name in graph._vertex_names], dtype=np.int64
    )
    assert sorted(graph._vertex_names) == sorted(order.pins)
    # Within a level, vertices run in first-seen order.
    ids = np.lexsort((seen, graph._level))
    assert ids.tobytes() == np.arange(graph._vertex_count).tobytes()

    dst = graph._edge_dst
    assert np.all(np.diff(dst) >= 0)
    in_ptr = graph._in_ptr
    assert in_ptr[0] == 0 and in_ptr[-1] == graph._edge_count
    for vertex in range(graph._vertex_count):
        edges = relax_oracle.in_edge_list(graph, vertex)
        assert edges.tobytes() == np.arange(in_ptr[vertex], in_ptr[vertex + 1]).tobytes()
    # Stable: each vertex's in-edges keep their compile order.
    compiled = np.empty(graph._edge_count, dtype=np.int64)
    compiled[relax_oracle.graph_edges(graph, order)] = np.arange(graph._edge_count)
    assert np.all((np.diff(dst) > 0) | (np.diff(compiled) > 0))


def test_public_pin_order(graph, scenarios):
    """Per-pin outputs keep the first-seen pin order of the compile."""
    pins = relax_oracle.build_order(graph).pins
    assert graph.vertex_names == pins
    for model in MODELS:
        assert list(graph.arrivals(model)) == pins
        assert list(graph.pin_slacks(model)) == pins
    assert list(graph.scenario_pin_slacks(scenarios)) == pins
    assert len(graph.arrivals_matrix) == len(graph.required_matrix) == len(pins)


@pytest.mark.parametrize("trailing", [(), (3,), (4, 3)])
def test_fold_max_is_the_reduceat_fold(trailing):
    """Segments of one to five rows, many values tied: the rank fold equals
    ``np.maximum.reduceat`` bit for bit."""
    rng = np.random.default_rng(3)
    counts = rng.integers(1, 6, 40)
    heads = counts.cumsum() - counts
    candidates = rng.integers(-3, 4, (int(counts.sum()),) + trailing) * 0.25
    ranks = timinggraph._rank_plan(heads, counts)
    assert len(ranks) == counts.max() - 1
    got = timinggraph._fold_max(candidates.copy(), heads, ranks)
    want = np.maximum.reduceat(candidates, heads, axis=0)
    assert got.tobytes() == want.tobytes()


def test_paths_from_every_endpoint(graph):
    """All endpoints traced together equal the oracle's walk from each (an
    edgeless design has none to trace)."""
    ends = graph._endpoint_vertices
    width = (1, len(ends))
    for model in MODELS if len(ends) else ():
        column = MODEL_COLUMN[model]
        arrival = graph._solved_arrivals()[:, column]
        delay = graph._edge_delay[:, column]
        got = graph._trace_paths(
            ends,
            np.tile(arrival[:, np.newaxis], width),
            np.tile(delay[:, np.newaxis], width),
        )
        want = [
            relax_oracle.trace_path(graph, end, arrival, delay) for end in ends
        ]
        assert got == want, model


def test_sweeps_on_delay_tensors_with_negative_entries(graph):
    """Arbitrary ``(E, 2, 3)`` delays, some negative: an arrival whose every
    candidate is negative must clamp at zero, as the oracle's zero-initialised
    scatter does."""
    rng = np.random.default_rng(5)
    delay = rng.normal(0.0, 1e-10, (graph._edge_count, 2, 3))
    periods = np.array([[1e-9], [2e-9]])
    arrivals = graph._propagate_tensor(delay)
    assert arrivals.tobytes() == relax_oracle.propagate_tensor(graph, delay).tobytes()
    assert (
        graph._required_tensor(delay, periods).tobytes()
        == relax_oracle.required_tensor(graph, delay, periods).tobytes()
    )


def test_endpoint_that_fans_out_keeps_its_own_required_time():
    """A primary output named like an instance pin shares that pin's vertex,
    so an endpoint can drive a cone that reaches no endpoint: its required
    time is the clock period, not ``+inf`` from its fan-out."""
    design = Design("fanout_endpoint")
    design.add_primary_input("a")
    design.add_instance("u2", LIBRARY["INV_X1"], A="a", Y="u1/Y")
    design.add_instance("u1", LIBRARY["INV_X1"], A="a", Y="n3")
    design.add_instance("u3", LIBRARY["INV_X1"], A="n3", Y="n4")
    design.add_primary_output("u1/Y")
    graph = _graph(design, {net: lumped(net, 3e-15) for net in ("a", "u1/Y", "n3")})
    vertex = graph._vertex_index["u1/Y"]
    assert graph._out_ptr[vertex + 1] > graph._out_ptr[vertex]
    assert (graph.required_matrix[graph.vertex_names.index("u1/Y")] == PERIOD).all()
    want = relax_oracle.required_matrix(graph)
    assert graph.required_matrix.tobytes() == want.tobytes()


def test_edge_delays_equal_single_scenario_bounds(graph):
    edges, rows = graph._net_edge_rows
    want = relax_oracle.net_arc_delays(graph)[rows]
    assert graph._edge_delay[edges].tobytes() == want.tobytes()


def test_arrivals_required_and_pin_slacks(graph):
    arrivals = relax_oracle.arrivals_matrix(graph)
    required = relax_oracle.required_matrix(graph)
    assert graph.arrivals_matrix.tobytes() == arrivals.tobytes()
    assert graph.required_matrix.tobytes() == required.tobytes()
    for model in MODELS:
        column = MODEL_COLUMN[model]
        got = np.array(list(graph.pin_slacks(model).values()))
        want = required[:, column] - arrivals[:, column]
        assert got.tobytes() == want.tobytes(), model


def test_analyze_scenarios(graph, scenarios):
    for path_model in (MODELS[0], MODELS[1]):
        report = graph.analyze_scenarios(scenarios, path_model=path_model)
        worst, paths = relax_oracle.analyze_scenarios(graph, scenarios, path_model)
        assert report.worst_slack.tobytes() == worst.tobytes()
        assert report.critical_paths == paths


def test_scenario_pin_slacks(graph, scenarios):
    for model in MODELS:
        slacks = graph.scenario_pin_slacks(scenarios, model)
        got = np.array(list(slacks.values())).reshape(-1, len(scenarios))
        want = relax_oracle.scenario_pin_slacks(graph, scenarios, model)
        assert got.tobytes() == want.tobytes(), model


def test_whatif_scores(graph):
    instances = sorted(graph.db.instances)[:6]
    swaps = []
    for name in instances:
        prefix = graph.db.instances[name].cell.name.rpartition("_X")[0]
        for strength in (1, 4):
            cell = LIBRARY.get(f"{prefix}_X{strength}")
            if cell is not None:
                swaps.append((name, cell))
    for model in MODELS:
        got = graph.whatif_resize_worst_slack(swaps, model)
        want = full_forest_whatif(graph, swaps, model)
        assert got.tobytes() == want.tobytes(), model


def _with_dead_stages():
    """A random design plus inverters into ports with no wire: dead stages."""
    design, parasitics = random_design(120, seed=5, sequential_fraction=0.2)
    inverter = LIBRARY["INV_X1"]
    source = sorted(design.primary_inputs)[0]
    for index in range(3):
        design.add_primary_output(f"dead{index}")
        design.add_instance(f"u_dead{index}", inverter, A=source, Y=f"dead{index}")
    return _graph(design, parasitics)


def test_scenario_tensor_with_dead_stages_and_mixed_thresholds():
    graph = _with_dead_stages()
    assert not graph.db.sinks.live.all()
    corners = list(random_scenarios(3, seed=2))
    corners += [
        Scenario("low", threshold=0.3, c_derate=1.1),
        Scenario("high", threshold=0.8, r_derate=0.9),
        Scenario("high-fast", threshold=0.8, drive_derate=0.7),
    ]
    scenarios = ScenarioSet(corners)
    thresholds = scenarios.thresholds(graph.threshold)
    assert len(np.unique(thresholds)) == 3
    table = graph.db.solve_scenarios(scenarios)
    with np.errstate(all="raise"):
        got = graph._scenario_edge_delays(table, thresholds)
    want = relax_oracle.scenario_edge_delays(graph, table, thresholds)
    order = relax_oracle.build_order(graph)
    assert got[relax_oracle.graph_edges(graph, order)].tobytes() == want.tobytes()
    worst, paths = relax_oracle.analyze_scenarios(graph, scenarios)
    report = graph.analyze_scenarios(scenarios)
    assert report.worst_slack.tobytes() == worst.tobytes()
    assert report.critical_paths == paths
