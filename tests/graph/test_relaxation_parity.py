"""TimingGraph's CSR level sweeps vs the bucketed ``ufunc.at`` oracle, bit for bit.

Every relaxation of the graph (full forward and backward sweeps, scenario
tensors, the ECO cone and the what-if overlay) and every wire-delay
evaluation must equal the oracle in :mod:`tests.graph.relax_oracle` (and,
for what-ifs, :mod:`tests.graph.whatif_oracle`) byte for byte, on random
designs, an edgeless design and the state left by an ECO sequence.
"""

import random

import numpy as np
import pytest

from repro.core.tree import RCTree
from repro.generators import random_design, random_scenarios
from repro.graph import TimingGraph
from repro.scenarios import Scenario, ScenarioSet
from repro.sta.cells import standard_cell_library
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


CASES = {
    "random-1": lambda: _random(1),
    "random-2": lambda: _random(2),
    "random-3": lambda: _random(3),
    "edgeless": _edgeless,
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
    assert graph._level.tobytes() == relax_oracle.kahn_levels(graph).tobytes()
    for index, vertices in enumerate(graph._levels):
        assert vertices.tobytes() == np.flatnonzero(graph._level == index).tobytes()
    assert sum(len(vertices) for vertices in graph._levels) == graph._vertex_count


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
    assert (graph.required_matrix[vertex] == PERIOD).all()
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
