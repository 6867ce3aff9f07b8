"""Property test: incremental cone re-timing is exact.

Random designs receive random edit sequences -- lumped-capacitance changes,
wholesale net-parasitic swaps (lumped <-> tree), and cell resizes -- applied
through :meth:`TimingGraph.update_net` / :meth:`TimingGraph.resize_instance`.
After every edit the incrementally maintained arrivals must equal a
from-scratch :class:`TimingGraph` over the same state at 1e-12 relative
tolerance, and both must match the per-vertex networkx
:class:`~tests.graph.analyzer_oracle.TimingAnalyzer` -- the paper-faithful
oracle -- in all three delay models.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tree import RCTree
from repro.generators import random_design
from repro.graph import TimingGraph
from repro.sta.cells import standard_cell_library
from repro.sta.delaycalc import DelayModel
from repro.sta.parasitics import lumped, rc_tree_parasitics
from tests.graph.analyzer_oracle import TimingAnalyzer

MODELS = (DelayModel.ELMORE, DelayModel.UPPER_BOUND, DelayModel.LOWER_BOUND)
LIBRARY = standard_cell_library()


def _random_edit(rng, graph, parasitics):
    """Apply one random ECO edit to the graph, mirroring it into ``parasitics``."""
    nets = graph.db.timed_nets()
    kind = rng.randrange(3)
    if kind == 0:
        net = rng.choice(nets)
        edit = lumped(net, rng.uniform(1e-16, 8e-14))
        parasitics[net] = edit
        graph.update_net(net, edit)
    elif kind == 1:
        net = rng.choice(nets)
        loads = [str(load) for load in graph.db.nets[net].loads]
        tree = RCTree("root")
        previous = "root"
        for index in range(rng.randint(1, 3)):
            name = f"w{index}"
            tree.add_line(
                previous, name, rng.uniform(30.0, 600.0), rng.uniform(1e-15, 2e-14)
            )
            previous = name
        pin_nodes = {}
        for pin in loads:
            tree.add_resistor(previous, pin, rng.uniform(10.0, 100.0))
            tree.mark_output(pin)
            pin_nodes[pin] = pin
        edit = rc_tree_parasitics(net, tree, pin_nodes)
        parasitics[net] = edit
        graph.update_net(net, edit)
    else:
        instances = sorted(graph.db.instances)
        name = rng.choice(instances)
        cell = graph.db.instances[name].cell
        prefix, _, suffix = cell.name.rpartition("_X")
        strength = rng.choice([1, 2, 4]) if not cell.is_sequential else rng.choice([1, 2])
        replacement = LIBRARY.get(f"{prefix}_X{strength}")
        if replacement is not None:
            graph.resize_instance(name, replacement)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**20), st.integers(0, 2**20))
def test_incremental_edit_sequences_stay_exact(design_seed, edit_seed):
    design, parasitics = random_design(
        36, seed=design_seed, sequential_fraction=0.2
    )
    clock_period = 1.5e-9
    graph = TimingGraph(design, dict(parasitics), clock_period=clock_period)
    graph.arrivals_matrix  # solve before editing: updates are incremental
    rng = random.Random(edit_seed)
    for _ in range(5):
        _random_edit(rng, graph, parasitics)

        fresh = TimingGraph(design, dict(parasitics), clock_period=clock_period)
        permutation = [fresh.vertex_names.index(n) for n in graph.vertex_names]
        np.testing.assert_allclose(
            graph.arrivals_matrix,
            fresh.arrivals_matrix[permutation],
            rtol=1e-12,
            atol=1e-28,
        )

    legacy = TimingAnalyzer(design, parasitics, clock_period=clock_period)
    for model in MODELS:
        report = legacy.run(model)
        mine = graph.arrivals(model)
        for pin, want in report.arrivals.items():
            assert abs(mine[pin] - want) <= 1e-12 * max(abs(want), 1e-18), (model, pin)
        assert abs(graph.worst_slack(model) - report.worst_slack) <= 1e-12 * max(
            abs(report.worst_slack), 1e-18
        )
