"""Property test: the scenario axis is exactly a loop of the single engine.

For random designs and random scenario sets (corner derates, Monte-Carlo
perturbations, threshold / clock-period overrides, per-net scales), the
scenario-batched analysis must equal -- worst slack at 1e-12 of
``max(|slack|, clock period)``, verdicts exactly, for all three delay
models -- a per-scenario loop that materializes each scenario as
scaled inputs (:func:`repro.scenarios.scaled_design` /
:func:`~repro.scenarios.scaled_parasitics`) and re-runs the single-scenario
:class:`~repro.graph.TimingGraph` from scratch.  The equivalence must
survive random incremental edit sequences (``update_net`` lumped/tree swaps
and ``resize_instance`` cell swaps): a batched solve after edits reflects
the database's current state exactly.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.tree import RCTree
from repro.generators import random_design, random_scenarios
from repro.graph import TimingGraph
from repro.scenarios import Scenario, ScenarioSet, scaled_design, scaled_parasitics
from repro.sta.cells import standard_cell_library
from repro.sta.delaycalc import DelayModel
from repro.sta.parasitics import lumped, rc_tree_parasitics

from tests.properties.topologies import TOPOLOGY_KINDS, pathological_net

MODELS = (DelayModel.ELMORE, DelayModel.UPPER_BOUND, DelayModel.LOWER_BOUND)
LIBRARY = standard_cell_library()
PERIOD = 1.4e-9
THRESHOLD = 0.5
INPUT_DRIVE = 140.0


def _scenario_set(rng, nets):
    """Corners + MC + override-carrying scenarios over the design's own nets."""
    base = list(random_scenarios(4, seed=rng.randrange(2**20)))
    base.append(
        Scenario(
            "overrides",
            r_derate=rng.uniform(0.8, 1.3),
            threshold=rng.uniform(0.3, 0.8),
            clock_period=rng.uniform(0.5e-9, 3e-9),
        )
    )
    if nets:
        base.append(
            Scenario(
                "netted",
                net_scale={rng.choice(nets): rng.uniform(0.5, 1.8)},
            )
        )
    return ScenarioSet(base)


def _random_edit(rng, graph, parasitics):
    """One random ECO edit, mirrored into the ``parasitics`` oracle state."""
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
        prefix, _, _ = cell.name.rpartition("_X")
        strength = rng.choice([1, 2, 4]) if not cell.is_sequential else rng.choice([1, 2])
        replacement = LIBRARY.get(f"{prefix}_X{strength}")
        if replacement is not None:
            graph.resize_instance(name, replacement)


def _assert_scenario_parity(graph, design, parasitics, scenarios):
    """Worst slack at 1e-12 of ``max(|slack|, clock period)``, verdicts exact.

    Slack is ``period - arrival``, so near zero it is a difference of two
    numbers of the period's magnitude and carries their rounding: the
    batched planes derate a net's summed pin load (``(sum pin) * c``)
    where the materialized oracle sums derated pins (``sum(pin * c)``),
    and one ULP of ``T_De`` that way is one ULP of an arrival, which can
    exceed 1e-12 of a slack of ~1e-13 s.  Bounding by the period states
    the contract on the operands' magnitude; the verdict stays exact.
    """
    report = graph.analyze_scenarios(scenarios)
    for index, scenario in enumerate(scenarios):
        period = scenario.clock_period or PERIOD
        reference = TimingGraph(
            scaled_design(design, scenario),
            {
                name: scaled_parasitics(record, scenario)
                for name, record in parasitics.items()
            },
            clock_period=period,
            threshold=(
                THRESHOLD if scenario.threshold is None else scenario.threshold
            ),
            input_drive_resistance=INPUT_DRIVE * scenario.drive_derate,
        )
        for column, model in enumerate(MODELS):
            want = reference.worst_slack(model)
            got = float(report.worst_slack[index, column])
            assert abs(got - want) <= 1e-12 * max(abs(want), period), (
                scenario.name,
                model,
            )
        assert report.verdicts[index] == reference.certify().name, scenario.name


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**20), st.integers(0, 2**20))
@example(441, 0)  # slack 1.4e-13 s, one arrival ULP apart (see above)
def test_scenario_batch_equals_single_engine_loop(design_seed, sweep_seed):
    design, parasitics = random_design(30, seed=design_seed, sequential_fraction=0.2)
    parasitics = dict(parasitics)
    rng = random.Random(sweep_seed)
    graph = TimingGraph(
        design,
        dict(parasitics),
        clock_period=PERIOD,
        threshold=THRESHOLD,
        input_drive_resistance=INPUT_DRIVE,
    )
    scenarios = _scenario_set(rng, graph.db.timed_nets())
    _assert_scenario_parity(graph, design, parasitics, scenarios)

    # The batched axis must track incremental state exactly: edit, re-batch.
    graph.arrivals_matrix  # ensure edits exercise the incremental path
    for _ in range(4):
        _random_edit(rng, graph, parasitics)
    _assert_scenario_parity(graph, design, parasitics, scenarios)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**20), st.integers(0, 2**20))
def test_scenario_batch_on_pathological_topologies(design_seed, sweep_seed):
    """Scenario parity survives nets rewired to adversarial shapes.

    Several nets of a random design are respliced with chains, stars,
    ladders etc. (``tests.properties.topologies``), so the batched solve's
    engine choice faces depth-pathological parasitics while the
    per-scenario oracle loop stays shape-agnostic.
    """
    design, parasitics = random_design(24, seed=design_seed, sequential_fraction=0.2)
    parasitics = dict(parasitics)
    rng = random.Random(sweep_seed)
    graph = TimingGraph(
        design,
        dict(parasitics),
        clock_period=PERIOD,
        threshold=THRESHOLD,
        input_drive_resistance=INPUT_DRIVE,
    )
    graph.arrivals_matrix  # ensure edits exercise the incremental path
    nets = graph.db.timed_nets()
    for net in rng.sample(nets, min(4, len(nets))):
        loads = [str(load) for load in graph.db.nets[net].loads]
        edit = pathological_net(
            net,
            loads,
            kind=rng.choice(TOPOLOGY_KINDS),
            nodes=rng.randint(2, 40),
            seed=rng.randrange(2**20),
        )
        parasitics[net] = edit
        graph.update_net(net, edit)
    scenarios = _scenario_set(rng, nets)
    _assert_scenario_parity(graph, design, parasitics, scenarios)
