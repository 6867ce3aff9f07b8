"""An ECO'd database equals a fresh build of the edited design, bit for bit.

``DesignDB`` builds its scenario layout (wire-only and pin-load capacitance
per forest node, and each sink row's forest node and tree) once, from the
stage blocks, and splices it together with the forest on every ECO; an
ECO recompiles and solves all the nets it touches as one block.  The
layout oracle is the per-entry rebuild the database used to run after
each edit: the per-net ``compile_stage`` (``tests/graph/stage_oracle.py``)
per timed net, placed at the forest's current offsets, pin loads summed
in ``pin_index`` order.  After random ECO sequences -- cell swaps
(including an instance whose two inputs share one net, and one that
drives a net and loads two others), same-size, larger and smaller
``update_net`` trees, lumped -> tree and tree -> lumped -- every layout
array must match it bit for bit, in RAM and store-backed.  After every
ECO the sink table and the ``TimingGraph`` arrivals must also be
``tobytes``-equal to a fresh build's, and so must the forest's preorder
arrays and the layout whenever the sequence reads the forest (and at its
end): the other ECOs leave their splices queued, as an ECO loop does.
Scenario solves and what-if scores must match the fresh database at
1e-12, and the cone-local what-if must equal the full-forest oracle on
the same graph bit for bit.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graph.designdb as designdb
from repro.core.tree import RCTree
from repro.flat import FlatForest
from repro.flat.scenarios import level_plan
from repro.generators import random_design, random_scenarios
from repro.graph import DesignDB, TimingGraph
from repro.scenarios import Scenario, ScenarioSet, scaled_parasitics
from repro.sta.cells import standard_cell_library
from repro.sta.delaycalc import DelayModel
from repro.sta.parasitics import lumped, rc_tree_parasitics
from tests.graph import relax_oracle
from tests.graph.stage_oracle import compile_stage
from tests.graph.whatif_oracle import full_forest_whatif

#: A small shard size so store-backed designs span several shards.
SMALL_SHARD = 48
LIBRARY = standard_cell_library()
PERIOD = 2e-9
INPUT_DRIVE = 90.0
MODELS = (DelayModel.ELMORE, DelayModel.UPPER_BOUND, DelayModel.LOWER_BOUND)
LAYOUT_FIELDS = ("wire_c", "pin_c", "sink_nodes", "sink_tree")
ECO_KINDS = (
    "resize",
    "same",
    "grow",
    "shrink",
    "to_tree",
    "to_lumped",
    "shared_inputs",
    "drive_and_loads",
)
#: The instances behind the two repeated-net swap kinds (see eco_design).
REPEAT_INSTANCES = {"shared_inputs": "rep_shared", "drive_and_loads": "rep_fan"}
TABLE_FIELDS = ("tp", "tde", "tre", "total_capacitance")


def rebuild_layout(db):
    """The per-entry layout rebuild, from scratch over the current forest."""
    forest = db._active_forest()
    offsets = forest._offsets
    wire_c = np.empty(forest.node_count)
    pin_c = np.zeros(forest.node_count)
    sink_nodes, sink_tree = [], []
    for tree, net in enumerate(db.timed_nets()):
        model = db.net_model(net)
        sinks = db.sink_capacitances_of(net)
        _, pin_index, stage_wire = compile_stage(
            db.drive_resistance_of(net),
            sinks,
            lumped_capacitance=model.lumped_capacitance,
            base=model.base,
            pin_nodes=model.pin_nodes,
        )
        lo, hi = int(offsets[tree]), int(offsets[tree + 1])
        assert hi - lo == len(stage_wire)
        wire_c[lo:hi] = stage_wire
        # pin_index preserves sink-table row order within the net.
        for pin, local in pin_index.items():
            pin_c[lo + local] += sinks[pin]
            sink_nodes.append(lo + local)
            sink_tree.append(tree)
    return {
        "wire_c": wire_c,
        "pin_c": pin_c,
        "sink_nodes": np.asarray(sink_nodes, dtype=np.int64),
        "sink_tree": np.asarray(sink_tree, dtype=np.int64),
    }


def assert_bitwise(got, want, name=""):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, name
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def assert_layout_matches_rebuild(db):
    layout = db._scenario_layout()
    expected = rebuild_layout(db)
    for name in LAYOUT_FIELDS:
        assert_bitwise(getattr(layout, name), expected[name], name)


def stored_preorder(store):
    """A store's ``(parent, depth, edge_r, edge_c, node_c)`` over all shards.

    Shard-local parents are shifted to the global preorder numbering, so
    two stores that cut their shards differently still compare.
    """
    parts = []
    for shard in range(store.shard_count):
        node_lo = store.shard_bounds(shard)[0]
        parent, *rest = store.materialize(shard)._preorder()[:5]
        parts.append((np.where(parent >= 0, parent + node_lo, -1), *rest))
    return [np.concatenate(column) for column in zip(*parts)]


def assert_oracle_parity(graph, scenarios):
    """Sweeps, scenario tensor and critical paths equal the bucketed oracle."""
    assert_bitwise(graph.arrivals_matrix, relax_oracle.arrivals_matrix(graph), "arrivals")
    assert_bitwise(graph.required_matrix, relax_oracle.required_matrix(graph), "required")
    report = graph.analyze_scenarios(scenarios)
    worst, paths = relax_oracle.analyze_scenarios(graph, scenarios)
    assert_bitwise(report.worst_slack, worst, "worst slack")
    assert report.critical_paths == paths


def assert_matches_fresh(graph, fresh_graph, read):
    """``graph`` (after ECOs) against a fresh build of the edited design.

    The sink table and the arrivals are checked without touching the
    forest; with ``read`` the forest (spliced now) and the layout too.
    """
    db, fresh = graph.db, fresh_graph.db
    assert db.sinks.nets == fresh.sinks.nets
    assert db.sinks.pins == fresh.sinks.pins
    for name in TABLE_FIELDS:
        assert_bitwise(getattr(db.sinks, name), getattr(fresh.sinks, name), name)
    assert_bitwise(graph.arrivals_matrix, fresh_graph.arrivals_matrix, "arrivals")
    if not read:
        return
    if db.store is None:
        forest, want = db.forest, fresh.forest
        assert_bitwise(forest._offsets, want._offsets, "offsets")
        for got_array, want_array in zip(forest._preorder(), want._preorder()):
            assert_bitwise(got_array, want_array)
        assert forest._names == want._names
    else:
        assert_bitwise(db.store.offsets, fresh.store.offsets, "offsets")
        for got_array, want_array in zip(
            stored_preorder(db.store), stored_preorder(fresh.store)
        ):
            assert_bitwise(got_array, want_array)
    layout, want_layout = db._scenario_layout(), fresh._scenario_layout()
    for name in LAYOUT_FIELDS:
        assert_bitwise(getattr(layout, name), getattr(want_layout, name), name)
    assert_layout_matches_rebuild(db)


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def assert_tables_close(got, want):
    assert got.nets == want.nets
    assert got.pins == want.pins
    for name in TABLE_FIELDS:
        assert_close(getattr(got, name), getattr(want, name))


# ----------------------------------------------------------------------
# ECO sequences
# ----------------------------------------------------------------------
def chain_parasitics(net, loads, size, scale, pick):
    """A ``size``-node chain with each load pin bound to a chosen node."""
    names = [f"{net}:{i}" for i in range(size)]
    tree = RCTree(names[0])
    for i in range(1, size):
        tree.add_line(names[i - 1], names[i], 60.0 * scale * i, 2e-15 * scale)
    tree.mark_output(names[-1])
    pin_nodes = {pin: names[(pick + i) % size] for i, pin in enumerate(loads)}
    return rc_tree_parasitics(net, tree, pin_nodes)


def base_size(db, net):
    base = db.net_model(net).base
    return 1 if base is None else len(base)


def eco_design(seed):
    """``random_design(24)`` plus two instances whose swaps repeat nets.

    ``rep_shared`` loads one timed net on both of its inputs, so a swap
    must recompile that net once; ``rep_fan`` drives one timed net and
    loads two others.  Their new loads are unbound in the parasitics, so
    they take each net's last node.
    """
    design, parasitics = random_design(24, seed=seed)
    clocks = set(design.clocks)
    driven = [
        name
        for name, net in design.connectivity().items()
        if net.driver is not None and name not in clocks
    ]
    first = driven[seed % len(driven)]
    second = driven[(seed + 1) % len(driven)]
    nand = LIBRARY["NAND2_X1"]
    design.add_instance("rep_shared", nand, A=first, B=first, Y="rep_shared_y")
    design.add_instance("rep_fan", nand, A=first, B=second, Y="rep_fan_y")
    design.add_primary_output("rep_shared_y")
    design.add_primary_output("rep_fan_y")
    return design, dict(parasitics)


def apply_eco(db, parasitics, eco, apply_update, apply_resize):
    """Apply one drawn ECO, mirrored into the ``parasitics`` oracle state."""
    kind, pick, scale = eco
    if kind in ("resize", *REPEAT_INSTANCES):
        if kind == "resize":
            instances = sorted(db.instances)
            name = instances[pick % len(instances)]
        else:
            name = REPEAT_INSTANCES[kind]
        cell = db.instances[name].cell
        prefix, _, strength = cell.name.rpartition("_X")
        choices = [s for s in ("1", "2", "4") if s != strength]
        replacement = LIBRARY.get(f"{prefix}_X{choices[pick % len(choices)]}")
        if replacement is not None:
            apply_resize(name, replacement)
        return
    nets = db.timed_nets()
    net = nets[pick % len(nets)]
    loads = [str(load) for load in db.nets[net].loads]
    current = parasitics.get(net)
    size = base_size(db, net)
    if kind == "same":
        if current is None:
            edit = lumped(net, 3e-15 * scale)
        else:
            derate = Scenario("eco", r_derate=scale, c_derate=scale)
            edit = scaled_parasitics(current, derate)
    elif kind == "grow":
        edit = chain_parasitics(net, loads, size + 1 + pick % 3, scale, pick)
    elif kind == "shrink":
        if size > 2:
            smaller = max(2, size - 1 - pick % 3)
            edit = chain_parasitics(net, loads, smaller, scale, pick)
        else:
            edit = lumped(net, 4e-15 * scale)
    elif kind == "to_tree":
        edit = chain_parasitics(net, loads, 2 + pick % 4, scale, pick)
    else:
        edit = lumped(net, 5e-15 * scale)
    parasitics[net] = edit
    apply_update(net, edit)


eco_sequences = st.lists(
    st.tuples(
        st.sampled_from(ECO_KINDS),
        st.integers(0, 10**6),
        st.floats(0.5, 2.0),
    ),
    min_size=1,
    max_size=8,
)


def scenario_set(db, seed):
    nets = db.timed_nets()
    scenarios = list(random_scenarios(3, seed=seed))
    scenarios.append(Scenario("netted", net_scale={nets[seed % len(nets)]: 1.7}))
    return ScenarioSet(scenarios)


HYPOTHESIS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@pytest.fixture
def small_shards(monkeypatch):
    monkeypatch.setattr(designdb, "DEFAULT_SHARD_NODES", SMALL_SHARD)


class TestEcoSequences:
    @HYPOTHESIS
    @given(
        design_seed=st.integers(0, 2**16),
        ecos=eco_sequences,
        reads=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    def test_in_ram(self, design_seed, ecos, reads):
        design, parasitics = eco_design(design_seed)
        db = DesignDB(design, dict(parasitics), input_drive_resistance=INPUT_DRIVE)
        graph = TimingGraph(db, clock_period=PERIOD)
        graph.arrivals_matrix  # ECOs re-time incrementally from here
        assert_layout_matches_rebuild(db)
        for eco, read in zip(ecos, reads):
            apply_eco(db, parasitics, eco, graph.update_net, graph.resize_instance)
            fresh = DesignDB(design, parasitics, input_drive_resistance=INPUT_DRIVE)
            # With read, splice now; otherwise splices queue up.
            assert_matches_fresh(graph, TimingGraph(fresh, clock_period=PERIOD), read)
        assert_matches_fresh(graph, TimingGraph(fresh, clock_period=PERIOD), True)
        forest = db.forest
        parent, depth = forest._preorder()[:2]
        want = level_plan(parent, depth)
        for name in ("order", "position", "bounds", "parent"):
            got = getattr(forest._plan, name)
            assert got.tobytes() == getattr(want, name).tobytes(), name
        # A freshly built forest of the current members solves bitwise alike.
        fresh = FlatForest(forest.trees).solve()
        times = forest.solve()
        for name in ("tde", "tre", "ree", "tp", "total_capacitance"):
            assert getattr(times, name).tobytes() == getattr(fresh, name).tobytes()

        fresh = DesignDB(design, parasitics, input_drive_resistance=INPUT_DRIVE)
        scenarios = scenario_set(db, design_seed)
        assert_tables_close(
            db.solve_scenarios(scenarios), fresh.solve_scenarios(scenarios)
        )
        assert_oracle_parity(graph, scenarios)
        instances = sorted(db.instances)
        swaps = []
        for i in range(3):
            name = instances[(design_seed + 7 * i) % len(instances)]
            prefix, _, _ = db.instances[name].cell.name.rpartition("_X")
            cell = LIBRARY.get(f"{prefix}_X2") or db.instances[name].cell
            swaps.append((name, cell))
        reference = TimingGraph(fresh, clock_period=PERIOD)
        for model in MODELS:
            scores = graph.whatif_resize_worst_slack(swaps, model)
            assert_close(scores, reference.whatif_resize_worst_slack(swaps, model))
            oracle = full_forest_whatif(graph, swaps, model)
            assert scores.tobytes() == oracle.tobytes(), model

    @HYPOTHESIS
    @given(
        design_seed=st.integers(0, 2**16),
        ecos=eco_sequences,
        reads=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    def test_store_backed(self, design_seed, ecos, reads, small_shards):
        design, parasitics = eco_design(design_seed)
        with tempfile.TemporaryDirectory() as directory:
            db = DesignDB(
                design,
                dict(parasitics),
                input_drive_resistance=INPUT_DRIVE,
                store_dir=f"{directory}/eco",
            )
            assert db.store.shard_count > 1
            graph = TimingGraph(db, clock_period=PERIOD)
            graph.arrivals_matrix
            assert_layout_matches_rebuild(db)
            for step, (eco, read) in enumerate(zip(ecos, reads)):
                apply_eco(
                    db, parasitics, eco, graph.update_net, graph.resize_instance
                )
                fresh = DesignDB(
                    design,
                    parasitics,
                    input_drive_resistance=INPUT_DRIVE,
                    store_dir=f"{directory}/fresh{step}",
                )
                fresh_graph = TimingGraph(fresh, clock_period=PERIOD)
                assert_matches_fresh(graph, fresh_graph, read or step == len(ecos) - 1)
                fresh.store.close()
            scenarios = scenario_set(db, design_seed)
            got = db.solve_scenarios(scenarios)
            assert_oracle_parity(graph, scenarios)
            db.store.close()
        fresh = DesignDB(design, parasitics, input_drive_resistance=INPUT_DRIVE)
        assert_tables_close(got, fresh.solve_scenarios(scenarios))


class TestNamedEcos:
    @pytest.fixture
    def graph(self):
        design, parasitics = random_design(60, seed=3)
        return TimingGraph(
            design, parasitics, clock_period=PERIOD, input_drive_resistance=INPUT_DRIVE
        )

    def test_compiled_layout_matches_rebuild(self, graph):
        assert_layout_matches_rebuild(graph.db)

    def test_size_change_shifts_later_trees(self, graph):
        db = graph.db
        net = db.timed_nets()[0]
        loads = [str(load) for load in db.nets[net].loads]
        # Node 1 of every stage tree carries the drive-resistance edge.
        before = db.forest._offsets[:-1] + 1
        grown = chain_parasitics(net, loads, base_size(db, net) + 4, 1.0, 0)
        graph.update_net(net, grown)
        after = db.forest._offsets[:-1] + 1
        assert (after[1:] == before[1:] + 4).all()
        assert_layout_matches_rebuild(db)

    def test_two_queued_ecos_splice_in_one_read(self, graph):
        db = graph.db
        first, last = db.timed_nets()[0], db.timed_nets()[-1]
        for net, grow in ((last, 3), (first, 2)):
            loads = [str(load) for load in db.nets[net].loads]
            db.update_net(
                net, chain_parasitics(net, loads, base_size(db, net) + grow, 1.3, 1)
            )
        assert len(db._pending) == 2
        assert_layout_matches_rebuild(db)
        assert not db._pending


class TestRepeatedNetSwaps:
    """Swaps whose nets repeat: each touched net is recompiled once, in one block."""

    @pytest.mark.parametrize("backing", ["in_ram", "store_backed"])
    @pytest.mark.parametrize("kind", sorted(REPEAT_INSTANCES))
    def test_swaps_match_a_fresh_build(self, kind, backing, tmp_path, small_shards):
        design, parasitics = eco_design(7)
        store_dir = None if backing == "in_ram" else str(tmp_path / "eco")
        db = DesignDB(
            design, dict(parasitics), input_drive_resistance=INPUT_DRIVE, store_dir=store_dir
        )
        graph = TimingGraph(db, clock_period=PERIOD)
        graph.arrivals_matrix
        name = REPEAT_INSTANCES[kind]
        connections = db.instances[name].connections
        expected = list(dict.fromkeys(connections[pin] for pin in ("A", "B", "Y")))
        assert len(expected) == (2 if kind == "shared_inputs" else 3)
        blocks = []
        recompile = db._recompile
        db._recompile = lambda entries: (
            blocks.append([entry.net for entry in entries]),
            recompile(entries),
        )
        for step, strength in enumerate(("2", "4", "1")):
            graph.resize_instance(name, LIBRARY[f"NAND2_X{strength}"])
            assert blocks[-1] == expected  # one block, each net once
            fresh_dir = None if store_dir is None else str(tmp_path / f"fresh{step}")
            fresh = DesignDB(
                design, parasitics, input_drive_resistance=INPUT_DRIVE, store_dir=fresh_dir
            )
            assert_matches_fresh(graph, TimingGraph(fresh, clock_period=PERIOD), True)
            if fresh.store is not None:
                fresh.store.close()
        assert len(blocks) == 3
        if db.store is not None:
            db.store.close()
