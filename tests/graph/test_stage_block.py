"""The block stage compile is bitwise the per-net ``compile_stage`` oracle.

``DesignDB`` builds every stage tree of a design in one vectorized pass
(:func:`repro.sta.delaycalc.compile_stage_block`).  The oracle is the
per-net assembler kept in ``tests/graph/stage_oracle.py``:
``compile_stage`` per timed net, then ``FlatForest(list)`` in RAM or
``ShardStoreWriter.add_flat_tree`` per stage for a store.  The forest
arrays, the scenario layout's wire-only capacitances, every ``pin_index``
and every ``SinkTable`` column must match it bit for bit, for dict and
SPEF ingest and for in-RAM and store-backed databases.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graph.designdb as designdb
from repro.core.tree import RCTree
from repro.flat import FlatForest
from repro.generators import random_design
from repro.graph import DesignDB
from repro.spef.reader import iter_spef_nets
from repro.spef.writer import tree_to_spef
from repro.sta.cells import standard_cell_library
from repro.sta.netlist import Design
from repro.sta.parasitics import lumped, rc_tree_parasitics
from repro.store import ShardStoreWriter, StoredForest
from tests.graph.stage_oracle import compile_stage

#: A small shard size so store-backed compiles cut several blocks.
SMALL_SHARD = 48
TREE_FIELDS = ("_parent", "_depth", "_edge_r", "_edge_c", "_node_c", "_is_output")


def assert_bitwise(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def oracle_stages(db):
    """Per-net ``compile_stage`` over the database's own net models."""
    stages = []
    for net in db.timed_nets():
        model = db.net_model(net)
        stages.append(
            compile_stage(
                db.drive_resistance_of(net),
                db.sink_capacitances_of(net),
                lumped_capacitance=model.lumped_capacitance,
                base=model.base,
                pin_nodes=model.pin_nodes,
            )
        )
    return stages


def oracle_sinks(db, stages, times, offsets, position=None):
    """The sink-table columns the per-net path produced.

    ``position`` maps preorder nodes to the rows of ``times`` (a
    forest's solve numbering; a store's results are in preorder).
    """
    nets, pins, nodes, rows_tree = [], [], [], []
    for t, (net, (_, pin_index, _)) in enumerate(zip(db.timed_nets(), stages)):
        for pin, local in pin_index.items():
            nets.append(net)
            pins.append(pin)
            nodes.append(int(offsets[t]) + local)
            rows_tree.append(t)
    nodes = np.asarray(nodes, dtype=np.int64)
    if position is not None:
        nodes = position[nodes]
    rows_tree = np.asarray(rows_tree, dtype=np.int64)
    return {
        "nets": nets,
        "pins": pins,
        "tp": np.asarray(times.tp)[rows_tree],
        "tde": np.asarray(times.tde[nodes]),
        "tre": np.asarray(times.tre[nodes]),
        "total_capacitance": np.asarray(times.total_capacitance)[rows_tree],
    }


def assert_sinks_equal(db, expected):
    sinks = db.sinks
    assert sinks.nets == expected["nets"]
    assert sinks.pins == expected["pins"]
    for column in ("tp", "tde", "tre", "total_capacitance"):
        assert_bitwise(getattr(sinks, column), expected[column])


def assert_entries_equal(db, stages, offsets):
    layout = db._scenario_layout()
    for t, (net, (_, pin_index, wire_c)) in enumerate(zip(db.timed_nets(), stages)):
        entry = db._entries[net]
        assert list(entry.pin_index.items()) == list(pin_index.items())
        assert_bitwise(layout.wire_c[offsets[t] : offsets[t + 1]], wire_c)


def check_in_ram(db):
    stages = oracle_stages(db)
    if not stages:
        assert db.forest is None
        return
    oracle = FlatForest([flat for flat, _, _ in stages])
    forest = db.forest
    for name in (
        "_offsets",
        "_parent",
        "_depth",
        "_edge_r",
        "_edge_c",
        "_node_c",
        "_is_output",
        "_tree_id",
    ):
        assert_bitwise(getattr(forest, name), getattr(oracle, name))
    for t, (flat, _, _) in enumerate(stages):
        member = forest.tree(t)
        assert member.names == flat.names
        for name in TREE_FIELDS:
            assert_bitwise(getattr(member, name), getattr(flat, name))
    assert forest.output_labels() == oracle.output_labels()
    assert_entries_equal(db, stages, oracle._offsets)
    assert_sinks_equal(
        db,
        oracle_sinks(
            db, stages, oracle.solve(), oracle._offsets, oracle._plan.position
        ),
    )


def check_store(db, shard_nodes):
    stages = oracle_stages(db)
    if not stages:
        assert db.store is None
        return
    with tempfile.TemporaryDirectory() as directory:
        with ShardStoreWriter(directory, shard_nodes=shard_nodes) as writer:
            for flat, _, _ in stages:
                writer.add_flat_tree(flat)
        oracle = StoredForest(directory)
        store = db.store
        assert store.shard_count == oracle.shard_count
        assert_bitwise(store.offsets, oracle.offsets)
        for shard in range(store.shard_count):
            got, want = store.materialize(shard), oracle.materialize(shard)
            for name in ("_offsets", "_parent", "_depth", "_edge_r", "_edge_c", "_node_c"):
                assert_bitwise(getattr(got, name), getattr(want, name))
        expected = oracle_sinks(db, stages, oracle.solve(), oracle.offsets)
        offsets = oracle.offsets
        oracle.close()
    assert_entries_equal(db, stages, offsets)
    assert_sinks_equal(db, expected)


@pytest.fixture
def small_shards(monkeypatch):
    monkeypatch.setattr(designdb, "DEFAULT_SHARD_NODES", SMALL_SHARD)


# ----------------------------------------------------------------------
# Designs drawn by hypothesis
# ----------------------------------------------------------------------
LIBRARY = standard_cell_library()
CELLS = ["INV_X1", "INV_X4", "NAND2_X1", "BUF_X1"]


@st.composite
def stage_designs(draw):
    """A small design whose nets mix every binding case.

    Nets are absent (default lumped), lumped, or RC trees.  A tree's pins
    are bound to a random node (its root included), to a node shared with
    another pin, or left unbound; some nets carry primary-output port
    loads.  Some tree nodes are named after a load pin, so SPEF ingest
    binds that pin by name -- at the root as well.
    """
    design = Design("hyp")
    nets = []
    for index in range(draw(st.integers(1, 3))):
        design.add_primary_input(f"pi{index}")
        nets.append(f"pi{index}")
    for index in range(draw(st.integers(1, 6))):
        cell = LIBRARY[draw(st.sampled_from(CELLS))]
        connections = {pin: draw(st.sampled_from(nets)) for pin in cell.inputs}
        connections[cell.output] = f"n{index}"
        design.add_instance(f"u{index}", cell, **connections)
        nets.append(f"n{index}")
    for net in draw(st.lists(st.sampled_from(nets), max_size=3, unique=True)):
        design.add_primary_output(net)

    capacitance = st.floats(1e-16, 1e-13)
    parasitics, trees = {}, {}
    for name, net in design.connectivity().items():
        if net.driver is None or not net.loads:
            continue
        kind = draw(st.sampled_from(["absent", "lumped", "tree"]))
        if kind == "lumped":
            parasitics[name] = lumped(name, draw(capacitance))
        if kind != "tree":
            continue
        pins = [str(load) for load in net.loads]
        size = draw(st.integers(2, 8))
        node_names = [f"w{i}" for i in range(size)]
        for pin in pins:
            slot = draw(st.integers(-1, size - 1))
            # Name a node after a pin (SPEF binds it by name), root included.
            if slot >= 0 and "/" not in node_names[slot] and pin not in node_names:
                node_names[slot] = pin
        tree = RCTree(node_names[0])
        for i in range(1, size):
            parent = node_names[draw(st.integers(0, i - 1))]
            tree.add_resistor(parent, node_names[i], draw(st.floats(1.0, 1e3)))
            if draw(st.booleans()):
                tree.add_capacitor(node_names[i], draw(capacitance))
        if draw(st.booleans()):
            tree.add_capacitor(node_names[0], draw(capacitance))
        for leaf in tree.leaves():
            tree.mark_output(leaf)
        shared = draw(st.sampled_from(node_names))
        pin_nodes = {}
        for pin in pins:
            choice = draw(st.sampled_from(["unbound", "root", "shared", "any"]))
            if choice == "root":
                pin_nodes[pin] = node_names[0]
            elif choice == "shared":
                pin_nodes[pin] = shared
            elif choice == "any":
                pin_nodes[pin] = draw(st.sampled_from(node_names))
        parasitics[name] = rc_tree_parasitics(name, tree, pin_nodes)
        trees[name] = tree
    drive = draw(st.sampled_from([0.0, 75.0]))
    return design, parasitics, trees, drive


HYPOTHESIS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


class TestHypothesisDesigns:
    @HYPOTHESIS
    @given(case=stage_designs())
    def test_dict_ingest_in_ram(self, case):
        design, parasitics, _, drive = case
        check_in_ram(
            DesignDB(
                design,
                parasitics,
                input_drive_resistance=drive,
                default_wire_capacitance=2e-15,
            )
        )

    @HYPOTHESIS
    @given(case=stage_designs())
    def test_spef_ingest_in_ram(self, case):
        design, _, trees, drive = case
        db = DesignDB.from_spef(
            design, tree_to_spef(trees), input_drive_resistance=drive
        )
        check_in_ram(db)

    @HYPOTHESIS
    @given(case=stage_designs())
    def test_dict_ingest_store_backed(self, case, small_shards):
        design, parasitics, _, drive = case
        with tempfile.TemporaryDirectory() as directory:
            db = DesignDB(
                design,
                parasitics,
                input_drive_resistance=drive,
                store_dir=directory,
            )
            check_store(db, SMALL_SHARD)
            if db.store is not None:
                db.store.close()

    @HYPOTHESIS
    @given(case=stage_designs())
    def test_spef_ingest_store_backed(self, case, small_shards):
        design, _, trees, drive = case
        with tempfile.TemporaryDirectory() as directory:
            db = DesignDB.from_spef(
                design,
                tree_to_spef(trees),
                input_drive_resistance=drive,
                store_dir=directory,
            )
            check_store(db, SMALL_SHARD)
            if db.store is not None:
                db.store.close()


# ----------------------------------------------------------------------
# Named cases and a design-scale check
# ----------------------------------------------------------------------
@pytest.fixture
def two_pin_design():
    design = Design("pins")
    design.add_primary_input("a")
    design.add_primary_output("y")
    design.add_instance("u0", LIBRARY["INV_X1"], A="a", Y="y")
    design.add_instance("u1", LIBRARY["NAND2_X1"], A="y", B="y", Y="z")
    design.add_primary_output("z")
    return design


def _chain(names):
    tree = RCTree(names[0])
    for parent, child in zip(names, names[1:]):
        tree.add_resistor(parent, child, 100.0)
        tree.add_capacitor(child, 3e-15)
    tree.mark_output(names[-1])
    return tree


class TestBindingCases:
    def test_two_pins_on_one_node_sum_in_sink_order(self, two_pin_design):
        tree = _chain(["r", "m", "e"])
        parasitics = {"y": rc_tree_parasitics("y", tree, {"u1/A": "m", "u1/B": "m"})}
        db = DesignDB(two_pin_design, parasitics)
        check_in_ram(db)
        entry = db._entries["y"]
        assert entry.pin_index["u1/A"] == entry.pin_index["u1/B"]

    def test_unbound_pins_and_port_load_take_the_last_leaf(self, two_pin_design):
        tree = _chain(["r", "m", "e"])
        db = DesignDB(two_pin_design, {"y": rc_tree_parasitics("y", tree, {})})
        check_in_ram(db)
        last = len(db.net_model("y").base)
        assert set(db._entries["y"].pin_index.values()) == {last}

    def test_pin_bound_to_base_root_lands_behind_the_driver(self, two_pin_design):
        tree = _chain(["r", "m", "e"])
        parasitics = {"y": rc_tree_parasitics("y", tree, {"u1/A": "r"})}
        db = DesignDB(two_pin_design, parasitics)
        check_in_ram(db)
        assert db._entries["y"].pin_index["u1/A"] == 1

    def test_lumped_and_default_nets(self, two_pin_design):
        db = DesignDB(
            two_pin_design, {"y": lumped("y", 5e-15)}, default_wire_capacitance=1e-15
        )
        check_in_ram(db)

    def test_spef_base_trees_match_the_reader_conversion(self):
        design, parasitics = random_design(200, seed=5)
        text = tree_to_spef(
            {n: p.tree for n, p in parasitics.items() if p.tree is not None}
        )
        db = DesignDB.from_spef(design, text)
        for record in iter_spef_nets(text):
            want = record.to_flat_tree()
            got = db.net_model(record.name).base
            assert got.names == want.names
            for name in TREE_FIELDS:
                assert_bitwise(getattr(got, name), getattr(want, name))


class TestDesignScale:
    @pytest.fixture(scope="class")
    def workload(self):
        return random_design(5000, seed=11)

    def test_dict_ingest_in_ram(self, workload):
        design, parasitics = workload
        check_in_ram(DesignDB(design, parasitics, input_drive_resistance=40.0))

    def test_spef_ingest_in_ram(self, workload):
        design, parasitics = workload
        text = tree_to_spef(
            {n: p.tree for n, p in parasitics.items() if p.tree is not None}
        )
        check_in_ram(DesignDB.from_spef(design, text))

    def test_store_backed_chunks(self, workload, tmp_path, monkeypatch):
        monkeypatch.setattr(designdb, "DEFAULT_SHARD_NODES", 4096)
        design, parasitics = workload
        db = DesignDB(design, parasitics, store_dir=str(tmp_path / "store"))
        assert db.store.shard_count > 1
        check_store(db, 4096)
        db.store.close()
