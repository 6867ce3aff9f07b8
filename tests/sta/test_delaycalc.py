"""Tests for stage delay calculation, on designs with one net under test.

The net ``n`` runs from its driver -- the output ``u1/Y`` of a cell fed by
the input port ``a``, or the input port ``n`` itself -- to the ``A`` pins
of its load instances ``s0``, ``s1``, ...  Its Elmore times are read from
the database's sink table, its delays under every model from the
:class:`~repro.graph.TimingGraph` arrivals across the net arc.
"""

import math

import pytest

from repro.core.networks import rc_ladder
from repro.graph import TimingGraph
from repro.sta.cells import standard_cell_library
from repro.sta.delaycalc import DelayModel
from repro.sta.netlist import Design
from repro.sta.parasitics import lumped, rc_tree_parasitics


@pytest.fixture
def library():
    return standard_cell_library()


def stage_graph(library, driver, parasitics, loads=("INV_X1",), *, output_port=False, **options):
    """The timing graph of a design whose net under test is ``n``.

    ``driver`` is the cell name of instance ``u1``, or ``None`` for an
    input-port driver; ``loads`` are the cell names of the load instances;
    ``output_port`` makes ``n`` a primary output too (a zero-capacitance
    sink).
    """
    design = Design("stage")
    if driver is None:
        design.add_primary_input("n")
    else:
        design.add_primary_input("a")
        design.add_instance("u1", library[driver], A="a", Y="n")
    for index, cell in enumerate(loads):
        design.add_instance(f"s{index}", library[cell], A="n", Y=f"y{index}")
    if output_port:
        design.add_primary_output("n")
    return TimingGraph(design, {"n": parasitics}, **options)


def wire_delay(graph, pin, model=DelayModel.ELMORE):
    """Delay of the net arc from ``n``'s driver to sink ``pin``."""
    arrivals = graph.arrivals(model)
    return arrivals[pin] - arrivals[str(graph.db.nets["n"].driver)]


def sink_row(graph, pin):
    """``pin``'s row of the database's sink table."""
    window = graph.db.sink_rows("n")
    return window.start + list(graph.db.sinks.pins[window]).index(pin)


class TestLumpedStage:
    def test_elmore_delay_is_r_times_c(self, library):
        inv = library["INV_X1"]
        graph = stage_graph(library, "INV_X1", lumped("n", 10e-15))
        expected = inv.drive_resistance * (10e-15 + inv.input_capacitance)
        assert graph.db.sinks.tde[sink_row(graph, "s0/A")] == pytest.approx(expected)
        assert wire_delay(graph, "s0/A") == pytest.approx(expected)
        arrivals = graph.arrivals()
        assert arrivals["u1/Y"] - arrivals["u1/A"] == pytest.approx(inv.intrinsic_delay)
        assert arrivals["s0/A"] - arrivals["u1/A"] == pytest.approx(
            inv.intrinsic_delay + expected
        )

    def test_bound_models_give_log_form_for_single_rc(self, library):
        inv = library["INV_X1"]
        graph = stage_graph(library, "INV_X1", lumped("n", 10e-15), threshold=0.5)
        exact = inv.drive_resistance * (10e-15 + inv.input_capacitance) * math.log(2.0)
        upper = wire_delay(graph, "s0/A", DelayModel.UPPER_BOUND)
        lower = wire_delay(graph, "s0/A", DelayModel.LOWER_BOUND)
        assert upper == pytest.approx(exact, rel=1e-9)
        assert lower == pytest.approx(exact, rel=1e-9)

    def test_stronger_driver_is_faster(self, library):
        weak = stage_graph(library, "INV_X1", lumped("n", 20e-15))
        strong = stage_graph(library, "INV_X4", lumped("n", 20e-15))
        assert wire_delay(strong, "s0/A") < wire_delay(weak, "s0/A")

    def test_zero_capacitance_stage(self, library):
        graph = stage_graph(library, "INV_X1", lumped("n", 0.0), loads=(), output_port=True)
        assert graph.db.sinks.total_capacitance[sink_row(graph, "n")] == 0.0
        for model in DelayModel:
            assert graph.arrivals(model)["n"] == graph.arrivals(model)["u1/Y"]

    def test_ideal_port_driver(self, library):
        graph = stage_graph(library, None, lumped("n", 10e-15))
        # A port has no gate delay, and near-zero source resistance.
        assert graph.arrivals()["n"] == 0.0
        assert wire_delay(graph, "s0/A") < 1e-18


class TestDistributedStage:
    def test_sink_binding_affects_delay(self, library):
        tree = rc_ladder(4, 200.0, 10e-15)
        near = stage_graph(library, "INV_X1", rc_tree_parasitics("n", tree, {"s0/A": "s1"}))
        far = stage_graph(library, "INV_X1", rc_tree_parasitics("n", tree, {"s0/A": "out"}))
        assert wire_delay(far, "s0/A") > wire_delay(near, "s0/A")

    def test_unbound_pin_defaults_to_far_leaf(self, library):
        tree = rc_ladder(4, 200.0, 10e-15)
        implicit = stage_graph(library, "INV_X1", rc_tree_parasitics("n", tree, {}))
        explicit = stage_graph(
            library, "INV_X1", rc_tree_parasitics("n", tree, {"s0/A": "out"})
        )
        assert wire_delay(implicit, "s0/A") == pytest.approx(wire_delay(explicit, "s0/A"))

    def test_bounds_bracket_elmore_ordering(self, library):
        tree = rc_ladder(4, 200.0, 10e-15)
        graph = stage_graph(library, "INV_X1", rc_tree_parasitics("n", tree, {"s0/A": "out"}))
        lower = wire_delay(graph, "s0/A", DelayModel.LOWER_BOUND)
        upper = wire_delay(graph, "s0/A", DelayModel.UPPER_BOUND)
        assert lower <= upper

    def test_worst_sink(self, library):
        tree = rc_ladder(4, 200.0, 10e-15)
        parasitics = rc_tree_parasitics("n", tree, {"s0/A": "s1", "s1/A": "out"})
        graph = stage_graph(library, "INV_X1", parasitics, loads=("INV_X1", "INV_X1"))
        arrivals = graph.arrivals()
        assert max(("s0/A", "s1/A"), key=arrivals.get) == "s1/A"

    def test_override_drive_resistance(self, library):
        tree = rc_ladder(2, 100.0, 10e-15)
        parasitics = rc_tree_parasitics("n", tree, {"s0/A": "out"})
        weak = stage_graph(library, None, parasitics, input_drive_resistance=10e3)
        strong = stage_graph(library, None, parasitics, input_drive_resistance=10.0)
        assert wire_delay(weak, "s0/A") > wire_delay(strong, "s0/A")
