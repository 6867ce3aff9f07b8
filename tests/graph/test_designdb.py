"""Tests for the design database (batched stage-tree ingest)."""

import numpy as np
import pytest

from repro.core.exceptions import AnalysisError, ElementValueError
from repro.core.networks import rc_ladder
from repro.graph import DesignDB, NetModel
from repro.spef.writer import tree_to_spef
from repro.sta.cells import standard_cell_library
from repro.sta.netlist import Design
from repro.sta.parasitics import lumped, rc_tree_parasitics
from tests.graph.analyzer_oracle import stage_characteristic_times


@pytest.fixture
def library():
    return standard_cell_library()


@pytest.fixture
def design(library):
    design = Design("db")
    design.add_clock("clk")
    design.add_primary_input("din")
    design.add_primary_output("dout")
    design.add_instance("ff", library["DFF_X1"], D="din", CK="clk", Q="q")
    design.add_instance("u1", library["INV_X1"], A="q", Y="n1")
    design.add_instance("u2", library["NAND2_X1"], A="n1", B="q", Y="dout")
    return design


@pytest.fixture
def parasitics():
    tree = rc_ladder(4, 300.0, 15e-15)
    return {
        "n1": rc_tree_parasitics("n1", tree, {"u2/A": "out"}),
        "q": lumped("q", 8e-15),
    }


class TestCompilation:
    def test_timed_nets_exclude_clock_and_loadless(self, design, parasitics):
        db = DesignDB(design, parasitics)
        timed = set(db.timed_nets())
        assert "clk" not in timed
        assert timed == {"din", "q", "n1", "dout"}

    def test_sink_table_rows_follow_net_loads(self, design, parasitics):
        db = DesignDB(design, parasitics)
        window = db.sink_rows("q")
        pins = db.sinks.pins[window]
        assert set(pins) == {"u1/A", "u2/B"}

    def test_sink_times_match_per_net_stage_analysis(self, design, parasitics, library):
        db = DesignDB(design, parasitics)
        stage = stage_characteristic_times(
            library["INV_X1"],
            parasitics["n1"],
            {"u2/A": library["NAND2_X1"].input_capacitance},
        )
        window = db.sink_rows("n1")
        row = window.start + list(db.sinks.pins[window]).index("u2/A")
        want = stage.pin_times["u2/A"]
        assert db.sinks.tde[row] == pytest.approx(want.tde, rel=1e-12)
        assert db.sinks.tre[row] == pytest.approx(want.tre, rel=1e-12)
        assert db.sinks.tp[row] == pytest.approx(want.tp, rel=1e-12)

    def test_forest_covers_every_timed_net(self, design, parasitics):
        db = DesignDB(design, parasitics)
        assert len(db.forest) == len(db.timed_nets())

    def test_zero_capacitance_net_is_dead(self, library):
        design = Design("dead")
        design.add_primary_input("a")
        design.add_primary_output("y")
        design.add_instance("g", library["INV_X1"], A="a", Y="y")
        db = DesignDB(design)
        # Net "a" drives only the gate input cap; net "y" has a port load of
        # zero capacitance and no wire -> dead.
        window = db.sink_rows("y")
        assert not db.sinks.live[window].any()
        assert db.sinks.tde[window] == pytest.approx(0.0)


class TestIncremental:
    def test_update_net_rewrites_only_its_rows(self, design, parasitics):
        db = DesignDB(design, parasitics)
        before = db.sinks.tde.copy()
        window = db.update_net("q", lumped("q", 40e-15))
        after = db.sinks.tde
        outside = np.ones(len(after), dtype=bool)
        outside[window] = False
        np.testing.assert_array_equal(after[outside], before[outside])
        assert (after[window] > before[window]).all()

    def test_update_net_matches_fresh_database(self, design, parasitics):
        db = DesignDB(design, parasitics)
        edit = rc_tree_parasitics(
            "n1", rc_ladder(6, 700.0, 30e-15), {"u2/A": "out"}
        )
        db.update_net("n1", edit)
        fresh = DesignDB(design, {**parasitics, "n1": edit})
        for net in db.timed_nets():
            w1, w2 = db.sink_rows(net), fresh.sink_rows(net)
            np.testing.assert_allclose(
                db.sinks.tde[w1], fresh.sinks.tde[w2], rtol=1e-12
            )

    def test_update_net_rejects_wrong_net_name(self, design, parasitics):
        db = DesignDB(design, parasitics)
        with pytest.raises(AnalysisError):
            db.update_net("n1", lumped("other", 1e-15))

    def test_update_clock_net_rejected(self, design, parasitics):
        db = DesignDB(design, parasitics)
        with pytest.raises(AnalysisError):
            db.update_net("clk", lumped("clk", 1e-15))

    def test_cell_swap_touches_output_and_input_nets(self, design, parasitics, library):
        db = DesignDB(design, parasitics)
        affected = db.update_instance_cell("u1", library["INV_X4"])
        assert set(affected) == {"q", "n1"}
        assert db.instances["u1"].cell.name == "INV_X4"

    def test_cell_swap_rejects_incompatible_footprint(self, design, parasitics, library):
        db = DesignDB(design, parasitics)
        with pytest.raises(AnalysisError):
            db.update_instance_cell("u1", library["NAND2_X1"])

    def test_forest_stays_coherent_after_deferred_updates(self, design, parasitics):
        db = DesignDB(design, parasitics)
        db.update_net("q", lumped("q", 40e-15))
        forest = db.forest  # flushes the queued splice
        times = forest.solve()
        entry_window = db.sink_rows("q")
        # The forest's own solve of the spliced member agrees with the table.
        tree_index = db.timed_nets().index("q")
        member = forest.times_for(tree_index)
        assert member.total_capacitance == pytest.approx(
            float(db.sinks.total_capacitance[entry_window][0]), rel=1e-12
        )


class TestSpefIngest:
    def test_from_spef_binds_pins_and_matches_dict_path(self, design, library):
        # A resistor-only wire tree whose load leaf carries the pin's name --
        # the writer/reader round-trip preserves it exactly.
        from repro.core.tree import RCTree

        tree = RCTree("root")
        tree.add_resistor("root", "w1", 120.0)
        tree.add_capacitor("w1", 9e-15)
        tree.add_resistor("w1", "u2/A", 80.0)
        tree.add_capacitor("u2/A", 2e-15)
        tree.mark_output("u2/A")
        parasitics = {"n1": rc_tree_parasitics("n1", tree, {"u2/A": "u2/A"})}
        text = tree_to_spef({"n1": tree})

        via_spef = DesignDB.from_spef(design, text)
        via_dict = DesignDB(design, parasitics)
        w1, w2 = via_spef.sink_rows("n1"), via_dict.sink_rows("n1")
        np.testing.assert_allclose(
            via_spef.sinks.tde[w1], via_dict.sinks.tde[w2], rtol=1e-9
        )
        model = via_spef.net_model("n1")
        assert model.pin_nodes == {"u2/A": "u2/A"}

    def test_from_spef_ignores_unknown_nets(self, design):
        text = tree_to_spef({"not_in_design": rc_ladder(2, 1.0, 1e-12)})
        db = DesignDB.from_spef(design, text, default_wire_capacitance=1e-15)
        assert db.net_model("n1").base is None

    @pytest.mark.parametrize(
        "res, cap",
        [("-80", "0.009"), ("nan", "0.009"), ("80", "-0.009"), ("80", "nan")],
    )
    def test_from_spef_rejects_bad_element_values_naming_the_net(
        self, design, res, cap
    ):
        text = "\n".join(
            [
                "*C_UNIT 1 PF",
                "*R_UNIT 1 OHM",
                "*D_NET n1 0.011",
                "*CONN",
                "*I n1:DRV I",
                "*P n1/u2/A O",
                "*CAP",
                f"1 n1/w1 {cap}",
                "2 n1/u2/A 0.002",
                "*RES",
                "1 n1/root n1/w1 120",
                f"2 n1/w1 n1/u2/A {res}",
                "*END",
            ]
        )
        with pytest.raises(ElementValueError, match="'n1'"):
            DesignDB.from_spef(design, text)
