"""Tests for static timing analysis of gate-level designs (:class:`TimingGraph`)."""

import pytest

from repro.core.certify import Verdict
from repro.core.exceptions import AnalysisError
from repro.core.networks import rc_ladder
from repro.graph import TimingGraph
from repro.sta.cells import standard_cell_library
from repro.sta.delaycalc import DelayModel
from repro.sta.netlist import Design
from repro.sta.parasitics import lumped, rc_tree_parasitics


@pytest.fixture
def library():
    return standard_cell_library()


def pipeline_design(library):
    """DFF -> INV -> NAND2 -> DFF with a primary output tap."""
    design = Design("pipeline")
    design.add_clock("clk")
    design.add_primary_input("din")
    design.add_primary_output("dout")
    design.add_instance("ff_in", library["DFF_X1"], D="din", CK="clk", Q="q0")
    design.add_instance("u1", library["INV_X1"], A="q0", Y="n1")
    design.add_instance("u2", library["NAND2_X1"], A="n1", B="q0", Y="n2")
    design.add_instance("u3", library["BUF_X2"], A="n2", Y="dout")
    design.add_instance("ff_out", library["DFF_X1"], D="n2", CK="clk", Q="q1")
    design.add_primary_output("q1")
    return design


def combinational_design(library):
    design = Design("comb")
    design.add_primary_input("a")
    design.add_primary_input("b")
    design.add_primary_output("y")
    design.add_instance("g1", library["NAND2_X1"], A="a", B="b", Y="n1")
    design.add_instance("g2", library["INV_X1"], A="n1", Y="y")
    return design


class TestTimingRun:
    def test_arrival_times_increase_along_path(self, library):
        graph = TimingGraph(pipeline_design(library), clock_period=2e-9)
        report = graph.run()
        assert report.arrivals["u1/A"] < report.arrivals["u1/Y"]
        assert report.arrivals["u1/Y"] < report.arrivals["u2/Y"]

    def test_endpoints_are_outputs_and_ff_d_pins(self, library):
        graph = TimingGraph(pipeline_design(library), clock_period=2e-9)
        report = graph.run()
        assert set(report.endpoint_slacks) == {"dout", "q1", "ff_in/D", "ff_out/D"}

    def test_worst_slack_matches_minimum(self, library):
        graph = TimingGraph(pipeline_design(library), clock_period=2e-9)
        report = graph.run()
        assert report.worst_slack == pytest.approx(min(report.endpoint_slacks.values()))
        assert report.endpoint_slacks[report.worst_endpoint] == report.worst_slack

    def test_critical_path_starts_at_startpoint_and_ends_at_worst_endpoint(self, library):
        graph = TimingGraph(pipeline_design(library), clock_period=2e-9)
        report = graph.run()
        assert report.critical_path[0].arc == "startpoint"
        assert report.critical_path[-1].location == report.worst_endpoint

    def test_meets_timing_depends_on_period(self, library):
        design = pipeline_design(library)
        fast_clock = TimingGraph(design, clock_period=1e-12).run()
        slow_clock = TimingGraph(design, clock_period=1e-6).run()
        assert not fast_clock.meets_timing
        assert slow_clock.meets_timing

    def test_describe_mentions_slack(self, library):
        report = TimingGraph(pipeline_design(library), clock_period=2e-9).run()
        assert "worst slack" in report.describe()

    def test_combinational_design(self, library):
        report = TimingGraph(combinational_design(library), clock_period=1e-9).run()
        assert set(report.endpoint_slacks) == {"y"}
        assert report.meets_timing


class TestParasiticsEffect:
    def test_heavier_net_lowers_slack(self, library):
        design = pipeline_design(library)
        light = TimingGraph(design, {"n2": lumped("n2", 1e-15)}, clock_period=2e-9).run()
        heavy = TimingGraph(design, {"n2": lumped("n2", 500e-15)}, clock_period=2e-9).run()
        assert heavy.worst_slack < light.worst_slack

    def test_rc_tree_parasitics_used(self, library):
        design = pipeline_design(library)
        tree = rc_ladder(5, 500.0, 20e-15)
        parasitics = {"n2": rc_tree_parasitics("n2", tree, {"u3/A": "out", "ff_out/D": "s1"})}
        report = TimingGraph(design, parasitics, clock_period=2e-9).run()
        # u3 is bound to the far end of the ladder, ff_out to the near end.
        net_delay_to_u3 = report.arrivals["u3/A"] - report.arrivals["u2/Y"]
        net_delay_to_ff = report.arrivals["ff_out/D"] - report.arrivals["u2/Y"]
        assert net_delay_to_u3 > net_delay_to_ff

    def test_default_wire_capacitance_applied(self, library):
        design = pipeline_design(library)
        without = TimingGraph(design, clock_period=2e-9).run()
        with_default = TimingGraph(
            design, clock_period=2e-9, default_wire_capacitance=100e-15
        ).run()
        assert with_default.worst_slack < without.worst_slack


class TestDelayModels:
    def test_upper_bound_never_faster_than_lower_bound(self, library):
        design = pipeline_design(library)
        parasitics = {"n2": rc_tree_parasitics("n2", rc_ladder(5, 500.0, 20e-15), {"u3/A": "out"})}
        graph = TimingGraph(design, parasitics, clock_period=2e-9)
        upper = graph.run(DelayModel.UPPER_BOUND)
        lower = graph.run(DelayModel.LOWER_BOUND)
        assert upper.worst_slack <= lower.worst_slack + 1e-15


class TestCertification:
    def test_pass_fail_and_indeterminate(self, library):
        design = pipeline_design(library)
        parasitics = {"n2": rc_tree_parasitics("n2", rc_ladder(5, 2000.0, 100e-15), {"u3/A": "out"})}
        assert TimingGraph(design, parasitics, clock_period=1e-6).certify() is Verdict.PASS
        assert TimingGraph(design, parasitics, clock_period=1e-12).certify() is Verdict.FAIL

    def test_indeterminate_when_bounds_straddle_period(self, library):
        design = pipeline_design(library)
        parasitics = {
            "n2": rc_tree_parasitics("n2", rc_ladder(8, 5000.0, 300e-15), {"u3/A": "out"})
        }
        graph = TimingGraph(design, parasitics, clock_period=1e-9, threshold=0.5)
        upper = graph.run(DelayModel.UPPER_BOUND)
        lower = graph.run(DelayModel.LOWER_BOUND)
        # Pick a period strictly between the two worst arrivals to force the
        # indeterminate verdict.
        worst_upper_arrival = graph.clock_period - upper.worst_slack
        worst_lower_arrival = graph.clock_period - lower.worst_slack
        period = 0.5 * (worst_upper_arrival + worst_lower_arrival)
        middle = TimingGraph(design, parasitics, clock_period=period, threshold=0.5)
        assert middle.certify() is Verdict.INDETERMINATE


class TestValidation:
    def test_zero_period_rejected(self, library):
        with pytest.raises(AnalysisError):
            TimingGraph(combinational_design(library), clock_period=0.0)

    def test_combinational_loop_detected(self, library):
        design = Design("loop")
        design.add_primary_output("y")
        design.add_instance("g1", library["INV_X1"], A="n2", Y="n1")
        design.add_instance("g2", library["INV_X1"], A="n1", Y="n2")
        design.add_instance("g3", library["INV_X1"], A="n2", Y="y")
        with pytest.raises(AnalysisError):
            TimingGraph(design, clock_period=1e-9)
