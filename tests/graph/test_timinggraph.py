"""Tests for the levelized array timing engine (vs the per-vertex analyzer oracle)."""

import numpy as np
import pytest

from repro.core.certify import Verdict
from repro.core.exceptions import AnalysisError
from repro.core.networks import rc_ladder
from repro.generators import random_design
from repro.graph import DesignDB, TimingGraph
from repro.sta.cells import standard_cell_library
from repro.sta.delaycalc import DelayModel
from repro.sta.netlist import Design
from repro.sta.parasitics import lumped, rc_tree_parasitics
from tests.graph.analyzer_oracle import TimingAnalyzer

MODELS = (DelayModel.ELMORE, DelayModel.UPPER_BOUND, DelayModel.LOWER_BOUND)


@pytest.fixture
def library():
    return standard_cell_library()


def pipeline_design(library):
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


def pipeline_parasitics():
    return {
        "n2": rc_tree_parasitics(
            "n2", rc_ladder(5, 500.0, 20e-15), {"u3/A": "out", "ff_out/D": "s1"}
        ),
        "n1": lumped("n1", 5e-15),
    }


def assert_parity(graph, design, parasitics, clock_period, rtol=1e-12):
    for model in MODELS:
        legacy = TimingAnalyzer(design, parasitics, clock_period=clock_period).run(model)
        mine = graph.arrivals(model)
        for pin, want in legacy.arrivals.items():
            assert mine[pin] == pytest.approx(want, rel=rtol, abs=1e-30), (model, pin)
        slacks = graph.endpoint_slacks(model)
        assert set(slacks) == set(legacy.endpoint_slacks)
        for endpoint, want in legacy.endpoint_slacks.items():
            assert slacks[endpoint] == pytest.approx(want, rel=rtol, abs=1e-30)
        assert graph.worst_slack(model) == pytest.approx(legacy.worst_slack, rel=rtol)


class TestParity:
    def test_pipeline_matches_legacy_all_models(self, library):
        design = pipeline_design(library)
        parasitics = pipeline_parasitics()
        graph = TimingGraph(design, parasitics, clock_period=2e-9)
        assert_parity(graph, design, parasitics, 2e-9)

    def test_random_design_matches_legacy(self):
        design, parasitics = random_design(150, seed=4)
        graph = TimingGraph(design, parasitics, clock_period=3e-9)
        assert_parity(graph, design, parasitics, 3e-9)

    def test_verdict_matches_legacy(self, library):
        design = pipeline_design(library)
        parasitics = pipeline_parasitics()
        for period in (1e-6, 1e-12, 0.45e-9):
            graph = TimingGraph(design, parasitics, clock_period=period)
            legacy = TimingAnalyzer(design, parasitics, clock_period=period)
            assert graph.certify() is legacy.certify()

    def test_all_three_verdicts_reachable(self, library):
        design = pipeline_design(library)
        parasitics = pipeline_parasitics()
        assert TimingGraph(design, parasitics, clock_period=1e-6).certify() is Verdict.PASS
        assert TimingGraph(design, parasitics, clock_period=1e-12).certify() is Verdict.FAIL
        slow = TimingGraph(design, parasitics, clock_period=1e-6)
        upper = 1e-6 - slow.worst_slack(DelayModel.UPPER_BOUND)
        lower = 1e-6 - slow.worst_slack(DelayModel.LOWER_BOUND)
        middle = 0.5 * (upper + lower)
        assert TimingGraph(design, parasitics, clock_period=middle).certify() is Verdict.INDETERMINATE


class TestReports:
    def test_run_produces_legacy_shaped_report(self, library):
        design = pipeline_design(library)
        graph = TimingGraph(design, pipeline_parasitics(), clock_period=2e-9)
        report = graph.run(DelayModel.UPPER_BOUND)
        assert report.critical_path[0].arc == "startpoint"
        assert report.critical_path[-1].location == report.worst_endpoint
        assert "worst slack" in report.describe()

    def test_critical_path_arrivals_are_consistent(self, library):
        design = pipeline_design(library)
        graph = TimingGraph(design, pipeline_parasitics(), clock_period=2e-9)
        path = graph.critical_path(DelayModel.ELMORE)
        total = 0.0
        for segment in path:
            total += segment.incremental_delay
            assert segment.arrival == pytest.approx(total, rel=1e-12)

    def test_pin_slacks_cover_every_vertex(self, library):
        design = pipeline_design(library)
        graph = TimingGraph(design, pipeline_parasitics(), clock_period=2e-9)
        slacks = graph.pin_slacks(DelayModel.ELMORE)
        assert set(slacks) == set(graph.vertex_names)
        # Every endpoint pin's slack equals the endpoint-slack report.
        endpoint_slacks = graph.endpoint_slacks(DelayModel.ELMORE)
        for endpoint, want in endpoint_slacks.items():
            assert slacks[endpoint] <= want + 1e-24

    def test_summary_is_json_friendly(self, library):
        import json

        design = pipeline_design(library)
        graph = TimingGraph(design, pipeline_parasitics(), clock_period=2e-9)
        payload = json.loads(json.dumps(graph.summary().to_dict()))
        assert payload["verdict"] in ("PASS", "FAIL", "INDETERMINATE")
        assert set(payload["worst_slack"]) == {"elmore", "upper_bound", "lower_bound"}
        assert payload["critical_path"][0]["arc"] == "startpoint"


class TestIncremental:
    def test_update_net_matches_fresh_graph_and_legacy(self, library):
        design = pipeline_design(library)
        parasitics = pipeline_parasitics()
        graph = TimingGraph(design, parasitics, clock_period=2e-9)
        graph.arrivals_matrix
        edit = rc_tree_parasitics(
            "n2", rc_ladder(5, 1200.0, 45e-15), {"u3/A": "out", "ff_out/D": "s1"}
        )
        cone = graph.update_net("n2", edit)
        assert cone > 0
        parasitics["n2"] = edit
        assert_parity(graph, design, parasitics, 2e-9)

    def test_update_before_first_solve_is_fine(self, library):
        design = pipeline_design(library)
        parasitics = pipeline_parasitics()
        graph = TimingGraph(design, parasitics, clock_period=2e-9)
        graph.update_net("n1", lumped("n1", 50e-15))
        parasitics["n1"] = lumped("n1", 50e-15)
        assert_parity(graph, design, parasitics, 2e-9)

    def test_no_change_edit_stops_at_the_cone_seeds(self, library):
        design = pipeline_design(library)
        parasitics = pipeline_parasitics()
        graph = TimingGraph(design, parasitics, clock_period=2e-9)
        graph.arrivals_matrix
        cone = graph.update_net("n1", lumped("n1", 5e-15))  # identical value
        # Only the direct sinks are re-evaluated; nothing propagates.
        assert cone == 1

    def test_resize_instance_matches_fresh_graph(self, library):
        design = pipeline_design(library)
        parasitics = pipeline_parasitics()
        graph = TimingGraph(design, parasitics, clock_period=2e-9)
        graph.arrivals_matrix
        graph.resize_instance("u3", library["BUF_X4"])
        assert_parity(graph, design, parasitics, 2e-9)

    def test_resize_refreshes_arc_labels(self, library):
        design = pipeline_design(library)
        graph = TimingGraph(design, pipeline_parasitics(), clock_period=2e-9)
        graph.resize_instance("u2", library["NAND2_X2"])
        arcs = {
            segment.arc
            for segment in graph.critical_path(DelayModel.ELMORE)
        } | {arc for arc in graph._edge_arcs}
        assert any(arc.startswith("NAND2_X2 ") for arc in graph._edge_arcs)
        assert not any(arc.startswith("NAND2_X1 ") for arc in graph._edge_arcs)

    def test_same_instance_can_be_resized_repeatedly(self, library):
        design = pipeline_design(library)
        graph = TimingGraph(design, pipeline_parasitics(), clock_period=2e-9)
        graph.resize_instance("u1", library["INV_X2"])
        graph.resize_instance("u1", library["INV_X4"])
        assert any(arc.startswith("INV_X4 ") for arc in graph._edge_arcs)
        assert_parity(graph, design, pipeline_parasitics(), 2e-9)

    def test_required_times_refresh_after_update(self, library):
        design = pipeline_design(library)
        parasitics = pipeline_parasitics()
        graph = TimingGraph(design, parasitics, clock_period=2e-9)
        before = dict(graph.pin_slacks(DelayModel.ELMORE))
        graph.update_net("n2", lumped("n2", 200e-15))
        after = graph.pin_slacks(DelayModel.ELMORE)
        assert after["u2/Y"] < before["u2/Y"]


class TestValidation:
    def test_combinational_loop_detected(self, library):
        design = Design("loop")
        design.add_primary_output("y")
        design.add_instance("g1", library["INV_X1"], A="n2", Y="n1")
        design.add_instance("g2", library["INV_X1"], A="n1", Y="n2")
        design.add_instance("g3", library["INV_X1"], A="n2", Y="y")
        with pytest.raises(AnalysisError):
            TimingGraph(design, clock_period=1e-9)

    def test_zero_period_rejected(self, library):
        with pytest.raises(AnalysisError):
            TimingGraph(pipeline_design(library), clock_period=0.0)

    def test_parasitics_cannot_be_passed_twice(self, library):
        design = pipeline_design(library)
        db = DesignDB(design)
        with pytest.raises(AnalysisError):
            TimingGraph(db, {"n1": lumped("n1", 1e-15)})
