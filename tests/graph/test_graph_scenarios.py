"""Scenario-batched DesignDB/TimingGraph vs per-scenario single-engine runs."""

import numpy as np
import pytest

from repro.generators import random_design
from repro.graph import DesignDB, TimingGraph
from repro.scenarios import (
    Scenario,
    ScenarioSet,
    scaled_design,
    scaled_parasitics,
)
from repro.core.exceptions import AnalysisError
from repro.sta.cells import standard_cell_library
from repro.sta.delaycalc import DelayModel
from repro.sta.netlist import Design
from repro.sta.parasitics import lumped
from tests.graph.whatif_oracle import full_forest_whatif

MODELS = (DelayModel.ELMORE, DelayModel.UPPER_BOUND, DelayModel.LOWER_BOUND)
PERIOD = 1.6e-9
THRESHOLD = 0.5
INPUT_DRIVE = 120.0

SCENARIOS = ScenarioSet(
    [
        Scenario("nom"),
        Scenario("slow", r_derate=1.25, c_derate=1.2, drive_derate=1.3),
        Scenario("fast", r_derate=0.8, c_derate=0.85, drive_derate=0.75),
        Scenario("tight", threshold=0.7, clock_period=2.4e-9),
        Scenario("netted", net_scale={"n4": 1.6, "n11": 0.6}),
    ]
)


def reference_graph(design, parasitics, scenario):
    """The single-scenario engine on scenario-materialized inputs."""
    return TimingGraph(
        scaled_design(design, scenario),
        {
            name: scaled_parasitics(record, scenario)
            for name, record in parasitics.items()
        },
        clock_period=scenario.clock_period or PERIOD,
        threshold=THRESHOLD if scenario.threshold is None else scenario.threshold,
        input_drive_resistance=INPUT_DRIVE * scenario.drive_derate,
    )


@pytest.fixture(scope="module")
def workload():
    design, parasitics = random_design(48, seed=21, sequential_fraction=0.2)
    graph = TimingGraph(
        design,
        dict(parasitics),
        clock_period=PERIOD,
        threshold=THRESHOLD,
        input_drive_resistance=INPUT_DRIVE,
    )
    return design, parasitics, graph


class TestDesignDBScenarios:
    def test_sink_table_matches_per_scenario_databases(self, workload):
        design, parasitics, graph = workload
        table = graph.db.solve_scenarios(SCENARIOS)
        assert table.scenario_count == len(SCENARIOS)
        assert table.nets == graph.db.sinks.nets
        for index, scenario in enumerate(SCENARIOS):
            reference = DesignDB(
                scaled_design(design, scenario),
                {
                    name: scaled_parasitics(record, scenario)
                    for name, record in parasitics.items()
                },
                input_drive_resistance=INPUT_DRIVE * scenario.drive_derate,
            ).sinks
            np.testing.assert_allclose(
                table.tde[index], reference.tde, rtol=1e-12, atol=0
            )
            np.testing.assert_allclose(
                table.tre[index], reference.tre, rtol=1e-12, atol=0
            )
            np.testing.assert_allclose(table.tp[index], reference.tp, rtol=1e-12, atol=0)

    def test_nominal_row_equals_single_scenario_table(self, workload):
        _, _, graph = workload
        table = graph.db.solve_scenarios(ScenarioSet([Scenario("nom")]))
        np.testing.assert_allclose(
            table.tde[0], graph.db.sinks.tde, rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(table.tp[0], graph.db.sinks.tp, rtol=1e-12, atol=0)


class TestTimingGraphScenarios:
    def test_worst_slack_and_verdicts_match_loop(self, workload):
        design, parasitics, graph = workload
        report = graph.analyze_scenarios(SCENARIOS)
        for index, scenario in enumerate(SCENARIOS):
            reference = reference_graph(design, parasitics, scenario)
            for column, model in enumerate(MODELS):
                want = reference.worst_slack(model)
                got = report.worst_slack[index, column]
                assert abs(got - want) <= 1e-12 * max(abs(want), 1e-18), (
                    scenario.name,
                    model,
                )
            assert report.verdicts[index] == reference.certify().name

    def test_critical_paths_match_loop(self, workload):
        design, parasitics, graph = workload
        report = graph.analyze_scenarios(SCENARIOS)
        for index, scenario in enumerate(SCENARIOS):
            reference = reference_graph(design, parasitics, scenario)
            want = reference.critical_path(DelayModel.UPPER_BOUND)
            got = report.critical_paths[index]
            assert [segment.location for segment in got] == [
                segment.location for segment in want
            ]
            assert [segment.arc for segment in got] == [segment.arc for segment in want]

    def test_report_helpers(self, workload):
        _, _, graph = workload
        report = graph.analyze_scenarios(SCENARIOS)
        assert report.scenario_count == len(SCENARIOS)
        worst = report.worst_scenario(DelayModel.UPPER_BOUND)
        assert report.worst_slack_of(worst) == report.worst_slack[worst, 1]
        assert report.worst_slack_of("slow") == report.worst_slack[1, 1]
        payload = report.to_dict()
        assert len(payload["scenarios"]) == len(SCENARIOS)
        assert payload["verdict"] == report.overall_verdict
        assert payload["scenarios"][3]["clock_period"] == pytest.approx(2.4e-9)

    def test_scenario_analysis_after_incremental_edits(self, workload):
        design, parasitics, graph = workload
        graph.arrivals_matrix  # solve before editing
        edited = dict(parasitics)
        nets = graph.db.timed_nets()
        for net, capacitance in ((nets[2], 5e-14), (nets[7], 1e-15)):
            edit = lumped(net, capacitance)
            edited[net] = edit
            graph.update_net(net, edit)
        report = graph.analyze_scenarios(SCENARIOS)
        for index, scenario in enumerate(SCENARIOS):
            reference = reference_graph(design, edited, scenario)
            for column, model in enumerate(MODELS):
                want = reference.worst_slack(model)
                got = report.worst_slack[index, column]
                assert abs(got - want) <= 1e-12 * max(abs(want), 1e-18)

    def test_scenario_pin_slacks_shape_and_nominal_row(self, workload):
        _, _, graph = workload
        slacks = graph.scenario_pin_slacks(SCENARIOS, DelayModel.UPPER_BOUND)
        single = graph.pin_slacks(DelayModel.UPPER_BOUND)
        for pin, values in slacks.items():
            assert values.shape == (len(SCENARIOS),)
            want = single[pin]
            if np.isfinite(want):
                assert values[0] == pytest.approx(want, rel=1e-12)
            else:
                assert not np.isfinite(values[0])


class TestWhatIfSwaps:
    def test_whatif_matches_actual_swap(self, workload):
        from repro.opt.sizing import next_drive_strength
        from repro.sta.cells import standard_cell_library

        design, parasitics, _ = workload
        library = standard_cell_library()
        graph = TimingGraph(
            design,
            dict(parasitics),
            clock_period=PERIOD,
            threshold=THRESHOLD,
            input_drive_resistance=INPUT_DRIVE,
        )
        swaps = []
        for name, record in sorted(graph.db.instances.items()):
            stronger = next_drive_strength(record.cell, library)
            if stronger is not None:
                swaps.append((name, stronger))
            if len(swaps) == 5:
                break
        predicted = graph.whatif_resize_worst_slack(swaps, DelayModel.UPPER_BOUND)
        before = {name: graph.db.instances[name].cell for name, _ in swaps}
        for index, (name, cell) in enumerate(swaps):
            trial = TimingGraph(
                design,
                dict(parasitics),
                clock_period=PERIOD,
                threshold=THRESHOLD,
                input_drive_resistance=INPUT_DRIVE,
            )
            trial.resize_instance(name, cell)
            want = trial.worst_slack(DelayModel.UPPER_BOUND)
            assert predicted[index] == pytest.approx(want, rel=1e-9)
            trial.resize_instance(name, before[name])  # restore shared Instance

    def test_whatif_sees_clock_pin_load_on_timed_net(self):
        """A DFF clocked from a gate output (a *timed* net) presents its
        input capacitance there; the batched what-if must apply the swap's
        capacitance delta on that net exactly like resize_instance does."""
        from repro.sta.cells import standard_cell_library
        from repro.sta.netlist import Design
        from repro.sta.parasitics import lumped

        library = standard_cell_library()
        design = Design("gated_clock")
        design.add_primary_input("pi")
        design.add_primary_input("d")
        design.add_instance("u_gate", library["BUF_X1"], A="pi", Y="g")
        design.add_instance("u_ff", library["DFF_X1"], D="d", CK="g", Q="q")
        design.add_instance("u_sink", library["INV_X1"], A="q", Y="out")
        design.add_primary_output("out")
        parasitics = {
            net: lumped(net, 2e-14) for net in ("pi", "d", "g", "q", "out")
        }
        graph = TimingGraph(
            design,
            dict(parasitics),
            clock_period=PERIOD,
            input_drive_resistance=INPUT_DRIVE,
        )
        assert "g" in graph.db.timed_nets()  # the clock pin's net is timed
        swaps = [("u_ff", library["DFF_X2"])]
        predicted = graph.whatif_resize_worst_slack(swaps, DelayModel.UPPER_BOUND)
        trial = TimingGraph(
            design,
            dict(parasitics),
            clock_period=PERIOD,
            input_drive_resistance=INPUT_DRIVE,
        )
        trial.resize_instance("u_ff", library["DFF_X2"])
        want = trial.worst_slack(DelayModel.UPPER_BOUND)
        trial.resize_instance("u_ff", library["DFF_X1"])  # restore shared cell
        assert predicted[0] == pytest.approx(want, rel=1e-9)

    def test_unknown_net_scale_is_rejected(self, workload):
        _, _, graph = workload
        from repro.core.exceptions import AnalysisError

        with pytest.raises(AnalysisError, match="no_such_net"):
            graph.db.solve_scenarios(
                ScenarioSet([Scenario("typo", net_scale={"no_such_net": 2.0})])
            )

    def test_whatif_does_not_mutate(self, workload):
        from repro.opt.sizing import next_drive_strength
        from repro.sta.cells import standard_cell_library

        _, _, graph = workload
        library = standard_cell_library()
        before = graph.worst_slack(DelayModel.UPPER_BOUND)
        cells = {
            name: record.cell.name for name, record in graph.db.instances.items()
        }
        swaps = [
            (name, next_drive_strength(record.cell, library))
            for name, record in sorted(graph.db.instances.items())
            if next_drive_strength(record.cell, library) is not None
        ][:4]
        graph.whatif_resize_worst_slack(swaps)
        assert graph.worst_slack(DelayModel.UPPER_BOUND) == before
        assert {
            name: record.cell.name for name, record in graph.db.instances.items()
        } == cells


def assert_scores_equal_oracle(graph, swaps):
    """Cone-local what-if scores are bitwise the full-forest oracle's."""
    for model in MODELS:
        got = graph.whatif_resize_worst_slack(swaps, model)
        want = full_forest_whatif(graph, swaps, model)
        assert got.tobytes() == want.tobytes(), model
    return got


def side_design():
    """A small design with a gate whose output net is untimed (no loads)
    and a clock buffer that loads only the clock and drives nothing."""
    library = standard_cell_library()
    design = Design("side_branches")
    for net in ("a", "b", "clk"):
        design.add_primary_input(net)
    design.add_clock("clk")
    design.add_instance("u1", library["NAND2_X1"], A="a", B="b", Y="n1")
    design.add_instance("u2", library["INV_X1"], A="n1", Y="out")
    design.add_instance("u_dangle", library["AND2_X1"], A="n1", B="b", Y="dead")
    design.add_instance("u_ff", library["DFF_X1"], D="out", CK="clk", Q="q")
    design.add_instance("u_q", library["BUF_X1"], A="q", Y="qo")
    design.add_instance("u_clkbuf", library["BUF_X1"], A="clk", Y="spare")
    design.add_primary_output("qo")
    parasitics = {
        net: lumped(net, 3e-15) for net in ("a", "b", "n1", "out", "q", "qo")
    }
    return design, parasitics


class TestNamedWhatIfs:
    """What-if edge cases, each held bitwise to the full-forest oracle."""

    def test_same_instance_twice_in_one_batch(self, workload):
        _, _, graph = workload
        library = standard_cell_library()
        name = sorted(graph.db.instances)[3]
        prefix = graph.db.instances[name].cell.name.rpartition("_X")[0]
        x2, x4 = library[f"{prefix}_X2"], library[f"{prefix}_X4"]
        scores = assert_scores_equal_oracle(
            graph, [(name, x2), (name, x4), (name, x2)]
        )
        assert scores[0] == scores[2]
        alone = graph.whatif_resize_worst_slack([(name, x4)], DelayModel.LOWER_BOUND)
        assert scores[1] == alone[0]

    def test_swap_to_current_cell(self, workload):
        _, _, graph = workload
        swaps = [
            (name, graph.db.instances[name].cell)
            for name in sorted(graph.db.instances)[:5]
        ]
        assert_scores_equal_oracle(graph, swaps)
        for model in MODELS:
            scores = graph.whatif_resize_worst_slack(swaps, model)
            assert (scores == graph.worst_slack(model)).all()

    def test_untimed_output_net(self):
        design, parasitics = side_design()
        graph = TimingGraph(
            design,
            dict(parasitics),
            clock_period=PERIOD,
            input_drive_resistance=INPUT_DRIVE,
        )
        assert "dead" not in graph.db.timed_nets()
        library = standard_cell_library()
        swaps = [("u_dangle", library["AND2_X4"])]
        scores = assert_scores_equal_oracle(graph, swaps)
        trial = TimingGraph(
            design,
            dict(parasitics),
            clock_period=PERIOD,
            input_drive_resistance=INPUT_DRIVE,
        )
        trial.resize_instance("u_dangle", library["AND2_X4"])
        want = trial.worst_slack(DelayModel.LOWER_BOUND)
        trial.resize_instance("u_dangle", library["AND2_X1"])  # shared Instance
        assert scores[0] == pytest.approx(want, rel=1e-9)
        assert want != graph.worst_slack(DelayModel.LOWER_BOUND)

    def test_empty_cone(self):
        """A clock buffer driving nothing: the swap touches no stage tree
        and moves no arrival, so every score is the base worst slack."""
        design, parasitics = side_design()
        graph = TimingGraph(
            design,
            dict(parasitics),
            clock_period=PERIOD,
            input_drive_resistance=INPUT_DRIVE,
        )
        library = standard_cell_library()
        swaps = [("u_clkbuf", library["BUF_X4"]), ("u_clkbuf", library["BUF_X2"])]
        assert graph.db.whatif_cell_elements(swaps).forest is None
        assert_scores_equal_oracle(graph, swaps)
        for model in MODELS:
            scores = graph.whatif_resize_worst_slack(swaps, model)
            assert (scores == graph.worst_slack(model)).all()

    def test_incompatible_footprint_is_refused(self):
        """The what-if refuses exactly the swaps resize_instance refuses."""
        design, parasitics = random_design(200, seed=3)
        graph = TimingGraph(design, dict(parasitics))
        library = standard_cell_library()
        assert graph.db.instances["u0"].cell.name == "XOR2_X4"
        with pytest.raises(AnalysisError, match="pin interface"):
            graph.resize_instance("u0", library["INV_X1"])
        with pytest.raises(AnalysisError, match="pin interface"):
            graph.whatif_resize_worst_slack([("u0", library["INV_X1"])])
        with pytest.raises(AnalysisError, match="unknown instance"):
            graph.whatif_resize_worst_slack([("u_missing", library["INV_X1"])])
