"""Tests for the exact (modal) step-response engine."""

import math

import numpy as np
import pytest

from repro.core.exceptions import AnalysisError
from repro.core.networks import figure7_tree, rc_ladder, symmetric_fanout
from repro.core.timeconstants import characteristic_times, characteristic_times_all
from repro.core.tree import RCTree
from repro.simulate.state_space import exact_step_response, simulate_step


class TestSingleRC:
    """One resistor + one capacitor has the textbook exponential response."""

    def make_tree(self, r=2.0, c=3.0):
        tree = RCTree()
        tree.add_resistor("in", "out", r)
        tree.add_capacitor("out", c)
        return tree

    def test_response_matches_exponential(self):
        response = exact_step_response(self.make_tree())
        for t in (0.0, 1.0, 6.0, 20.0):
            expected = 1.0 - math.exp(-t / 6.0)
            assert float(response.voltage("out", t)) == pytest.approx(expected, abs=1e-12)

    def test_single_time_constant(self):
        response = exact_step_response(self.make_tree())
        assert response.time_constants.shape == (1,)
        assert response.time_constants[0] == pytest.approx(6.0)

    def test_delay_is_rc_ln2_at_half(self):
        response = exact_step_response(self.make_tree())
        assert response.delay("out", 0.5) == pytest.approx(6.0 * math.log(2.0), rel=1e-10)

    def test_elmore_equals_rc(self):
        response = exact_step_response(self.make_tree())
        assert response.elmore_delay("out") == pytest.approx(6.0)


class TestAgainstAnalyticalEngine:
    def test_elmore_delays_agree_on_figure7(self, fig7):
        response = exact_step_response(fig7, segments_per_line=40)
        analytic = characteristic_times(fig7, "out").tde
        assert response.elmore_delay("out") == pytest.approx(analytic, rel=1e-6)

    def test_elmore_delays_agree_on_ladder(self):
        tree = rc_ladder(12, 7.0, 3.0)
        response = exact_step_response(tree)
        table = characteristic_times_all(tree, tree.nodes[1:])
        for node in tree.nodes[1:]:
            assert response.elmore_delay(node) == pytest.approx(table[node].tde, rel=1e-9)

    def test_final_values_are_one(self, fig7):
        response = exact_step_response(fig7, segments_per_line=10)
        assert np.allclose(response.final_values, 1.0)

    def test_exact_delay_within_pr_bounds(self, fig7, fig7_times):
        from repro.core.bounds import delay_lower_bound, delay_upper_bound

        response = exact_step_response(fig7, segments_per_line=60)
        for threshold in (0.2, 0.5, 0.8):
            exact = response.delay("out", threshold)
            assert float(delay_lower_bound(fig7_times, threshold)) <= exact + 1e-9
            assert exact <= float(delay_upper_bound(fig7_times, threshold)) + 1e-9


class TestResistiveNodes:
    """Zero-capacitance nodes are eliminated exactly, not approximated."""

    def make_tree(self):
        tree = RCTree()
        tree.add_resistor("in", "mid", 1.0)   # no cap at mid
        tree.add_resistor("mid", "out", 1.0)
        tree.add_capacitor("out", 1.0)
        return tree

    def test_resistive_node_response(self):
        response = exact_step_response(self.make_tree())
        # v_out = 1 - exp(-t/2); v_mid = (1 + v_out)/2 by the resistive divider.
        for t in (0.1, 1.0, 5.0):
            v_out = 1.0 - math.exp(-t / 2.0)
            v_mid = 0.5 * (1.0 + v_out)
            assert float(response.voltage("out", t)) == pytest.approx(v_out, abs=1e-12)
            assert float(response.voltage("mid", t)) == pytest.approx(v_mid, abs=1e-12)

    def test_resistive_node_elmore(self):
        response = exact_step_response(self.make_tree())
        analytic = characteristic_times(self.make_tree(), "mid").tde
        assert response.elmore_delay("mid") == pytest.approx(analytic, rel=1e-12)

    def test_monotonic_everywhere(self):
        response = exact_step_response(self.make_tree())
        wf = response.waveform("mid", 10.0)
        assert wf.is_monotonic()


class TestEvaluationAPI:
    def test_evaluate_shapes(self, fig7):
        response = exact_step_response(fig7, segments_per_line=5)
        values = response.evaluate([0.0, 10.0, 100.0])
        assert values.shape == (3, len(response.nodes))
        scalar = response.evaluate(10.0)
        assert scalar.shape == (len(response.nodes),)

    def test_negative_time_rejected(self, fig7):
        response = exact_step_response(fig7)
        with pytest.raises(AnalysisError):
            response.evaluate(-1.0)

    def test_waveform_helper(self, fig7):
        wf = exact_step_response(fig7).waveform("out", 600.0, points=100)
        assert len(wf) == 100
        assert wf.is_monotonic()

    def test_simulate_step_wrapper(self, fig7):
        wf = simulate_step(fig7, "out", 600.0, points=50)
        assert wf.t_end == pytest.approx(600.0)

    def test_simulate_step_unknown_node(self, fig7):
        with pytest.raises(AnalysisError):
            simulate_step(fig7, "nonexistent", 100.0)

    def test_delay_threshold_validation(self, fig7):
        response = exact_step_response(fig7)
        with pytest.raises(AnalysisError):
            response.delay("out", 1.5)

    def test_no_capacitance_rejected(self):
        tree = RCTree()
        tree.add_resistor("in", "a", 1.0)
        with pytest.raises(AnalysisError):
            exact_step_response(tree)


class TestFanoutSymmetry:
    def test_symmetric_branches_have_identical_responses(self):
        tree = symmetric_fanout(3, 100.0, 50.0, 2e-12, 1e-12)
        response = exact_step_response(tree, segments_per_line=10)
        t = np.linspace(0, 1e-9, 20)
        v1 = response.voltage("load1", t)
        v2 = response.voltage("load2", t)
        assert np.allclose(v1, v2)


class TestIndependentSubtrees:
    """Subtrees hanging off the driven input do not share modes.

    Time constants spread over ten decades across sibling subtrees once let
    the fast subtree's eigensolver rounding leak into a lone RC branch, which
    then rose ~1e-7 V above its final value.
    """

    def make_tree(self):
        tree = RCTree()
        # A fast femtofarad subtree, two slow nanofarad ones, a lone RC
        # branch ("n8") and purely resistive stubs, all off the input.
        tree.add_resistor("in", "n1", 2.0)
        tree.add_capacitor("n1", 1e-16)
        tree.add_resistor("n1", "n2", 1.0)
        tree.add_capacitor("n2", 1e-16)
        tree.add_resistor("in", "n3", 1.0)
        tree.add_resistor("in", "n4", 1.0)
        tree.add_resistor("in", "n5", 1.0)
        tree.add_capacitor("n5", 4.0467055207789753e-10)
        tree.add_resistor("n1", "n6", 1.5)
        tree.add_capacitor("n6", 1e-16)
        tree.add_resistor("in", "n7", 1.0)
        tree.add_resistor("in", "n8", 49999.0)
        tree.add_capacitor("n8", 1e-12)
        tree.add_resistor("in", "n9", 1.0)
        tree.add_resistor("in", "n10", 223.0)
        tree.add_capacitor("n10", 9.13156433199191e-10)
        tree.add_resistor("in", "n11", 1.0)
        tree.add_resistor("in", "n12", 1.0)
        tree.add_resistor("n5", "n13", 15.0)
        tree.add_capacitor("n13", 7.583809242045568e-10)
        tree.add_resistor("n1", "n14", 24777.0)
        tree.add_capacitor("n14", 4.147108281125692e-11)
        tree.add_resistor("n2", "n15", 100.0)
        tree.add_capacitor("n15", 2.220446049250313e-16)
        return tree

    def test_lone_branch_is_an_exact_exponential(self):
        response = exact_step_response(self.make_tree())
        tau = 49999.0 * 1e-12
        t = np.linspace(0.0, 40.0 * tau, 200)
        expected = 1.0 - np.exp(-t / tau)
        assert np.max(np.abs(response.voltage("n8", t) - expected)) < 1e-12
        assert response.elmore_delay("n8") == pytest.approx(tau, rel=1e-12)

    def test_no_node_overshoots_its_final_value(self):
        response = exact_step_response(self.make_tree())
        t = np.linspace(0.0, 1e-5, 400)
        assert np.max(response.evaluate(t)) <= 1.0 + 1e-12
