"""Benchmark of the downstream STA flow built on the bounds.

Times a full :class:`~repro.graph.TimingGraph` timing run (stage compile and
solve over RC trees, graph construction, arrival propagation) on a synthetic
pipeline of inverter chains with extracted interconnect, read out in each of
the three delay models, and the design's ternary verdict.  This is the
"downstream adoption" benchmark: it shows the bounds being consumed at the
scale of a (small) digital block rather than a single net.
"""

import pytest

from repro.apps.nets import daisy_chain_net
from repro.graph import TimingGraph
from repro.sta.cells import standard_cell_library
from repro.sta.delaycalc import DelayModel
from repro.sta.netlist import Design
from repro.sta.parasitics import rc_tree_parasitics

STAGES = 40


def build_design_and_parasitics():
    library = standard_cell_library()
    design = Design("inv_pipeline")
    design.add_clock("clk")
    design.add_primary_input("din")
    design.add_primary_output("dout")
    design.add_instance("ff_in", library["DFF_X1"], D="din", CK="clk", Q="n0")
    parasitics = {}
    previous = "n0"
    for stage in range(STAGES):
        net = f"n{stage + 1}"
        cell = library["INV_X1"] if stage % 2 else library["INV_X2"]
        design.add_instance(f"u{stage}", cell, A=previous, Y=net)
        wire = daisy_chain_net([0.0], 150e-6, driver=None)
        parasitics[net] = rc_tree_parasitics(net, wire, {f"u{stage + 1}/A": "load0"})
        previous = net
    design.add_instance("ff_out", library["DFF_X1"], D=previous, CK="clk", Q="dout")
    return design, parasitics


DESIGN, PARASITICS = build_design_and_parasitics()


def _graph():
    return TimingGraph(DESIGN, PARASITICS, clock_period=20e-9)


@pytest.mark.parametrize("model", [DelayModel.ELMORE, DelayModel.UPPER_BOUND, DelayModel.LOWER_BOUND])
def test_sta_run(benchmark, model):
    report = benchmark(lambda: _graph().run(model))
    assert len(report.endpoint_slacks) >= 2


def test_sta_certification(benchmark, report):
    verdict = benchmark(lambda: _graph().certify())
    elmore = _graph().run(DelayModel.ELMORE)
    report(
        "STA on a 40-stage pipeline",
        f"verdict at 20 ns period : {verdict.name}\n"
        f"worst slack (Elmore)    : {elmore.worst_slack * 1e9:+.3f} ns\n"
        f"critical path length    : {len(elmore.critical_path)} hops",
    )
    assert verdict.name in ("PASS", "INDETERMINATE", "FAIL")
