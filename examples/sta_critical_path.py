#!/usr/bin/env python3
"""Static timing analysis of a small block using the bounds for interconnect.

The Penfield-Rubinstein bounds are the ancestor of every interconnect delay
model used in static timing analysis.  This example closes that loop: a small
pipelined datapath is described as a gate-level netlist, its heavier nets get
extracted RC-tree parasitics, and the design-scale timing graph then

1. reports the critical path with Elmore interconnect delays,
2. re-runs timing with the guaranteed upper/lower bound delays, and
3. certifies the block against its clock period exactly in the sense of the
   paper's ``OK`` function (PASS / FAIL / cannot-tell).

Run with:  python examples/sta_critical_path.py
"""

from repro.apps.nets import comb_bus_net, daisy_chain_net
from repro.graph import TimingGraph
from repro.sta.cells import standard_cell_library
from repro.sta.delaycalc import DelayModel
from repro.sta.netlist import Design
from repro.sta.parasitics import lumped, rc_tree_parasitics


def build_design(library):
    """A 4-bit-ish datapath slice: capture FF -> logic cone -> output FFs."""
    design = Design("datapath_slice")
    design.add_clock("clk")
    for port in ("a", "b", "sel"):
        design.add_primary_input(port)
    design.add_primary_output("result")

    design.add_instance("ff_a", library["DFF_X1"], D="a", CK="clk", Q="ra")
    design.add_instance("ff_b", library["DFF_X1"], D="b", CK="clk", Q="rb")
    design.add_instance("ff_s", library["DFF_X1"], D="sel", CK="clk", Q="rs")

    design.add_instance("g1", library["NAND2_X1"], A="ra", B="rb", Y="n1")
    design.add_instance("g2", library["NOR2_X1"], A="ra", B="rs", Y="n2")
    design.add_instance("g3", library["XOR2_X1"], A="n1", B="n2", Y="n3")
    design.add_instance("g4", library["AND2_X1"], A="n3", B="rs", Y="n4")
    design.add_instance("buf_out", library["BUF_X4"], A="n4", Y="result")
    design.add_instance("ff_out", library["DFF_X1"], D="n4", CK="clk", Q="q")
    design.add_primary_output("q")
    return design


def build_parasitics():
    """Post-layout parasitics for the two long nets; short nets stay lumped."""
    # n3 runs 600 um across the block as a daisy chain past a spare load.
    n3_tree = daisy_chain_net([3e-15, 0.0], 300e-6,
                              driver=None)
    # n4 is a multi-drop net feeding both the output buffer and the capture FF.
    n4_tree = comb_bus_net(2, 2e-15, 250e-6, 30e-6, driver=None)
    return {
        "n1": lumped("n1", 12e-15),
        "n2": lumped("n2", 9e-15),
        "n3": rc_tree_parasitics("n3", n3_tree, {"g4/A": "load1"}),
        "n4": rc_tree_parasitics("n4", n4_tree, {"buf_out/A": "drop0", "ff_out/D": "drop1"}),
    }


def main() -> None:
    library = standard_cell_library()
    design = build_design(library)
    parasitics = build_parasitics()
    clock_period = 2.2e-9

    graph = TimingGraph(design, parasitics, clock_period=clock_period, threshold=0.5)

    print(f"design {design.name!r}: {len(design.instances)} cells, clock period "
          f"{clock_period * 1e9:.2f} ns\n")

    elmore = graph.run(DelayModel.ELMORE)
    print(elmore.describe())
    print()

    upper = graph.run(DelayModel.UPPER_BOUND)
    lower = graph.run(DelayModel.LOWER_BOUND)
    print("worst slack by interconnect delay model:")
    print(f"  guaranteed latest (upper bound) : {upper.worst_slack * 1e9:+.4f} ns")
    print(f"  Elmore estimate                 : {elmore.worst_slack * 1e9:+.4f} ns")
    print(f"  guaranteed earliest (lower bound): {lower.worst_slack * 1e9:+.4f} ns")
    print()

    verdict = graph.certify()
    print(f"certification at {clock_period * 1e9:.2f} ns: {verdict.name}")

    # Tighten the clock until certification becomes indeterminate, then fails.
    for period in (2.0e-9, 1.9e-9, 1.8e-9, 1.5e-9):
        tightened = TimingGraph(design, parasitics, clock_period=period, threshold=0.5)
        print(f"certification at {period * 1e9:.2f} ns: {tightened.certify().name}")
    print()
    print("PASS means even the guaranteed-latest arrivals meet the period;")
    print("FAIL means even the guaranteed-earliest arrivals miss it; the gap in")
    print("between is exactly the indeterminate region the paper's OK function reports.")


if __name__ == "__main__":
    main()
