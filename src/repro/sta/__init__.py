"""A miniature static timing analysis (STA) engine built on the paper's theory.

The Penfield-Rubinstein bounds (and the Elmore delay they bracket) are the
historical foundation of interconnect delay calculation in static timing
analysis.  This subpackage demonstrates that downstream use end to end:

* :mod:`repro.sta.cells` -- a tiny liberty-style cell library (linear-delay
  gates described by input capacitance, drive resistance and intrinsic
  delay);
* :mod:`repro.sta.netlist` -- gate-level designs: instances, nets, primary
  I/O;
* :mod:`repro.sta.parasitics` -- per-net interconnect: lumped capacitance or
  a full :class:`~repro.core.tree.RCTree` with pin-to-node bindings;
* :mod:`repro.sta.delaycalc` -- stage delay calculation: gate delay from the
  cell model plus interconnect delay from Elmore / the PR bounds;
* :mod:`repro.sta.analysis` -- the timing graph, arrival/required times,
  slacks and critical-path extraction, in three delay modes (``elmore``,
  ``upper_bound``, ``lower_bound``) so a design can be *certified* fast
  enough exactly in the sense of the paper's ``OK`` function.

``TimingAnalyzer`` walks a networkx pin graph one vertex at a time and is
kept as the readable reference (and parity oracle); design-scale runs and
incremental ECO loops live in the array-native :mod:`repro.graph` engine,
which builds its stages with the same
:func:`~repro.sta.delaycalc.compile_stage_block` that
:func:`~repro.sta.delaycalc.stage_characteristic_times` runs on one net, so
the two engines agree to rounding.
"""

from repro.sta.cells import Cell, standard_cell_library
from repro.sta.netlist import (
    Design,
    Instance,
    Net,
    PinRef,
    design_from_dict,
    design_to_dict,
    load_design,
    write_design,
)
from repro.sta.parasitics import NetParasitics, lumped, rc_tree_parasitics
from repro.sta.delaycalc import (
    DelayModel,
    StageDelay,
    StageTimes,
    stage_characteristic_times,
    stage_delays,
)
from repro.sta.analysis import TimingAnalyzer, TimingReport, PathSegment

__all__ = [
    "Cell",
    "standard_cell_library",
    "Design",
    "Instance",
    "Net",
    "PinRef",
    "design_from_dict",
    "design_to_dict",
    "load_design",
    "write_design",
    "NetParasitics",
    "lumped",
    "rc_tree_parasitics",
    "DelayModel",
    "StageDelay",
    "StageTimes",
    "stage_characteristic_times",
    "stage_delays",
    "TimingAnalyzer",
    "TimingReport",
    "PathSegment",
]
