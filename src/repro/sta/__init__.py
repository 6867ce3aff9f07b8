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
* :mod:`repro.sta.delaycalc` -- stage delay calculation: the three delay
  models (``elmore``, ``upper_bound``, ``lower_bound``) and the vectorized
  compile of stage trees (drive resistance + net parasitics + sink pin
  loads), many nets at a time.

The timing analysis itself -- arrival/required times, slacks, critical
paths, and the certification of a design exactly in the sense of the
paper's ``OK`` function -- is the array-native :mod:`repro.graph` engine
(:class:`~repro.graph.TimingGraph`), which compiles every stage through
:func:`~repro.sta.delaycalc.compile_stage_block`.
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
from repro.sta.delaycalc import DelayModel

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
]
