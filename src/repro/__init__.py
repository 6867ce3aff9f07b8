"""rctree-bounds: signal-delay bounds for RC tree networks.

A production-quality reproduction of Penfield & Rubinstein, *Signal Delay in
RC Tree Networks* (Caltech Conference on VLSI / DAC, 1981): the RC-tree
network model, the characteristic times ``T_P`` / ``T_De`` (Elmore delay) /
``T_Re``, the delay and voltage bounds built from them, the linear-time
constructive algebra of Section IV, and everything needed to reproduce the
paper's evaluation -- an exact simulator, parasitic extraction from wire
geometry, the PLA application of Section V, SPICE/SPEF interchange and a
miniature static-timing engine that consumes the bounds.

Quick start::

    from repro import RCTree, characteristic_times, delay_bounds

    tree = RCTree("in")
    tree.add_resistor("in", "a", 15.0)
    tree.add_capacitor("a", 2.0)
    tree.add_line("a", "out", resistance=3.0, capacitance=4.0)
    tree.add_capacitor("out", 9.0)
    tree.mark_output("out")

    times = characteristic_times(tree, "out")
    print(delay_bounds(times, threshold=0.5))

For batch workloads (all outputs, all thresholds, many trees at once) use
the vectorized flat engine::

    from repro import FlatTree

    flat = FlatTree.from_tree(tree)
    names, lower, upper = flat.delay_bounds_batch([0.5, 0.9])

For corner sweeps and what-if studies, a :class:`ScenarioSet` threads a
leading scenario axis through the same kernels -- every corner of a design
is timed in one batched pass::

    from repro import ScenarioSet, TimingGraph

    graph = TimingGraph(design, parasitics, clock_period=2e-9)
    report = graph.analyze_scenarios(ScenarioSet.corners())
    print(report.worst_slack, report.verdicts)

See ``examples/`` for complete scenarios, ``README.md`` for the architecture
map, and ``docs/`` for the paper-to-code map and performance notes.
"""

from repro.core import (
    AnalysisError,
    BoundedResponse,
    Capacitor,
    Certificate,
    CharacteristicTimes,
    DegenerateNetworkError,
    DelayBounds,
    ElementValueError,
    ParseError,
    RCTree,
    RCTreeError,
    Resistor,
    TopologyError,
    TreeBuilder,
    URCLine,
    UnknownNodeError,
    Verdict,
    VoltageBounds,
    certify,
    certify_tree,
    characteristic_times,
    characteristic_times_all,
    delay_bounds,
    delay_lower_bound,
    delay_upper_bound,
    elmore_delay,
    elmore_delays,
    figure3_tree,
    figure7_tree,
    rc_ladder,
    single_line,
    symmetric_fanout,
    voltage_bounds,
    voltage_lower_bound,
    voltage_upper_bound,
)
from repro.algebra import (
    TwoPort,
    expression_to_tree,
    parse_expression,
    tree_to_expression,
    tree_to_twoport,
    urc,
    wb,
    wc,
)
from repro.flat import (
    FlatForest,
    FlatTimes,
    FlatTree,
    ScenarioForestTimes,
    ScenarioTimes,
    delay_bounds_batch,
    voltage_bounds_batch,
)
from repro.graph import (
    DesignDB,
    DesignTimingSummary,
    ScenarioSinkTable,
    ScenarioTimingReport,
    TimingGraph,
)
from repro.parallel import (
    available_backends,
    register_backend,
    solve_forest_batch,
)
from repro.scenarios import (
    ParameterPlane,
    Scenario,
    ScenarioSet,
    scaled_design,
    scaled_parasitics,
)
from repro.simulate import (
    Waveform,
    exact_step_response,
    simulate_step,
    transient_step_response,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core model
    "RCTree",
    "TreeBuilder",
    "Resistor",
    "Capacitor",
    "URCLine",
    # analysis
    "CharacteristicTimes",
    "characteristic_times",
    "characteristic_times_all",
    "elmore_delay",
    "elmore_delays",
    "DelayBounds",
    "VoltageBounds",
    "BoundedResponse",
    "delay_bounds",
    "delay_lower_bound",
    "delay_upper_bound",
    "voltage_bounds",
    "voltage_lower_bound",
    "voltage_upper_bound",
    "Certificate",
    "Verdict",
    "certify",
    "certify_tree",
    # vectorized flat engine
    "FlatTree",
    "FlatTimes",
    "FlatForest",
    "ScenarioTimes",
    "ScenarioForestTimes",
    "delay_bounds_batch",
    "voltage_bounds_batch",
    # design-scale timing engine
    "DesignDB",
    "TimingGraph",
    "DesignTimingSummary",
    "ScenarioSinkTable",
    "ScenarioTimingReport",
    # scenarios (corners, derates, what-ifs)
    "Scenario",
    "ScenarioSet",
    "ParameterPlane",
    "scaled_design",
    "scaled_parasitics",
    # kernel backends
    "available_backends",
    "register_backend",
    "solve_forest_batch",
    # algebra
    "TwoPort",
    "urc",
    "wb",
    "wc",
    "parse_expression",
    "tree_to_twoport",
    "tree_to_expression",
    "expression_to_tree",
    # simulation
    "Waveform",
    "exact_step_response",
    "simulate_step",
    "transient_step_response",
    # reference networks
    "figure3_tree",
    "figure7_tree",
    "single_line",
    "rc_ladder",
    "symmetric_fanout",
    # exceptions
    "RCTreeError",
    "TopologyError",
    "UnknownNodeError",
    "ElementValueError",
    "DegenerateNetworkError",
    "AnalysisError",
    "ParseError",
]
