"""Benchmark: scenario-batched corner sweep vs looping the PR 3 engine.

The workload is a seed-stable 2000-instance random design
(:func:`repro.generators.random_design`) swept over 64 scenarios
(:func:`repro.generators.random_scenarios`: the three-corner envelope plus
Monte-Carlo derates).  Two contenders produce the worst slack of every
scenario under *all three delay models*:

* **per-scenario loop** -- what a corner sweep cost before the scenario
  axis: materialize each scenario as scaled inputs
  (:func:`repro.scenarios.scaled_design` /
  :func:`~repro.scenarios.scaled_parasitics`), rebuild the
  :class:`~repro.graph.DesignDB` + :class:`~repro.graph.TimingGraph`
  pipeline, and read the three worst slacks -- 64 full re-ingests;
* **scenario batch** -- one
  :meth:`~repro.graph.TimingGraph.analyze_scenarios` call: a single
  scenario-batched forest solve plus one ``(edges, 64, 3)`` levelized
  propagation.

Parity is asserted at rtol 1e-12 for every scenario and every model (a
speedup over a disagreeing engine would be meaningless), and the speedup is
asserted **>= 8x**.  The printed table is the record for
``docs/performance.md``.

A second arm times the kernel under that sweep: the numpy level sweep over
the forest's level-major rows (:func:`repro.flat.scenarios.sweep_scenarios`)
against the preorder level-bucket sweep it replaced
(:mod:`tests.flat.sweep_oracle`), on the same design's stage forest with 64
random element planes, timed in alternation (best of 9 each).  The two
must be ``tobytes``-equal, row for row, and the level-major sweep must be
**>= 2x** faster.

A third arm times the graph half of that sweep: the level-major scenario
delay tensor and forward sweep
(:meth:`~repro.graph.TimingGraph._scenario_edge_delays` +
:meth:`~repro.graph.TimingGraph._propagate_tensor`) against the masked
tensor and bucketed ``np.maximum.at`` sweep they replaced
(:mod:`tests.graph.relax_oracle`), on the same ``(edges, 64, 3)``
workload.  Delays and arrivals must be ``tobytes``-equal, and the graph
half must be **>= 1.5x** faster.
"""

import time

import numpy as np
import pytest

from repro.flat.scenarios import sweep_scenarios
from repro.generators import random_design, random_scenarios
from repro.graph import TimingGraph
from repro.scenarios import scaled_design, scaled_parasitics
from repro.sta.delaycalc import DelayModel
from repro.utils.tables import format_table
from tests.flat.sweep_oracle import oracle_sweep
from tests.graph import relax_oracle

N_INSTANCES = 2_000
N_SCENARIOS = 64
PERIOD = 2e-9
THRESHOLD = 0.5
INPUT_DRIVE = 120.0
MODELS = (DelayModel.ELMORE, DelayModel.UPPER_BOUND, DelayModel.LOWER_BOUND)


def _best(function, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def _best_interleaved(functions, repeats):
    """Best time and last result of each function, timed in alternation.

    Each round runs every contender once, so a slow spell of a busy host
    lands on both sides of a ratio rather than on whichever ran during it.
    """
    best = [float("inf")] * len(functions)
    results = [None] * len(functions)
    for _ in range(repeats):
        for index, function in enumerate(functions):
            start = time.perf_counter()
            results[index] = function()
            best[index] = min(best[index], time.perf_counter() - start)
    return best, results


@pytest.fixture(scope="module")
def workload():
    design, parasitics = random_design(N_INSTANCES, seed=7)
    scenarios = random_scenarios(N_SCENARIOS, seed=11)
    graph = TimingGraph(
        design,
        dict(parasitics),
        clock_period=PERIOD,
        threshold=THRESHOLD,
        input_drive_resistance=INPUT_DRIVE,
    )
    return design, parasitics, scenarios, graph


def _loop_sweep(design, parasitics, scenarios):
    """The pre-scenario-axis pipeline: one full re-ingest per scenario."""
    slacks = []
    for scenario in scenarios:
        reference = TimingGraph(
            scaled_design(design, scenario),
            {
                name: scaled_parasitics(record, scenario)
                for name, record in parasitics.items()
            },
            clock_period=scenario.clock_period or PERIOD,
            threshold=(
                THRESHOLD if scenario.threshold is None else scenario.threshold
            ),
            input_drive_resistance=INPUT_DRIVE * scenario.drive_derate,
        )
        slacks.append([reference.worst_slack(model) for model in MODELS])
    return slacks


def test_scenario_sweep_speedup(benchmark, workload, report):
    design, parasitics, scenarios, graph = workload

    batched_time, batched = _best(
        lambda: graph.analyze_scenarios(scenarios, with_critical_paths=False),
        repeats=3,
    )
    loop_time, loop = _best(lambda: _loop_sweep(design, parasitics, scenarios), repeats=1)

    # Parity first: every scenario, every model, rtol 1e-12.
    worst_mismatch = 0.0
    for index in range(N_SCENARIOS):
        for column in range(len(MODELS)):
            want = loop[index][column]
            got = float(batched.worst_slack[index, column])
            worst_mismatch = max(
                worst_mismatch, abs(got - want) / max(abs(want), 1e-18)
            )
    assert worst_mismatch < 1e-12, f"worst slack mismatch {worst_mismatch:.3e}"

    benchmark(
        lambda: graph.analyze_scenarios(scenarios, with_critical_paths=False)
    )

    speedup = loop_time / batched_time
    rows = [
        (
            f"per-scenario loop ({N_SCENARIOS} full re-ingests)",
            loop_time * 1e3,
            1.0,
        ),
        (
            f"scenario batch (one solve, {N_SCENARIOS} x 3 models)",
            batched_time * 1e3,
            speedup,
        ),
    ]
    table = format_table(
        ["workload", "time (ms)", "speedup"],
        rows,
        precision=3,
        title=(
            f"{N_SCENARIOS}-scenario sweep, {N_INSTANCES} instances, "
            "3 delay models"
        ),
    )
    report("scenario-sweep speedup", table)

    # Acceptance: >= 8x for the 64-scenario sweep (measured ~40-60x locally).
    assert speedup >= 8.0, f"scenario-sweep speedup {speedup:.2f}x < 8x"


def test_candidate_batching_matches_trial_swaps(workload):
    """What-if candidate evaluation equals actually applying each swap."""
    from repro.opt.sizing import next_drive_strength
    from repro.sta.cells import standard_cell_library

    design, parasitics, _, graph = workload
    library = standard_cell_library()
    candidates = []
    for name, record in sorted(graph.db.instances.items()):
        stronger = next_drive_strength(record.cell, library)
        if stronger is not None:
            candidates.append((name, stronger))
        if len(candidates) == 24:
            break
    predicted = graph.whatif_resize_worst_slack(
        candidates, DelayModel.UPPER_BOUND
    )
    for index in (0, len(candidates) // 2, len(candidates) - 1):
        name, cell = candidates[index]
        trial = TimingGraph(
            design,
            dict(parasitics),
            clock_period=PERIOD,
            threshold=THRESHOLD,
            input_drive_resistance=INPUT_DRIVE,
        )
        old = trial.db.instances[name].cell
        trial.resize_instance(name, cell)
        want = trial.worst_slack(DelayModel.UPPER_BOUND)
        trial.resize_instance(name, old)  # Instances are shared: restore.
        assert predicted[index] == pytest.approx(want, rel=1e-9)


def test_level_major_sweep_speedup(workload, report):
    """The level-major numpy sweep against the preorder bucket oracle."""
    forest = workload[3].db.forest
    plan = forest._plan
    parent, depth = forest._preorder()[:2]
    rng = np.random.default_rng(5)
    # Node-major planes in solve rows, and the same values in preorder.
    shape = (forest.node_count, N_SCENARIOS)
    planes = [
        np.ascontiguousarray(base[:, np.newaxis] * rng.uniform(0.5, 2.0, shape))
        for base in (forest._edge_r, forest._edge_c, forest._node_c)
    ]
    preorder = [plane[plan.position] for plane in planes]

    (oracle_time, sweep_time), (want, got) = _best_interleaved(
        [
            lambda: oracle_sweep(parent, depth, *preorder),
            lambda: sweep_scenarios(plan, plan.parent, *planes),
        ],
        9,
    )
    for name, g, w in zip(("rkk", "c_down", "tde", "tre"), got, want):
        assert g.tobytes() == w[plan.order].tobytes(), name

    speedup = oracle_time / sweep_time
    table = format_table(
        ["kernel", "time (ms)", "speedup"],
        [
            ("preorder level buckets + np.add.at (oracle)", oracle_time * 1e3, 1.0),
            ("level-major slices + rank steps", sweep_time * 1e3, speedup),
        ],
        precision=3,
        title=(
            f"two-pass sweep, {forest.node_count} nodes, "
            f"{N_SCENARIOS} scenarios"
        ),
    )
    report("level-major sweep speedup", table)
    assert speedup >= 2.0, f"level-major sweep speedup {speedup:.2f}x < 2x"


def test_graph_half_speedup(workload, report):
    """Level-major tensor + sweep against the masked, bucketed oracle pair."""
    _, _, scenarios, graph = workload
    table = graph.db.solve_scenarios(scenarios)
    thresholds = scenarios.thresholds(THRESHOLD)
    order = relax_oracle.build_order(graph)

    def oracle():
        delays = relax_oracle.graph_edge_delays(graph, table, thresholds, order)
        return delays, relax_oracle.propagate_tensor(graph, delays)

    def level_major():
        delays = graph._scenario_edge_delays(table, thresholds)
        return delays, graph._propagate_tensor(delays)

    oracle_time, want = _best(oracle, 3)
    graph_time, got = _best(level_major, 5)
    for name, g, w in zip(("delays", "arrivals"), got, want):
        assert g.tobytes() == w.tobytes(), name

    speedup = oracle_time / graph_time
    table = format_table(
        ["graph half", "time (ms)", "speedup"],
        [
            ("masked tensor + level buckets (oracle)", oracle_time * 1e3, 1.0),
            ("mask-free tensor + level slices", graph_time * 1e3, speedup),
        ],
        precision=3,
        title=(
            f"edge delays + forward sweep, {graph._edge_count} edges, "
            f"{N_SCENARIOS} scenarios x 3 models"
        ),
    )
    report("graph-half speedup", table)
    # Measured 2.99-4.24x on a 2-vCPU host: the bound keeps a 2x margin
    # below the smallest reading.
    assert speedup >= 1.5, f"graph-half speedup {speedup:.2f}x < 1.5x"
