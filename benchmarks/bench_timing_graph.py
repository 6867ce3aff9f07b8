"""Benchmark: design-scale TimingGraph vs the networkx TimingAnalyzer oracle.

The workload is a seed-stable 5000-instance random design
(:func:`repro.generators.random_design`) with per-net parasitics -- a mix of
lumped caps and RC trees.  Three measurements:

* **full analysis** -- everything a design sign-off needs: ingest the
  parasitics, build the engine and produce arrivals for *all three delay
  models* (Elmore + both bounds -- what the paper's ternary ``OK`` verdict
  consumes).  Legacy: ``TimingAnalyzer`` (:mod:`tests.graph.analyzer_oracle`,
  one vertex at a time) with its shared stage cache, three ``run()``
  calls.  New: ``DesignDB`` (one batched FlatForest solve) plus
  ``TimingGraph`` (one levelization, per-level vectorized relaxations for all
  models at once).  Asserted **>= 10x**.
* **incremental ECO re-timing** -- a sequence of random per-net parasitic
  edits, each followed by a worst-slack query.  The graph re-solves one stage
  tree and re-propagates only the downstream cone; the legacy engine can only
  re-run the full analysis.  Amortized per-edit speedup asserted **>= 50x**
  (measured in the thousands).
* **resize ECO** -- seeded X1 <-> X2 cell swaps of instances that touch 2-3
  timed nets (the swaps ``perfbench``'s ``eco_serve`` makes); each
  recompiles, solves and re-times its nets as one block.  The per-swap
  time is printed, and the arrivals afterwards must be ``tobytes``-equal
  to a fresh graph of the edited design.
* **parity** -- arrivals and worst slacks of the two engines agree at
  rtol 1e-12 across all three models, before and after the edit sequence.
  A speedup over an engine that disagrees would be meaningless.

The printed table doubles as the record for ``docs/performance.md``.
"""

import random
import time

import pytest

from repro.generators import random_design
from repro.graph import DesignDB, TimingGraph
from repro.sta.cells import standard_cell_library
from repro.sta.delaycalc import DelayModel
from repro.sta.netlist import design_from_dict, design_to_dict
from repro.sta.parasitics import lumped
from repro.utils.tables import format_table
from tests.graph.analyzer_oracle import TimingAnalyzer

N_INSTANCES = 5_000
PERIOD = 2e-9
EDITS = 60
RESIZES = 60
LIBRARY = standard_cell_library()
MODELS = (DelayModel.ELMORE, DelayModel.UPPER_BOUND, DelayModel.LOWER_BOUND)


def _best(function, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def workload():
    return random_design(N_INSTANCES, seed=7)


def _legacy_full(design, parasitics):
    analyzer = TimingAnalyzer(design, parasitics, clock_period=PERIOD)
    return {model: analyzer.run(model) for model in MODELS}


def _graph_full(design, parasitics):
    graph = TimingGraph(DesignDB(design, parasitics), clock_period=PERIOD)
    graph.arrivals_matrix
    return graph


def _toggled(cell):
    """The X1 <-> X2 footprint twin of ``cell``."""
    return LIBRARY[cell.name[:-1] + ("2" if cell.name.endswith("X1") else "1")]


def _swap_picks(graph, rng, count):
    """``count`` seeded instances whose swap touches 2-3 timed nets."""
    db = graph.db
    timed = set(db.timed_nets())
    candidates = [
        name
        for name, instance in sorted(db.instances.items())
        if instance.cell.name.endswith(("X1", "X2"))
        and 2 <= len(timed.intersection(instance.connections.values())) <= 3
    ]
    return [rng.choice(candidates) for _ in range(count)]


def _assert_parity(graph, legacy_reports, rtol=1e-12):
    for model in MODELS:
        report = legacy_reports[model]
        arrivals = graph.arrivals(model)
        worst = 0.0
        for pin, want in report.arrivals.items():
            if want > 0.0:
                worst = max(worst, abs(arrivals[pin] - want) / want)
        assert worst < rtol, f"{model}: worst arrival mismatch {worst:.3e}"
        assert graph.worst_slack(model) == pytest.approx(report.worst_slack, rel=rtol)


def test_timing_graph_speedup(benchmark, workload, report):
    design, parasitics = workload

    legacy_time, legacy_reports = _best(
        lambda: _legacy_full(design, parasitics), repeats=2
    )
    graph_time, graph = _best(lambda: _graph_full(design, parasitics), repeats=3)
    _assert_parity(graph, legacy_reports)

    # Incremental ECO loop: random lumped-parasitic edits, worst slack after
    # each.  The legacy engine's only option per edit is a full re-analysis.
    rng = random.Random(1)
    nets = graph.db.timed_nets()
    edits = [(rng.choice(nets), rng.uniform(1e-15, 8e-14)) for _ in range(EDITS)]

    def eco_loop():
        for net, capacitance in edits:
            graph.update_net(net, lumped(net, capacitance))
            graph.worst_slack(DelayModel.UPPER_BOUND)

    start = time.perf_counter()
    eco_loop()
    per_edit = (time.perf_counter() - start) / EDITS

    # Exactness after the whole edit sequence, against both engines.
    edited = dict(parasitics)
    for net, capacitance in edits:
        edited[net] = lumped(net, capacitance)
    _assert_parity(graph, _legacy_full(design, edited))

    # Resize ECO arm, on a copy of the design (a swap edits its instances).
    resize_design = design_from_dict(design_to_dict(design))
    resized = TimingGraph(DesignDB(resize_design, edited), clock_period=PERIOD)
    resized.arrivals_matrix
    picks = _swap_picks(resized, random.Random(3), RESIZES)
    instances = resized.db.instances
    start = time.perf_counter()
    for name in picks:
        resized.resize_instance(name, _toggled(instances[name].cell))
    per_swap = (time.perf_counter() - start) / RESIZES
    fresh = TimingGraph(DesignDB(resize_design, edited), clock_period=PERIOD)
    assert resized.arrivals_matrix.tobytes() == fresh.arrivals_matrix.tobytes()

    benchmark(lambda: _graph_full(design, parasitics))

    full_speedup = legacy_time / graph_time
    eco_speedup = legacy_time / per_edit
    rows = [
        ("legacy TimingAnalyzer, 3 models", legacy_time * 1e3, 1.0),
        ("TimingGraph full analysis (DB + graph + 3 models)", graph_time * 1e3, full_speedup),
        ("legacy full re-analysis per ECO edit", legacy_time * 1e3, 1.0),
        (f"TimingGraph per ECO edit (amortized over {EDITS})", per_edit * 1e3, eco_speedup),
        (
            f"TimingGraph resize_instance per swap (2-3 nets, {RESIZES} swaps)",
            per_swap * 1e3,
            legacy_time / per_swap,
        ),
    ]
    table = format_table(
        ["workload", "time (ms)", "speedup"],
        rows,
        precision=3,
        title=f"design-scale timing, {N_INSTANCES} instances",
    )
    report("timing-graph speedup", table)

    # Acceptance: >= 10x full-design analysis, >= 50x amortized incremental.
    assert full_speedup >= 10.0, f"full-analysis speedup {full_speedup:.2f}x < 10x"
    assert eco_speedup >= 50.0, f"amortized ECO speedup {eco_speedup:.2f}x < 50x"


def test_incremental_cone_is_local(workload):
    """An edit's re-propagation touches a small cone, not the whole design."""
    design, parasitics = workload
    graph = TimingGraph(DesignDB(design, parasitics), clock_period=PERIOD)
    graph.arrivals_matrix
    rng = random.Random(2)
    nets = graph.db.timed_nets()
    total = 0
    for _ in range(20):
        net = rng.choice(nets)
        total += graph.update_net(net, lumped(net, rng.uniform(1e-15, 8e-14)))
    average_cone = total / 20
    assert average_cone < len(graph.vertex_names) / 10
