"""``signoff``: Monte-Carlo corner sweeps on a resident 5k-instance design.

One op is ``TimingGraph.analyze_scenarios`` of a 32-scenario Monte-Carlo
set with the default (auto-selected) engine.  Nearly all of its time is in
the forest solve, the batched bounds and the levelized tensor propagation.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

import numpy as np

import repro.graph.timinggraph as timinggraph_module
from repro.flat import FlatForest
from repro.generators import random_design
from repro.graph import DesignDB, TimingGraph
from repro.parallel import last_selection, shutdown_pools
from repro.scenarios import ScenarioSet

from perfbench.harness import Tracer, Workload, close_to

INSTANCES = 5000
SCENARIOS = 32
#: Scenario sets the ops rotate over; each has its own reference.
SETS = 4
CLOCK_PERIOD = 1e-8


def signoff_gate(worst_slack: np.ndarray, reference: np.ndarray) -> bool:
    """Every scenario's worst slack, every model, matches the reference at 1e-12."""
    return np.shape(worst_slack) == np.shape(reference) and close_to(
        np.ravel(worst_slack), np.ravel(reference)
    )


class Signoff(Workload):
    def generate(self, seed: int) -> None:
        self.design, self.parasitics = random_design(INSTANCES, seed=seed)
        self.sets = [
            ScenarioSet.monte_carlo(SCENARIOS, seed=seed * SETS + index)
            for index in range(SETS)
        ]
        self.engines: Counter = Counter()

    def setup(self) -> None:
        db = DesignDB(self.design, self.parasitics)
        self.graph = TimingGraph(db, clock_period=CLOCK_PERIOD)
        # The warm-up op starts the worker pool the auto engine may pick.
        self.graph.analyze_scenarios(self.sets[0])

    def discard(self) -> None:
        self.graph = None
        shutdown_pools()

    def references(self) -> None:
        self.reference = [
            self.graph.analyze_scenarios(scenarios, engine="numpy").worst_slack
            for scenarios in self.sets
        ]

    def op(self, k: int, tracer=None):
        return self.graph.analyze_scenarios(self.sets[k % SETS])

    def check(self, k: int, report) -> bool:
        self.engines[last_selection()["engine"]] += 1
        return signoff_gate(report.worst_slack, self.reference[k % SETS])

    def instrument(self, tracer: Tracer) -> None:
        instrument_solve_layers(tracer)

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        return solve_layer_metrics(tracer)

    def details(self) -> Dict[str, object]:
        forest = self.graph.db.forest
        return {
            "rc_nodes": forest.node_count,
            "sink_rows": len(self.graph.db.sinks),
            "scenarios_per_op": SCENARIOS,
            "engines": dict(self.engines),
        }

    def teardown(self) -> None:
        shutdown_pools()


def record_engine(tracer: Tracer, _result) -> None:
    tracer.count("parallel.solves", 1)
    if last_selection()["engine"] == "process":
        tracer.count("parallel.process_solves", 1)


def instrument_solve_layers(tracer: Tracer) -> None:
    """Spans around the graph, database, solve and bounds layer functions."""
    tracer.wrap(TimingGraph, "analyze_scenarios", "graph.analyze")
    tracer.wrap(DesignDB, "solve_scenarios", "designdb.solve_scenarios")
    tracer.wrap(FlatForest, "solve_batch", "parallel.solve", after=record_engine)
    # TimingGraph calls the bounds through its own module's names.
    tracer.wrap(timinggraph_module, "delay_upper_bound_batch", "flat.bounds")
    tracer.wrap(timinggraph_module, "delay_lower_bound_batch", "flat.bounds")


def process_share(tracer: Tracer) -> float:
    solves = sum(tracer.per_op_counts("parallel.solves"))
    process = sum(tracer.per_op_counts("parallel.process_solves"))
    return process / solves if solves else 0.0


def solve_layer_metrics(tracer: Tracer) -> Dict[str, float]:
    return {
        "graph.analyze_ms": tracer.p50_ms("graph.analyze"),
        "graph.propagate_ms": tracer.p50_ms("graph.analyze", self_time=True),
        "designdb.solve_scenarios_ms": tracer.p50_ms("designdb.solve_scenarios"),
        "designdb.planes_ms": tracer.p50_ms("designdb.solve_scenarios", self_time=True),
        "parallel.solve_ms": tracer.p50_ms("parallel.solve"),
        "parallel.process_share": process_share(tracer),
        "flat.bounds_ms": tracer.p50_ms("flat.bounds"),
    }
