"""``load``: time to first report from netlist JSON and SPEF text.

One op takes the text of a 1000-instance design (rotating over designs
rendered during input generation) through the CLI ``timing`` path:
``design_from_dict`` -> ``DesignDB.from_spef`` -> ``TimingGraph`` ->
``summary()``.  SPEF parsing, stage compile and graph build dominate; the
solve kernels do little.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.generators import random_design
from repro.graph import DesignDB, TimingGraph
from repro.spef.reader import iter_spef_nets
from repro.spef.writer import tree_to_spef
from repro.sta.netlist import design_from_dict, design_to_dict

from perfbench.harness import Tracer, Workload, close_to
from perfbench.signoff import instrument_solve_layers, process_share

INSTANCES = 1000
#: Designs the ops rotate over; each has its own reference summary.  Eight
#: keep the median op close to the median design's cost on every seed.
DESIGNS = 8
CLOCK_PERIOD = 1e-8


def load_gate(summary: dict, reference: dict) -> bool:
    """A summary matches its design's reference (slacks at 1e-12, the rest exactly)."""
    models = sorted(reference["worst_slack"])
    if sorted(summary.get("worst_slack", {})) != models:
        return False
    if not close_to(
        [summary["worst_slack"][m] for m in models],
        [reference["worst_slack"][m] for m in models],
    ):
        return False
    path, ref_path = summary["critical_path"], reference["critical_path"]
    return (
        summary["verdict"] == reference["verdict"]
        and summary["worst_endpoint"] == reference["worst_endpoint"]
        and [seg["location"] for seg in path] == [seg["location"] for seg in ref_path]
        and close_to(
            [seg["arrival"] for seg in path], [seg["arrival"] for seg in ref_path]
        )
    )


class Load(Workload):
    def generate(self, seed: int) -> None:
        self.texts = []
        for index in range(DESIGNS):
            design, parasitics = random_design(INSTANCES, seed=seed * DESIGNS + index)
            trees = {
                name: record.tree
                for name, record in parasitics.items()
                if record.tree is not None
            }
            self.texts.append(
                (json.dumps(design_to_dict(design)), tree_to_spef(trees))
            )

    def setup(self) -> None:
        # Nothing stays resident between ops: set-up is the warm-up op, which
        # fills import-time and allocator caches.
        self.op(0)

    def references(self) -> None:
        self.reference = [self.op(k) for k in range(DESIGNS)]

    def op(self, k: int, tracer=None) -> dict:
        netlist, spef = self.texts[k % DESIGNS]
        if tracer is None:
            design = design_from_dict(json.loads(netlist))
            db = DesignDB.from_spef(design, spef)
            graph = TimingGraph(db, clock_period=CLOCK_PERIOD)
            return graph.summary().to_dict()
        with tracer.span("netlist.parse"):
            design = design_from_dict(json.loads(netlist))
        with tracer.span("designdb.from_spef"):
            db = DesignDB.from_spef(design, spef)
        with tracer.span("graph.build"):
            graph = TimingGraph(db, clock_period=CLOCK_PERIOD)
        with tracer.span("graph.summary"):
            return graph.summary().to_dict()

    def prepare(self, k: int, tracer=None) -> int:
        if tracer is not None:
            # from_spef imports the SPEF reader inside the call, so the parse
            # cannot be wrapped there: time one consuming pass of the same
            # text here, outside the timed op; compile time is from_spef
            # minus this pass.
            with tracer.span("spef.parse"):
                for _ in iter_spef_nets(self.texts[k % DESIGNS][1]):
                    pass
        return k

    def check(self, k: int, summary: dict) -> bool:
        return load_gate(summary, self.reference[k % DESIGNS])

    def instrument(self, tracer: Tracer) -> None:
        instrument_solve_layers(tracer)

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        return {
            "netlist.parse_ms": tracer.p50_ms("netlist.parse"),
            "spef.parse_ms": tracer.p50_ms("spef.parse"),
            "designdb.from_spef_ms": tracer.p50_ms("designdb.from_spef"),
            "designdb.compile_ms": tracer.residual_p50_ms(
                "designdb.from_spef", ["spef.parse"]
            ),
            "graph.build_ms": tracer.p50_ms("graph.build"),
            "graph.summary_ms": tracer.p50_ms("graph.summary"),
            "parallel.solve_ms": tracer.p50_ms("parallel.solve"),
            "parallel.process_share": process_share(tracer),
            "flat.bounds_ms": tracer.p50_ms("flat.bounds"),
        }

    def details(self) -> Dict[str, object]:
        return {
            "designs": DESIGNS,
            "instances": INSTANCES,
            "spef_bytes": [len(spef) for _, spef in self.texts],
        }
