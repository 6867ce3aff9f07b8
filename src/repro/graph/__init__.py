"""Design-scale, array-native static timing (the paper's ``OK`` at chip scope).

Two layers:

* :class:`DesignDB` -- ingest: a gate-level design plus per-net parasitics
  (dict records or SPEF streamed straight into arrays) compiled into one
  :class:`~repro.flat.FlatForest` of per-net *stage trees* and solved in a
  single batch;
* :class:`TimingGraph` -- analysis: CSR-style edge arrays, one levelization,
  per-level vectorized arrival/required relaxations for all pins and all
  three delay models at once, plus exact incremental ECO re-timing
  (:meth:`~TimingGraph.update_net`, :meth:`~TimingGraph.resize_instance`)
  that re-solves one stage tree and re-propagates only the downstream cone.

:meth:`TimingGraph.run` reports one delay model as a :class:`TimingReport`
(arrivals, endpoint slacks and the critical path as :class:`PathSegment`
hops); :meth:`TimingGraph.certify` is the ternary verdict.
"""

from repro.graph.designdb import DesignDB, NetModel, ScenarioSinkTable, SinkTable
from repro.graph.timinggraph import (
    DesignTimingSummary,
    PathSegment,
    ScenarioTimingReport,
    TimingGraph,
    TimingReport,
)

__all__ = [
    "DesignDB",
    "NetModel",
    "SinkTable",
    "ScenarioSinkTable",
    "DesignTimingSummary",
    "ScenarioTimingReport",
    "TimingGraph",
    "TimingReport",
    "PathSegment",
]
