"""Scenario-batched characteristic-time sweeps.

The paper's two tree passes run here over ``(N, S)`` element matrices --
``S`` scenarios side by side, one vectorized gather/scatter per depth
level -- so a 64-corner sweep costs a handful of slightly wider numpy calls
instead of 64 re-runs of the whole pipeline.  A single-scenario solve is
the same kernel at ``S = 1``: every flat solve reaches it through
:func:`repro.parallel.solve_forest_batch`.  The per-node arithmetic
(operations, association, child order) follows the dict-based reference
engine, which is what lets the parity tests pin the batched axis against a
per-scenario loop of that engine at 1e-12 relative tolerance.

Callers hand in *effective* element values per scenario -- derates and
overrides are applied by the layer that understands them
(:meth:`repro.flat.FlatTree.solve_scenarios` for bare trees,
:meth:`repro.graph.DesignDB.solve_scenarios` for whole designs,
:meth:`repro.graph.TimingGraph.whatif_resize_worst_slack` for
candidates-as-scenarios optimization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

#: Scenario element planes accepted by the batch solvers: ``None`` (use the
#: base array for every scenario), an ``(S,)`` per-scenario vector, or a full
#: ``(S, N)`` matrix of effective element values (validated by
#: :func:`repro.parallel.engine.normalize_plane`).
PlaneInput = Optional[Union[float, Sequence[float], np.ndarray]]

__all__ = [
    "ScenarioTimes",
    "ScenarioForestTimes",
    "sweep_aggregates",
    "sweep_scenarios",
    "level_buckets",
]


def level_buckets(depth: np.ndarray) -> List[np.ndarray]:
    """Node indices grouped by depth, one array per level.

    The stable sort keeps preorder (== attachment) order within each level;
    every level-sweep consumer -- :class:`~repro.flat.flattree.FlatTree`,
    :class:`~repro.flat.forest.FlatForest` and the backends of
    :mod:`repro.parallel.engine` -- builds its buckets through this one
    helper, which is what keeps their per-level scatter order (and thus
    bitwise results) identical.
    """
    order = np.argsort(depth, kind="stable")
    counts = np.bincount(depth)
    return list(np.split(order, np.cumsum(counts)[:-1]))


@dataclass(frozen=True)
class ScenarioTimes:
    """Characteristic times of every node under every scenario (one tree).

    ``tde``/``tre``/``ree`` have shape ``(S, N)``; ``tp`` and
    ``total_capacitance`` carry one entry per scenario.
    """

    tp: np.ndarray
    tde: np.ndarray
    tre: np.ndarray
    ree: np.ndarray
    total_capacitance: np.ndarray

    @property
    def scenario_count(self) -> int:
        """Number of scenarios ``S``."""
        return self.tde.shape[0]


@dataclass(frozen=True)
class ScenarioForestTimes:
    """Characteristic times of every node of every tree under every scenario.

    Node-indexed arrays have shape ``(S, N)`` over the forest's concatenated
    numbering; ``tp`` and ``total_capacitance`` have shape ``(S, trees)``.
    """

    tp: np.ndarray
    tde: np.ndarray
    tre: np.ndarray
    ree: np.ndarray
    total_capacitance: np.ndarray

    @property
    def scenario_count(self) -> int:
        """Number of scenarios ``S``."""
        return self.tde.shape[0]


def sweep_aggregates(
    levels: Sequence[np.ndarray],
    parent: np.ndarray,
    edge_r: np.ndarray,
    edge_c: np.ndarray,
    node_c: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Path resistance and downstream capacitance, one level at a time.

    Returns ``(rkk, c_down)`` shaped like the element arrays: ``(N,)`` for
    one tree's aggregate caches (:class:`~repro.flat.flattree.FlatTree`) or
    ``(N, S)`` for :func:`sweep_scenarios`.  The forward pass accumulates
    ``R_kk`` shallow to deep; the reverse pass scatters each child's
    ``c_down + edge_c`` onto its parent, deep to shallow.
    """
    rkk = edge_r.copy()
    for level in levels[1:]:
        rkk[level] += rkk[parent[level]]
    c_down = node_c.copy()
    for level in reversed(levels[1:]):
        np.add.at(c_down, parent[level], c_down[level] + edge_c[level])
    return rkk, c_down


def sweep_scenarios(
    levels: Sequence[np.ndarray],
    parent: np.ndarray,
    edge_r: np.ndarray,
    edge_c: np.ndarray,
    node_c: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The two characteristic-time passes over ``(N, S)`` element matrices.

    Returns ``(rkk, c_down, tde, tre)``, all ``(N, S)``.  The aggregates
    come from :func:`sweep_aggregates`; the moment recurrences then run one
    level at a time, and numpy broadcasting carries the trailing scenario
    axis through every gather/scatter.
    """
    rkk, c_down = sweep_aggregates(levels, parent, edge_r, edge_c, node_c)
    tde = np.zeros_like(rkk)
    tr_num = np.zeros_like(rkk)
    for level in levels[1:]:
        p = parent[level]
        r = edge_r[level]
        lc = edge_c[level]
        below = c_down[level]
        rk = rkk[level]
        rp = rkk[p]
        tde[level] = tde[p] + r * (below + lc / 2.0)
        tr_num[level] = tr_num[p] + (rk * rk - rp * rp) * below + (rp * r + r * r / 3.0) * lc
    tre = np.divide(tr_num, rkk, out=np.zeros_like(rkk), where=rkk > 0.0)
    return rkk, c_down, tde, tre
