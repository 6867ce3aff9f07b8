"""Scenario-batched characteristic-time sweeps.

The paper's two tree passes run here over ``(N, S)`` element matrices --
``S`` scenarios side by side, a few vectorized numpy calls per depth
level -- so a 64-corner sweep costs a handful of slightly wider numpy calls
instead of 64 re-runs of the whole pipeline.

Each pass finishes one tree level before it starts the next, so the
forest is numbered level-major (:func:`level_plan`): the nodes sorted
stably by depth, which makes every level one contiguous slice of the
matrices and every sibling run a contiguous, child-ordered slice of its
level.  The forward recurrences are then slice writes with one parent
gather per level, and the upward ``c_down`` pass adds one sibling rank per
step.  :class:`repro.flat.FlatForest` holds its arrays in this numbering,
so no plane is permuted on the way into or out of a solve.  A single-scenario solve is
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
    "LevelPlan",
    "level_plan",
    "sweep_scenarios",
]


#: One rank step of the upward ``c_down`` pass: ``(children, parents)`` --
#: the level's rank-``r`` children as offsets into the level's slice, and
#: their parents' solve rows.  No parent appears twice in one step.
RankStep = Tuple[np.ndarray, np.ndarray]
#: One level of a plan: ``(lo, hi, schedule)`` -- the level's solve rows
#: ``[lo, hi)`` and its rank steps, rank 0 first.
PlanLevel = Tuple[int, int, Tuple[RankStep, ...]]


@dataclass(frozen=True)
class LevelPlan:
    """A forest's level-major solve numbering and its sweep schedule.

    Solve row ``k`` holds preorder node ``order[k]`` (``position`` is the
    inverse map).  The rows are the nodes sorted stably by depth, so every
    level is one contiguous slice (``bounds[d]:bounds[d + 1]``), every
    sibling run is contiguous and in child order, and a parent's row
    always precedes its children's.  ``parent`` is the solve-numbered
    parent (``-1`` at roots, which fill level 0).  ``levels`` holds, for
    every level below the roots, its row span and its ``c_down`` rank
    steps: step ``r`` adds each rank-``r`` child (the ``r``-th sibling of
    its run) onto its parent, so a parent sums its children left to
    right -- the order the passes of the dict-based reference use.
    """

    order: np.ndarray
    position: np.ndarray
    bounds: np.ndarray
    parent: np.ndarray
    levels: Tuple[PlanLevel, ...]

    @property
    def depth(self) -> int:
        """The deepest level (0 for a forest of single nodes)."""
        return len(self.bounds) - 2


def level_plan(parent: np.ndarray, depth: np.ndarray) -> LevelPlan:
    """Plan a forest from its preorder ``parent`` (roots ``-1``) and ``depth``.

    Vectorized over the nodes; the only Python-level work is one tuple per
    (level, sibling rank) pair.  The stable depth sort of a preorder
    forest lists each level's nodes by their parents' rows, so sibling
    runs come out contiguous; ranks are counted after a stable sort by
    parent, which keeps them exact for any topological input.
    """
    n = parent.shape[0]
    order = np.argsort(depth, kind="stable")
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n, dtype=np.int64)
    counts = np.bincount(depth)
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    roots = int(bounds[1])  # depth 0 is exactly the roots
    solve_parent = position[parent[order]]
    solve_parent[:roots] = -1
    # Sibling rank of every non-root row: its offset inside its parent's
    # run, counted in row order (a stable sort by parent gathers the run).
    runs = np.argsort(solve_parent[roots:], kind="stable")
    grouped = solve_parent[roots:][runs]
    steps = np.arange(n - roots, dtype=np.int64)
    first = np.empty(n - roots, dtype=bool)
    first[:1] = True
    np.not_equal(grouped[1:], grouped[:-1], out=first[1:])
    rank = np.empty(n - roots, dtype=np.int64)
    rank[runs] = steps - np.maximum.accumulate(np.where(first, steps, 0))
    # Non-root rows grouped by (level, rank), row order within a group.
    width = int(rank.max(initial=0)) + 1
    key = np.repeat(np.arange(len(counts), dtype=np.int64), counts)[roots:]
    key *= width
    key += rank
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    heads = np.flatnonzero(first)
    ends = np.append(heads[1:], n - roots)
    per_level = np.bincount(key[heads] // width, minlength=len(counts))
    edges = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(per_level, out=edges[1:])
    rows = by_key + roots
    local = rows - bounds[key // width]
    parents = solve_parent[rows]
    schedule = [(local[a:b], parents[a:b]) for a, b in zip(heads, ends)]
    return LevelPlan(
        order=order,
        position=position,
        bounds=bounds,
        parent=solve_parent,
        levels=tuple(
            (
                int(bounds[d]),
                int(bounds[d + 1]),
                tuple(schedule[edges[d] : edges[d + 1]]),
            )
            for d in range(1, len(counts))
        ),
    )


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

    Node-indexed arrays have shape ``(S, N)`` over the forest's node
    numbering (a :class:`~repro.flat.FlatForest`'s level-major solve rows,
    a :class:`~repro.store.StoredForest`'s preorder); ``tp`` and
    ``total_capacitance`` have shape ``(S, trees)``.
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


def sweep_scenarios(
    plan: LevelPlan,
    parent: np.ndarray,
    edge_r: np.ndarray,
    edge_c: np.ndarray,
    node_c: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The two characteristic-time passes over ``(N, S)`` element matrices.

    The matrices and ``parent`` are in ``plan``'s solve numbering; returns
    ``(rkk, c_down, tde, tre)``, all ``(N, S)`` in the same numbering.  The
    reverse pass adds each level's ``c_down + edge_c`` onto the parents,
    deep to shallow, one sibling rank per step; the forward pass then
    accumulates ``R_kk`` and both moment recurrences shallow to deep, one
    slice write per level.  Numpy broadcasting carries the trailing
    scenario axis through every gather and scatter.
    """
    c_down = node_c.copy()
    for lo, hi, schedule in reversed(plan.levels):
        below = c_down[lo:hi] + edge_c[lo:hi]
        for children, parents in schedule:
            c_down[parents] += below[children]
    rkk = edge_r.copy()
    tde = np.zeros_like(rkk)
    tr_num = np.zeros_like(rkk)
    for lo, hi, _ in plan.levels:
        p = parent[lo:hi]
        rp = rkk[p]
        rkk[lo:hi] += rp
        r = edge_r[lo:hi]
        lc = edge_c[lo:hi]
        below = c_down[lo:hi]
        rk = rkk[lo:hi]
        tde[lo:hi] = tde[p] + r * (below + lc / 2.0)
        tr_num[lo:hi] = tr_num[p] + (rk * rk - rp * rp) * below + (rp * r + r * r / 3.0) * lc
    tre = np.divide(tr_num, rkk, out=np.zeros_like(rkk), where=rkk > 0.0)
    return rkk, c_down, tde, tre
