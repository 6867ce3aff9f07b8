"""Pointer-jumping tree contraction: depth-independent characteristic times.

The level sweeps of :mod:`repro.flat.scenarios` issue a few numpy calls
per depth level, so a 10k-node *chain* degenerates into 10k tiny calls
and the vectorization win evaporates (the "depth pathology" of
docs/performance.md).  This module reformulates both passes as parallel
tree contraction in the rake-and-compress / pointer-jumping family: every
quantity the paper's recurrences need is either a **root-path prefix sum**
or a **subtree sum**, and both are computable in ``ceil(log2(depth + 1))``
rounds of ``O(N)`` vectorized work regardless of topology.

The decomposition
-----------------

With ``R_kk`` the path resistance, ``c_down`` the downstream capacitance
and per-node weights derived from the element planes:

* ``R_kk[v] = sum of edge_r along root->v``  -- a root-path sum of
  ``edge_r`` (the root's own entry included, exactly as the level sweep's
  ``rkk = edge_r.copy()`` seeds it);
* ``c_down[v] = sum of node_c over subtree(v) + sum of edge_c over
  subtree(v) minus v itself`` -- a subtree sum of ``node_c`` plus a
  subtree sum of each child edge's ``edge_c`` scattered onto its parent;
* ``T_De[v] = sum over the root path of  edge_r * (c_down + edge_c/2)``;
* ``T_Rn[v] = sum over the root path of  (R_kk^2 - R_kk[parent]^2) * c_down
  + (R_kk[parent] * edge_r + edge_r^2/3) * edge_c``.

Root-path sums run as classic pointer jumping: each round every live node
adds its successor's partial sum and doubles its pointer.  Subtree sums
reuse the *same* jump schedule run in reverse with scatter-adds -- the two
passes are exact linear-algebra transposes of each other, so one schedule
(:func:`jump_schedule`, pure topology) serves every plane of every solve.

Contract with the level sweeps
------------------------------

:func:`sweep_scenarios_contract` accepts the same node-major ``(N, S)``
element planes as :func:`repro.flat.scenarios.sweep_scenarios` and returns
the same ``(rkk, c_down, tde, tre)`` tuple.  The arithmetic is the same
recurrences with a *balanced* summation order instead of a sequential one,
so results agree with the level sweeps to far better than the 1e-12
relative parity the cross-engine test matrix pins -- but not bitwise,
which is why ``engine="numpy"`` remains the reference path.

Nothing here recurses and nothing depends on node numbering: any
parent-index array (forest roots at ``-1``) is accepted, so the engine
hands it a forest's solve-numbered parents
(:attr:`repro.parallel.ForestStructure.parent`) and the planes in the same
rows.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = [
    "jump_schedule",
    "path_sums",
    "subtree_sums",
    "sweep_scenarios_contract",
    "last_round_count",
]

#: Rounds executed by the most recent :func:`sweep_scenarios_contract` call
#: (the jump-schedule length; each of the kernel's passes replays the same
#: schedule).  Observability hook for the O(log N) regression tests.
_LAST_ROUNDS: List[int] = [0]

#: One pointer-jumping round: ``(nodes, targets)`` -- the live node indices
#: and the node each one currently points at.
Round = Tuple[np.ndarray, np.ndarray]

#: Signature shared by :func:`path_sums` / :func:`subtree_sums` and their
#: compiled twins in :mod:`repro.flat.native`: weight plane + schedule in,
#: accumulated plane out.
SumFn = Callable[[np.ndarray, List[Round]], np.ndarray]


def jump_schedule(parent: np.ndarray) -> List[Round]:
    """The pointer-jumping rounds for a parent-index array (roots ``-1``).

    Round ``i`` holds ``(nodes, targets)``: the nodes whose pointer is still
    live and the node each pointer currently reaches (``parent`` on round 0,
    grandparents on round 1, ``2^i``-th ancestors on round ``i``).  The
    schedule is pure topology -- element planes never enter -- so one
    schedule is shared by the ``R_kk``, ``c_down`` and moment passes of a
    solve, and its length is ``ceil(log2(max_depth + 1))``: O(log N) rounds
    for any forest, 14 for a 10k-node chain where the level sweeps need
    10k.
    """
    nxt = np.asarray(parent, dtype=np.int64).copy()
    schedule: List[Round] = []
    while True:
        nodes = np.flatnonzero(nxt >= 0)
        if nodes.size == 0:
            return schedule
        targets = nxt[nodes]
        schedule.append((nodes, targets))
        nxt[nodes] = nxt[targets]


def path_sums(weights: np.ndarray, schedule: List[Round]) -> np.ndarray:
    """Inclusive root-path sums of per-node weights, in O(log depth) rounds.

    ``weights`` is ``(N,)`` or ``(N, S)``; the result has the same shape and
    holds, for every node, the sum of the weights of the node itself and all
    of its ancestors (each tree's root included).  Within one round the
    gather reads the *previous* round's values -- numpy evaluates the
    right-hand side before the fancy-indexed assignment -- which is what
    makes every round a synchronous doubling step.
    """
    totals = np.array(weights, dtype=float, copy=True)
    for nodes, targets in schedule:
        totals[nodes] += totals[targets]
    return totals


def subtree_sums(weights: np.ndarray, schedule: List[Round]) -> np.ndarray:
    """Per-node subtree sums of per-node weights, in O(log depth) rounds.

    The exact transpose of :func:`path_sums`: the same schedule is replayed
    in reverse with scatter-adds (``np.add.at`` accumulates duplicate
    targets), so the summation tree -- and therefore the rounding behaviour
    -- is the mirror image of the path-sum pass.  ``weights`` is ``(N,)`` or
    ``(N, S)``; the result includes each node's own weight.
    """
    totals = np.array(weights, dtype=float, copy=True)
    for nodes, targets in reversed(schedule):
        np.add.at(totals, targets, totals[nodes])
    return totals


def sweep_scenarios_contract(
    parent: np.ndarray,
    edge_r: np.ndarray,
    edge_c: np.ndarray,
    node_c: np.ndarray,
    schedule: Optional[List[Round]] = None,
    *,
    path_fn: Optional[SumFn] = None,
    subtree_fn: Optional[SumFn] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The two characteristic-time passes via pointer jumping.

    Drop-in contraction twin of
    :func:`repro.flat.scenarios.sweep_scenarios`: the same node-major
    ``(N, S)`` element planes in, the same ``(rkk, c_down, tde, tre)``
    tuple out, but O(log depth) contraction rounds instead of O(depth)
    level sweeps.  ``schedule`` may carry a precomputed
    :func:`jump_schedule` so chunked solves pay the topology pass once.
    ``path_fn`` / ``subtree_fn`` substitute the round executors -- this is
    how :mod:`repro.flat.native` runs the same decomposition with compiled
    gather/scatter rounds while the weight-plane algebra stays shared.
    """
    path_sum = path_sums if path_fn is None else path_fn
    subtree_sum = subtree_sums if subtree_fn is None else subtree_fn
    parent = np.asarray(parent, dtype=np.int64)
    if schedule is None:
        schedule = jump_schedule(parent)
    _LAST_ROUNDS[0] = len(schedule)
    roots = parent < 0
    non_root = np.flatnonzero(~roots)
    clamped = np.maximum(parent, 0)

    # Downstream capacitance: a subtree sum of the node capacitances plus
    # each child edge's distributed capacitance credited to its parent
    # (the level sweep adds c_down[child] + edge_c[child] onto the parent,
    # so a node's own edge_c is excluded from its c_down).
    down_w = node_c.copy()
    np.add.at(down_w, parent[non_root], edge_c[non_root])
    c_down = subtree_sum(down_w, schedule)

    # Path resistance, root rows seeded with their own edge_r exactly like
    # the level sweep's ``rkk = edge_r.copy()``.
    rkk = path_sum(edge_r, schedule)
    rkk_parent = rkk[clamped]
    rkk_parent[roots] = 0.0

    # Per-node contributions of the forward recurrences; the path sums of
    # these weights are T_De and the T_Rn numerator.  Root rows contribute
    # nothing -- the level sweep never updates them either.  Both weight
    # planes replay the same schedule, so they are stacked into one pass:
    # the per-column arithmetic is unchanged, only the index decoding is
    # shared.
    w_de = edge_r * (c_down + edge_c / 2.0)
    w_de[roots] = 0.0
    w_tr = (rkk * rkk - rkk_parent * rkk_parent) * c_down + (
        rkk_parent * edge_r + edge_r * edge_r / 3.0
    ) * edge_c
    w_tr[roots] = 0.0
    if w_de.ndim == 2:
        width = w_de.shape[1]
        fused = path_sum(np.concatenate([w_de, w_tr], axis=1), schedule)
        tde, tr_num = fused[:, :width], fused[:, width:]
    else:
        fused = path_sum(np.stack([w_de, w_tr], axis=-1), schedule)
        tde, tr_num = fused[..., 0], fused[..., 1]
    tre = np.divide(tr_num, rkk, out=np.zeros_like(rkk), where=rkk > 0.0)
    return rkk, c_down, tde, tre


def last_round_count() -> int:
    """Pointer-jumping rounds of the most recent contraction sweep.

    The regression suite asserts this stays O(log N) -- e.g. 14 rounds for
    a 10k-node chain -- so a future change that silently reintroduces a
    depth-proportional loop fails loudly.
    """
    return _LAST_ROUNDS[0]
