"""The preorder level-bucket sweep, kept only as the parity oracle.

Before the forest held its arrays level-major, the two characteristic-time
passes ran over preorder arrays: one fancy-indexed bucket of node ids per
depth level, and an ``np.add.at`` scatter for the upward ``c_down`` pass.
:func:`sweep_scenarios` below is that kernel verbatim.  Tests hold
:func:`repro.flat.scenarios.sweep_scenarios` (and every engine built on
it) bit for bit to it, row ``k`` of the level-major result against node
``plan.order[k]`` here.
"""

from typing import List, Sequence, Tuple

import numpy as np


def level_buckets(depth: np.ndarray) -> List[np.ndarray]:
    """Node indices grouped by depth, one array per level.

    The stable sort keeps preorder (== attachment) order within each level.
    """
    order = np.argsort(depth, kind="stable")
    counts = np.bincount(depth)
    return list(np.split(order, np.cumsum(counts)[:-1]))


def sweep_scenarios(
    levels: Sequence[np.ndarray],
    parent: np.ndarray,
    edge_r: np.ndarray,
    edge_c: np.ndarray,
    node_c: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The two characteristic-time passes over ``(N, S)`` element matrices.

    Returns ``(rkk, c_down, tde, tre)``, all ``(N, S)``.  The forward pass
    accumulates ``R_kk`` shallow to deep; the reverse pass scatters each
    child's ``c_down + edge_c`` onto its parent, deep to shallow; the moment
    recurrences then run one level at a time.  Numpy broadcasting carries
    the trailing scenario axis through every gather/scatter.
    """
    rkk = edge_r.copy()
    for level in levels[1:]:
        rkk[level] += rkk[parent[level]]
    c_down = node_c.copy()
    for level in reversed(levels[1:]):
        np.add.at(c_down, parent[level], c_down[level] + edge_c[level])
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


def oracle_sweep(
    parent: np.ndarray,
    depth: np.ndarray,
    edge_r: np.ndarray,
    edge_c: np.ndarray,
    node_c: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`sweep_scenarios` over preorder arrays, with its own buckets."""
    return sweep_scenarios(level_buckets(depth), parent, edge_r, edge_c, node_c)
