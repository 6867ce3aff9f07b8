"""The forest solve behind every flat solve and every ``engine=`` parameter.

:func:`solve_forest_batch` is the single entry point every array solve
funnels through.  A single-scenario solve is the same call at ``count=1``:
:meth:`repro.flat.FlatTree.solve`, :meth:`repro.flat.FlatForest.solve` and
:meth:`repro.store.StoredForest.solve` (per dirty shard) come here, and so
do the scenario-batched callers (:meth:`repro.flat.FlatForest.solve_batch`,
which carries :meth:`repro.graph.DesignDB.solve_scenarios`,
:meth:`repro.graph.TimingGraph.analyze_scenarios`,
:func:`repro.apps.corners.corner_sweep` and the CLI's ``timing --corners``
along).  It normalizes the element planes, picks the kernel once
(:func:`_select_kernel`, over the engine table
:data:`repro.parallel.backends.ENGINES`), and runs the paper's two
characteristic-time passes chunk by chunk over the scenario axis.

A solve's topology is a :class:`ForestStructure`: the forest's level plan
(:func:`repro.flat.scenarios.level_plan`) plus its preorder tree offsets.
Planes and node-indexed results are in the plan's level-major rows --
the numbering :class:`repro.flat.FlatForest` holds its arrays in -- so
nothing ``(N, S)`` is permuted on the way in or out; only the per-tree
``T_P`` and capacitance sums gather their terms back to preorder, once,
so each tree still sums in its own node order.  Outside the three
engines, the only other implementation of the passes is the dict engine
of :mod:`repro.core`, kept as the independent oracle.

Every engine runs in the calling thread and keeps no state between
solves, so concurrent solves on different forests are independent.  The
scenario axis is processed in bounded chunks
(:func:`repro.parallel.sharding.scenario_chunks`), so a 256-scenario sweep
of a large design never materializes more than a few
:data:`~repro.parallel.sharding.DEFAULT_CHUNK_CELLS`-sized planes at once.
Nothing about a *forest* is cached anywhere in this module, so incremental
edits (:meth:`~repro.flat.FlatForest.replace_tree`,
:meth:`~repro.graph.DesignDB.update_net`) are reflected by the next solve,
which simply reads the forest's current arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.exceptions import AnalysisError
from repro.flat.contraction import jump_schedule, sweep_scenarios_contract
from repro.flat.scenarios import (
    LevelPlan,
    PlaneInput,
    ScenarioForestTimes,
    sweep_scenarios,
)
from repro.parallel.backends import _decide, record_selection
from repro.parallel.sharding import scenario_chunks

__all__ = ["ForestStructure", "solve_forest_batch", "shutdown_pools"]

#: What every two-pass kernel returns: ``(rkk, c_down, tde, tre)``.
SweepResult = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
#: A solve's two-pass kernel: ``(parent, er, ec, nc)`` node-major matrices
#: in, with its topology products (the level plan or the jump schedule)
#: baked in.
SweepFn = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], SweepResult]
#: The forest's base element arrays, in ``(edge_r, edge_c, node_c)`` order.
BasePlanes = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: Normalized scenario planes (outputs of :func:`normalize_plane`), same order.
ScenarioPlanes = Tuple[
    Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]
]


@dataclass(frozen=True)
class ForestStructure:
    """The topology a forest solve needs, independent of element values.

    ``plan`` is the forest's level-major solve numbering
    (:func:`repro.flat.scenarios.level_plan`): element planes go in, and
    node-indexed results come out, in its rows.  ``offsets`` are the
    cumulative node counts of the trees in preorder numbering
    (``offsets[t]`` = first preorder node of tree ``t``), over which the
    per-tree ``T_P`` and total-capacitance reductions run.  The arrays are
    *referenced*, not copied, so a structure taken from a live forest
    reflects its layout at the time it was taken.
    """

    plan: LevelPlan
    offsets: np.ndarray

    @property
    def parent(self) -> np.ndarray:
        """Solve-numbered parent per row (``-1`` at each tree's root)."""
        return self.plan.parent

    @property
    def node_count(self) -> int:
        """Total nodes across the forest."""
        return int(self.plan.parent.shape[0])

    @property
    def tree_count(self) -> int:
        """Number of member trees."""
        return int(len(self.offsets) - 1)


def normalize_plane(values: PlaneInput, n: int, count: int) -> Optional[np.ndarray]:
    """Validate one scenario plane without materializing the ``(N, S)`` matrix.

    Returns ``None`` (use base values), a ``(S,)`` per-scenario vector, or a
    ``(S, N)`` matrix, kept in its compact form so chunked execution can
    slice scenarios lazily (:func:`_chunk_matrix`).
    """
    if values is None:
        return None
    array = np.asarray(values, dtype=float)
    if array.ndim == 1:
        if array.shape[0] != count:
            raise AnalysisError(
                f"scenario vector has {array.shape[0]} entries, expected {count}"
            )
        return array
    if array.shape != (count, n):
        raise AnalysisError(
            f"scenario plane has shape {array.shape}, expected ({count}, {n})"
        )
    return array


def _chunk_matrix(
    values: Optional[np.ndarray], base: np.ndarray, lo: int, hi: int, n: int
) -> np.ndarray:
    """The node-major ``(N, hi-lo)`` effective element matrix for [lo, hi).

    Copy-free when the caller's plane is already node-major underneath (an
    ``(S, N)`` array that is a transposed view of a C-contiguous ``(N, S)``
    matrix, the layout :meth:`repro.graph.DesignDB.solve_scenarios` builds);
    otherwise one materialization.
    """
    w = hi - lo
    if values is None:
        return np.ascontiguousarray(np.broadcast_to(base[:, np.newaxis], (n, w)))
    if values.ndim == 1:
        return np.ascontiguousarray(np.broadcast_to(values[np.newaxis, lo:hi], (n, w)))
    return np.ascontiguousarray(values[lo:hi].T)


def _solve_range(
    plan: LevelPlan,
    starts: np.ndarray,
    er: np.ndarray,
    ec: np.ndarray,
    nc: np.ndarray,
    sweep: SweepFn,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The forest kernel over one chunk of scenario columns.

    The matrices are in ``plan``'s solve rows, ``starts`` is the first
    preorder node of each member tree.  Returns ``(ree, tde, tre, tp,
    total)`` with the node-indexed arrays shaped like ``er`` (solve rows)
    and the per-tree reductions shaped ``(trees, S)``.  ``sweep`` is the
    two-pass kernel the solve selected (:func:`_select_kernel`).
    """
    parent = plan.parent
    rkk, _, tde, tre = sweep(parent, er, ec, nc)
    rkk_parent = rkk[np.maximum(parent, 0)]
    # A root has no parent edge: its gathered "parent" row above is whatever
    # node sits at row 0.  Base forests keep root edge elements at zero so
    # the term vanishes, but solve_batch accepts arbitrary planes -- zero the
    # root rows (level 0) explicitly so the T_P contribution is well-defined.
    rkk_parent[: plan.bounds[1]] = 0.0
    tp_terms = rkk * nc + (rkk_parent + er / 2.0) * ec
    # Each tree sums its terms in its own preorder, the order a tree solved
    # alone uses: gather the rows back once, into the dead rkk_parent
    # buffer ("clip" skips the buffered copy "raise" makes; every position
    # is in range).
    position = plan.position
    np.take(tp_terms, position, axis=0, out=rkk_parent, mode="clip")
    tp = np.add.reduceat(rkk_parent, starts, axis=0)
    np.add(nc, ec, out=rkk_parent)
    np.take(rkk_parent, position, axis=0, out=tp_terms, mode="clip")
    total = np.add.reduceat(tp_terms, starts, axis=0)
    return rkk, tde, tre, tp, total


# ----------------------------------------------------------------------
# Kernel selection and chunked execution
# ----------------------------------------------------------------------
def _select_kernel(
    engine: Optional[str], structure: ForestStructure, count: int
) -> SweepFn:
    """The one kernel decision of a solve: resolve, record, build the sweep.

    Resolves ``engine`` over :data:`~repro.parallel.backends.ENGINES`
    (auto-selection, and the fallback of an explicit ``"native"`` to
    ``"numpy"`` where the compiled kernels are unusable), records the
    selection and its reason, and returns the two-pass kernel for that
    engine with its topology products baked in: the level plan for the
    level sweeps, the jump schedule for contraction rounds (``"contract"``,
    and ``"native"`` on depth-pathological forests).  The checks are done
    here once, so the unchecked compiled bodies run per chunk.
    """
    n = structure.node_count
    plan = structure.plan
    name, deep, reason = _decide(engine, n * count, n, plan.depth)
    record_selection(
        engine, name, nodes=n, scenarios=count, depth=plan.depth, reason=reason
    )
    contract: Callable[..., SweepResult] = sweep_scenarios_contract
    level_sweep: Callable[..., SweepResult] = sweep_scenarios
    if name == "native":
        # Imported only here: this is what pays the one-time Numba import.
        from repro.flat.native import _contract_impl, _sweep_impl

        contract, level_sweep = _contract_impl, _sweep_impl
    if name == "contract" or (name == "native" and deep):
        return partial(contract, schedule=jump_schedule(structure.parent))
    return partial(level_sweep, plan)


def _solve_serial(
    structure: ForestStructure,
    base: BasePlanes,
    planes: ScenarioPlanes,
    count: int,
    sweep: SweepFn,
) -> ScenarioForestTimes:
    """Chunked execution of the selected kernel in the calling thread.

    The topology products live in ``sweep`` (see :func:`_select_kernel`),
    so chunked solves pay them once.
    """
    n = structure.node_count
    trees = structure.tree_count
    plan = structure.plan
    starts = np.asarray(structure.offsets[:-1], dtype=np.int64)
    chunks = scenario_chunks(count, n)
    base_er, base_ec, base_nc = base
    plane_er, plane_ec, plane_nc = planes

    if len(chunks) == 1:
        # Whole sweep fits one working set: solve in place, return views.
        er = _chunk_matrix(plane_er, base_er, 0, count, n)
        ec = _chunk_matrix(plane_ec, base_ec, 0, count, n)
        nc = _chunk_matrix(plane_nc, base_nc, 0, count, n)
        ree, tde, tre, tp, total = _solve_range(plan, starts, er, ec, nc, sweep)
        return ScenarioForestTimes(
            tp=tp.T, tde=tde.T, tre=tre.T, ree=ree.T, total_capacitance=total.T
        )

    out_tde = np.empty((n, count), dtype=np.float64)
    out_tre = np.empty((n, count), dtype=np.float64)
    out_ree = np.empty((n, count), dtype=np.float64)
    out_tp = np.empty((trees, count), dtype=np.float64)
    out_total = np.empty((trees, count), dtype=np.float64)
    for lo, hi in chunks:
        er = _chunk_matrix(plane_er, base_er, lo, hi, n)
        ec = _chunk_matrix(plane_ec, base_ec, lo, hi, n)
        nc = _chunk_matrix(plane_nc, base_nc, lo, hi, n)
        ree, tde, tre, tp, total = _solve_range(plan, starts, er, ec, nc, sweep)
        out_ree[:, lo:hi] = ree
        out_tde[:, lo:hi] = tde
        out_tre[:, lo:hi] = tre
        out_tp[:, lo:hi] = tp
        out_total[:, lo:hi] = total
    return ScenarioForestTimes(
        tp=out_tp.T,
        tde=out_tde.T,
        tre=out_tre.T,
        ree=out_ree.T,
        total_capacitance=out_total.T,
    )


def shutdown_pools() -> None:
    """Kept for callers that release execution resources; a no-op.

    Every engine runs in the calling thread, so there are no worker pools
    or shared-memory blocks to release.
    """


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def solve_forest_batch(
    structure: ForestStructure,
    base: Tuple[np.ndarray, np.ndarray, np.ndarray],
    planes: Tuple,
    count: int,
    *,
    engine: Optional[str] = None,
) -> ScenarioForestTimes:
    """Solve every tree of a forest under ``count`` scenarios.

    ``base`` carries the forest's resident ``(edge_r, edge_c, node_c)``
    arrays; ``planes`` the caller's overrides in
    :meth:`~repro.flat.FlatTree.solve_batch` form (``None`` / ``(S,)`` /
    ``(S, N)`` each).  ``engine`` names one of
    :data:`~repro.parallel.backends.ENGINES` (``None`` auto-selects by
    sweep size and depth pathology); the scenario axis runs in
    :func:`~repro.parallel.sharding.scenario_chunks` of bounded memory.
    Every engine returns numerically identical
    (to 1e-12) :class:`~repro.flat.scenarios.ScenarioForestTimes` -- the
    choice is an execution detail, never a semantics change.  The selection
    is recorded (:func:`repro.parallel.backends.last_selection`); an
    explicit request that degrades to another engine warns on stderr.
    """
    count = int(count)
    if count < 1:
        raise AnalysisError(f"scenario count must be >= 1, got {count}")
    n = structure.node_count
    planes = tuple(normalize_plane(plane, n, count) for plane in planes)
    sweep = _select_kernel(engine, structure, count)
    return _solve_serial(structure, base, planes, count, sweep)
