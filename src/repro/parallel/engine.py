"""The forest solve behind every flat solve and every ``engine=`` parameter.

:func:`solve_forest_batch` is the single entry point every array solve
funnels through.  A single-scenario solve is the same call at ``count=1``:
:meth:`repro.flat.FlatTree.solve`, :meth:`repro.flat.FlatForest.solve` and
:meth:`repro.store.StoredForest.solve` (per dirty shard) come here, and so
do the scenario-batched callers (:meth:`repro.flat.FlatForest.solve_batch`,
which carries :meth:`repro.graph.DesignDB.solve_scenarios`,
:meth:`repro.graph.TimingGraph.analyze_scenarios`,
:func:`repro.apps.corners.corner_sweep` and the CLI's ``timing --corners``
along).  It normalizes the element planes, picks a backend through
:func:`repro.parallel.backends.resolve_engine`, and runs the paper's two
characteristic-time passes chunk by chunk over the scenario axis.  Outside
the backends registered here, the only other implementation of the passes
is the dict engine of :mod:`repro.core`, kept as the independent oracle.

Every backend runs in the calling thread and keeps no state between
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
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import AnalysisError
from repro.flat.contraction import jump_schedule, sweep_scenarios_contract
from repro.flat.scenarios import (
    PlaneInput,
    ScenarioForestTimes,
    level_buckets,
    sweep_scenarios,
)
from repro.parallel.backends import (
    record_selection,
    register_backend,
    resolve_engine,
    should_contract,
)
from repro.parallel.sharding import scenario_chunks

__all__ = ["ForestStructure", "solve_forest_batch", "shutdown_pools"]

#: A substitute two-pass kernel: ``(parent, er, ec, nc)`` node-major
#: matrices in, ``(rkk, c_down, tde, tre)`` out (the contraction sweeps
#: with their jump schedule baked in).
SweepFn = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
]
#: The forest's base element arrays, in ``(edge_r, edge_c, node_c)`` order.
BasePlanes = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: Normalized scenario planes (outputs of :func:`normalize_plane`), same order.
ScenarioPlanes = Tuple[
    Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]
]


@dataclass(frozen=True)
class ForestStructure:
    """The topology arrays a forest solve needs, independent of element values.

    ``parent`` uses global node indices (``-1`` for each tree's root),
    ``depth`` is the per-node level, ``offsets`` the cumulative node counts
    (``offsets[t]`` = first node of tree ``t``).  ``levels`` may carry the
    forest's precomputed level buckets to skip re-deriving them; the arrays
    are *referenced*, not copied, so a structure taken from a live forest
    always reflects its current (post-splice) layout.
    """

    parent: np.ndarray
    depth: np.ndarray
    offsets: np.ndarray
    levels: Optional[List[np.ndarray]] = None

    @property
    def node_count(self) -> int:
        """Total nodes across the forest."""
        return int(self.parent.shape[0])

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
    parent: np.ndarray,
    levels: Sequence[np.ndarray],
    starts: np.ndarray,
    er: np.ndarray,
    ec: np.ndarray,
    nc: np.ndarray,
    sweep: Optional[SweepFn] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The forest kernel over one chunk of scenario columns.

    ``parent`` marks roots ``-1``, ``starts`` is the first-node index of
    each member tree.  Returns ``(ree, tde, tre, tp, total)`` with the
    node-indexed arrays shaped like ``er`` and the per-tree reductions
    shaped ``(trees, S)``.  ``sweep`` substitutes an alternative two-pass
    kernel with the :func:`sweep_scenarios` signature minus ``levels`` (the
    contraction and compiled kernels), which keeps the documented 1e-12
    parity with the level sweeps.
    """
    if sweep is None:
        rkk, _, tde, tre = sweep_scenarios(levels, parent, er, ec, nc)
    else:
        rkk, _, tde, tre = sweep(parent, er, ec, nc)
    rkk_parent = rkk[np.maximum(parent, 0)]
    # A root has no parent edge: its gathered "parent" row above is whatever
    # node sits at index 0.  Base forests keep root edge elements at zero so
    # the term vanishes, but solve_batch accepts arbitrary planes -- zero the
    # root rows explicitly so the T_P contribution is well-defined.
    rkk_parent[parent < 0] = 0.0
    tp_terms = rkk * nc + (rkk_parent + er / 2.0) * ec
    tp = np.add.reduceat(tp_terms, starts, axis=0)
    total = np.add.reduceat(nc + ec, starts, axis=0)
    return rkk, tde, tre, tp, total


# ----------------------------------------------------------------------
# Backends ("numpy", "contract" and "native")
# ----------------------------------------------------------------------
def _solve_serial(
    structure: ForestStructure,
    base: BasePlanes,
    planes: ScenarioPlanes,
    count: int,
    chunk: Optional[int],
    sweep: Optional[SweepFn] = None,
) -> ScenarioForestTimes:
    """Chunked execution of the forest kernel in the calling thread.

    ``sweep=None`` runs the level sweeps (the ``"numpy"`` reference path);
    a ``sweep`` callable substitutes another two-pass kernel -- the
    contraction backend passes the pointer-jumping sweeps with their jump
    schedule baked in, so chunked solves pay the topology pass once.
    """
    n = structure.node_count
    trees = structure.tree_count
    parent = structure.parent
    levels = structure.levels
    if levels is None and sweep is None:
        levels = level_buckets(structure.depth)
    starts = np.asarray(structure.offsets[:-1], dtype=np.int64)
    chunks = scenario_chunks(count, n, chunk=chunk)
    base_er, base_ec, base_nc = base
    plane_er, plane_ec, plane_nc = planes

    if len(chunks) == 1:
        # Whole sweep fits one working set: solve in place, return views.
        er = _chunk_matrix(plane_er, base_er, 0, count, n)
        ec = _chunk_matrix(plane_ec, base_ec, 0, count, n)
        nc = _chunk_matrix(plane_nc, base_nc, 0, count, n)
        ree, tde, tre, tp, total = _solve_range(
            parent, levels, starts, er, ec, nc, sweep=sweep
        )
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
        ree, tde, tre, tp, total = _solve_range(
            parent, levels, starts, er, ec, nc, sweep=sweep
        )
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


def _solve_numpy(
    structure: ForestStructure,
    base: BasePlanes,
    planes: ScenarioPlanes,
    count: int,
    chunk: Optional[int],
) -> ScenarioForestTimes:
    """Chunked serial execution of the level sweeps (the reference path)."""
    return _solve_serial(structure, base, planes, count, chunk)


def _contract_sweep(parent: np.ndarray) -> SweepFn:
    """The contraction kernel with its jump schedule precomputed.

    The schedule depends only on topology, so one pass serves every
    scenario chunk of a solve.
    """
    schedule = jump_schedule(parent)

    def sweep(
        parent_: np.ndarray, er: np.ndarray, ec: np.ndarray, nc: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return sweep_scenarios_contract(parent_, er, ec, nc, schedule=schedule)

    return sweep


def _solve_contract(
    structure: ForestStructure,
    base: BasePlanes,
    planes: ScenarioPlanes,
    count: int,
    chunk: Optional[int],
) -> ScenarioForestTimes:
    """Chunked serial execution of the pointer-jumping contraction kernels."""
    return _solve_serial(
        structure, base, planes, count, chunk, sweep=_contract_sweep(structure.parent)
    )


def _native_sweep_for(
    parent: np.ndarray, levels: Sequence[np.ndarray]
) -> Optional[SweepFn]:
    """A compiled two-pass kernel for one forest, or ``None``.

    ``None`` means the compiled kernels are unusable here (Numba missing,
    disabled via ``REPRO_DISABLE_NATIVE``, or a JIT failure) and the caller
    should fall through to the numpy kernels.  Deep forests (per
    :func:`repro.parallel.backends.should_contract`) get the compiled
    contraction rounds, everything else the fused compiled level sweep.
    """
    from repro.flat import native

    if not native.native_ready():
        return None
    deep = should_contract(len(levels) - 1, int(parent.shape[0]))
    return native.native_sweeps_for(parent, levels, deep)


def _solve_native(
    structure: ForestStructure,
    base: BasePlanes,
    planes: ScenarioPlanes,
    count: int,
    chunk: Optional[int],
) -> ScenarioForestTimes:
    """Chunked execution of the JIT-compiled kernels.

    The compiled sweep runs through the same chunked driver as every other
    backend; Numba's ``prange`` spreads each sweep across cores.  If the
    kernels turn out unusable the numpy path runs --
    :func:`solve_forest_batch` normally swaps the backend (and records the
    reason) before ever dispatching here, so this is a second belt.
    """
    levels = structure.levels
    if levels is None:
        levels = level_buckets(structure.depth)
    sweep = _native_sweep_for(structure.parent, levels)
    if sweep is None:
        return _solve_numpy(structure, base, planes, count, chunk)
    return _solve_serial(structure, base, planes, count, chunk, sweep=sweep)


def shutdown_pools() -> None:
    """Kept for callers that release execution resources; a no-op.

    Every backend runs in the calling thread, so there are no worker pools
    or shared-memory blocks to release.
    """


register_backend(
    "numpy",
    _solve_numpy,
    description="vectorized level sweeps, in-process (the reference path)",
)
register_backend(
    "contract",
    _solve_contract,
    description="pointer-jumping tree contraction: O(log N) rounds "
    "regardless of depth, for chain-heavy forests",
)
register_backend(
    "native",
    _solve_native,
    description="Numba JIT-compiled fused sweeps, prange-parallel across "
    "cores; degrades to numpy without Numba",
)


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
    scenario_chunk: Optional[int] = None,
) -> ScenarioForestTimes:
    """Solve every tree of a forest under ``count`` scenarios.

    ``base`` carries the forest's resident ``(edge_r, edge_c, node_c)``
    arrays; ``planes`` the caller's overrides in
    :meth:`~repro.flat.FlatTree.solve_batch` form (``None`` / ``(S,)`` /
    ``(S, N)`` each).  ``engine`` selects a registered backend by name
    (``None`` auto-selects by sweep size and depth pathology) and
    ``scenario_chunk`` overrides the bounded-memory chunk width.  Every
    backend returns numerically identical (to 1e-12)
    :class:`~repro.flat.scenarios.ScenarioForestTimes` -- backend choice is
    an execution detail, never a semantics change.  The selection is
    recorded (:func:`repro.parallel.backends.last_selection`); an explicit
    request that degrades to another backend warns on stderr.
    """
    count = int(count)
    if count < 1:
        raise AnalysisError(f"scenario count must be >= 1, got {count}")
    n = structure.node_count
    planes = tuple(normalize_plane(plane, n, count) for plane in planes)
    if structure.levels is not None:
        depth = len(structure.levels) - 1
    else:
        depth = int(structure.depth.max()) if n else 0
    backend = resolve_engine(engine, cells=n * count, nodes=n, depth=depth)
    reason = ""
    if backend.name == "native":
        from repro.flat import native

        if not native.native_ready():
            # Auto-selection never picks an unready "native", so this is an
            # *explicit* request on a machine without usable Numba: honour
            # the solve with the reference kernels and record why, instead
            # of failing a pipeline over an optional accelerator.
            reason = f"native kernels unavailable ({native.native_status()})"
            backend = resolve_engine("numpy")
    record_selection(
        engine, backend.name, nodes=n, scenarios=count, depth=depth, reason=reason
    )
    return backend.solver(structure, base, planes, count, scenario_chunk)
