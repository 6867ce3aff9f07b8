"""JIT-compiled (Numba) twins of the characteristic-time kernels.

The numpy engines pay one interpreter dispatch per depth level
(:func:`repro.flat.scenarios.sweep_scenarios`) or per contraction round
(:func:`repro.flat.contraction.sweep_scenarios_contract`), plus a full
``(N, S)`` temporary per sub-expression.  This module compiles both kernel
families with Numba ``@njit(parallel=True, cache=True)`` so one fused pass
replaces the whole call sequence:

* :func:`sweep_scenarios_native` -- the two Penfield--Rubinstein passes
  (reverse ``c_down`` gather, forward ``T_De``/``T_Rn`` recurrences) as a
  single compiled sweep over the level order, ``prange``-parallel across
  scenario-column blocks.  The per-element expressions and the per-level
  accumulation order are kept identical to the numpy sweeps, so results
  match the reference far inside the engine contract's 1e-12.
* :func:`path_sums_native` / :func:`subtree_sums_native` -- the
  pointer-jumping gather/scatter rounds of :mod:`repro.flat.contraction`
  as compiled kernels replaying the same jump schedule (each round
  snapshots its sources first, exactly like the numpy fancy-indexing
  semantics), combined by :func:`sweep_scenarios_contract_native`.

Numba is **never a hard dependency**.  The import is probed once at module
import; :func:`native_status` reports ``"ok"``, ``"numba-missing"``,
``"disabled"`` (the ``REPRO_DISABLE_NATIVE=1`` escape hatch) or
``"jit-failed"``, and every consumer -- the ``"native"`` backend in
:mod:`repro.parallel.engine`, the auto-selection in
:mod:`repro.parallel.backends` -- degrades to the numpy kernels when
:func:`native_ready` is False, recording why in
:func:`repro.parallel.backends.last_selection`.

The kernels declare ``cache=True`` so the machine-code artifact persists on
disk: the compile cost is paid once per machine, and later processes load
the same cache instead of recompiling.  Unless ``NUMBA_THREADING_LAYER`` is
set explicitly, the threading layer is pinned to ``"threadsafe"`` -- solves
run concurrently on several Python threads (the timing service's executor),
which the ``workqueue`` layer does not support.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import AnalysisError
from repro.flat.contraction import Round, jump_schedule, sweep_scenarios_contract

__all__ = [
    "NATIVE_DISABLE_ENV",
    "native_available",
    "native_ready",
    "native_status",
    "path_sums_native",
    "subtree_sums_native",
    "sweep_scenarios_native",
    "sweep_scenarios_contract_native",
]

#: Environment variable that, when set to a non-empty value other than
#: ``"0"``, disables the compiled kernels even when Numba is installed --
#: the knob CI's fallback job uses to prove the numpy path end to end.
NATIVE_DISABLE_ENV = "REPRO_DISABLE_NATIVE"

#: Scenario columns handled per ``prange`` work item.  Blocks keep the
#: innermost loops on contiguous memory (the planes are node-major C
#: arrays), and 8 doubles span one cache line.
_BLOCK = 8

try:  # pragma: no cover - exercised only where numba is installed
    import numba
    from numba import njit, prange

    _PROBE = "ok"
except Exception:  # numba absent (or broken) -- the numpy engines carry on
    _PROBE = "numba-missing"

#: One-slot memo of the warm-compile outcome: ``None`` = not yet attempted,
#: then ``True``/``False``.  A JIT failure is remembered so every later
#: solve degrades instantly instead of re-raising inside the engine.
_JIT_OK: List[Optional[bool]] = [None]


if _PROBE == "ok":  # pragma: no cover - exercised only where numba is installed
    try:
        if "NUMBA_THREADING_LAYER" not in os.environ:
            # Several Python threads may launch the kernels at once; only
            # the thread-safe layers (tbb/omp) survive that.
            numba.config.THREADING_LAYER = "threadsafe"

        @njit(parallel=True, cache=True)
        def _sweep_levels_kernel(
            order: np.ndarray,
            starts: np.ndarray,
            parent: np.ndarray,
            er: np.ndarray,
            ec: np.ndarray,
            nc: np.ndarray,
            rkk: np.ndarray,
            c_down: np.ndarray,
            tde: np.ndarray,
            tre: np.ndarray,
        ) -> None:
            """Both characteristic-time passes, fused, over the level order.

            ``order`` is the concatenated level buckets (a topological
            order: every parent precedes its children), ``starts`` the
            per-level offsets into it.  Scenario columns are independent,
            so the outer ``prange`` splits them into cache-line blocks;
            within one block the loops replay the numpy sweeps' exact
            per-level, bucket-order accumulation.
            """
            n = order.shape[0]
            s = er.shape[1]
            nlevels = starts.shape[0] - 1
            nblocks = (s + _BLOCK - 1) // _BLOCK
            for b in prange(nblocks):
                j0 = b * _BLOCK
                j1 = min(j0 + _BLOCK, s)
                # Reverse pass: downstream capacitance, deepest level
                # first, bucket order within a level (the np.add.at order).
                for k in range(n):
                    i = order[k]
                    for j in range(j0, j1):
                        c_down[i, j] = nc[i, j]
                for li in range(nlevels - 1, 0, -1):
                    for k in range(starts[li], starts[li + 1]):
                        i = order[k]
                        p = parent[i]
                        for j in range(j0, j1):
                            c_down[p, j] += c_down[i, j] + ec[i, j]
                # Forward pass: path resistance and both moment
                # recurrences; parents are always at earlier levels.
                for k in range(n):
                    i = order[k]
                    p = parent[i]
                    if p < 0:
                        for j in range(j0, j1):
                            rkk[i, j] = er[i, j]
                            tde[i, j] = 0.0
                            tre[i, j] = 0.0
                    else:
                        for j in range(j0, j1):
                            r = er[i, j]
                            lc = ec[i, j]
                            below = c_down[i, j]
                            rp = rkk[p, j]
                            rk = rp + r
                            rkk[i, j] = rk
                            tde[i, j] = tde[p, j] + r * (below + lc / 2.0)
                            tre[i, j] = (
                                tre[p, j]
                                + (rk * rk - rp * rp) * below
                                + (rp * r + r * r / 3.0) * lc
                            )
                # T_Rn = numerator / R_kk, zero where R_kk is not positive.
                for k in range(n):
                    i = order[k]
                    for j in range(j0, j1):
                        rk = rkk[i, j]
                        if rk > 0.0:
                            tre[i, j] = tre[i, j] / rk
                        else:
                            tre[i, j] = 0.0

        @njit(parallel=True, cache=True)
        def _path_round_kernel(
            idx: np.ndarray,
            tgt: np.ndarray,
            totals: np.ndarray,
            scratch: np.ndarray,
        ) -> None:
            """One pointer-jumping gather round: ``totals[idx] += totals[tgt]``.

            The sources are snapshotted first (numpy's fancy-indexed
            right-hand side is materialized before the assignment), so a
            node whose target is itself live reads the *previous* round's
            value -- the synchronous-doubling semantics.
            """
            m = idx.shape[0]
            s = totals.shape[1]
            for k in prange(m):
                t = tgt[k]
                for j in range(s):
                    scratch[k, j] = totals[t, j]
            for k in prange(m):
                i = idx[k]
                for j in range(s):
                    totals[i, j] += scratch[k, j]

        @njit(parallel=True, cache=True)
        def _subtree_round_kernel(
            idx: np.ndarray,
            tgt: np.ndarray,
            totals: np.ndarray,
            scratch: np.ndarray,
        ) -> None:
            """One reverse (scatter) round: ``np.add.at(totals, tgt, totals[idx])``.

            Sources are snapshotted like the gather round; the scatter
            itself runs sequentially over the round's entries within each
            ``prange`` column block, preserving ``np.add.at``'s in-order
            accumulation when several nodes share a target.
            """
            m = idx.shape[0]
            s = totals.shape[1]
            for k in prange(m):
                i = idx[k]
                for j in range(s):
                    scratch[k, j] = totals[i, j]
            nblocks = (s + _BLOCK - 1) // _BLOCK
            for b in prange(nblocks):
                j0 = b * _BLOCK
                j1 = min(j0 + _BLOCK, s)
                for k in range(m):
                    t = tgt[k]
                    for j in range(j0, j1):
                        totals[t, j] += scratch[k, j]

    except Exception:  # decoration failed: treat as a JIT failure
        _PROBE = "jit-failed"


def native_status() -> str:
    """Why the compiled kernels are (or are not) usable right now.

    ``"ok"`` means usable (possibly not yet warm-compiled);
    ``"disabled"`` that :data:`NATIVE_DISABLE_ENV` is set (checked on
    every call, so tests and CI flip it without reloading);
    ``"numba-missing"`` that the import probe failed; ``"jit-failed"``
    that decoration or the warm compile raised.  This string is what
    :func:`repro.parallel.backends.last_selection` records as the
    degradation reason.
    """
    flag = os.environ.get(NATIVE_DISABLE_ENV, "")
    if flag and flag != "0":
        return "disabled"
    if _PROBE != "ok":
        return _PROBE
    if _JIT_OK[0] is False:
        return "jit-failed"
    return "ok"


def native_available() -> bool:
    """Cheap probe: Numba importable and the kernels not disabled/broken.

    Does **not** trigger compilation -- callers that are about to run a
    kernel use :func:`native_ready`, which also pays (once) the warm
    compile.
    """
    return native_status() == "ok"


def native_ready() -> bool:
    """Probe plus one-time warm compilation of every kernel.

    The first call on a machine compiles the kernels on toy inputs
    (subsequent processes load the on-disk cache that ``cache=True``
    writes); any failure is remembered and reported as ``"jit-failed"``.
    """
    if not native_available():
        return False
    if _JIT_OK[0] is None:
        _JIT_OK[0] = _warm()
    return bool(_JIT_OK[0]) and native_available()


def _warm() -> bool:
    """Compile-and-run every kernel on a 3-node chain; False on any raise."""
    try:
        parent = np.array([-1, 0, 1], dtype=np.int64)
        levels = [np.array([i], dtype=np.int64) for i in range(3)]
        plane = np.ones((3, 2), dtype=np.float64)
        _sweep_impl(levels, parent, plane, plane.copy(), plane.copy())
        _contract_impl(parent, plane, plane.copy(), plane.copy(), None)
        return True
    except Exception:
        return False


def _pack_levels(levels: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate level buckets into ``(order, starts)`` kernel inputs."""
    order = np.ascontiguousarray(np.concatenate(list(levels)), dtype=np.int64)
    starts = np.zeros(len(levels) + 1, dtype=np.int64)
    np.cumsum([bucket.shape[0] for bucket in levels], out=starts[1:])
    return order, starts


def _sweep_impl(
    levels: Sequence[np.ndarray],
    parent: np.ndarray,
    edge_r: np.ndarray,
    edge_c: np.ndarray,
    node_c: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unchecked body of :func:`sweep_scenarios_native` (used by the warm-up)."""
    order, starts = _pack_levels(levels)
    parent = np.ascontiguousarray(parent, dtype=np.int64)
    n, s = edge_r.shape
    rkk = np.empty((n, s), dtype=np.float64)
    c_down = np.empty((n, s), dtype=np.float64)
    tde = np.empty((n, s), dtype=np.float64)
    tre = np.empty((n, s), dtype=np.float64)
    _sweep_levels_kernel(
        order, starts, parent, edge_r, edge_c, node_c, rkk, c_down, tde, tre
    )
    return rkk, c_down, tde, tre


def sweep_scenarios_native(
    levels: Sequence[np.ndarray],
    parent: np.ndarray,
    edge_r: np.ndarray,
    edge_c: np.ndarray,
    node_c: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Compiled twin of :func:`repro.flat.scenarios.sweep_scenarios`.

    Same level buckets, same node-major ``(N, S)`` element planes, same
    ``(rkk, c_down, tde, tre)`` tuple out -- one fused compiled pass
    instead of O(depth) numpy calls and their temporaries.  The
    per-element arithmetic and the per-level accumulation order are the
    reference sweeps' own, so parity sits far inside the 1e-12 engine
    contract.  Raises :class:`~repro.core.exceptions.AnalysisError` when
    the kernels are unavailable (callers gate on :func:`native_ready`).
    """
    if not native_ready():
        raise AnalysisError(f"native kernels unavailable ({native_status()})")
    return _sweep_impl(levels, parent, edge_r, edge_c, node_c)


def _round_scratch(schedule: Sequence[Round], width: int) -> np.ndarray:
    """One scratch plane big enough for every round's source snapshot."""
    rows = max((nodes.shape[0] for nodes, _ in schedule), default=0)
    return np.empty((rows, width), dtype=np.float64)


def _as_plane(weights: np.ndarray) -> Tuple[np.ndarray, bool]:
    """View ``(N,)`` input as ``(N, 1)`` for the 2-D kernels."""
    totals = np.array(weights, dtype=np.float64, copy=True)
    if totals.ndim == 1:
        return totals.reshape(-1, 1), True
    return totals, False


def path_sums_native(
    weights: np.ndarray, schedule: List[Round]
) -> np.ndarray:
    """Compiled twin of :func:`repro.flat.contraction.path_sums`.

    Replays the same jump schedule with the same synchronous-doubling
    reads, one compiled gather round per schedule entry.
    """
    totals, squeeze = _as_plane(weights)
    scratch = _round_scratch(schedule, totals.shape[1])
    for nodes, targets in schedule:
        _path_round_kernel(nodes, targets, totals, scratch)
    return totals[:, 0] if squeeze else totals


def subtree_sums_native(
    weights: np.ndarray, schedule: List[Round]
) -> np.ndarray:
    """Compiled twin of :func:`repro.flat.contraction.subtree_sums`.

    The schedule is replayed in reverse with ordered scatter-adds, exactly
    mirroring the numpy ``np.add.at`` accumulation order.
    """
    totals, squeeze = _as_plane(weights)
    scratch = _round_scratch(schedule, totals.shape[1])
    for nodes, targets in reversed(schedule):
        _subtree_round_kernel(nodes, targets, totals, scratch)
    return totals[:, 0] if squeeze else totals


def _contract_impl(
    parent: np.ndarray,
    edge_r: np.ndarray,
    edge_c: np.ndarray,
    node_c: np.ndarray,
    schedule: Optional[List[Round]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unchecked body of :func:`sweep_scenarios_contract_native`."""
    return sweep_scenarios_contract(
        parent,
        edge_r,
        edge_c,
        node_c,
        schedule=schedule,
        path_fn=path_sums_native,
        subtree_fn=subtree_sums_native,
    )


def sweep_scenarios_contract_native(
    parent: np.ndarray,
    edge_r: np.ndarray,
    edge_c: np.ndarray,
    node_c: np.ndarray,
    schedule: Optional[List[Round]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The contraction sweeps with compiled pointer-jumping rounds.

    Identical decomposition to
    :func:`repro.flat.contraction.sweep_scenarios_contract` -- the weight
    planes are still built by (cheap, elementwise) numpy -- but every
    O(N)-sized gather/scatter round runs as a compiled kernel.  Parity vs
    the numpy contraction path is exact-order; vs the level sweeps it
    inherits contraction's 1e-12 (balanced summation) contract.
    """
    if not native_ready():
        raise AnalysisError(f"native kernels unavailable ({native_status()})")
    return _contract_impl(parent, edge_r, edge_c, node_c, schedule)


def native_sweeps_for(
    parent: np.ndarray,
    levels: Sequence[np.ndarray],
    deep: bool,
) -> "_NativeSweep":
    """A reusable compiled two-pass kernel for one forest.

    ``deep`` selects the contraction rounds (the depth-robust choice the
    engine makes via :func:`repro.parallel.backends.should_contract`);
    otherwise the fused level sweep runs.  Topology products -- the packed
    level order or the jump schedule -- are computed once here and reused
    by every scenario chunk of the solve.
    """
    return _NativeSweep(parent, levels, deep)


class _NativeSweep:
    """Callable with the engine's substitute-kernel signature.

    Precomputes the topology products at construction so chunked solves
    pay them once.
    """

    def __init__(
        self, parent: np.ndarray, levels: Sequence[np.ndarray], deep: bool
    ) -> None:
        self._deep = deep
        self._schedule: Optional[List[Round]] = None
        self._levels = list(levels)
        if deep:
            self._schedule = jump_schedule(parent)

    def __call__(
        self,
        parent: np.ndarray,
        edge_r: np.ndarray,
        edge_c: np.ndarray,
        node_c: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run the selected compiled kernel over one chunk's planes."""
        if self._deep:
            return sweep_scenarios_contract_native(
                parent, edge_r, edge_c, node_c, schedule=self._schedule
            )
        return sweep_scenarios_native(
            self._levels, parent, edge_r, edge_c, node_c
        )
