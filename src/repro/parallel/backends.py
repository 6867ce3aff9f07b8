"""Kernel-backend registry: how a scenario-batched forest solve executes.

A *backend* is a strategy for running the characteristic-time level sweeps
over the ``(N, S)`` element planes of a forest.  Every backend runs in the
calling thread:

* ``"numpy"`` -- the serial vectorized kernels.  Always available, always
  the reference.
* ``"contract"`` -- the pointer-jumping tree-contraction kernels
  (:mod:`repro.flat.contraction`): O(log N) rounds regardless of depth, the
  cure for chain-heavy forests where the level sweeps degenerate into one
  numpy call per level.
* ``"native"`` -- the Numba JIT-compiled kernels
  (:mod:`repro.flat.native`): the same sweeps fused into compiled machine
  code, spread across cores by Numba's ``prange``.  Numba is optional:
  when it is missing, disabled (``REPRO_DISABLE_NATIVE=1``) or fails to
  compile, every ``"native"`` request degrades to ``"numpy"`` and the
  recorded selection says why.

Callers normally pass ``engine=None`` (or ``"auto"``) and let
:func:`resolve_engine` pick: depth-pathological forests
(``depth / log2(nodes) >= CONTRACT_DEPTH_RATIO``) go to the contraction
kernels (compiled rounds when the native kernels are warm), sweeps of at
least ``AUTO_NATIVE_CELLS`` cells go to the compiled kernels when those
are usable, and everything else stays on ``"numpy"``.  An *explicit*
``engine="contract"`` / ``"native"`` is always honoured, so parity tests
exercise every path.

Every solve records which backend it chose (:func:`last_selection`), and
an explicit request that degrades to another backend warns on stderr.

The registry is open: :func:`register_backend` lets an experiment register
another strategy under a new name without touching the call sites, which
all go through ``engine="<name>"`` string selection.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.exceptions import AnalysisError

__all__ = [
    "AUTO_NATIVE_CELLS",
    "CONTRACT_DEPTH_RATIO",
    "KernelBackend",
    "available_backends",
    "get_backend",
    "last_selection",
    "record_selection",
    "register_backend",
    "resolve_engine",
    "should_contract",
]

#: Smallest ``nodes x scenarios`` plane for which ``engine=None`` prefers
#: the JIT-compiled kernels when they are usable: high enough that
#: sub-millisecond sweeps skip the readiness probe (and the one-time,
#: cached warm-up) entirely.
AUTO_NATIVE_CELLS = 1 << 16

#: Depth-pathology threshold: ``engine=None`` picks the contraction kernels
#: when ``depth / log2(nodes) >= CONTRACT_DEPTH_RATIO``.  Bushy forests sit
#: near ratio 1-4 and stay on the level sweeps (fewer, cheaper rounds);
#: chains and URC ladders reach ratios in the hundreds where O(log N)
#: contraction rounds win outright.  Tunable: benchmarks may lower it, and
#: tests monkeypatch it to force either side of the decision.
CONTRACT_DEPTH_RATIO = 32.0


@dataclass(frozen=True)
class KernelBackend:
    """One registered execution strategy for the scenario-batched solve.

    ``solver`` has the engine signature ``solver(structure, base, planes,
    count, chunk)`` (see :func:`repro.parallel.engine.solve_forest_batch`,
    which dispatches to it).
    """

    name: str
    solver: Callable
    description: str = ""


_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(
    name: str,
    solver: Callable,
    *,
    description: str = "",
) -> KernelBackend:
    """Register (or replace) a named backend and return its record."""
    if not name or name == "auto":
        raise AnalysisError(f"backend name {name!r} is reserved")
    backend = KernelBackend(name=name, solver=solver, description=description)
    _REGISTRY[name] = backend
    return backend


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by name; unknown names list the alternatives."""
    backend = _REGISTRY.get(name)
    if backend is None:
        raise AnalysisError(
            f"unknown engine {name!r}; available: {', '.join(available_backends())}"
        )
    return backend


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def _native_ready() -> bool:
    """Whether the JIT-compiled kernels are usable (lazy, import-safe probe).

    Importing :mod:`repro.flat.native` is what pays the (one-time) Numba
    import, so this is only called once a sweep is big enough to care; a
    broken or absent installation simply reads as "not ready".  Module-level
    indirection so the auto-selection tests can monkeypatch readiness
    without a Numba installation.
    """
    try:
        from repro.flat.native import native_ready
    except Exception:  # pragma: no cover - native module always importable
        return False
    return native_ready()


def should_contract(depth: int, nodes: int) -> bool:
    """True when a forest is depth-pathological for the level sweeps.

    The level sweeps cost O(depth) numpy calls; the contraction kernels cost
    ``O(log2(nodes))`` rounds of slightly heavier work.  The crossover is
    where ``depth / log2(nodes)`` clears :data:`CONTRACT_DEPTH_RATIO` --
    read at call time so tuning (or monkeypatching) the threshold takes
    effect immediately.
    """
    if nodes < 2 or depth < 2:
        return False
    return depth / math.log2(nodes) >= CONTRACT_DEPTH_RATIO


#: Single-slot record of the most recent engine selection (see
#: :func:`record_selection` / :func:`last_selection`).
_LAST_SELECTION: List[Dict[str, object]] = []


def record_selection(
    requested: Optional[str],
    resolved: str,
    *,
    nodes: int = 0,
    scenarios: int = 0,
    depth: int = 0,
    reason: str = "",
) -> None:
    """Note which backend a solve chose; warn when a request degraded.

    Called by :func:`repro.parallel.engine.solve_forest_batch` after every
    resolution.  ``reason`` is non-empty only when the resolved backend is
    not the requested one for a *capability* reason -- today, an explicit
    ``engine="native"`` degrading to ``"numpy"`` because Numba is missing,
    disabled or failed to compile.  The record is readable back via
    :func:`last_selection`.  An *explicit* request that ran on a different
    backend also prints one warning line to stderr.
    """
    record = {
        "requested": requested if requested is not None else "auto",
        "engine": resolved,
        "nodes": int(nodes),
        "scenarios": int(scenarios),
        "depth": int(depth),
        "reason": reason,
    }
    _LAST_SELECTION[:] = [record]
    if reason and requested not in (None, "auto") and requested != resolved:
        # An *explicit* engine request silently running on a different
        # backend is the one selection users must hear about: a parity run
        # believed to exercise "native" may in fact be re-measuring numpy.
        print(
            f"repro.engine: warning: requested engine {requested!r} "
            f"fell back to {resolved!r}: {reason}",
            file=sys.stderr,
        )


def last_selection() -> Optional[Dict[str, object]]:
    """The most recent engine-selection record, or ``None`` before any solve.

    Keys: ``requested`` (the caller's ``engine=`` value, ``"auto"`` when it
    was left to the resolver), ``engine`` (the backend that actually ran),
    ``nodes``, ``scenarios``, ``depth`` and ``reason`` (empty
    unless the request was degraded for a capability reason -- e.g. why a
    ``"native"`` request ran on ``"numpy"``).  The auto-selection and
    fallback tests and the benchmark harness read it.
    """
    return dict(_LAST_SELECTION[0]) if _LAST_SELECTION else None


def resolve_engine(
    engine: Optional[str] = None,
    *,
    cells: int = 0,
    nodes: int = 0,
    depth: int = 0,
) -> KernelBackend:
    """Pick the backend for a sweep of ``cells`` elements.

    ``engine=None`` / ``"auto"`` first checks the depth pathology: a forest
    with ``depth / log2(nodes) >= CONTRACT_DEPTH_RATIO`` (see
    :func:`should_contract`) leaves the level sweeps -- for the compiled
    contraction rounds of ``"native"`` when those are warm and the sweep
    clears :data:`AUTO_NATIVE_CELLS`, else for the ``"contract"`` kernels,
    whose round count is O(log N) instead of O(depth).  Otherwise a sweep
    of at least :data:`AUTO_NATIVE_CELLS` cells runs the compiled kernels
    when they are ready; the default remains ``"numpy"``.  Explicit names
    are honoured as-is.
    """
    name = engine if engine is not None else "auto"
    if name == "auto":
        native_ok = (
            "native" in _REGISTRY and cells >= AUTO_NATIVE_CELLS and _native_ready()
        )
        if "contract" in _REGISTRY and should_contract(depth, nodes):
            name = "native" if native_ok else "contract"
        elif native_ok:
            name = "native"
        else:
            name = "numpy"
    return get_backend(name)
