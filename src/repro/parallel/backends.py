"""The engine table: which kernels a scenario-batched forest solve can run.

An *engine* is one way to run the characteristic-time level sweeps over
the ``(N, S)`` element planes of a forest.  There are exactly three, named
in :data:`ENGINES`, and every one runs in the calling thread:

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
``engine="contract"`` / ``"native"`` is always honoured (``"native"`` on
the reference kernels when Numba cannot run it), so parity tests exercise
every path.

Every solve records which engine it chose (:func:`last_selection`), and
an explicit request that degrades to another engine warns on stderr.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, List, Optional, Tuple

from repro.core.exceptions import AnalysisError

__all__ = [
    "AUTO_NATIVE_CELLS",
    "CONTRACT_DEPTH_RATIO",
    "ENGINES",
    "last_selection",
    "record_selection",
    "resolve_engine",
    "should_contract",
]

#: The engine names, reference first.  Every ``engine=`` parameter, the
#: CLI ``--engine`` choices and the service's session schema accept these
#: (plus ``"auto"``).
ENGINES = ("numpy", "contract", "native")

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
    """Note which engine a solve chose; warn when a request degraded.

    Called by :func:`repro.parallel.engine.solve_forest_batch` once per
    solve.  ``reason`` is non-empty only when the resolved engine is not
    the requested one for a *capability* reason -- today, an explicit
    ``engine="native"`` degrading to ``"numpy"`` because Numba is missing,
    disabled or failed to compile.  The record is readable back via
    :func:`last_selection`.  An *explicit* request that ran on a different
    engine also prints one warning line to stderr.
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
        # engine is the one selection users must hear about: a parity run
        # believed to exercise "native" may in fact be re-measuring numpy.
        print(
            f"repro.engine: warning: requested engine {requested!r} "
            f"fell back to {resolved!r}: {reason}",
            file=sys.stderr,
        )


def last_selection() -> Optional[Dict[str, object]]:
    """The most recent engine-selection record, or ``None`` before any solve.

    Keys: ``requested`` (the caller's ``engine=`` value, ``"auto"`` when it
    was left to the resolver), ``engine`` (the engine that actually ran),
    ``nodes``, ``scenarios``, ``depth`` and ``reason`` (empty
    unless the request was degraded for a capability reason -- e.g. why a
    ``"native"`` request ran on ``"numpy"``).  The auto-selection and
    fallback tests and the benchmark harness read it.
    """
    return dict(_LAST_SELECTION[0]) if _LAST_SELECTION else None


def _decide(
    engine: Optional[str], cells: int, nodes: int, depth: int
) -> Tuple[str, bool, str]:
    """``(engine, deep, reason)`` for one solve -- the whole kernel decision.

    ``deep`` is :func:`should_contract` of the forest (the compiled kernels
    run contraction rounds when it holds); ``reason`` is non-empty when an
    explicit ``"native"`` fell back to ``"numpy"``.  The only caller of the
    readiness probe and of :func:`should_contract`, each at most once.
    """
    name = "auto" if engine is None else engine
    if name != "auto" and name not in ENGINES:
        raise AnalysisError(
            f"unknown engine {name!r}; available: {', '.join(ENGINES)}"
        )
    deep = should_contract(depth, nodes)
    if name == "contract" or name == "numpy":
        return name, deep, ""
    if (name == "native" or cells >= AUTO_NATIVE_CELLS) and _native_ready():
        return "native", deep, ""
    if name == "native":
        from repro.flat.native import native_status

        return "numpy", deep, f"native kernels unavailable ({native_status()})"
    return ("contract" if deep else "numpy"), deep, ""


def resolve_engine(
    engine: Optional[str] = None,
    *,
    cells: int = 0,
    nodes: int = 0,
    depth: int = 0,
) -> str:
    """The engine name a sweep of ``cells`` elements runs on.

    ``engine=None`` / ``"auto"`` prefers the compiled kernels for a sweep
    of at least :data:`AUTO_NATIVE_CELLS` cells when they are ready (they
    run contraction rounds on deep forests themselves); otherwise a forest
    with ``depth / log2(nodes) >= CONTRACT_DEPTH_RATIO`` (see
    :func:`should_contract`) goes to ``"contract"``, whose round count is
    O(log N) instead of O(depth), and everything else to ``"numpy"``.
    Explicit names are honoured, except that ``"native"`` resolves to
    ``"numpy"`` where the compiled kernels are unusable.  A name outside
    :data:`ENGINES` raises :class:`~repro.core.exceptions.AnalysisError`
    listing the choices.
    """
    return _decide(engine, cells, nodes, depth)[0]
