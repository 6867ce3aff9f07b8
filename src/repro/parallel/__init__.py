"""Kernel backends and the scenario-batched forest solve.

The Penfield-Rubinstein passes are linear-time; this layer picks the
kernels that run them and bounds their working set:

* :mod:`repro.parallel.sharding` -- the pure scenario-chunk planner that
  caps each ``(N, S)`` working plane;
* :mod:`repro.parallel.backends` -- the kernel-backend registry (``"numpy"``
  reference level sweeps, ``"contract"`` pointer-jumping contraction for
  depth-pathological forests, ``"native"`` Numba JIT-compiled kernels that
  degrade to numpy without Numba) and the size/depth auto-selection every
  ``engine=`` parameter funnels through, observable via
  :func:`last_selection`;
* :mod:`repro.parallel.engine` -- :func:`solve_forest_batch`, which runs
  the chosen backend chunk by chunk in the calling thread, with
  numerically identical results (to 1e-12) regardless of backend.

Every solve runs in-process; ``"native"`` spreads each sweep across cores
with Numba's ``prange``.  Callers never import this package directly for
normal use -- they pass ``engine=`` to
:meth:`repro.flat.FlatForest.solve_batch`,
:meth:`repro.graph.DesignDB.solve_scenarios`,
:meth:`repro.graph.TimingGraph.analyze_scenarios`,
:func:`repro.apps.corners.corner_sweep` or the CLI's ``timing --engine``.
The layer map lives in ``docs/architecture.md``.
"""

from repro.parallel.backends import (
    AUTO_NATIVE_CELLS,
    CONTRACT_DEPTH_RATIO,
    KernelBackend,
    available_backends,
    get_backend,
    last_selection,
    record_selection,
    register_backend,
    resolve_engine,
    should_contract,
)
from repro.parallel.engine import (
    ForestStructure,
    shutdown_pools,
    solve_forest_batch,
)
from repro.parallel.sharding import (
    CHUNK_BYTES_ENV,
    DEFAULT_CHUNK_CELLS,
    MAX_CHUNK_CELLS,
    default_chunk_cells,
    scenario_chunks,
)

__all__ = [
    "AUTO_NATIVE_CELLS",
    "CHUNK_BYTES_ENV",
    "CONTRACT_DEPTH_RATIO",
    "DEFAULT_CHUNK_CELLS",
    "MAX_CHUNK_CELLS",
    "default_chunk_cells",
    "ForestStructure",
    "KernelBackend",
    "available_backends",
    "get_backend",
    "last_selection",
    "record_selection",
    "register_backend",
    "resolve_engine",
    "scenario_chunks",
    "should_contract",
    "shutdown_pools",
    "solve_forest_batch",
]
