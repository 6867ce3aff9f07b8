"""Vectorized flat-tree analysis engine.

The dict-based reference implementation in :mod:`repro.core` walks Python
objects node by node; this subpackage compiles an
:class:`~repro.core.tree.RCTree` into parent-index numpy arrays and computes
the paper's characteristic times (``T_P``, ``T_De``, ``T_Re`` -- eqs. 1, 5,
6, including the closed-form distributed-line integrals) for *every* output
at once with a handful of vectorized sweeps:

* :class:`FlatTree` -- one immutable compiled tree: a cached all-node
  solve, with single-output queries read from its rows;
* :class:`FlatForest` -- many trees concatenated and solved together, so a
  thousand small nets cost barely more than one;
* scenario batching -- ``solve_batch`` on both classes runs the same level
  sweeps over ``(S, N)`` element planes, evaluating corners, derates and
  what-if candidates side by side (:mod:`repro.flat.scenarios`);
* :mod:`repro.flat.contraction` -- the pointer-jumping twin of the level
  sweeps: O(log N) contraction rounds regardless of topology, the kernel
  behind ``engine="contract"`` for chain-heavy forests;
* :mod:`repro.flat.native` -- Numba JIT-compiled twins of both kernel
  families (fused level sweeps, compiled contraction rounds), the kernel
  behind ``engine="native"``; imported lazily, never a hard dependency,
  degrading to the numpy kernels when Numba is absent;
* :mod:`repro.flat.batchbounds` -- eqs. (8)-(17) evaluated over
  (sinks x thresholds) matrices in one numpy call.

The dict engine remains the reference oracle: the property tests in
``tests/properties/test_flat_parity.py`` pin agreement to a relative
tolerance of 1e-12.  Design notes and measured speedups live in
``docs/performance.md``.
"""

from repro.flat.batchbounds import (
    delay_bounds_batch,
    delay_lower_bound_batch,
    delay_upper_bound_batch,
    voltage_bounds_batch,
    voltage_lower_bound_batch,
    voltage_upper_bound_batch,
)
from repro.flat.contraction import (
    jump_schedule,
    last_round_count,
    path_sums,
    subtree_sums,
    sweep_scenarios_contract,
)
from repro.flat.flattree import FlatTimes, FlatTree
from repro.flat.forest import FlatForest, ForestTimes
from repro.flat.scenarios import ScenarioForestTimes, ScenarioTimes

__all__ = [
    "FlatTree",
    "FlatTimes",
    "FlatForest",
    "ForestTimes",
    "ScenarioTimes",
    "ScenarioForestTimes",
    "delay_bounds_batch",
    "delay_lower_bound_batch",
    "delay_upper_bound_batch",
    "voltage_bounds_batch",
    "voltage_lower_bound_batch",
    "voltage_upper_bound_batch",
    "jump_schedule",
    "last_round_count",
    "path_sums",
    "subtree_sums",
    "sweep_scenarios_contract",
]
