"""Benchmark: the Numba-compiled ``"native"`` backend vs the numpy kernels.

Two workloads:

* the scenario benchmark's design-scale plane -- a seed-stable
  2000-instance random design swept over 64 scenarios under full ``(S, N)``
  effective element planes -- run through the complete backend matrix
  (``numpy`` / ``contract`` / ``native``), the acceptance surface for the
  compiled tier;
* a shape matrix (balanced / chain / random-binary forests) pinning that
  the compiled kernels hold parity and pick the right inner strategy
  (fused level sweeps on shallow shapes, compiled contraction rounds on
  chains) across topology classes.

Parity is asserted at rtol 1e-12 for every array of every contender
against the serial numpy reference (the compiled kernels replay the same
per-level, bucket-order accumulation, so only LLVM-level reassociation
separates them -- far inside the budget).  The speedup assertion --
**>= 2x over numpy for the 64-scenario, 2000-instance sweep** -- applies
to the native arm, whose ``prange`` loops spread each sweep across the
usable cores.  An ECO check re-runs the matrix after ``replace_tree``
so the compiled path survives structure invalidation.  The printed tables
are the record for ``docs/performance.md``.

The whole module skips on machines without a working Numba JIT (the
``"native"`` backend itself degrades to numpy there -- pinned by
``tests/parallel/test_native.py`` -- but there is nothing to measure).
"""

import os
import time

import numpy as np
import pytest

numba = pytest.importorskip("numba")

from repro.flat import FlatForest, FlatTree  # noqa: E402
from repro.flat.native import native_ready, native_status  # noqa: E402
from repro.generators import random_design  # noqa: E402
from repro.generators.random_trees import random_flat_tree  # noqa: E402
from repro.graph import TimingGraph  # noqa: E402
from repro.parallel import last_selection  # noqa: E402
from repro.utils.tables import format_table  # noqa: E402

N_INSTANCES = 2_000
N_SCENARIOS = 64
N_SHAPE_NODES = 4_000
PERIOD = 2e-9
THRESHOLD = 0.5
INPUT_DRIVE = 120.0
FIELDS = ("tp", "tde", "tre", "ree", "total_capacitance")
CORES = len(os.sched_getaffinity(0))

#: The full backend matrix: (row label, engine).
MATRIX = (
    ("numpy (reference)", "numpy"),
    ("contract", "contract"),
    ("native", "native"),
)

pytestmark = pytest.mark.skipif(
    not native_ready(),
    reason=f"native kernels unavailable ({native_status()})",
)


def _best(function, repeats=5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def _assert_parity(got, want, label):
    worst = 0.0
    for name in FIELDS:
        a = np.asarray(getattr(got, name))
        b = np.asarray(getattr(want, name))
        scale = np.maximum(np.abs(b), 1e-30)
        worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    assert worst < 1e-12, f"{label}: worst relative mismatch {worst:.3e}"
    return worst


def _planes(forest, count, seed):
    rng = np.random.default_rng(seed)
    n = forest.node_count
    return {
        "edge_r": (forest._edge_r[:, None] * rng.uniform(0.85, 1.2, (n, count))).T,
        "edge_c": (forest._edge_c[:, None] * rng.uniform(0.85, 1.2, (n, count))).T,
        "node_c": (forest._node_c[:, None] * rng.uniform(0.85, 1.2, (n, count))).T,
    }


@pytest.fixture(scope="module")
def design_workload():
    design, parasitics = random_design(N_INSTANCES, seed=7)
    graph = TimingGraph(
        design,
        dict(parasitics),
        clock_period=PERIOD,
        threshold=THRESHOLD,
        input_drive_resistance=INPUT_DRIVE,
    )
    forest = graph.db.forest
    return forest, _planes(forest, N_SCENARIOS, seed=11)


def _chain_tree(nodes, seed):
    rng = np.random.default_rng(seed)
    parent = [-1] + list(range(nodes - 1))
    edge_r = np.concatenate([[0.0], rng.uniform(1.0, 1000.0, nodes - 1)])
    edge_c = np.concatenate([[0.0], rng.uniform(1e-15, 1e-12, nodes - 1)])
    node_c = np.concatenate([[0.0], rng.uniform(1e-15, 1e-12, nodes - 1)])
    return FlatTree.from_arrays(parent, edge_r, edge_c, node_c)


def _balanced_tree(nodes, seed):
    rng = np.random.default_rng(seed)
    parent = [-1] + [(index - 1) // 2 for index in range(1, nodes)]
    edge_r = np.concatenate([[0.0], rng.uniform(1.0, 1000.0, nodes - 1)])
    edge_c = np.concatenate([[0.0], rng.uniform(1e-15, 1e-12, nodes - 1)])
    node_c = np.concatenate([[0.0], rng.uniform(1e-15, 1e-12, nodes - 1)])
    return FlatTree.from_arrays(parent, edge_r, edge_c, node_c)


def _shape_forests():
    return {
        "balanced": FlatForest([_balanced_tree(N_SHAPE_NODES, seed=3)]),
        "chain": FlatForest([_chain_tree(N_SHAPE_NODES, seed=3)]),
        "random": FlatForest(
            [random_flat_tree(seed=index) for index in range(60)]
        ),
    }


def test_native_backend_matrix_speedup(benchmark, design_workload, report):
    forest, planes = design_workload

    results = {}
    times = {}
    for label, engine in MATRIX:
        # Warm every path once (JIT load, level buckets).
        forest.solve_batch(**planes, count=N_SCENARIOS, engine=engine)
        times[label], results[label] = _best(
            lambda engine=engine: forest.solve_batch(
                **planes, count=N_SCENARIOS, engine=engine
            )
        )

    reference_label = MATRIX[0][0]
    reference = results[reference_label]
    worst = 0.0
    for label, _ in MATRIX[1:]:
        worst = max(worst, _assert_parity(results[label], reference, label))

    # The native arm must actually have run compiled kernels, not the
    # numpy fallback.
    forest.solve_batch(**planes, count=N_SCENARIOS, engine="native")
    selection = last_selection()
    assert selection["engine"] == "native" and not selection["reason"]

    benchmark(
        lambda: forest.solve_batch(**planes, count=N_SCENARIOS, engine="native")
    )

    serial_time = times[reference_label]
    rows = [
        (label, times[label] * 1e3, serial_time / times[label])
        for label, _ in MATRIX
    ]
    report(
        "native backend matrix",
        format_table(
            ["backend", "time (ms)", "speedup"],
            rows,
            precision=3,
            title=(
                f"{N_SCENARIOS}-scenario x {N_INSTANCES}-instance sweep, "
                f"{CORES} usable cores, parity {worst:.1e}"
            ),
        ),
    )

    # Acceptance: the native arm clears 2x over the numpy sweeps on the
    # 64 x 2000 workload.
    native_speedup = serial_time / times["native"]
    assert native_speedup >= 2.0, (
        f"native speedup {native_speedup:.2f}x < 2x on {CORES} cores"
    )


def test_native_shape_matrix_parity(report):
    rows = []
    for shape, forest in _shape_forests().items():
        planes = _planes(forest, N_SCENARIOS, seed=5)
        reference = forest.solve_batch(
            **planes, count=N_SCENARIOS, engine="numpy"
        )
        for label, engine in MATRIX[1:]:
            forest.solve_batch(**planes, count=N_SCENARIOS, engine=engine)
            elapsed, result = _best(
                lambda engine=engine: forest.solve_batch(
                    **planes, count=N_SCENARIOS, engine=engine
                ),
                repeats=3,
            )
            worst = _assert_parity(result, reference, f"{shape}/{label}")
            rows.append((shape, label, elapsed * 1e3, worst))
    report(
        "native shape matrix",
        format_table(
            ["shape", "backend", "time (ms)", "worst rel err"],
            rows,
            precision=3,
            title=(
                f"{N_SHAPE_NODES}-node shapes x {N_SCENARIOS} scenarios, "
                "parity vs serial numpy"
            ),
        ),
    )
    assert rows, "shape matrix produced no measurements"


def test_native_parity_survives_eco(design_workload, report):
    forest, _ = design_workload
    eco = FlatForest(list(forest.trees))
    eco.replace_tree(3, random_flat_tree(seed=99))
    planes = _planes(eco, N_SCENARIOS, seed=13)
    reference = eco.solve_batch(**planes, count=N_SCENARIOS, engine="numpy")
    worst = 0.0
    for label, engine in MATRIX[1:]:
        result = eco.solve_batch(**planes, count=N_SCENARIOS, engine=engine)
        worst = max(
            worst, _assert_parity(result, reference, f"post-ECO {label}")
        )
    report(
        "native ECO parity",
        f"replace_tree(3) then full backend matrix: worst relative "
        f"mismatch {worst:.1e} (budget 1e-12)",
    )
    assert worst < 1e-12
