"""Benchmark of the vectorized flat-tree engine against the dict engine.

Three measurements on the all-sink characteristic-times workload (the
paper's linear-time claim, scaled up):

* **compile+solve** -- ``FlatTree.from_tree`` plus a full vectorized solve,
  versus ``characteristic_times_all`` on a 10k-node random tree.  This is
  the one-shot cost and must be at least 5x faster.
* **re-solve** -- the amortized cost once compiled: two orders of
  magnitude.
* **forest batch** -- 200 small nets solved in one ``FlatForest`` versus one
  at a time through the dict engine.

The printed table doubles as the record for ``docs/performance.md``.
"""

import time

import pytest

from repro.core.timeconstants import characteristic_times_all
from repro.flat import FlatForest, FlatTree
from repro.generators.random_trees import (
    RandomTreeConfig,
    random_forest,
    random_tree,
)
from repro.utils.tables import format_table

#: The headline workload: a bushy 10k-node random tree (depth ~ log N, the
#: realistic shape for clock and signal nets; a pure chain degenerates the
#: level sweeps -- see docs/performance.md).
NODES = 10_000
CONFIG = RandomTreeConfig(nodes=NODES, branching_bias=1.0, distributed_fraction=0.3)
SMALL = RandomTreeConfig(nodes=60, branching_bias=0.8)
FOREST_TREES = 200


def _best(function, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def workload():
    tree = random_tree(42, CONFIG)
    flat = FlatTree.from_tree(tree)
    return tree, flat


@pytest.fixture(scope="module")
def measurements(workload):
    tree, flat = workload
    dict_time = _best(lambda: characteristic_times_all(tree, tree.nodes))
    compile_time = _best(lambda: FlatTree.from_tree(tree).solve())

    def re_solve():
        flat._times = None
        flat.solve()

    resolve_time = _best(re_solve)

    # Forest batch of small nets.
    forest = random_forest(FOREST_TREES, seed=100, config=SMALL)

    def forest_solve():
        forest._times = None
        forest.solve()

    forest_time = _best(forest_solve, repeats=3)
    trees = [random_tree(100 + s, SMALL) for s in range(FOREST_TREES)]

    def dict_loop():
        for member in trees:
            characteristic_times_all(member)

    dict_loop_time = _best(dict_loop, repeats=3)

    return {
        "dict": dict_time,
        "compile": compile_time,
        "resolve": resolve_time,
        "forest": forest_time,
        "dict_loop": dict_loop_time,
    }


def test_flat_engine_speedup(benchmark, workload, measurements, report):
    tree, _ = workload
    benchmark(lambda: FlatTree.from_tree(tree).solve())

    m = measurements
    rows = [
        ("dict engine, all sinks (10k nodes)", m["dict"] * 1e3, 1.0),
        ("flat compile + solve", m["compile"] * 1e3, m["dict"] / m["compile"]),
        ("flat re-solve (amortized)", m["resolve"] * 1e3, m["dict"] / m["resolve"]),
        (f"{FOREST_TREES} nets, dict engine one-by-one", m["dict_loop"] * 1e3, 1.0),
        (
            f"{FOREST_TREES} nets, one FlatForest solve",
            m["forest"] * 1e3,
            m["dict_loop"] / m["forest"],
        ),
    ]
    table = format_table(
        ["workload", "time (ms)", "speedup"],
        rows,
        precision=3,
        title="flat engine vs dict engine",
    )
    report("flat-engine speedup", table)

    # Acceptance: >= 5x on the all-sink characteristic-times workload.
    assert m["dict"] / m["compile"] >= 5.0, (
        f"compile+solve speedup {m['dict'] / m['compile']:.2f}x < 5x"
    )
    assert m["dict"] / m["resolve"] >= 5.0
    # Batching many nets must beat per-net dict analysis.
    assert m["dict_loop"] / m["forest"] >= 5.0


def test_flat_engine_parity_on_benchmark_tree(workload):
    """The speedup is only meaningful if the numbers agree."""
    tree, flat = workload
    reference = characteristic_times_all(tree, tree.nodes)
    times = flat.solve()
    worst_tde = 0.0
    worst_tre = 0.0
    for name, want in reference.items():
        i = flat.index(name)
        if want.tde > 0:
            worst_tde = max(worst_tde, abs(times.tde[i] - want.tde) / want.tde)
        if want.tre > 0:
            worst_tre = max(worst_tre, abs(times.tre[i] - want.tre) / want.tre)
    assert worst_tde < 1e-9
    assert worst_tre < 1e-9


def test_forest_batching_beats_per_tree_solves():
    """Shared level sweeps: one batched solve beats 200 individual solves."""
    forest = random_forest(200, seed=1, config=SMALL)
    members = forest.trees

    def one_by_one():
        for member in members:
            member._times = None
            member.solve()

    t_forest = _best(lambda: (setattr(forest, "_times", None), forest.solve()), repeats=3)
    t_members = _best(one_by_one, repeats=3)
    assert t_forest < t_members
