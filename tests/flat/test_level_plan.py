"""The level-major solve plan and the numpy sweep over it.

:func:`repro.flat.scenarios.level_plan` numbers a preorder forest level by
level; :func:`repro.flat.scenarios.sweep_scenarios` runs the two passes
over that numbering.  The sweep must be bitwise the preorder level-bucket
sweep it replaced (:mod:`tests.flat.sweep_oracle`), row ``k`` against
preorder node ``plan.order[k]``, on every shape a forest takes: random
designs, a deep chain, single-node trees, a wide fan-out, and the layouts
splices leave behind.
"""

import numpy as np
import pytest

from repro.flat import FlatForest, FlatTree
from repro.flat.scenarios import level_plan, sweep_scenarios
from repro.generators import RandomTreeConfig, random_design, random_flat_tree
from repro.generators.random_trees import random_forest
from repro.graph import DesignDB
from tests.flat.sweep_oracle import level_buckets, oracle_sweep
from tests.properties.topologies import topology_flat_tree


def assert_sweep_matches_oracle(forest, count=5, seed=0):
    """The numpy sweep over the forest's plan against the oracle, bitwise."""
    parent, depth = forest._preorder()[:2]
    plan = forest._plan
    rng = np.random.default_rng(seed)
    n = forest.node_count
    er, ec, nc = (rng.uniform(0.1, 2.0, size=(n, count)) for _ in range(3))
    want = oracle_sweep(parent, depth, er, ec, nc)
    order = plan.order
    got = sweep_scenarios(plan, plan.parent, er[order], ec[order], nc[order])
    for name, g, w in zip(("rkk", "c_down", "tde", "tre"), got, want):
        assert g.tobytes() == w[order].tobytes(), name


def level_buckets_concat(depth):
    return np.concatenate(level_buckets(depth)).tolist()


def lumped_tree(c=1e-15):
    return FlatTree(["in"], [-1], [0.0], [0.0], [c], [True])


class TestPlan:
    @pytest.mark.parametrize("seed", [1, 2, 3, 9])
    def test_order_is_breadth_first_by_parent(self, seed):
        """The stable depth sort equals a BFS that visits children in order."""
        design, parasitics = random_design(300, seed=seed)
        forest = DesignDB(design, parasitics).forest
        parent, depth = forest._preorder()[:2]
        plan = level_plan(parent, depth)
        children = [[] for _ in range(len(parent))]
        for node, up in enumerate(parent.tolist()):
            if up >= 0:
                children[up].append(node)
        frontier = np.flatnonzero(parent < 0).tolist()
        bfs = []
        while frontier:
            bfs += frontier
            frontier = [c for node in frontier for c in children[node]]
        assert plan.order.tolist() == bfs

    def test_levels_siblings_and_parents(self):
        forest = random_forest(20, seed=4)
        plan = forest._plan
        parent, depth = forest._preorder()[:2]
        assert plan.order.tolist() == level_buckets_concat(depth)
        assert (plan.position[plan.order] == np.arange(forest.node_count)).all()
        rows = np.arange(forest.node_count)
        rooted = plan.parent >= 0
        assert (plan.parent[rooted] < rows[rooted]).all()
        assert rows[~rooted].tolist() == list(range(int(plan.bounds[1])))
        assert (plan.parent[rooted] == plan.position[parent[plan.order[rooted]]]).all()
        for d in range(plan.depth + 1):
            lo, hi = plan.bounds[d], plan.bounds[d + 1]
            assert (depth[plan.order[lo:hi]] == d).all()
            # Sibling runs are contiguous: parents never decrease in a level.
            assert (np.diff(plan.parent[lo:hi]) >= 0).all()
        for lo, hi, schedule in plan.levels:
            covered = np.sort(np.concatenate([children for children, _ in schedule]))
            assert covered.tolist() == list(range(hi - lo))
            for rank, (children, parents) in enumerate(schedule):
                assert len(set(parents.tolist())) == len(parents)
                assert (plan.parent[lo + children] == parents).all()
                first = np.searchsorted(plan.parent[lo:hi], parents)
                assert (children - first == rank).all()

    def test_topological_but_not_preorder_input(self):
        """Ranks stay exact when sibling runs are not contiguous."""
        parent = np.asarray([-1, 0, 0, 1, 2, 1, 2, 1], dtype=np.int64)
        depth = np.asarray([0, 1, 1, 2, 2, 2, 2, 2], dtype=np.int64)
        plan = level_plan(parent, depth)
        rng = np.random.default_rng(5)
        er, ec, nc = (rng.uniform(0.1, 2.0, size=(8, 3)) for _ in range(3))
        want = oracle_sweep(parent, depth, er, ec, nc)
        order = plan.order
        got = sweep_scenarios(plan, plan.parent, er[order], ec[order], nc[order])
        for g, w in zip(got, want):
            assert g.tobytes() == w[order].tobytes()


class TestSweepParity:
    @pytest.mark.parametrize("seed", [1, 7])
    def test_random_design(self, seed):
        design, parasitics = random_design(400, seed=seed)
        assert_sweep_matches_oracle(DesignDB(design, parasitics).forest, 8, seed)

    def test_random_forest(self):
        assert_sweep_matches_oracle(random_forest(40, seed=3), 4)

    def test_deep_chain(self):
        forest = FlatForest([topology_flat_tree("chain", 600, seed=1)])
        assert forest._plan.depth == 599
        assert_sweep_matches_oracle(forest, 3)

    def test_single_node_trees(self):
        forest = FlatForest(
            [lumped_tree(), random_flat_tree(2), lumped_tree(2e-15), lumped_tree()]
        )
        assert_sweep_matches_oracle(forest, 3)
        only_lumped = FlatForest([lumped_tree(), lumped_tree(3e-15)])
        assert only_lumped._plan.levels == ()
        assert_sweep_matches_oracle(only_lumped, 2)

    def test_wide_fan_out(self):
        star = topology_flat_tree("star", 40, seed=2)
        forest = FlatForest([star, random_flat_tree(3), star])
        widest = max(len(schedule) for _, _, schedule in forest._plan.levels)
        assert widest > 10
        assert_sweep_matches_oracle(forest, 6)

    def test_after_same_shape_and_size_changing_splices(self):
        config = RandomTreeConfig(nodes=25, branching_bias=0.6)
        forest = FlatForest([random_flat_tree(seed, config) for seed in range(6)])
        member = forest.tree(2)
        forest.replace_tree(
            2,
            FlatTree(
                member.names,
                member._parent,
                member._edge_r * 1.5,
                member._edge_c,
                member._node_c,
                member._is_output,
            ),
        )
        assert_sweep_matches_oracle(forest, 4, seed=1)
        forest.replace_tree(4, random_flat_tree(50, RandomTreeConfig(nodes=41)))
        forest.replace_tree(0, random_flat_tree(51, RandomTreeConfig(nodes=3)))
        assert_sweep_matches_oracle(forest, 4, seed=2)

    @pytest.mark.parametrize("kind", ["caterpillar", "balanced", "random_binary"])
    def test_topology_shapes(self, kind):
        trees = [
            topology_flat_tree(kind, size, seed=k)
            for k, size in enumerate((1, 2, 17, 64, 90))
        ]
        assert_sweep_matches_oracle(FlatForest(trees), 3)


class TestEngine:
    def test_numpy_engine_is_the_oracle_forest_solve(self):
        """FlatForest.solve_batch's node fields are the oracle's, bitwise."""
        forest = random_forest(30, seed=8)
        rng = np.random.default_rng(2)
        s = 4
        planes = [
            base * rng.uniform(0.5, 2.0, size=(s, forest.node_count))
            for base in (forest._edge_r, forest._edge_c, forest._node_c)
        ]
        times = forest.solve_batch(*planes, count=s, engine="numpy")
        position = forest._plan.position
        parent, depth = forest._preorder()[:2]
        rkk, _, tde, tre = oracle_sweep(
            parent, depth, *(np.ascontiguousarray(p[:, position].T) for p in planes)
        )
        assert np.ascontiguousarray(times.ree[:, position]).tobytes() == (
            np.ascontiguousarray(rkk.T).tobytes()
        )
        assert np.ascontiguousarray(times.tde[:, position]).tobytes() == (
            np.ascontiguousarray(tde.T).tobytes()
        )
        assert np.ascontiguousarray(times.tre[:, position]).tobytes() == (
            np.ascontiguousarray(tre.T).tobytes()
        )
