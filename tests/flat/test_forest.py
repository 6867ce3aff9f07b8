"""FlatForest batching must agree with per-tree analysis."""

import numpy as np
import pytest

from repro.core.exceptions import DegenerateNetworkError
from repro.core.timeconstants import characteristic_times_all
from repro.core.tree import RCTree
from repro.flat import FlatForest, FlatTree
from repro.generators.random_trees import (
    RandomTreeConfig,
    random_forest,
    random_tree,
)

CONFIG = RandomTreeConfig(nodes=35, distributed_fraction=0.4)


@pytest.fixture(scope="module")
def batch():
    trees = [random_tree(seed, CONFIG) for seed in range(8)]
    return trees, FlatForest.from_rctrees(trees)


class TestSolve:
    def test_matches_dict_engine_per_tree(self, batch):
        trees, forest = batch
        for index, tree in enumerate(trees):
            reference = characteristic_times_all(tree, tree.nodes)
            for name, want in reference.items():
                got = forest.characteristic_times(index, name)
                assert got.tde == want.tde
                assert got.tre == want.tre
                assert got.ree == want.ree
                assert got.tp == pytest.approx(want.tp, rel=1e-12)
                assert got.total_capacitance == pytest.approx(
                    want.total_capacitance, rel=1e-12
                )

    def test_matches_single_flat_tree_solve(self, batch):
        trees, forest = batch
        for index, tree in enumerate(trees):
            single = FlatTree.from_tree(tree).solve()
            view = forest.times_for(index)
            np.testing.assert_array_equal(view.tde, single.tde)
            np.testing.assert_array_equal(view.tre, single.tre)
            np.testing.assert_array_equal(view.ree, single.ree)
            assert view.tp == pytest.approx(single.tp, rel=1e-12)

    def test_counts(self, batch):
        trees, forest = batch
        assert len(forest) == len(trees)
        assert forest.node_count == sum(len(t) + 0 for t in trees)
        assert len(forest.output_indices) == sum(len(t.outputs) for t in trees)

    def test_output_labels_cover_every_tree(self, batch):
        trees, forest = batch
        labels = forest.output_labels()
        for index, tree in enumerate(trees):
            assert {name for t, name in labels if t == index} == set(tree.outputs)


class TestBatchedBounds:
    def test_bounds_match_member_trees(self, batch):
        trees, forest = batch
        thresholds = [0.1, 0.5, 0.9]
        labels, lower, upper = forest.delay_bounds_batch(thresholds)
        for k, (index, name) in enumerate(labels):
            single = FlatTree.from_tree(trees[index])
            _, slo, shi = single.delay_bounds_batch(thresholds, [name])
            np.testing.assert_allclose(lower[k], slo[0], rtol=1e-12)
            np.testing.assert_allclose(upper[k], shi[0], rtol=1e-12)

    def test_voltage_bounds_shapes(self, batch):
        _, forest = batch
        times = np.linspace(0.0, 1e-9, 5)
        labels, vmin, vmax = forest.voltage_bounds_batch(times)
        assert vmin.shape == vmax.shape == (len(labels), 5)
        assert np.all(vmin <= vmax)

    def test_elmore_delays_keyed_by_tree_and_name(self, batch):
        trees, forest = batch
        delays = forest.elmore_delays()
        for index, tree in enumerate(trees):
            reference = characteristic_times_all(tree)
            for name, want in reference.items():
                assert delays[(index, name)] == want.tde


class TestDegenerateMembers:
    def test_degenerate_tree_does_not_poison_healthy_queries(self):
        healthy = random_tree(0, CONFIG)
        dead = RCTree("in")
        dead.add_resistor("in", "a", 1.0)
        dead.mark_output("a")
        forest = FlatForest.from_rctrees([healthy, dead])
        healthy_indices = np.asarray(
            [forest.global_index(0, name) for name in healthy.outputs]
        )
        labels, lower, upper = forest.delay_bounds_batch([0.5], healthy_indices)
        assert all(tree_index == 0 for tree_index, _ in labels)
        assert np.all(lower <= upper)
        # Querying the capacitance-free member itself must still raise.
        with pytest.raises(DegenerateNetworkError):
            forest.delay_bounds_batch(
                [0.5], np.asarray([forest.global_index(1, "a")])
            )


class TestGenerators:
    def test_random_forest_members_match_random_tree(self):
        forest = random_forest(4, seed=11, config=CONFIG)
        for offset in range(4):
            tree = random_tree(11 + offset, CONFIG)
            reference = characteristic_times_all(tree, tree.nodes)
            for name, want in reference.items():
                got = forest.characteristic_times(offset, name)
                assert got.tde == want.tde

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError):
            FlatForest([])
        with pytest.raises(ValueError):
            random_forest(0)


class TestReplaceTree:
    def test_replace_changes_member_and_times(self):
        from repro.generators.random_trees import RandomTreeConfig, random_flat_tree

        config = RandomTreeConfig(nodes=12, branching_bias=0.7)
        forest = FlatForest([random_flat_tree(seed, config) for seed in range(4)])
        forest.solve()
        replacement = random_flat_tree(99, RandomTreeConfig(nodes=20, branching_bias=0.7))
        forest.replace_tree(2, replacement)
        assert forest.node_count == sum(len(t) for t in forest.trees)
        rebuilt = FlatForest(forest.trees)
        times_a = forest.solve()
        times_b = rebuilt.solve()
        np.testing.assert_allclose(times_a.tde, times_b.tde, rtol=1e-15)
        np.testing.assert_allclose(times_a.tp, times_b.tp, rtol=1e-15)

    @staticmethod
    def assert_solves_like_fresh(forest):
        """Every node and tree field bitwise a freshly built forest's."""
        fresh = FlatForest(forest.trees)
        plan, want = forest._plan, fresh._plan
        for name in ("order", "position", "bounds", "parent"):
            assert getattr(plan, name).tobytes() == getattr(want, name).tobytes()
        times, rebuilt = forest.solve(), fresh.solve()
        for name in ("tde", "tre", "ree", "tp", "total_capacitance"):
            assert getattr(times, name).tobytes() == getattr(rebuilt, name).tobytes()

    def test_same_parent_splice_keeps_the_plan(self):
        from repro.generators.random_trees import RandomTreeConfig, random_flat_tree

        config = RandomTreeConfig(nodes=15, branching_bias=0.6)
        forest = FlatForest([random_flat_tree(seed, config) for seed in range(4)])
        forest.solve()
        plan = forest._plan
        member = forest.tree(1)
        forest.replace_tree(
            1,
            FlatTree(
                member.names,
                member._parent,
                member._edge_r * 2.0,
                member._edge_c,
                member._node_c * 3.0,
                member._is_output,
            ),
        )
        assert forest._plan is plan
        self.assert_solves_like_fresh(forest)

    def test_same_depth_profile_new_parent_rebuilds_the_plan(self):
        from repro.generators.random_trees import random_flat_tree

        # in -> a -> {b, c}, in -> d  versus  in -> a -> b, in -> d -> c:
        # the same size and depth profile, one leaf moved to a sibling.
        names = ["in", "a", "b", "c", "d"]
        edge_r, edge_c = [0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1e-15, 0.0, 2e-15, 0.0]
        node_c = [1e-15, 2e-15, 3e-15, 4e-15, 5e-15]
        outputs = [False, False, True, True, True]
        before = FlatTree(names, [-1, 0, 1, 1, 0], edge_r, edge_c, node_c, outputs)
        after = FlatTree(
            ["in", "a", "b", "d", "c"],
            [-1, 0, 1, 0, 3],
            edge_r,
            edge_c,
            node_c,
            outputs,
        )
        profile = np.bincount(before._depth)
        assert np.bincount(after._depth).tolist() == profile.tolist() == [1, 2, 2]
        forest = FlatForest([random_flat_tree(0), before, random_flat_tree(1)])
        forest.solve()
        plan = forest._plan
        forest.replace_tree(1, after)
        assert forest._plan is not plan
        self.assert_solves_like_fresh(forest)

    def test_size_changing_splice_rebuilds_the_plan(self):
        from repro.generators.random_trees import RandomTreeConfig, random_flat_tree

        config = RandomTreeConfig(nodes=15, branching_bias=0.6)
        forest = FlatForest([random_flat_tree(seed, config) for seed in range(4)])
        plan = forest._plan
        forest.replace_tree(2, random_flat_tree(9, RandomTreeConfig(nodes=31)))
        assert forest._plan is not plan
        self.assert_solves_like_fresh(forest)

    def test_replace_out_of_range_rejected(self):
        from repro.generators.random_trees import random_flat_tree

        forest = FlatForest([random_flat_tree(0)])
        with pytest.raises(IndexError):
            forest.replace_tree(5, random_flat_tree(1))

    def test_replace_preserves_other_members_bitwise(self):
        from repro.generators.random_trees import RandomTreeConfig, random_flat_tree

        config = RandomTreeConfig(nodes=10, branching_bias=0.5)
        forest = FlatForest([random_flat_tree(seed, config) for seed in range(3)])
        before = forest.solve()
        first = forest.tree_nodes(0)
        forest.replace_tree(2, random_flat_tree(50, config))
        after = forest.solve()
        np.testing.assert_array_equal(
            before.tde[first], after.tde[forest.tree_nodes(0)]
        )


class TestSubforest:
    FIELDS = ("tde", "tre", "ree")

    @staticmethod
    def assert_rows_equal(forest, trees):
        """Sub-forest solve rows equal the parent forest's rows, bitwise."""
        sub = forest.subforest(trees)
        rng = np.random.default_rng(len(trees))
        s = 3
        edge_r = forest._edge_r * rng.uniform(0.5, 2.0, (s, forest.node_count))
        node_c = forest._node_c * rng.uniform(0.5, 2.0, (s, forest.node_count))
        # The parent forest's row of every sub-forest node: each member's
        # rows in preorder, then taken in the sub-forest's own solve order.
        nodes = np.concatenate([forest.tree_nodes(t) for t in trees])
        nodes = nodes[sub._plan.order]
        full = forest.solve_batch(edge_r=edge_r, node_c=node_c, count=s)
        part = sub.solve_batch(
            edge_r=edge_r[:, nodes], node_c=node_c[:, nodes], count=s
        )
        for name in TestSubforest.FIELDS:
            got = np.ascontiguousarray(getattr(part, name))
            want = np.ascontiguousarray(getattr(full, name)[:, nodes])
            assert got.tobytes() == want.tobytes(), name
        for name in ("tp", "total_capacitance"):
            got = np.ascontiguousarray(getattr(part, name))
            want = np.ascontiguousarray(getattr(full, name)[:, trees])
            assert got.tobytes() == want.tobytes(), name
        return sub

    def test_rows_equal_parent_forest_rows(self, batch):
        _, forest = batch
        sub = self.assert_rows_equal(forest, [5, 1, 6])
        assert len(sub) == 3
        assert sub.node_count == sum(len(forest.tree(t)) for t in (5, 1, 6))
        assert sub._trees == [None, None, None]  # no member trees built
        assert sub.tree(1).names == forest.tree(1).names

    @pytest.mark.parametrize("built", ["members", "block"])
    def test_rows_equal_after_size_changing_replace(self, built):
        from repro.generators.random_trees import RandomTreeConfig, random_flat_tree

        config = RandomTreeConfig(nodes=14, branching_bias=0.6)
        forest = FlatForest([random_flat_tree(seed, config) for seed in range(5)])
        if built == "block":
            parent, depth, edge_r, edge_c, node_c, is_output = forest._preorder()
            forest = FlatForest.from_block(
                forest._offsets.copy(),
                parent,
                edge_r,
                edge_c,
                node_c,
                depth=depth,
                is_output=is_output,
                names=[name for tree in forest.trees for name in tree.names],
            )
        forest.replace_tree(1, random_flat_tree(40, RandomTreeConfig(nodes=23)))
        forest.replace_tree(3, random_flat_tree(41, RandomTreeConfig(nodes=6)))
        sub = self.assert_rows_equal(forest, [0, 1, 3, 4])
        assert sub.tree(1).names == forest.tree(1).names
        self.assert_rows_equal(forest, [3])

    def test_empty_selection_rejected(self, batch):
        _, forest = batch
        with pytest.raises(ValueError):
            forest.subforest([])
