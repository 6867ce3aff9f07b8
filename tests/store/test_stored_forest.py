"""Tests for the out-of-core StoredForest: parity with the in-RAM
FlatForest, the hot-shard LRU, persisted incremental solves, ECO
re-solves of one shard and scratch-file hygiene."""

import gc
import glob
import os

import numpy as np
import pytest

from repro.core.exceptions import AnalysisError
from repro.flat import FlatForest
from repro.generators import RandomTreeConfig, random_flat_tree
from repro.store import ShardStoreWriter, StoredForest
from repro.store.format import UNSOLVED

RTOL = 1e-12


def _trees(count, seed=0, nodes=12):
    config = RandomTreeConfig(nodes=nodes)
    return [random_flat_tree(seed + i, config) for i in range(count)]


def _build_store(tmp_path, trees, shard_nodes=40):
    directory = str(tmp_path / "store")
    with ShardStoreWriter(directory, shard_nodes=shard_nodes) as writer:
        for tree in trees:
            writer.add_flat_tree(tree)
        writer.close()
    return directory


@pytest.fixture
def workload(tmp_path):
    trees = _trees(10, seed=42)
    directory = _build_store(tmp_path, trees)
    return FlatForest(trees), StoredForest(directory)


class TestStructure:
    def test_counts_and_offsets_match_flat_forest(self, workload):
        ram, stored = workload
        assert len(stored) == len(ram)
        assert stored.tree_count == len(ram._trees)
        assert stored.shard_count >= 2
        np.testing.assert_array_equal(stored.offsets, ram._offsets)

    def test_shard_bounds_partition_the_forest(self, workload):
        _, stored = workload
        node_pos = tree_pos = 0
        for shard in range(stored.shard_count):
            node_lo, node_hi, tree_lo, tree_hi = stored.shard_bounds(shard)
            assert (node_lo, tree_lo) == (node_pos, tree_pos)
            node_pos, tree_pos = node_hi, tree_hi
        assert node_pos == stored.node_count
        assert tree_pos == stored.tree_count

    def test_shard_of_tree_inverts_bounds(self, workload):
        _, stored = workload
        for tree in range(stored.tree_count):
            shard = stored.shard_of_tree(tree)
            _, _, tree_lo, tree_hi = stored.shard_bounds(shard)
            assert tree_lo <= tree < tree_hi


class TestSolveParity:
    def test_single_scenario_matches_flat_forest(self, workload):
        ram, stored = workload
        expected = ram.solve()
        actual = stored.solve()
        for name in ("tp", "tde", "tre", "ree", "total_capacitance"):
            np.testing.assert_allclose(
                np.asarray(getattr(actual, name)),
                np.asarray(getattr(expected, name)),
                rtol=RTOL,
            )

    def test_broadcast_batch_matches_flat_forest(self, workload):
        ram, stored = workload
        derate = np.asarray([0.9, 1.0, 1.15])
        expected = ram.solve_batch(edge_r=derate * 1.0, node_c=derate, count=3)
        actual = stored.solve_batch(edge_r=derate * 1.0, node_c=derate, count=3)
        for name in ("tp", "tde", "tre", "total_capacitance"):
            np.testing.assert_allclose(
                np.asarray(getattr(actual, name)),
                np.asarray(getattr(expected, name)),
                rtol=RTOL,
            )

    def test_full_plane_batch_matches_flat_forest(self, workload):
        ram, stored = workload
        rng = np.random.default_rng(7)
        plane = rng.uniform(0.8, 1.2, size=(2, ram.node_count))
        expected = ram.solve_batch(node_c=plane * 1e-14, count=2)
        actual = stored.solve_batch(node_c=plane * 1e-14, count=2)
        np.testing.assert_allclose(
            np.asarray(actual.tde), np.asarray(expected.tde), rtol=RTOL
        )
        np.testing.assert_allclose(
            np.asarray(actual.tp), np.asarray(expected.tp), rtol=RTOL
        )

    def test_planes_for_factory_matches_global_planes(self, workload):
        ram, stored = workload
        derate = np.asarray([0.85, 1.0, 1.3])
        base_edge_c = np.concatenate(
            [stored.materialize(s).edge_c for s in range(stored.shard_count)]
        )
        expected = ram.solve_batch(
            edge_c=derate[:, None] * base_edge_c[None, :], count=3
        )

        def planes_for(shard, node_lo, node_hi):
            hot = stored.materialize(shard)
            return (None, (hot.edge_c[:, None] * derate).T, None)

        actual = stored.solve_batch(planes_for=planes_for, count=3)
        for name in ("tp", "tde", "tre", "total_capacitance"):
            np.testing.assert_allclose(
                np.asarray(getattr(actual, name)),
                np.asarray(getattr(expected, name)),
                rtol=RTOL,
            )

    def test_batch_validates_inputs(self, workload):
        _, stored = workload
        with pytest.raises(AnalysisError):
            stored.solve_batch(planes_for=lambda s, lo, hi: (None, None, None))
        with pytest.raises(AnalysisError):
            stored.solve_batch(
                np.ones(2), planes_for=lambda s, lo, hi: (None, None, None), count=2
            )


class TestHotShardLru:
    def test_lru_bounds_resident_shards(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_HOT_SHARDS", "2")
        directory = _build_store(tmp_path, _trees(12, seed=5), shard_nodes=30)
        stored = StoredForest(directory)
        assert stored.shard_count >= 4
        for shard in range(stored.shard_count):
            stored.materialize(shard)
            assert stored.hot_shard_count <= 2

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_malformed_env_names_the_variable(self, workload, monkeypatch, raw):
        monkeypatch.setenv("REPRO_STORE_HOT_SHARDS", raw)
        with pytest.raises(AnalysisError, match="REPRO_STORE_HOT_SHARDS"):
            StoredForest(workload[1].directory)

    def test_materialize_is_cached(self, workload):
        _, stored = workload
        first = stored.materialize(0)
        again = stored.materialize(0)
        assert first is again

    def test_close_drops_hot_shards(self, workload):
        _, stored = workload
        stored.materialize(0)
        stored.close()
        assert stored.hot_shard_count == 0


class TestPersistence:
    def test_results_survive_reopen(self, workload):
        ram, stored = workload
        expected = stored.solve()
        tde = np.asarray(expected.tde).copy()
        directory = stored.directory
        del expected
        stored.close()

        reopened = StoredForest(directory)
        # Every shard is already marked solved at its current generation.
        record = reopened._manifest.results
        assert record is not None
        assert all(g != UNSOLVED for g in record.solved)
        np.testing.assert_allclose(np.asarray(reopened.solve().tde), tde, rtol=RTOL)

    def test_solve_is_incremental_per_shard(self, workload):
        ram, stored = workload
        stored.solve()
        before = list(stored._manifest.results.solved)

        replacement = random_flat_tree(999, RandomTreeConfig(nodes=12))
        stored.replace_tree(3, replacement)
        shard = stored.shard_of_tree(3)
        assert stored._manifest.results.solved[shard] == UNSOLVED
        untouched = [g for i, g in enumerate(before) if i != shard]

        stored.solve()
        after = list(stored._manifest.results.solved)
        assert [g for i, g in enumerate(after) if i != shard] == untouched


class TestEco:
    def test_same_size_replace_matches_flat_forest(self, workload):
        ram, stored = workload
        replacement = random_flat_tree(1234, RandomTreeConfig(nodes=12))
        ram.replace_tree(4, replacement)
        stored.replace_tree(4, replacement)
        expected, actual = ram.solve(), stored.solve()
        for name in ("tde", "tre", "tp"):
            np.testing.assert_allclose(
                np.asarray(getattr(actual, name)),
                np.asarray(getattr(expected, name)),
                rtol=RTOL,
            )

    def test_size_change_replace_matches_flat_forest(self, workload):
        ram, stored = workload
        replacement = random_flat_tree(77, RandomTreeConfig(nodes=21))
        ram.replace_tree(2, replacement)
        stored.replace_tree(2, replacement)
        np.testing.assert_array_equal(stored.offsets, ram._offsets)
        expected, actual = ram.solve(), stored.solve()
        for name in ("tde", "tre", "tp", "total_capacitance"):
            np.testing.assert_allclose(
                np.asarray(getattr(actual, name)),
                np.asarray(getattr(expected, name)),
                rtol=RTOL,
            )

    def test_replace_accepts_raw_arrays(self, workload):
        ram, stored = workload
        tree = random_flat_tree(55, RandomTreeConfig(nodes=8))
        ram.replace_tree(0, tree)
        stored.replace_tree(
            0, (tree._parent, tree._edge_r, tree._edge_c, tree._node_c)
        )
        np.testing.assert_allclose(
            np.asarray(stored.solve().tde), np.asarray(ram.solve().tde), rtol=RTOL
        )

    def test_replace_rejects_bad_index(self, workload):
        _, stored = workload
        tree = random_flat_tree(1)
        with pytest.raises(AnalysisError):
            stored.replace_tree(stored.tree_count, tree)
        with pytest.raises(AnalysisError):
            stored.replace_tree(-1, tree)


class TestScratchHygiene:
    def test_batch_scratch_files_are_unlinked(self, workload):
        _, stored = workload
        result = stored.solve_batch(node_c=np.asarray([0.9, 1.1]), count=2)
        pattern = os.path.join(stored.directory, ".batch-*")
        assert glob.glob(pattern)  # alive while the result is referenced
        del result
        gc.collect()
        assert glob.glob(pattern) == []
