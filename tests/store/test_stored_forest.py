"""Tests for the out-of-core StoredForest: parity with the in-RAM
FlatForest, the hot-shard LRU, persisted incremental solves, ECO
re-solves of one shard and scratch-file hygiene."""

import errno
import gc
import glob
import os

import numpy as np
import pytest

from repro.core.exceptions import AnalysisError, ElementValueError
from repro.flat import FlatForest
from repro.generators import RandomTreeConfig, random_flat_tree
from repro.store import ShardStoreWriter, StoredForest
from repro.store import forest as store_forest
from repro.store.format import MANIFEST_NAME, UNSOLVED, Manifest

RTOL = 1e-12
NODE_FIELDS = ("tde", "tre", "ree")


def _preorder(ram, times, name):
    """One field of a FlatForest solve in preorder, the store's numbering.

    A FlatForest holds its nodes in level-major solve rows; its plan's
    ``position`` maps each preorder node to its row.
    """
    values = np.asarray(getattr(times, name))
    if name in NODE_FIELDS:
        return values[..., ram._plan.position]
    return values


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
                _preorder(ram, expected, name),
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
                _preorder(ram, expected, name),
                rtol=RTOL,
            )

    def test_full_plane_batch_matches_flat_forest(self, workload):
        ram, stored = workload
        rng = np.random.default_rng(7)
        plane = rng.uniform(0.8, 1.2, size=(2, ram.node_count))
        expected = ram.solve_batch(node_c=plane * 1e-14, count=2)
        # The same value per node, laid out in the store's preorder.
        actual = stored.solve_batch(
            node_c=plane[:, ram._plan.position] * 1e-14, count=2
        )
        np.testing.assert_allclose(
            np.asarray(actual.tde), _preorder(ram, expected, "tde"), rtol=RTOL
        )
        np.testing.assert_allclose(
            np.asarray(actual.tp), np.asarray(expected.tp), rtol=RTOL
        )

    def test_planes_for_factory_matches_global_planes(self, workload):
        ram, stored = workload
        derate = np.asarray([0.85, 1.0, 1.3])
        expected = ram.solve_batch(
            edge_c=derate[:, None] * ram._edge_c[None, :], count=3
        )

        def planes_for(shard, node_lo, node_hi):
            # Planes in the shard forest's own solve rows.
            hot = stored.materialize(shard)
            return (None, (hot._edge_c[:, None] * derate).T, None)

        actual = stored.solve_batch(planes_for=planes_for, count=3)
        for name in ("tp", "tde", "tre", "total_capacitance"):
            np.testing.assert_allclose(
                np.asarray(getattr(actual, name)),
                _preorder(ram, expected, name),
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
        monkeypatch.setattr(store_forest, "DEFAULT_HOT_SHARDS", 2)
        directory = _build_store(tmp_path, _trees(12, seed=5), shard_nodes=30)
        stored = StoredForest(directory)
        assert stored.shard_count >= 4
        for shard in range(stored.shard_count):
            stored.materialize(shard)
            assert stored.hot_shard_count <= 2

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
                _preorder(ram, expected, name),
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
                _preorder(ram, expected, name),
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
            np.asarray(stored.solve().tde),
            _preorder(ram, ram.solve(), "tde"),
            rtol=RTOL,
        )

    def test_short_plane_is_rejected_before_any_splice(self, workload):
        _, stored = workload
        before = TestEcoWriteFault._rows(stored)
        tree = random_flat_tree(56, RandomTreeConfig(nodes=9))
        parent = tree._parent
        n = len(parent)
        message = rf"edge_c has shape \({n - 1},\), expected \({n},\)"
        with pytest.raises(AnalysisError, match=message):
            stored.replace_tree(
                1, (parent, tree._edge_r, tree._edge_c[:-1], tree._node_c)
            )
        after = TestEcoWriteFault._rows(stored)
        for name, value in before.items():
            assert after[name].tobytes() == value.tobytes(), name
        # The store takes the next valid ECO.
        ram = FlatForest(_trees(10, seed=42))
        ram.replace_tree(1, tree)
        stored.replace_tree(
            1, (parent, tree._edge_r, tree._edge_c, tree._node_c)
        )
        np.testing.assert_allclose(
            np.asarray(stored.solve().tde),
            _preorder(ram, ram.solve(), "tde"),
            rtol=RTOL,
        )

    @pytest.mark.parametrize("plane, value", [(1, -5.0), (3, np.inf), (3, np.nan)])
    def test_bad_value_is_rejected_before_any_splice(self, workload, plane, value):
        _, stored = workload
        before = TestEcoWriteFault._rows(stored)
        tree = random_flat_tree(57, RandomTreeConfig(nodes=9))
        arrays = [tree._parent, tree._edge_r, tree._edge_c, tree._node_c]
        arrays[plane] = arrays[plane].copy()
        arrays[plane][-1] = value
        with pytest.raises(ElementValueError, match="finite and non-negative"):
            stored.replace_tree(1, tuple(arrays))
        after = TestEcoWriteFault._rows(stored)
        for name, row in before.items():
            assert after[name].tobytes() == row.tobytes(), name

    def test_materialized_shard_has_no_member_trees(self, workload):
        _, stored = workload
        with pytest.raises(AnalysisError):
            stored.materialize(0).tree(0)

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

    def test_failed_sweep_removes_its_scratch(self, workload):
        ram, stored = workload
        assert stored.shard_count >= 2

        def planes_for(shard, node_lo, node_hi):
            if shard == 1:
                raise RuntimeError("plane factory failed")
            return (None, None, None)

        with pytest.raises(RuntimeError, match="plane factory failed"):
            stored.solve_batch(planes_for=planes_for, count=2)
        # The exception info still holds the sweep's frame; the file is
        # gone regardless.
        assert glob.glob(os.path.join(stored.directory, ".batch-*.bin")) == []
        times = stored.solve_batch(count=2)
        expected = ram.solve_batch(count=2)
        for name in ("tp", "tde", "tre", "total_capacitance"):
            np.testing.assert_allclose(
                np.asarray(getattr(times, name)),
                _preorder(ram, expected, name),
                rtol=RTOL,
            )


class TestEcoWriteFault:
    """A failed ECO write leaves the store, and the object, as they were.

    The fault is the one a full disk or a file-size limit produces: the
    spliced shard is written part-way, or the manifest commit raises.
    """

    @pytest.fixture
    def store(self, tmp_path):
        trees = _trees(12, seed=9, nodes=31)
        directory = _build_store(tmp_path, trees, shard_nodes=200)
        stored = StoredForest(directory)
        assert stored.shard_count == 2
        return stored

    @staticmethod
    def _write_then_fail(path, *arrays):
        with open(path, "wb") as handle:
            handle.write(b"partial")
        raise OSError(errno.ENOSPC, "No space left on device", path)

    @staticmethod
    def _save_then_fail(manifest, directory):
        with open(os.path.join(directory, MANIFEST_NAME + ".tmp"), "w") as handle:
            handle.write("{")
        raise OSError(errno.ENOSPC, "No space left on device")

    @staticmethod
    def _rows(stored):
        results = {
            "solve": stored.solve(),
            "batch": stored.solve_batch(node_c=np.asarray([0.9, 1.1]), count=2),
        }
        rows = {
            (kind, name): np.array(getattr(times, name))
            for kind, times in results.items()
            for name in ("tp", "tde", "tre", "ree", "total_capacitance")
        }
        del results
        gc.collect()
        return rows

    def _assert_untouched(self, stored, before, monkeypatch):
        directory = stored.directory
        assert glob.glob(os.path.join(directory, "*.tmp")) == []
        named = {record.file_name for record in Manifest.load(directory).shards}
        on_disk = {
            os.path.basename(path)
            for path in glob.glob(os.path.join(directory, "shard-*"))
        }
        assert on_disk == named
        monkeypatch.undo()
        reopened = StoredForest(directory)
        after = self._rows(reopened)
        reopened.close()
        for name, value in before.items():
            assert after[name].tobytes() == value.tobytes(), name
        # The same object still works: the next ECO goes through.
        replacement = random_flat_tree(98, RandomTreeConfig(nodes=40))
        stored.replace_tree(0, replacement)
        ram = FlatForest(_trees(12, seed=9, nodes=31))
        ram.replace_tree(0, replacement)
        np.testing.assert_allclose(
            np.asarray(stored.solve().tde),
            _preorder(ram, ram.solve(), "tde"),
            rtol=RTOL,
        )

    def test_failed_shard_write_keeps_the_old_shard(self, store, monkeypatch):
        before = self._rows(store)
        monkeypatch.setattr(store_forest, "write_shard_file", self._write_then_fail)
        with pytest.raises(OSError) as caught:
            store.replace_tree(0, random_flat_tree(99, RandomTreeConfig(nodes=300)))
        assert caught.value.errno == errno.ENOSPC
        self._assert_untouched(store, before, monkeypatch)

    def test_failed_manifest_commit_keeps_the_old_shard(self, store, monkeypatch):
        before = self._rows(store)
        monkeypatch.setattr(Manifest, "save", self._save_then_fail)
        with pytest.raises(OSError) as caught:
            store.replace_tree(0, random_flat_tree(99, RandomTreeConfig(nodes=300)))
        assert caught.value.errno == errno.ENOSPC
        self._assert_untouched(store, before, monkeypatch)
