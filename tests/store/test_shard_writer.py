"""Tests for the incremental shard-store writer: format round-trip,
tree-boundary shard cuts, transactional abort (also when a shard write
fails part-way), and input validation."""

import errno
import glob
import os

import numpy as np
import pytest

from repro.core.exceptions import AnalysisError, ElementValueError
from repro.generators import RandomTreeConfig, random_design, random_flat_tree
from repro.graph import DesignDB
from repro.store import MANIFEST_NAME, Manifest, ShardStoreWriter
from repro.store import writer as writer_module
from repro.store.format import read_shard_arrays


def _flat_trees(count, seed=0, nodes=12):
    config = RandomTreeConfig(nodes=nodes)
    return [random_flat_tree(seed + i, config) for i in range(count)]


def _store_files(directory):
    return sorted(os.listdir(directory))


class TestRoundTrip:
    def test_arrays_survive_write_and_read(self, tmp_path):
        trees = _flat_trees(6, seed=3)
        directory = str(tmp_path / "store")
        with ShardStoreWriter(directory, shard_nodes=30) as writer:
            for tree in trees:
                writer.add_flat_tree(tree)
            manifest = writer.close()

        assert manifest.tree_count == 6
        assert manifest.node_count == sum(len(t._parent) for t in trees)

        # Re-concatenate the shards and compare field by field.
        gathered = {name: [] for name in ("parent", "edge_r", "edge_c", "node_c")}
        for record in manifest.shards:
            arrays = read_shard_arrays(
                os.path.join(directory, record.file_name), record.nodes, record.trees
            )
            for name in gathered:
                gathered[name].append(np.asarray(arrays[name]))
        local_roots = np.concatenate([np.asarray(a["parent"]) < 0 for a in (
            read_shard_arrays(
                os.path.join(directory, r.file_name), r.nodes, r.trees
            ) for r in manifest.shards
        )])
        assert int(local_roots.sum()) == 6
        for name in ("edge_r", "edge_c", "node_c"):
            expected = np.concatenate([getattr(t, "_" + name) for t in trees])
            np.testing.assert_array_equal(np.concatenate(gathered[name]), expected)

    def test_manifest_persists_and_reloads(self, tmp_path):
        directory = str(tmp_path / "store")
        with ShardStoreWriter(directory, shard_nodes=16) as writer:
            for tree in _flat_trees(4):
                writer.add_flat_tree(tree)
            manifest = writer.close()
        reloaded = Manifest.load(directory)
        assert reloaded.tree_count == manifest.tree_count
        assert reloaded.node_count == manifest.node_count
        assert [r.file_name for r in reloaded.shards] == [
            r.file_name for r in manifest.shards
        ]
        assert reloaded.depth == manifest.depth


class TestShardCuts:
    def test_shards_cut_at_tree_boundaries(self, tmp_path):
        trees = _flat_trees(8, nodes=9)
        with ShardStoreWriter(str(tmp_path / "s"), shard_nodes=25) as writer:
            for tree in trees:
                writer.add_flat_tree(tree)
            manifest = writer.close()
        assert len(manifest.shards) > 1
        # Tree/node totals add up and every shard holds whole trees.
        assert sum(r.trees for r in manifest.shards) == 8
        sizes = [len(t._parent) for t in trees]
        consumed = 0
        for record in manifest.shards:
            span = sizes[consumed : consumed + record.trees]
            assert record.nodes == sum(span)
            consumed += record.trees

    def test_oversized_tree_is_never_split(self, tmp_path):
        big = random_flat_tree(0, RandomTreeConfig(nodes=40))
        small = _flat_trees(2, seed=9, nodes=5)
        with ShardStoreWriter(str(tmp_path / "s"), shard_nodes=10) as writer:
            writer.add_flat_tree(big)
            for tree in small:
                writer.add_flat_tree(tree)
            manifest = writer.close()
        # The 41-node tree overflows the 10-node threshold: it gets a
        # whole (oversized) shard to itself rather than being split.
        assert manifest.shards[0].trees == 1
        assert manifest.shards[0].nodes == len(big._parent)

    def test_level_counts_cover_every_node(self, tmp_path):
        with ShardStoreWriter(str(tmp_path / "s"), shard_nodes=20) as writer:
            for tree in _flat_trees(5):
                writer.add_flat_tree(tree)
            manifest = writer.close()
        for record in manifest.shards:
            assert sum(record.level_counts) == record.nodes
            assert len(record.level_counts) == record.depth + 1


class TestTransactional:
    def test_exception_inside_context_removes_all_files(self, tmp_path):
        directory = tmp_path / "s"
        with pytest.raises(RuntimeError):
            with ShardStoreWriter(str(directory), shard_nodes=8) as writer:
                for tree in _flat_trees(4):
                    writer.add_flat_tree(tree)
                raise RuntimeError("boom")
        assert not directory.exists() or _store_files(str(directory)) == []

    def test_abort_after_flush_removes_shard_files(self, tmp_path):
        directory = tmp_path / "s"
        writer = ShardStoreWriter(str(directory), shard_nodes=8)
        for tree in _flat_trees(4):
            writer.add_flat_tree(tree)
        assert writer.shard_count >= 1  # something already hit disk
        writer.abort()
        assert not directory.exists() or _store_files(str(directory)) == []

    def test_close_with_zero_trees_raises_and_cleans(self, tmp_path):
        directory = tmp_path / "s"
        writer = ShardStoreWriter(str(directory))
        with pytest.raises(AnalysisError):
            writer.close()

    def test_refuses_to_overwrite_without_flag(self, tmp_path):
        directory = str(tmp_path / "s")
        with ShardStoreWriter(directory) as writer:
            writer.add_flat_tree(random_flat_tree(0))
            writer.close()
        with pytest.raises(AnalysisError):
            ShardStoreWriter(directory)

    def test_overwrite_replaces_previous_store(self, tmp_path):
        directory = str(tmp_path / "s")
        with ShardStoreWriter(directory) as writer:
            for tree in _flat_trees(3):
                writer.add_flat_tree(tree)
            writer.close()
        with ShardStoreWriter(directory, overwrite=True) as writer:
            writer.add_flat_tree(random_flat_tree(7))
            manifest = writer.close()
        assert manifest.tree_count == 1
        assert os.path.exists(os.path.join(directory, MANIFEST_NAME))


class TestWriteFault:
    """A shard write that fails part-way must not leave a partial store.

    The fault is the one a full disk or a file-size limit produces: the
    shard file exists (possibly empty) when the write raises.
    """

    @pytest.fixture
    def disk_full(self, monkeypatch):
        def write_then_fail(path, *arrays):
            with open(path, "wb") as handle:
                handle.write(b"partial")
            raise OSError(errno.ENOSPC, "No space left on device", path)

        monkeypatch.setattr(writer_module, "write_shard_file", write_then_fail)

    @staticmethod
    def _leftovers(directory):
        return sorted(
            glob.glob(os.path.join(directory, "shard-*.bin"))
            + glob.glob(os.path.join(directory, MANIFEST_NAME))
            + glob.glob(os.path.join(directory, "*.tmp"))
        )

    def test_failed_flush_removes_the_partial_shard(self, tmp_path, disk_full):
        directory = str(tmp_path / "s")
        with pytest.raises(OSError) as caught:
            with ShardStoreWriter(directory, shard_nodes=8) as writer:
                for tree in _flat_trees(4):
                    writer.add_flat_tree(tree)
        assert caught.value.errno == errno.ENOSPC
        assert self._leftovers(directory) == []

    def test_failed_design_ingest_leaves_no_store_files(self, tmp_path, disk_full):
        # A small design fits one shard, written when the ingest closes.
        design, parasitics = random_design(300, seed=3)
        directory = str(tmp_path / "store")
        with pytest.raises(OSError) as caught:
            DesignDB(design, parasitics, store_dir=directory)
        assert caught.value.errno == errno.ENOSPC
        assert self._leftovers(directory) == []


class TestValidation:
    def test_rejects_non_topological_parent(self, tmp_path):
        writer = ShardStoreWriter(str(tmp_path / "s"))
        with pytest.raises(AnalysisError):
            writer.add_tree([-1, 2, 1], [0.0, 1.0, 1.0], [0.0] * 3, [1.0] * 3)
        writer.abort()

    def test_rejects_non_root_first_node(self, tmp_path):
        writer = ShardStoreWriter(str(tmp_path / "s"))
        with pytest.raises(AnalysisError):
            writer.add_tree([0, 0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        writer.abort()

    def test_rejects_mismatched_plane_lengths(self, tmp_path):
        writer = ShardStoreWriter(str(tmp_path / "s"))
        with pytest.raises(AnalysisError):
            writer.add_tree([-1, 0], [0.0], [0.0, 0.0], [1.0, 1.0])
        writer.abort()

    @pytest.mark.parametrize(
        "edge_r, node_c",
        [([0.0, -5.0], [1.0, 1.0]), ([0.0, 1.0], [1.0, np.inf]), ([0.0, np.nan], [1.0, 1.0])],
    )
    def test_rejects_bad_element_values(self, tmp_path, edge_r, node_c):
        writer = ShardStoreWriter(str(tmp_path / "s"))
        with pytest.raises(ElementValueError, match="finite and non-negative"):
            writer.add_tree([-1, 0], edge_r, [0.0, 0.0], node_c)
        with pytest.raises(ElementValueError, match="finite and non-negative"):
            writer.add_block([0, 2], [-1, 0], edge_r, [0.0, 0.0], node_c)
        assert writer.tree_count == 0
        writer.abort()

    def test_rejects_empty_tree(self, tmp_path):
        writer = ShardStoreWriter(str(tmp_path / "s"))
        with pytest.raises(AnalysisError):
            writer.add_tree([], [], [], [])
        writer.abort()

    def test_rejects_bad_shard_nodes(self, tmp_path):
        with pytest.raises(AnalysisError):
            ShardStoreWriter(str(tmp_path / "s"), shard_nodes=0)
