"""Tests for streaming ingest: SPEF and generator blocks into shard
stores, with the transactional no-partial-store guarantee on malformed
input (parse errors and bad element values roll every shard file back)."""

import io
import os

import numpy as np
import pytest

from repro.core.exceptions import ParseError
from repro.generators import stream_random_nets
from repro.spef.reader import spef_to_forest
from repro.store import StoredForest, ingest_blocks, ingest_spef

RTOL = 1e-12

GOOD_SPEF = """
*SPEF "IEEE 1481-1998"
*T_UNIT 1 NS
*C_UNIT 1 FF
*R_UNIT 1 OHM

*D_NET n1 12.0
*CONN
*I u1/out O
*I u2/in I
*CAP
1 n1:1 4.0
2 u2/in 8.0
*RES
1 n1:0 n1:1 120.0
2 n1:1 u2/in 80.0
*END

*D_NET n2 6.0
*CONN
*I u2/out O
*I u3/in I
*CAP
1 u3/in 6.0
*RES
1 n2:0 u3/in 50.0
*END
"""

TRUNCATED_SPEF = GOOD_SPEF.rsplit("*END", 1)[0]

DUPLICATE_DRIVER_SPEF = GOOD_SPEF.replace("*I u2/in I", "*I u9/in I\n*I u2/in I")

UNTERMINATED_SPEF = GOOD_SPEF.replace("*END\n\n*D_NET n2", "\n*D_NET n2", 1)


class TestSpefIngest:
    def test_round_trip_matches_in_ram_forest(self, tmp_path):
        directory = str(tmp_path / "s")
        manifest, names = ingest_spef(GOOD_SPEF, directory)
        assert names == ["n1", "n2"]
        assert manifest.tree_count == 2

        forest, _ = spef_to_forest(GOOD_SPEF)
        expected = forest.solve()
        actual = StoredForest(directory).solve()
        # The store numbers nodes in preorder, the forest in its solve rows.
        rows = {"tde": forest._plan.position, "tre": forest._plan.position}
        for name in ("tde", "tre", "tp", "total_capacitance"):
            np.testing.assert_allclose(
                np.asarray(getattr(actual, name)),
                np.asarray(getattr(expected, name))[rows.get(name, slice(None))],
                rtol=RTOL,
            )

    def test_file_handle_source_streams(self, tmp_path):
        spef_path = tmp_path / "design.spef"
        spef_path.write_text(GOOD_SPEF, encoding="utf-8")
        directory = str(tmp_path / "s")
        with open(spef_path, "r", encoding="utf-8") as handle:
            manifest, names = ingest_spef(handle, directory)
        assert names == ["n1", "n2"]
        string_dir = str(tmp_path / "s2")
        ingest_spef(GOOD_SPEF, string_dir)
        np.testing.assert_allclose(
            np.asarray(StoredForest(directory).solve().tde),
            np.asarray(StoredForest(string_dir).solve().tde),
            rtol=RTOL,
        )

    @pytest.mark.parametrize(
        "text",
        [TRUNCATED_SPEF, DUPLICATE_DRIVER_SPEF, UNTERMINATED_SPEF],
        ids=["mid-net-eof", "duplicate-driver", "missing-end"],
    )
    def test_malformed_spef_leaves_no_partial_store(self, tmp_path, text):
        directory = tmp_path / "s"
        with pytest.raises(ParseError):
            # Line-iterable source + tiny shards: the first net hits disk
            # before the malformation is reached, so this exercises the
            # rollback path, not just early validation.
            ingest_spef(io.StringIO(text), str(directory), shard_nodes=2)
        assert not directory.exists() or os.listdir(directory) == []

    def test_malformed_spef_string_source_also_rolls_back(self, tmp_path):
        directory = tmp_path / "s"
        with pytest.raises(ParseError):
            ingest_spef(TRUNCATED_SPEF, str(directory), shard_nodes=2)
        assert not directory.exists() or os.listdir(directory) == []


class TestBlockIngest:
    def test_stream_ingest_is_deterministic(self, tmp_path):
        kwargs = dict(nodes_range=(2, 9), block_nets=16)
        a = ingest_blocks(
            stream_random_nets(64, seed=11, **kwargs),
            str(tmp_path / "a"),
            shard_nodes=50,
        )
        b = ingest_blocks(
            stream_random_nets(64, seed=11, **kwargs),
            str(tmp_path / "b"),
            shard_nodes=50,
        )
        assert a.tree_count == b.tree_count == 64
        assert a.node_count == b.node_count
        np.testing.assert_allclose(
            np.asarray(StoredForest(str(tmp_path / "a")).solve().tde),
            np.asarray(StoredForest(str(tmp_path / "b")).solve().tde),
            rtol=0,
        )

    def test_block_and_per_tree_ingest_agree(self, tmp_path):
        blocks = list(stream_random_nets(32, seed=4, block_nets=8))
        bulk = ingest_blocks(iter(blocks), str(tmp_path / "bulk"), shard_nodes=64)

        from repro.store import ShardStoreWriter

        with ShardStoreWriter(str(tmp_path / "one"), shard_nodes=64) as writer:
            for block in blocks:
                for t in range(block.tree_count):
                    lo, hi = int(block.starts[t]), int(block.starts[t + 1])
                    parent = block.parent[lo:hi].copy()
                    parent[parent >= 0] -= lo
                    writer.add_tree(
                        parent,
                        block.edge_r[lo:hi],
                        block.edge_c[lo:hi],
                        block.node_c[lo:hi],
                    )
            single = writer.close()
        assert single.tree_count == bulk.tree_count
        assert single.node_count == bulk.node_count
        np.testing.assert_allclose(
            np.asarray(StoredForest(str(tmp_path / "bulk")).solve().tde),
            np.asarray(StoredForest(str(tmp_path / "one")).solve().tde),
            rtol=0,
        )
