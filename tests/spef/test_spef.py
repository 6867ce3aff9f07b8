"""Tests for the simplified SPEF writer and reader."""

import numpy as np
import pytest

from repro.core.exceptions import ParseError, TopologyError
from repro.core.networks import figure7_tree, rc_ladder, symmetric_fanout
from repro.core.timeconstants import characteristic_times
from repro.spef.reader import (
    iter_spef_nets,
    read_spef,
    spef_to_forest,
    spef_to_trees,
)
from repro.spef.writer import tree_to_spef, write_spef


class TestWriter:
    def test_header_fields(self):
        text = tree_to_spef(rc_ladder(2, 1.0, 1e-12), design="testchip")
        assert '*SPEF "IEEE 1481-1998"' in text
        assert '*DESIGN "testchip"' in text
        assert "*C_UNIT 1 PF" in text

    def test_single_tree_becomes_net0(self):
        text = tree_to_spef(rc_ladder(2, 1.0, 1e-12))
        assert "*D_NET net0" in text
        assert text.count("*D_NET") == 1

    def test_mapping_of_multiple_nets(self):
        trees = {"clk": rc_ladder(2, 1.0, 1e-12), "data": rc_ladder(3, 2.0, 2e-12)}
        text = tree_to_spef(trees)
        assert "*D_NET clk" in text
        assert "*D_NET data" in text

    def test_sections_present(self):
        text = tree_to_spef(rc_ladder(2, 1.0, 1e-12))
        for keyword in ("*CONN", "*CAP", "*RES", "*END"):
            assert keyword in text

    def test_total_capacitance_in_pf(self):
        tree = rc_ladder(4, 1.0, 0.5e-12)
        text = tree_to_spef(tree)
        assert "*D_NET net0 2" in text  # 4 x 0.5 pF

    def test_write_to_file(self, tmp_path):
        path = tmp_path / "design.spef"
        write_spef(figure7_tree(), path)
        assert path.read_text().startswith("*SPEF")


class TestReader:
    def test_roundtrip_preserves_elmore(self, fig7, fig7_times):
        text = tree_to_spef(fig7, segments_per_line=10)
        trees = spef_to_trees(text)
        rebuilt = trees["net0"]
        times = characteristic_times(rebuilt, "out")
        assert times.tde == pytest.approx(fig7_times.tde, rel=1e-9)
        assert times.tp == pytest.approx(fig7_times.tp, rel=1e-9)

    def test_roundtrip_multiple_nets(self):
        trees = {
            "a": rc_ladder(3, 5.0, 1e-12),
            "b": symmetric_fanout(3, 100.0, 20.0, 1e-12, 2e-12),
        }
        parsed = spef_to_trees(tree_to_spef(trees))
        assert set(parsed) == {"a", "b"}
        assert parsed["a"].total_capacitance == pytest.approx(3e-12)

    def test_outputs_recovered_from_conn_section(self, fig7):
        trees = spef_to_trees(tree_to_spef(fig7, segments_per_line=4))
        assert trees["net0"].outputs == ["out"]

    def test_units_respected(self):
        text = "\n".join(
            [
                "*C_UNIT 1 FF",
                "*R_UNIT 1 KOHM",
                "*D_NET n1 3",
                "*CONN",
                "*I n1:DRV I",
                "*P n1/out O",
                "*CAP",
                "1 n1/out 3",
                "*RES",
                "1 n1/in n1/out 2",
                "*END",
            ]
        )
        tree = spef_to_trees(text)["n1"]
        assert tree.total_capacitance == pytest.approx(3e-15)
        assert tree.total_resistance == pytest.approx(2e3)

    def test_coupling_capacitor_rejected(self):
        text = "\n".join(
            [
                "*D_NET n1 1",
                "*CONN",
                "*I n1:DRV I",
                "*CAP",
                "1 n1/a n1/b 1",
                "*RES",
                "1 n1/in n1/a 2",
                "2 n1/a n1/b 2",
                "*END",
            ]
        )
        with pytest.raises(TopologyError):
            spef_to_trees(text)

    def test_non_tree_net_rejected(self):
        text = "\n".join(
            [
                "*D_NET n1 1",
                "*CONN",
                "*I n1/in I",
                "*CAP",
                "1 n1/a 1",
                "*RES",
                "1 n1/in n1/a 2",
                "2 n1/a n1/b 2",
                "3 n1/b n1/in 2",
                "*END",
            ]
        )
        with pytest.raises(TopologyError):
            spef_to_trees(text)

    def test_read_from_file(self, tmp_path, fig7):
        path = tmp_path / "x.spef"
        write_spef(fig7, path, segments_per_line=4)
        assert "net0" in read_spef(path)


def _ladder_spef(conn_lines):
    return "\n".join(
        [
            "*C_UNIT 1 PF",
            "*R_UNIT 1 OHM",
            "*D_NET n1 3",
            "*CONN",
            *conn_lines,
            "*CAP",
            "1 n1/mid 1",
            "2 n1/out 2",
            "*RES",
            "1 n1/in n1/mid 5",
            "2 n1/mid n1/out 7",
            "*END",
        ]
    )


class TestDriverSelection:
    """Root selection must not depend on *CONN ordering (regression)."""

    DRIVER_FIRST = ["*I n1/in I", "*P n1/out O"]
    DRIVER_LAST = ["*P n1/out O", "*I n1/in I"]
    NO_I_DIRECTION = ["*P n1/out O", "*P n1/in B"]

    def _elmore(self, conn_lines):
        tree = spef_to_trees(_ladder_spef(conn_lines))["n1"]
        return characteristic_times(tree, "out").tde

    def test_driver_listed_after_loads(self):
        assert self._elmore(self.DRIVER_LAST) == pytest.approx(
            self._elmore(self.DRIVER_FIRST)
        )

    def test_driver_without_i_direction_after_loads(self):
        # No I direction anywhere: the first non-O connection is the driver,
        # even when loads are listed first.
        assert self._elmore(self.NO_I_DIRECTION) == pytest.approx(
            self._elmore(self.DRIVER_FIRST)
        )

    def test_flat_path_agrees(self):
        record = next(iter(iter_spef_nets(_ladder_spef(self.NO_I_DIRECTION))))
        assert record.node_names[0] == "in"
        flat = record.to_flat_tree()
        want = self._elmore(self.DRIVER_FIRST)
        assert flat.elmore_delays(["out"])["out"] == pytest.approx(want, rel=1e-12)


class TestFlatIngest:
    def test_stream_matches_tree_reader(self, fig7):
        text = tree_to_spef(
            {"a": rc_ladder(3, 5.0, 1e-12), "b": fig7}, segments_per_line=6
        )
        trees = spef_to_trees(text)
        for record in iter_spef_nets(text):
            flat = record.to_flat_tree()
            reference = trees[record.name]
            for output in reference.outputs:
                want = characteristic_times(reference, output)
                got = flat.characteristic_times(output)
                assert got.tde == pytest.approx(want.tde, rel=1e-12)
                assert got.tre == pytest.approx(want.tre, rel=1e-12)
                assert got.tp == pytest.approx(want.tp, rel=1e-12)

    def test_loads_become_outputs(self):
        record = next(iter(iter_spef_nets(_ladder_spef(["*I n1/in I", "*P n1/out O"]))))
        assert record.loads == ["out"]
        assert record.to_flat_tree().outputs == ["out"]

    def test_forest_batches_every_net(self):
        text = tree_to_spef(
            {"a": rc_ladder(3, 5.0, 1e-12), "b": rc_ladder(5, 2.0, 2e-12)}
        )
        forest, records = spef_to_forest(text)
        assert len(forest) == 2
        assert [record.name for record in records] == ["a", "b"]
        forest.solve()

    def test_forest_of_empty_file_rejected(self):
        with pytest.raises(ParseError):
            spef_to_forest("*C_UNIT 1 PF")

    def test_non_tree_net_rejected_in_flat_path(self):
        text = "\n".join(
            [
                "*D_NET n1 1",
                "*CONN",
                "*I n1/in I",
                "*CAP",
                "1 n1/a 1",
                "*RES",
                "1 n1/in n1/a 2",
                "2 n1/a n1/b 2",
                "3 n1/b n1/in 2",
                "*END",
            ]
        )
        with pytest.raises(TopologyError):
            list(iter_spef_nets(text))


class TestStrictStreaming:
    """Malformed sections raise clean ParseErrors from every entry point --
    the contract transactional store ingest relies on."""

    def _ladder(self, **overrides):
        return _ladder_spef(["*I n1/in I", "*P n1/out O"])

    def test_missing_trailing_end_raises_from_every_entry_point(self, tmp_path):
        text = self._ladder().rsplit("*END", 1)[0]
        path = tmp_path / "cut.spef"
        path.write_text(text, encoding="utf-8")
        for parse in (
            lambda: list(iter_spef_nets(text)),
            lambda: spef_to_trees(text),
            lambda: read_spef(path),
            lambda: spef_to_forest(text),
        ):
            with pytest.raises(ParseError, match="end of input"):
                parse()

    def test_strict_rejects_missing_trailing_end(self):
        text = self._ladder().rsplit("*END", 1)[0]
        with pytest.raises(ParseError, match="not terminated"):
            list(iter_spef_nets(text))

    def test_strict_rejects_mid_net_eof_on_line_stream(self):
        lines = self._ladder().splitlines()[:-3]  # cut inside *RES
        with pytest.raises(ParseError, match="end of input"):
            list(iter_spef_nets(iter(lines)))

    def test_strict_rejects_new_net_mid_net(self):
        text = self._ladder().replace("*END", "*D_NET n2 1\n*END", 1)
        with pytest.raises(ParseError, match="before the next"):
            list(iter_spef_nets(text))

    def test_strict_rejects_duplicate_drivers(self):
        text = self._ladder().replace("*I n1/in I", "*I n1/in I\n*I n9/in I")
        with pytest.raises(ParseError, match="exactly one"):
            list(iter_spef_nets(text))

    def test_strict_accepts_well_formed_stream(self):
        text = self._ladder()
        from_string = list(iter_spef_nets(text))
        from_lines = list(iter_spef_nets(iter(text.splitlines())))
        assert [r.name for r in from_lines] == [r.name for r in from_string]
        assert np.array_equal(from_lines[0].parent, from_string[0].parent)

    def test_line_stream_applies_units_incrementally(self):
        text = self._ladder()
        from_string = next(iter(iter_spef_nets(text)))
        from_lines = next(iter(iter_spef_nets(iter(text.splitlines()))))
        assert np.array_equal(from_lines.resistance, from_string.resistance)
        assert np.array_equal(from_lines.capacitance, from_string.capacitance)
