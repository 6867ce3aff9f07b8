"""Every consumer of the SPEF reader agrees with every other, bitwise.

One reader sits behind ``spef_to_trees``, ``SpefNet.to_flat_tree``,
``spef_to_forest``, ``DesignDB.from_spef`` and ``ingest_spef``.  These
tests pin that they read the same file the same way: the record-built
``RCTree`` against the breadth-first oracle, a string against a line
iterator and an open file, and the characteristic times of each net
through every consumer.  The probe files at the bottom are regressions
for the forks the single reader removed: units that depended on how the
text was passed, a cut-short net that was dropped, and values the store
ingest stored unchecked.
"""

import io
import os

import numpy as np
import pytest

from repro.core.exceptions import ElementValueError, ParseError
from repro.core.networks import figure7_tree
from repro.generators import RandomTreeConfig, random_design, random_tree
from repro.graph import DesignDB
from repro.spef.reader import (
    iter_spef_nets,
    spef_to_forest,
    spef_to_trees,
)
from repro.spef.writer import tree_to_spef
from repro.store import StoredForest, ingest_spef
from tests.spef.tree_oracle import oracle_trees

ARRAYS = ("parent", "resistance", "capacitance", "depth")
TIMES = ("tde", "tre", "ree")


def _trees():
    trees = {"fig7": figure7_tree()}
    for seed in range(6):
        config = RandomTreeConfig(nodes=4 + 7 * seed, branching_bias=seed / 5)
        trees[f"rand{seed}"] = random_tree(seed, config)
    return trees


def _driver_last(text):
    """Move every ``*I ... I`` driver line after the net's load pins."""
    out, held = [], None
    for line in text.splitlines():
        if line.startswith("*I "):
            held = line
            continue
        if held is not None and line == "*CAP":
            out.append(held)
            held = None
        out.append(line)
    return "\n".join(out)


def _named_driver(text, trees):
    """Name each net's driver by its root node instead of ``<net>:DRV``."""
    for name, tree in trees.items():
        text = text.replace(f"*I {name}:DRV I", f"*I {name}/{tree.root} I")
    return text


def _variants():
    trees = _trees()
    drv = tree_to_spef(trees, segments_per_line=5)
    named = _named_driver(drv, trees)
    return {
        "drv-first": drv,
        "drv-last": _driver_last(drv),
        "named-first": named,
        "named-last": _driver_last(named),
    }


VARIANTS = _variants()


@pytest.fixture(params=sorted(VARIANTS))
def text(request):
    return VARIANTS[request.param]


def _edge_values(tree, node):
    edge = tree.parent_edge(node)
    return (edge.parent, edge.resistance, edge.capacitance)


class TestTreesMatchOracle:
    def test_node_and_child_order_values_and_outputs(self, text):
        got, want = spef_to_trees(text), oracle_trees(text)
        assert list(got) == list(want)
        for name, tree in got.items():
            reference = want[name]
            assert tree.nodes == reference.nodes, name
            assert tree.outputs == reference.outputs, name
            for node in tree.nodes:
                assert tree.children_of(node) == reference.children_of(node)
                c, c_ref = tree.node_capacitance(node), reference.node_capacitance(node)
                assert np.float64(c).tobytes() == np.float64(c_ref).tobytes()
                if node != tree.root:
                    assert _edge_values(tree, node) == _edge_values(reference, node)

    def test_root_name_is_honoured(self, text):
        got = spef_to_trees(text, root_name="src")
        want = oracle_trees(text, root_name="src")
        for name, tree in got.items():
            assert tree.root == "src"
            assert tree.nodes == want[name].nodes


class TestSourcesAgree:
    def test_string_lines_and_open_file(self, text, tmp_path):
        path = tmp_path / "design.spef"
        path.write_text(text, encoding="utf-8")
        from_string = list(iter_spef_nets(text))
        from_lines = list(iter_spef_nets(iter(text.splitlines())))
        with open(path, "r", encoding="utf-8") as handle:
            from_file = list(iter_spef_nets(handle))
        for records in (from_lines, from_file):
            assert len(records) == len(from_string)
            for got, want in zip(records, from_string):
                assert got.name == want.name
                assert got.node_names == want.node_names
                assert got.loads == want.loads
                assert got.total_capacitance == want.total_capacitance
                for field in ARRAYS:
                    assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def _per_net_times(times, rows, t):
    return {
        "tp": np.float64(times.tp[t]).tobytes(),
        "total_capacitance": np.float64(times.total_capacitance[t]).tobytes(),
        **{name: np.asarray(getattr(times, name))[rows].tobytes() for name in TIMES},
    }


def _tree_times(tree):
    times = tree.solve()
    return {
        "tp": np.float64(times.tp).tobytes(),
        "total_capacitance": np.float64(times.total_capacitance).tobytes(),
        **{name: getattr(times, name).tobytes() for name in TIMES},
    }


def _consumers_agree(text, tmp_path, db=None):
    records = list(iter_spef_nets(text))
    forest, forest_records = spef_to_forest(text)
    forest_times = forest.solve()
    _, names = ingest_spef(io.StringIO(text), str(tmp_path / "store"), shard_nodes=40)
    stored = StoredForest(str(tmp_path / "store"))
    stored_times = stored.solve()
    offsets = stored.offsets
    assert names == [record.name for record in records]
    assert [record.name for record in forest_records] == names
    for t, record in enumerate(records):
        want = _tree_times(record.to_flat_tree())
        assert _per_net_times(forest_times, forest.tree_nodes(t), t) == want
        window = slice(int(offsets[t]), int(offsets[t + 1]))
        assert _per_net_times(stored_times, window, t) == want
        if db is not None:
            assert _tree_times(db.net_model(record.name).base) == want
    stored.close()


class TestConsumersAgree:
    def test_flat_forest_and_store(self, text, tmp_path):
        _consumers_agree(text, tmp_path)

    def test_design_database_joins_them(self, tmp_path):
        design, parasitics = random_design(80, seed=3)
        text = tree_to_spef(
            {n: p.tree for n, p in parasitics.items() if p.tree is not None}
        )
        path = tmp_path / "design.spef"
        path.write_text(text, encoding="utf-8")
        db = DesignDB.from_spef(design, str(path), is_path=True)
        _consumers_agree(text, tmp_path, db=db)


def _ladder(name, cap="2", res="10"):
    """A three-node net ``a - b - c`` driven at ``a`` with its load at ``c``."""
    return [
        f"*D_NET {name} 1",
        "*CONN",
        f"*I {name}/a I",
        f"*P {name}/c O",
        "*CAP",
        f"1 {name}/b 1",
        f"2 {name}/c {cap}",
        "*RES",
        f"1 {name}/a {name}/b 5",
        f"2 {name}/b {name}/c {res}",
        "*END",
    ]


class TestProbes:
    """Regressions for the answers the forked front ends used to disagree on."""

    def test_unit_statement_applies_from_where_it_appears(self):
        text = "\n".join([*_ladder("n1"), "*C_UNIT 1 FF", *_ladder("n2")])
        from_string = {r.name: r for r in iter_spef_nets(text)}
        from_lines = {r.name: r for r in iter_spef_nets(iter(text.splitlines()))}
        for records in (from_string, from_lines):
            assert records["n1"].capacitance[-1] == pytest.approx(2e-12)
            assert records["n2"].capacitance[-1] == pytest.approx(2e-15)
        assert spef_to_trees(text)["n1"].node_capacitance("c") == pytest.approx(2e-12)

    def test_net_cut_short_by_the_next_net_raises(self):
        cut = _ladder("n1")[:-1]  # no *END: the next *D_NET cuts n1 short
        text = "\n".join([*cut, *_ladder("n2"), *_ladder("n3")])
        design, _ = random_design(4, seed=0)
        for parse in (
            lambda: list(iter_spef_nets(text)),
            lambda: spef_to_trees(text),
            lambda: spef_to_forest(text),
            lambda: DesignDB.from_spef(design, text),
        ):
            with pytest.raises(ParseError, match="'n1'"):
                parse()

    @pytest.mark.parametrize(
        "cap, res", [("2", "-10"), ("nan", "10"), ("inf", "10"), ("2", "nan")]
    )
    def test_store_ingest_checks_values(self, tmp_path, cap, res):
        text = "\n".join([*_ladder("good"), *_ladder("bad", cap=cap, res=res)])
        directory = tmp_path / "store"
        with pytest.raises(ElementValueError, match="'bad'"):
            ingest_spef(text, str(directory), shard_nodes=2)
        assert not directory.exists() or os.listdir(directory) == []

    def test_cancelling_negative_cap_line_is_rejected_everywhere(self, tmp_path):
        lines = _ladder("n1")
        lines.insert(lines.index("*RES"), "3 n1/b -0.5")
        lines.insert(lines.index("*RES"), "4 n1/b 0.5")
        text = "\n".join(lines)
        design, _ = random_design(4, seed=0)
        for parse in (
            lambda: list(iter_spef_nets(text)),
            lambda: spef_to_trees(text),
            lambda: oracle_trees(text),
            lambda: DesignDB.from_spef(design, text),
            lambda: ingest_spef(text, str(tmp_path / "store")),
        ):
            with pytest.raises(ValueError, match="-5e-13"):
                parse()
