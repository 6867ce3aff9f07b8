"""Unit tests for the RCTree network model."""

import pytest

from repro.core.elements import Capacitor, Resistor, URCLine
from repro.core.exceptions import (
    DegenerateNetworkError,
    DuplicateNodeError,
    ElementValueError,
    TopologyError,
    UnknownNodeError,
)
from repro.core.tree import RCTree


def small_tree():
    tree = RCTree("in")
    tree.add_resistor("in", "a", 10.0)
    tree.add_resistor("a", "b", 20.0)
    tree.add_resistor("a", "c", 30.0)
    tree.add_capacitor("b", 1e-12)
    tree.add_capacitor("c", 2e-12)
    tree.mark_output("b")
    return tree


class TestConstruction:
    def test_root_exists(self):
        tree = RCTree("src")
        assert tree.root == "src"
        assert "src" in tree
        assert len(tree) == 1

    def test_add_resistor_creates_child(self):
        tree = RCTree()
        edge = tree.add_resistor("in", "a", 5.0)
        assert edge.resistance == 5.0
        assert tree.parent_of("a") == "in"

    def test_add_line(self):
        tree = RCTree()
        edge = tree.add_line("in", "a", 3.0, 4.0)
        assert edge.is_distributed
        assert edge.capacitance == 4.0

    def test_unknown_parent_rejected(self):
        tree = RCTree()
        with pytest.raises(UnknownNodeError):
            tree.add_resistor("nope", "a", 1.0)

    def test_reparenting_rejected(self):
        tree = small_tree()
        with pytest.raises(TopologyError):
            tree.add_resistor("c", "b", 1.0)

    def test_self_loop_rejected(self):
        tree = small_tree()
        with pytest.raises(TopologyError):
            tree.add_resistor("b", "b", 1.0)

    def test_edge_into_root_rejected(self):
        tree = small_tree()
        with pytest.raises(TopologyError):
            tree.add_resistor("b", "in", 1.0)

    def test_duplicate_node_rejected(self):
        tree = small_tree()
        with pytest.raises(DuplicateNodeError):
            tree.add_node("a")

    def test_capacitor_accumulates(self):
        tree = small_tree()
        tree.add_capacitor("b", 3e-12)
        assert tree.node_capacitance("b") == pytest.approx(4e-12)

    def test_set_capacitance_replaces(self):
        tree = small_tree()
        tree.set_capacitance("b", 5e-12)
        assert tree.node_capacitance("b") == pytest.approx(5e-12)

    def test_capacitor_on_unknown_node(self):
        tree = small_tree()
        with pytest.raises(UnknownNodeError):
            tree.add_capacitor("zz", 1.0)

    def test_add_element_accepts_core_elements(self):
        tree = RCTree()
        tree.add_element("in", "a", Resistor(7.0))
        tree.add_element("a", "b", URCLine(1.0, 2.0))
        assert tree.parent_edge("b").is_distributed

    def test_add_element_rejects_capacitor(self):
        tree = RCTree()
        with pytest.raises(ElementValueError):
            tree.add_element("in", "a", Capacitor(1.0))


class TestQueries:
    def test_nodes_in_creation_order(self):
        tree = small_tree()
        assert tree.nodes == ["in", "a", "b", "c"]

    def test_outputs(self):
        tree = small_tree()
        assert tree.outputs == ["b"]
        tree.unmark_output("b")
        assert tree.outputs == []

    def test_children_and_leaves(self):
        tree = small_tree()
        assert tree.children_of("a") == ["b", "c"]
        assert set(tree.leaves()) == {"b", "c"}
        assert tree.is_leaf("b")
        assert not tree.is_leaf("a")

    def test_depth(self):
        tree = small_tree()
        assert tree.depth("in") == 0
        assert tree.depth("b") == 2

    def test_path_nodes_and_edges(self):
        tree = small_tree()
        assert tree.path_nodes("b") == ["in", "a", "b"]
        resistances = [edge.resistance for edge in tree.path_edges("b")]
        assert resistances == [10.0, 20.0]

    def test_ancestors(self):
        tree = small_tree()
        assert tree.ancestors("b") == ["a", "in"]
        assert tree.ancestors("in") == []

    def test_lca(self):
        tree = small_tree()
        assert tree.lca("b", "c") == "a"
        assert tree.lca("b", "b") == "b"
        assert tree.lca("b", "in") == "in"

    def test_preorder_parents_first(self):
        tree = small_tree()
        order = list(tree.preorder())
        assert order.index("in") < order.index("a") < order.index("b")

    def test_postorder_children_first(self):
        tree = small_tree()
        order = list(tree.postorder())
        assert order.index("b") < order.index("a")
        assert order[-1] == "in"

    def test_subtree_nodes(self):
        tree = small_tree()
        assert set(tree.subtree_nodes("a")) == {"a", "b", "c"}

    def test_totals(self):
        tree = small_tree()
        assert tree.total_resistance == pytest.approx(60.0)
        assert tree.total_capacitance == pytest.approx(3e-12)

    def test_subtree_capacitance_excludes_incoming_edge(self):
        tree = RCTree()
        tree.add_line("in", "a", 1.0, 5.0)
        tree.add_line("a", "b", 1.0, 7.0)
        tree.add_capacitor("b", 2.0)
        assert tree.subtree_capacitance("a") == pytest.approx(9.0)
        assert tree.subtree_capacitance("in") == pytest.approx(14.0)

    def test_unknown_node_queries(self):
        tree = small_tree()
        with pytest.raises(UnknownNodeError):
            tree.node("zz")
        with pytest.raises(UnknownNodeError):
            tree.path_edges("zz")


class TestValidationAndTransforms:
    def test_validate_passes_for_connected_tree(self):
        small_tree().validate()

    def test_validate_detects_floating_node(self):
        tree = small_tree()
        tree.add_node("floating")
        with pytest.raises(TopologyError):
            tree.validate()

    def test_validate_degenerate_checks(self):
        tree = RCTree()
        tree.add_resistor("in", "a", 1.0)
        with pytest.raises(DegenerateNetworkError):
            tree.validate(require_capacitance=True)
        tree2 = RCTree()
        tree2.add_node("x", capacitance=1.0)
        # x is floating; connect through zero-length edge for the resistance check
        tree3 = RCTree()
        tree3.add_resistor("in", "a", 0.0)
        tree3.add_capacitor("a", 1.0)
        with pytest.raises(DegenerateNetworkError):
            tree3.validate(require_resistance=True)

    def test_copy_is_independent(self):
        tree = small_tree()
        clone = tree.copy()
        clone.add_capacitor("b", 5e-12)
        assert tree.node_capacitance("b") == pytest.approx(1e-12)
        assert clone.node_capacitance("b") == pytest.approx(6e-12)
        assert clone.outputs == tree.outputs

    def test_lumped_preserves_totals(self):
        tree = RCTree()
        tree.add_line("in", "out", 10.0, 6.0)
        tree.add_capacitor("out", 1.0)
        for style in ("pi", "L"):
            lumped = tree.lumped(4, style=style)
            assert lumped.total_resistance == pytest.approx(10.0)
            assert lumped.total_capacitance == pytest.approx(7.0)
            assert "out" in lumped
            assert not any(edge.is_distributed for edge in lumped.edges)

    def test_lumped_keeps_lumped_edges_untouched(self):
        tree = small_tree()
        lumped = tree.lumped(7)
        assert len(lumped) == len(tree)
        assert lumped.total_resistance == pytest.approx(tree.total_resistance)

    def test_lumped_preserves_outputs(self):
        tree = RCTree()
        tree.add_line("in", "out", 10.0, 6.0)
        tree.mark_output("out")
        assert tree.lumped(5).outputs == ["out"]

    def test_lumped_rejects_bad_arguments(self):
        tree = small_tree()
        with pytest.raises(ElementValueError):
            tree.lumped(0)
        with pytest.raises(ElementValueError):
            tree.lumped(3, style="T")

    def test_describe_mentions_elements(self):
        text = small_tree().describe()
        assert "total resistance" in text
        assert "in -> a" in text
