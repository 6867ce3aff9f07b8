"""Property tests: the flat engine is a faithful twin of the dict engine.

The dict-based :func:`repro.core.timeconstants.characteristic_times_all` is
the reference oracle; the vectorized :class:`repro.flat.FlatTree` must agree
with it to a relative tolerance of 1e-12 on randomized trees containing both
lumped resistors and distributed URC lines, and every per-output query must
be a row of the tree's one solve.
"""

import numpy as np
from hypothesis import given, settings

from repro.core.timeconstants import characteristic_times_all
from repro.core.tree import RCTree
from repro.flat import FlatTree

from tests.properties.strategies import rc_trees
from tests.properties.topologies import topology_trees

RTOL = 1e-12


def _assert_parity(tree: RCTree, flat: FlatTree):
    reference = characteristic_times_all(tree, tree.nodes)
    for name, want in reference.items():
        got = flat.characteristic_times(name)
        assert np.isclose(got.tp, want.tp, rtol=RTOL, atol=0.0)
        assert np.isclose(got.tde, want.tde, rtol=RTOL, atol=1e-300)
        assert np.isclose(got.tre, want.tre, rtol=RTOL, atol=1e-300)
        assert np.isclose(got.ree, want.ree, rtol=RTOL, atol=0.0)
        assert np.isclose(
            got.total_capacitance, want.total_capacitance, rtol=RTOL, atol=0.0
        )


@settings(max_examples=60, deadline=None)
@given(tree=rc_trees(max_nodes=60, allow_distributed=True))
def test_flat_matches_dict_engine(tree):
    """Compile-and-solve parity on mixed lumped/distributed trees."""
    _assert_parity(tree, FlatTree.from_tree(tree))


@settings(max_examples=40, deadline=None)
@given(tree=topology_trees(max_nodes=80))
def test_flat_matches_dict_engine_on_adversarial_topologies(tree):
    """Parity holds on every shape class (chains, stars, ladders, ...).

    ``rc_trees`` draws bushy O(log N)-depth trees; this variant sweeps the
    pathological shapes from ``tests.properties.topologies`` so the depth
    extremes the engines special-case stay oracle-pinned.
    """
    _assert_parity(tree, FlatTree.from_tree(tree))


@settings(max_examples=60, deadline=None)
@given(tree=rc_trees(max_nodes=60, allow_distributed=True))
def test_unsolved_characteristic_times_equal_solve_row(tree):
    """A one-output query on a never-solved tree is the ``solve()`` row, bitwise.

    Every number a flat tree reports comes from its one solve, so there is
    no second query path whose rounding order could differ.
    """
    for output in tree.outputs or tree.nodes:
        flat = FlatTree.from_tree(tree)
        got = flat.characteristic_times(output)
        times = flat.solve()
        i = flat.index(output)
        assert got.tp.hex() == float(times.tp).hex()
        assert got.tde.hex() == float(times.tde[i]).hex()
        assert got.tre.hex() == float(times.tre[i]).hex()
        assert got.ree.hex() == float(times.ree[i]).hex()
        assert got.total_capacitance.hex() == float(times.total_capacitance).hex()
