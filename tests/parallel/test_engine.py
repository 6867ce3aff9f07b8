"""Every backend of the forest solve agrees with the serial reference path.

Chunking the scenario axis keeps the numpy kernel's arithmetic, so chunked
and unchunked numpy solves are asserted *bitwise* equal; the other backends
(the pointer-jumping ``"contract"`` kernels, the compiled ``"native"``
kernels) reorder sums and are held to the documented 1e-12 tolerance.
"""

import gc

import numpy as np
import pytest

from repro.core.exceptions import AnalysisError
from repro.generators import random_design, random_flat_tree, random_forest
from repro.generators import random_scenarios
from repro.graph import TimingGraph
from repro.parallel import available_backends, solve_forest_batch

TIME_FIELDS = ("tp", "tde", "tre", "ree", "total_capacitance")


def assert_times_equal(got, want, fields=TIME_FIELDS):
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), (name, float(np.max(np.abs(a - b))))


def assert_times_close(got, want, fields=TIME_FIELDS):
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-30, err_msg=name)


@pytest.fixture(scope="module")
def forest():
    return random_forest(60, seed=21)


@pytest.fixture(scope="module")
def planes(forest):
    rng = np.random.default_rng(7)
    s = 11
    return {
        "edge_r": forest._edge_r * rng.uniform(0.5, 1.5, size=(s, forest.node_count)),
        "edge_c": rng.uniform(0.8, 1.2, size=s),
        "node_c": None,
        "count": s,
    }


class TestEngineParity:
    def test_contract_matches_numpy(self, forest, planes):
        serial = forest.solve_batch(**planes)
        contracted = forest.solve_batch(**planes, engine="contract")
        assert_times_close(contracted, serial)

    def test_chunked_serial_matches_unchunked(self, forest, planes):
        serial = forest.solve_batch(**planes)
        chunked = forest.solve_batch(**planes, engine="numpy", scenario_chunk=4)
        assert_times_equal(chunked, serial)

    def test_chunked_contract_matches(self, forest, planes):
        serial = forest.solve_batch(**planes)
        chunked = forest.solve_batch(**planes, engine="contract", scenario_chunk=3)
        assert_times_close(chunked, serial)

    def test_single_scenario_and_base_planes(self, forest):
        serial = forest.solve_batch(count=1)
        contracted = forest.solve_batch(count=1, engine="contract")
        assert_times_close(contracted, serial)

    def test_node_major_transposed_views_accepted(self, forest):
        s = 5
        rng = np.random.default_rng(3)
        node_major = np.ascontiguousarray(
            (forest._edge_r[:, None] * rng.uniform(0.5, 2.0, size=(forest.node_count, s)))
        )
        serial = forest.solve_batch(edge_r=node_major.T, count=s)
        contracted = forest.solve_batch(
            edge_r=node_major.T, count=s, engine="contract"
        )
        reference = forest.solve_batch(edge_r=node_major.T.copy(), count=s)
        assert_times_equal(serial, reference)
        assert_times_close(contracted, reference)

    def test_nonzero_root_plane_is_shard_invariant(self, forest, tmp_path):
        # A plane may (degenerately) put elements on tree roots; the root's
        # "parent" term is defined as zero, so results must not depend on
        # which node sits at index 0 -- of the forest, or of each shard of
        # a store solved shard by shard -- nor on the backend.
        from repro.store import ShardStoreWriter, StoredForest

        s = 4
        rng = np.random.default_rng(11)
        er = forest._edge_r * rng.uniform(0.5, 1.5, size=(s, forest.node_count))
        ec = forest._edge_c * rng.uniform(0.5, 1.5, size=(s, forest.node_count))
        roots = np.asarray(forest._offsets[:-1], dtype=np.int64)
        er[:, roots] = rng.uniform(10.0, 500.0, size=(s, len(roots)))
        ec[:, roots] = rng.uniform(1e-15, 1e-13, size=(s, len(roots)))
        serial = forest.solve_batch(edge_r=er, edge_c=ec, count=s)
        contracted = forest.solve_batch(
            edge_r=er, edge_c=ec, count=s, engine="contract"
        )
        assert_times_close(contracted, serial)
        directory = str(tmp_path / "store")
        with ShardStoreWriter(directory, shard_nodes=200) as writer:
            for tree in forest.trees:
                writer.add_flat_tree(tree)
            writer.close()
        stored = StoredForest(directory)
        assert stored.shard_count > 1
        sharded = stored.solve_batch(edge_r=er, edge_c=ec, count=s)
        fields = ("tp", "tde", "tre", "total_capacitance")
        for name in fields:
            np.testing.assert_array_equal(
                np.asarray(getattr(sharded, name)), getattr(serial, name), err_msg=name
            )

    def test_results_outlive_the_record(self, forest, planes):
        tde = forest.solve_batch(**planes, engine="contract").tde
        gc.collect()  # collect the record
        want = forest.solve_batch(**planes).tde
        np.testing.assert_allclose(np.asarray(tde), want, rtol=1e-12, atol=1e-30)


class TestIncrementalInvalidation:
    def test_replace_tree_reflected_by_every_engine(self):
        forest = random_forest(20, seed=9)
        for engine in available_backends():
            forest.solve_batch(count=4, engine=engine)
        forest.replace_tree(7, random_flat_tree(seed=123))
        serial = forest.solve_batch(count=4)
        assert serial.tde.shape[1] == forest.node_count
        for engine in available_backends():
            assert_times_close(forest.solve_batch(count=4, engine=engine), serial)

    def test_structure_tracks_current_layout(self):
        forest = random_forest(10, seed=2)
        before = forest.structure.node_count
        replacement = random_flat_tree(seed=77)
        delta = len(replacement) - len(forest.trees[0])
        forest.replace_tree(0, replacement)
        structure = forest.structure
        assert structure.node_count == forest.node_count == before + delta
        assert structure.tree_count == len(forest)
        assert structure.parent is forest._parent


class TestValidation:
    def test_bad_scenario_vector_length(self, forest):
        with pytest.raises(AnalysisError, match="entries"):
            forest.solve_batch(edge_c=np.ones(3), count=5)

    def test_bad_plane_shape(self, forest):
        with pytest.raises(AnalysisError, match="shape"):
            forest.solve_batch(edge_r=np.ones((2, 3)), count=2)

    def test_unknown_engine(self, forest):
        with pytest.raises(AnalysisError, match="unknown engine"):
            forest.solve_batch(count=2, engine="quantum")

    def test_bad_count(self, forest):
        with pytest.raises(AnalysisError):
            solve_forest_batch(
                forest.structure,
                (forest._edge_r, forest._edge_c, forest._node_c),
                (None, None, None),
                0,
            )


class TestDesignLevel:
    @pytest.fixture(scope="class")
    def workload(self):
        design, parasitics = random_design(80, seed=13)
        scenarios = random_scenarios(10, seed=4)
        graph = TimingGraph(
            design,
            dict(parasitics),
            clock_period=1.5e-9,
            input_drive_resistance=110.0,
        )
        return graph, scenarios

    def test_solve_scenarios_parity(self, workload):
        graph, scenarios = workload
        serial = graph.db.solve_scenarios(scenarios, engine="numpy")
        contracted = graph.db.solve_scenarios(scenarios, engine="contract")
        assert_times_close(
            contracted, serial, fields=("tp", "tde", "tre", "total_capacitance")
        )
        assert contracted.scenario_names == serial.scenario_names

    def test_analyze_scenarios_parity(self, workload):
        graph, scenarios = workload
        serial = graph.analyze_scenarios(scenarios)
        contracted = graph.analyze_scenarios(scenarios, engine="contract")
        np.testing.assert_allclose(
            contracted.worst_slack, serial.worst_slack, rtol=1e-12, atol=1e-24
        )
        assert serial.verdicts == contracted.verdicts
        assert serial.worst_endpoint == contracted.worst_endpoint

    def test_corner_sweep_parity(self, workload):
        from repro.apps.corners import corner_sweep

        graph, scenarios = workload
        serial = corner_sweep(graph, scenarios)
        contracted = corner_sweep(graph, scenarios, engine="contract")
        assert [row.name for row in serial] == [row.name for row in contracted]
        for want, got in zip(serial, contracted):
            assert got.verdict == want.verdict
            assert got.critical_endpoint == want.critical_endpoint
            assert got.worst_slack == pytest.approx(
                want.worst_slack, rel=1e-12, abs=1e-24
            )

    def test_scenario_pin_slacks_parity(self, workload):
        graph, scenarios = workload
        serial = graph.scenario_pin_slacks(scenarios)
        contracted = graph.scenario_pin_slacks(scenarios, engine="contract")
        assert serial.keys() == contracted.keys()
        for pin in serial:
            np.testing.assert_allclose(
                contracted[pin], serial[pin], rtol=1e-12, atol=1e-24, err_msg=pin
            )

    def test_cli_jobs_flag(self, capsys):
        # Neither subcommand has a --jobs option: passing one is a usage
        # error, not a silently ignored flag.
        from repro.cli import main

        for argv in (
            ["timing", "--netlist", "design.json", "--period", "1", "--jobs", "2"],
            ["serve", "--jobs", "2"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "--jobs" in capsys.readouterr().err
