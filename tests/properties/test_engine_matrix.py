"""The cross-engine parity matrix: every backend, every shape, every chunking.

One parametrized sweep asserting that ``numpy`` x ``contract`` x ``native``
(x the scenario-chunk edge cases S=1, chunk=1, chunk>S) agree at 1e-12
relative tolerance on every topology class of
``tests.properties.topologies`` -- and keep agreeing after forest-level
``replace_tree`` splices, after design-level ECOs (``update_net`` /
``resize_instance``) and when several threads solve at once.  The
``native`` arms are graceful by design: where Numba is not installed (or
``REPRO_DISABLE_NATIVE=1``) they degrade to the numpy kernels -- still a
matrix cell worth pinning, since the degradation itself is part of the
engine contract -- and with Numba they run the JIT-compiled kernels.

The ``numpy`` level sweeps are the reference; disagreement anywhere in the
matrix means a backend changed *semantics*, which the engine contract
forbids regardless of how it schedules the arithmetic.  The single-solve
entry points (``FlatForest.solve``, ``FlatTree.solve`` /
``FlatTree.solve_batch`` per member, ``StoredForest.solve``) are one more
input of the matrix: each is the engine at S = 1 and must reproduce the
numpy-pinned solve.
"""

import os
import random
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tree import RCTree
from repro.flat import FlatForest
from repro.generators import random_design, random_scenarios
from repro.graph import TimingGraph
from repro.parallel import ENGINES, solve_forest_batch
from repro.parallel.sharding import CHUNK_BYTES_ENV
from repro.sta.cells import standard_cell_library
from repro.sta.parasitics import lumped, rc_tree_parasitics

from tests.properties.topologies import (
    TOPOLOGY_KINDS,
    pathological_net,
    topology_flat_tree,
    topology_forests,
)

FIELDS = ("tp", "tde", "tre", "ree", "total_capacitance")

#: The engines compared against the ``numpy`` reference.  The ``native``
#: arm compiles where Numba exists and degrades to numpy where it does not.
ENGINE_ARMS = tuple(engine for engine in ENGINES if engine != "numpy")


def _planes(forest, count, rng):
    """Random (S, N) effective element planes around the forest's base values."""
    n = forest.node_count
    npr = np.random.default_rng(rng.randrange(2**32))

    def plane(base):
        return base[np.newaxis, :] * npr.uniform(0.5, 2.0, size=(count, n))

    return plane(forest._edge_r), plane(forest._edge_c), plane(forest._node_c)


def _chunk_cases(count):
    """The scenario-chunk edge cases: default, chunk=1, chunk>S, and S itself."""
    return (None, 1, count + 3, count)


def _chunk_env(chunk, nodes):
    """``REPRO_CHUNK_BYTES`` pinning the chunk width to ``chunk`` (``None``: as set)."""
    return {} if chunk is None else {CHUNK_BYTES_ENV: str(8 * chunk * nodes)}


def _assert_matrix(forest, count, rng):
    er, ec, nc = _planes(forest, count, rng)
    want = forest.solve_batch(er, ec, nc, engine="numpy")
    for engine in ENGINE_ARMS:
        for chunk in _chunk_cases(count):
            with mock.patch.dict(os.environ, _chunk_env(chunk, forest.node_count)):
                got = forest.solve_batch(er, ec, nc, engine=engine)
            _assert_times_close(got, want, (engine, chunk))


def _assert_times_close(got, want, label, fields=FIELDS, floor=1e-30):
    for name in fields:
        a = getattr(want, name)
        b = getattr(got, name)
        assert a.shape == b.shape, (label, name)
        scale = np.maximum(np.abs(a), floor)
        assert np.all(np.abs(b - a) <= 1e-12 * scale), (
            label,
            name,
            float(np.max(np.abs(b - a) / scale)),
        )


@settings(max_examples=8, deadline=None)
@given(
    forest=topology_forests(min_trees=2, max_trees=4, max_nodes=60),
    count=st.sampled_from((1, 3, 7)),
    seed=st.integers(0, 2**20),
)
def test_engine_matrix_agrees_on_every_topology(forest, count, seed):
    """All engine/chunk arms equal the level sweeps on mixed-shape forests.

    ``count=1`` pins the S=1 edge, and ``_chunk_cases`` sweeps chunk=1 /
    chunk>S / chunk=S for every arm, so the bounded-memory chunking loop is
    exercised on both its degenerate and its no-op configurations.
    """
    _assert_matrix(forest, count, random.Random(seed))


@settings(max_examples=6, deadline=None)
@given(
    forest=topology_forests(min_trees=2, max_trees=3, max_nodes=40),
    seed=st.integers(0, 2**20),
)
def test_engine_matrix_survives_replace_tree(forest, seed):
    """Parity holds after splicing a member tree to a different shape class.

    ``replace_tree`` changes node counts, depths and level buckets in place;
    every backend reads the forest's *current* arrays at solve time, so the
    matrix must agree both before and after the splice.
    """
    rng = random.Random(seed)
    _assert_matrix(forest, 3, rng)
    index = rng.randrange(len(forest))
    replacement = topology_flat_tree(
        rng.choice(TOPOLOGY_KINDS), rng.randint(2, 80), seed=rng.randrange(2**20)
    )
    forest.replace_tree(index, replacement)
    _assert_matrix(forest, 3, rng)


# ----------------------------------------------------------------------
# Single-solve arm: every S = 1 entry point is the engine at width one
# ----------------------------------------------------------------------
NODE_FIELDS = ("tde", "tre", "ree")
TREE_FIELDS = ("tp", "total_capacitance")


def _forest_solve(forest):
    times = forest.solve()
    rows = {name: forest._plan.position for name in NODE_FIELDS}
    return {name: getattr(times, name)[rows.get(name, slice(None))] for name in FIELDS}


def _member_rows(forest, solve):
    rows = [solve(tree) for tree in forest.trees]
    return {
        name: np.concatenate([np.ravel(row[name]) for row in rows])
        for name in FIELDS
    }


def _tree_solve(forest):
    return _member_rows(
        forest,
        lambda tree: {name: getattr(tree.solve(), name) for name in FIELDS},
    )


def _tree_solve_batch(forest):
    return _member_rows(
        forest,
        lambda tree: {
            name: getattr(tree.solve_batch(count=1), name)[0] for name in FIELDS
        },
    )


def _stored_solve(forest):
    from repro.store import ShardStoreWriter, StoredForest

    with tempfile.TemporaryDirectory() as directory:
        # Small shards, so multi-tree forests span several of them.
        with ShardStoreWriter(directory, shard_nodes=48) as writer:
            for tree in forest.trees:
                writer.add_flat_tree(tree)
            writer.close()
        with StoredForest(directory) as stored:
            times = stored.solve()
            return {name: np.array(getattr(times, name)) for name in FIELDS}


SINGLE_SOLVES = {
    "FlatForest.solve": _forest_solve,
    "FlatTree.solve": _tree_solve,
    "FlatTree.solve_batch": _tree_solve_batch,
    "StoredForest.solve": _stored_solve,
}


@pytest.mark.parametrize("entry", sorted(SINGLE_SOLVES))
@settings(max_examples=8, deadline=None)
@given(forest=topology_forests(min_trees=1, max_trees=4, max_nodes=60))
def test_single_solves_match_the_numpy_engine(entry, forest):
    """Each S = 1 entry point equals ``solve_forest_batch(count=1, "numpy")``.

    Node fields bitwise, in preorder: every entry point runs the same level
    sweeps (these forests are shallow enough that auto-selection keeps
    ``"numpy"``).  The
    per-tree ``T_P`` / ``C_T`` reductions at 1e-15: a member solved alone is
    summed over its own one-tree segment instead of its forest window.
    """
    want = solve_forest_batch(
        forest.structure,
        (forest._edge_r, forest._edge_c, forest._node_c),
        (None, None, None),
        1,
        engine="numpy",
    )
    got = SINGLE_SOLVES[entry](forest)
    for name in NODE_FIELDS:
        np.testing.assert_array_equal(
            got[name], getattr(want, name)[0][forest._plan.position], err_msg=name
        )
    for name in TREE_FIELDS:
        a = getattr(want, name)[0]
        b = np.asarray(got[name])
        assert a.shape == b.shape, (entry, name)
        assert np.all(np.abs(b - a) <= 1e-15 * np.abs(a)), (
            entry,
            name,
            float(np.max(np.abs(b - a) / np.maximum(np.abs(a), 1e-300))),
        )


# ----------------------------------------------------------------------
# Threaded arm: concurrent solves on distinct forests
# ----------------------------------------------------------------------
THREADS = 4
ROUNDS = 3


def test_threaded_solves_match_serial_numpy():
    """4 threads x every backend x distinct forests, each at 1e-12.

    The timing service runs solves on a thread-pool executor, so a solve
    must not share mutable state with a concurrent solve of another forest.
    Each thread owns one forest (a different topology mix per thread) and
    solves it under every engine, several rounds, all threads
    released together; every result must equal that forest's serial
    ``numpy`` solve.
    """
    forests, planes, want = [], [], []
    for index in range(THREADS):
        kind = TOPOLOGY_KINDS[index % len(TOPOLOGY_KINDS)]
        shapes = (kind, "random_binary")
        forest = FlatForest(
            [
                topology_flat_tree(shapes[t % 2], 40 + 7 * t, seed=index * 50 + t)
                for t in range(30 + 5 * index)
            ]
        )
        forest_planes = _planes(forest, 6 + index, random.Random(index))
        forests.append(forest)
        planes.append(forest_planes)
        want.append(forest.solve_batch(*forest_planes, engine="numpy"))
    start = threading.Barrier(THREADS)

    def worker(index):
        start.wait()
        for _ in range(ROUNDS):
            for engine in ENGINES:
                got = forests[index].solve_batch(*planes[index], engine=engine)
                _assert_times_close(got, want[index], (index, engine))
        return index

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        assert sorted(pool.map(worker, range(THREADS))) == list(range(THREADS))


# ----------------------------------------------------------------------
# Design-level arm: parity across ECO edits on pathological parasitics
# ----------------------------------------------------------------------
LIBRARY = standard_cell_library()
SINK_FIELDS = ("tp", "tde", "tre", "total_capacitance")


def _assert_engine_parity(db, scenarios, engine):
    serial = db.solve_scenarios(scenarios, engine="numpy")
    other = db.solve_scenarios(scenarios, engine=engine)
    _assert_times_close(other, serial, engine, fields=SINK_FIELDS, floor=1e-18)


def _random_edit(rng, graph):
    nets = graph.db.timed_nets()
    kind = rng.randrange(3)
    if kind == 0:
        net = rng.choice(nets)
        graph.update_net(net, lumped(net, rng.uniform(1e-16, 8e-14)))
    elif kind == 1:
        net = rng.choice(nets)
        loads = [str(load) for load in graph.db.nets[net].loads]
        tree = RCTree("root")
        previous = "root"
        for index in range(rng.randint(1, 3)):
            name = f"w{index}"
            tree.add_line(
                previous, name, rng.uniform(30.0, 600.0), rng.uniform(1e-15, 2e-14)
            )
            previous = name
        pin_nodes = {}
        for pin in loads:
            tree.add_resistor(previous, pin, rng.uniform(10.0, 100.0))
            tree.mark_output(pin)
            pin_nodes[pin] = pin
        graph.update_net(net, rc_tree_parasitics(net, tree, pin_nodes))
    else:
        instances = sorted(graph.db.instances)
        name = rng.choice(instances)
        cell = graph.db.instances[name].cell
        prefix, _, _ = cell.name.rpartition("_X")
        strength = (
            rng.choice([1, 2, 4]) if not cell.is_sequential else rng.choice([1, 2])
        )
        replacement = LIBRARY.get(f"{prefix}_X{strength}")
        if replacement is not None:
            graph.resize_instance(name, replacement)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**20), st.integers(0, 2**20))
def test_every_engine_agrees_on_pathological_topologies(design_seed, sweep_seed):
    """Every backend agrees with numpy on adversarial-shape parasitics.

    Nets are respliced to chains, stars, ladders etc.
    (``tests.properties.topologies``) before and between parity checks, so
    the explicit ``engine="contract"`` and ``engine="native"`` paths face
    depth extremes with live ECO state.
    """
    design, parasitics = random_design(24, seed=design_seed, sequential_fraction=0.2)
    rng = random.Random(sweep_seed)
    graph = TimingGraph(
        design,
        dict(parasitics),
        clock_period=1.4e-9,
        input_drive_resistance=140.0,
    )
    graph.arrivals_matrix  # make the edits exercise the incremental path
    nets = graph.db.timed_nets()
    for net in rng.sample(nets, min(4, len(nets))):
        loads = [str(load) for load in graph.db.nets[net].loads]
        graph.update_net(
            net,
            pathological_net(
                net,
                loads,
                kind=rng.choice(TOPOLOGY_KINDS),
                nodes=rng.randint(2, 60),
                seed=rng.randrange(2**20),
            ),
        )
    scenarios = random_scenarios(1 + rng.randrange(6), seed=rng.randrange(2**20))
    for engine in ENGINE_ARMS:
        _assert_engine_parity(graph.db, scenarios, engine)
    for _ in range(3):
        _random_edit(rng, graph)
    for engine in ENGINE_ARMS:
        _assert_engine_parity(graph.db, scenarios, engine)


# ----------------------------------------------------------------------
# Server arms: the same parity matrix through repro.serve
# ----------------------------------------------------------------------
#
# The service tier must be engine-transparent: a session pinned to any
# engine answers byte-for-byte like a direct in-process graph using that
# engine, whether the session is in-RAM or store-backed.
# These arms are deterministic (no hypothesis): the interesting axis is
# the engine x storage product, not the topology distribution, and each
# arm spins up a real server.

SERVER_ENGINE_ARMS = ENGINES


def _serve_workload():
    from repro.generators.random_designs import random_design

    return random_design(90, seed=11)


def _serve_session_payload(design, parasitics, name, **overrides):
    from repro.serve.schema import parasitics_to_payload
    from repro.sta.netlist import design_to_dict

    payload = {
        "name": name,
        "netlist": design_to_dict(design),
        "parasitics": [parasitics_to_payload(p) for p in parasitics.values()],
    }
    payload.update(overrides)
    return payload


def _run_server_arm(engine, store_dir, hang_guard):
    import asyncio

    from repro.serve import ServeClient, TimingServer

    design, parasitics = _serve_workload()
    spec = [{"name": "typ"}, {"name": "slow", "r_derate": 1.2, "c_derate": 1.1}]
    overrides = {"engine": engine}
    if store_dir is not None:
        overrides["store_dir"] = store_dir

    async def main():
        server = TimingServer(port=0)
        await server.start()
        client = ServeClient("127.0.0.1", server.port)
        try:
            await client.connect()
            await client.create_session(
                _serve_session_payload(design, parasitics, "m", **overrides)
            )
            slack = await client.slack("m")
            corners = await client.corners("m", spec, paths=True)
            whatif = None
            if store_dir is None:
                from repro.sta.cells import standard_cell_library

                library = standard_cell_library()
                instance = next(
                    name
                    for name, inst in sorted(design.instances.items())
                    if inst.cell.name == "INV_X1"
                )
                whatif = (
                    instance,
                    await client.whatif("m", [[instance, "INV_X2"]]),
                )
            return slack, corners, whatif
        finally:
            await client.close()
            await server.stop()

    return asyncio.run(asyncio.wait_for(main(), 120.0)), design, parasitics, spec


def _assert_server_arm(engine, store_dir, hang_guard):
    import json

    from repro.graph import DesignDB, TimingGraph
    from repro.scenarios import ScenarioSet
    from repro.sta.cells import standard_cell_library
    from repro.sta.delaycalc import DelayModel

    (slack, corners, whatif), design, parasitics, spec = _run_server_arm(
        engine, store_dir, hang_guard
    )
    direct = TimingGraph(DesignDB(design, parasitics))
    want = direct.worst_slack(DelayModel.UPPER_BOUND)
    assert abs(slack["worst_slack"] - want) <= 1e-12 * abs(want), engine

    expected_report = json.loads(
        json.dumps(
            direct.analyze_scenarios(
                ScenarioSet.from_dict(spec),
                path_model=DelayModel.UPPER_BOUND,
                engine=engine,
            ).to_dict()
        )
    )
    assert corners["report"] == expected_report, engine

    if whatif is not None:
        instance, response = whatif
        library = standard_cell_library()
        expected = direct.whatif_resize_worst_slack(
            [(instance, library["INV_X2"])], engine=engine
        )
        got = response["scores"][0]
        assert abs(got - expected[0]) <= 1e-12 * abs(expected[0]), engine


def test_server_arms_match_direct_calls_in_ram(hang_guard):
    """Sessions pinned to each engine answer like direct graphs (in-RAM)."""
    for engine in SERVER_ENGINE_ARMS:
        _assert_server_arm(engine, None, hang_guard)


def test_server_arms_match_direct_calls_store_backed(hang_guard, tmp_path):
    """Store-backed sessions agree with in-RAM direct graphs per engine."""
    for engine in SERVER_ENGINE_ARMS:
        _assert_server_arm(engine, str(tmp_path / engine), hang_guard)
