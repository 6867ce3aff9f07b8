"""Linearizability of the timing service under concurrent traffic.

The server's contract is that the per-session lock plus the version
counter define a *total order*: every response is as if the operations
executed one at a time in version order on a single in-process
:class:`~repro.graph.TimingGraph`.  This test drives a live server with
several concurrent clients issuing random interleavings of ECO edits
(``resize_instance``, ``update_net``), slack queries, and coalesced
what-if queries -- then replays the mutations serially, in the version
order the server assigned, on a plain direct graph, and checks every
response the server ever gave against the replayed state at that version,
to 1e-12.

If the writer lock ever let two ECOs interleave, the coalescer ever
scored a batch against half-applied state, or a query ever read between
the lock acquire and the version stamp, some response would disagree with
the serial replay and this test names the exact operation.
"""

import asyncio
import math
import random

import pytest

from repro.generators.random_designs import random_design
from repro.graph import DesignDB, TimingGraph
from repro.serve import ServeClient, TimingServer
from repro.serve.schema import parasitics_to_payload
from repro.sta.cells import standard_cell_library
from repro.sta.delaycalc import DelayModel
from repro.sta.netlist import design_to_dict
from repro.sta.parasitics import lumped

LIBRARY = standard_cell_library()
MODELS = ("elmore", "upper_bound", "lower_bound")
WORKERS = 4
OPS_PER_WORKER = 10
DEADLINE = 120.0


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-18)


def _variants(cell_name):
    """Footprint-compatible library variants of ``cell_name``'s family."""
    family = cell_name.rsplit("_X", 1)[0]
    return [n for n in sorted(LIBRARY) if n.rsplit("_X", 1)[0] == family]


class _OpLog:
    """Operations observed by the workers, tagged with server versions."""

    def __init__(self):
        self.mutations = {}  # version -> ("resize"|"update_net", args)
        self.queries = []  # (version, kind, args, response_value)


async def _worker(client, session, rng, design, nets, log):
    instances = [
        name
        for name, inst in sorted(design.instances.items())
        if not inst.cell.is_sequential
    ]
    for _ in range(OPS_PER_WORKER):
        roll = rng.random()
        if roll < 0.25:
            instance = rng.choice(instances)
            cell = rng.choice(_variants(design.instances[instance].cell.name))
            response = await client.resize_instance(session, instance, cell)
            log.mutations[response["version"]] = ("resize", (instance, cell))
        elif roll < 0.5:
            net = rng.choice(nets)
            cap = rng.uniform(1e-15, 5e-14)
            response = await client.update_net(
                session, {"net": net, "lumped_capacitance": cap}
            )
            log.mutations[response["version"]] = ("update_net", (net, cap))
        elif roll < 0.75:
            model = rng.choice(MODELS)
            response = await client.slack(session, model=model)
            log.queries.append(
                (response["version"], "slack", model, response["worst_slack"])
            )
        else:
            swaps = []
            for _ in range(rng.randint(1, 3)):
                instance = rng.choice(instances)
                swaps.append(
                    [instance, rng.choice(_variants(design.instances[instance].cell.name))]
                )
            model = rng.choice(MODELS)
            response = await client.whatif(session, swaps, model=model)
            log.queries.append(
                (response["version"], "whatif", (swaps, model), response["scores"])
            )


def _replay_and_check(design, parasitics, log):
    """Serial replay in version order; every response must match."""
    graph = TimingGraph(DesignDB(design, parasitics))
    versions = sorted(log.mutations)
    assert versions == list(range(1, len(versions) + 1)), (
        "mutation versions must be dense and unique -- the writer lock "
        "must have admitted two ECOs at once"
    )
    by_version = {}
    for version, kind, args, value in log.queries:
        by_version.setdefault(version, []).append((kind, args, value))

    def check_queries_at(version):
        for kind, args, value in by_version.get(version, []):
            if kind == "slack":
                expected = graph.worst_slack(DelayModel(args))
                assert _close(value, expected), (
                    f"slack({args}) at version {version}: "
                    f"server {value} != replay {expected}"
                )
            else:
                swaps, model = args
                expected = graph.whatif_resize_worst_slack(
                    [(i, LIBRARY[c]) for i, c in swaps], DelayModel(model)
                )
                assert all(
                    _close(got, want) for got, want in zip(value, expected)
                ), (
                    f"whatif{swaps} at version {version}: "
                    f"server {value} != replay {list(expected)}"
                )

    check_queries_at(0)
    for version in versions:
        kind, args = log.mutations[version]
        if kind == "resize":
            instance, cell = args
            graph.resize_instance(instance, LIBRARY[cell])
        else:
            net, cap = args
            graph.update_net(net, lumped(net, cap))
        check_queries_at(version)
    stray = set(by_version) - set([0] + versions)
    assert not stray, f"queries observed at versions no mutation produced: {stray}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_concurrent_traffic_matches_serial_replay(seed, hang_guard):
    design, parasitics = random_design(100, seed=seed)
    db = DesignDB(design, parasitics)
    nets = sorted(db.timed_nets())
    session_payload = {
        "name": "lin",
        "netlist": design_to_dict(design),
        "parasitics": [parasitics_to_payload(p) for p in parasitics.values()],
    }
    log = _OpLog()

    async def main():
        server = TimingServer(port=0)
        await server.start()
        clients = []
        try:
            admin = ServeClient("127.0.0.1", server.port)
            await admin.connect()
            clients.append(admin)
            await admin.create_session(session_payload)
            workers = []
            for index in range(WORKERS):
                client = ServeClient("127.0.0.1", server.port)
                await client.connect()
                clients.append(client)
                rng = random.Random(seed * 1000 + index)
                workers.append(
                    _worker(client, "lin", rng, design, nets, log)
                )
            await asyncio.wait_for(asyncio.gather(*workers), DEADLINE)
        finally:
            for client in clients:
                await client.close()
            await server.stop()

    asyncio.run(main())
    assert log.mutations or log.queries
    _replay_and_check(design, parasitics, log)
