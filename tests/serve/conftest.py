"""Harness for the server tests: in-loop server runner + shared workloads.

Async server tests are the classic way to stall a suite, so every test
here runs through :func:`run_with_server`, which (a) binds an ephemeral
port so parallel CI jobs never collide, (b) wraps the whole client
scenario in ``asyncio.wait_for`` so a deadlocked coalescer fails the test
instead of hanging it, and (c) always stops the server, even on failure.
The ``hang_guard`` fixture from the top-level conftest adds a SIGALRM
backstop for pathologies ``wait_for`` cannot see (a blocked executor
thread wedging interpreter shutdown).
"""

import asyncio

import pytest

from repro.generators.random_designs import random_design
from repro.graph import DesignDB, TimingGraph
from repro.serve import ServeClient, TimingServer
from repro.serve.schema import parasitics_to_payload
from repro.sta.cells import standard_cell_library
from repro.sta.netlist import design_to_dict

#: Wall-clock budget for one test's whole client scenario (seconds).
SCENARIO_DEADLINE = 60.0


class ServeWorkload:
    """A deterministic design plus the payloads to load it over the wire."""

    def __init__(self, n_instances=120, seed=7):
        self.design, self.parasitics = random_design(n_instances, seed=seed)

    def session_payload(self, name, **overrides):
        payload = {
            "name": name,
            "netlist": design_to_dict(self.design),
            "parasitics": [
                parasitics_to_payload(p) for p in self.parasitics.values()
            ],
        }
        payload.update(overrides)
        return payload

    def direct_graph(self, **db_kwargs):
        """A fresh in-process graph over the same design -- the test oracle."""
        return TimingGraph(DesignDB(self.design, self.parasitics, **db_kwargs))

    def resizable_instances(self, count):
        """Combinational _X1 instances paired with their _X2 library variant."""
        library = standard_cell_library()
        picks = []
        for name, instance in sorted(self.design.instances.items()):
            cell = instance.cell.name
            if cell.endswith("_X1") and not instance.cell.is_sequential:
                picks.append((name, library[cell[:-3] + "_X2"]))
            if len(picks) == count:
                break
        assert len(picks) == count
        return picks


@pytest.fixture(scope="module")
def workload():
    return ServeWorkload()


@pytest.fixture
def serve_harness(hang_guard):
    """Run ``scenario(server, client)`` inside one event loop with deadlines.

    The server binds port 0 (ephemeral); the client is connected before the
    scenario runs and closed after.  Returns the scenario's return value.
    """

    def run(scenario, *, timeout=SCENARIO_DEADLINE, **server_kwargs):
        async def main():
            server = TimingServer(port=0, **server_kwargs)
            await server.start()
            client = ServeClient("127.0.0.1", server.port)
            try:
                await client.connect()
                return await asyncio.wait_for(scenario(server, client), timeout)
            finally:
                await client.close()
                await server.stop()

        return asyncio.run(main())

    return run
