"""Benchmark: coalesced what-if service vs a serialized per-request loop.

The load generator drives a live :class:`repro.serve.TimingServer` over
real sockets, two ways:

* **serialized** -- one client, requests issued strictly one at a time:
  every what-if pays its own round trip, executor hop, sub-forest solve of
  the stage trees its swap touches and cone relaxation of the arrivals it
  changes -- the per-request floor a naive service would give every
  caller;
* **coalesced** -- ``N_CLIENTS`` concurrent clients (>= 64 per the
  acceptance bar; 128 here): requests that arrive while a batch is
  solving merge into the next candidates-as-scenarios call of
  :meth:`~repro.graph.TimingGraph.whatif_resize_worst_slack`, so the
  whole batch shares one sub-forest solve and one ``(cone, S)``
  relaxation.

Both modes run the same server and answer from identical session state
(nothing mutates), so every response -- serialized, coalesced, whatever
batch it rode in -- is checked against a direct in-process
``whatif_resize_worst_slack`` call at rtol 1e-12 (in practice the scenario
columns are bitwise independent and the match is exact).  Throughput is
requests/second over the whole burst; latency is per-request wall time
with p50/p99 reported.  The acceptance assertion is **coalesced
throughput >= 3x serialized** -- the whole point of the batcher is that
throughput *rises* under concurrency instead of queueing linearly.
"""

import asyncio
import os
import time

import pytest

from repro.generators.random_designs import random_design
from repro.graph import DesignDB, TimingGraph
from repro.serve import ServeClient, TimingServer
from repro.serve.schema import parasitics_to_payload
from repro.sta.cells import standard_cell_library
from repro.sta.netlist import design_to_dict
from repro.utils.tables import format_table

N_INSTANCES = 300
N_CLIENTS = int(os.environ.get("REPRO_BENCH_SERVE_CLIENTS", "128"))
REQUESTS_PER_CLIENT = 4
N_REQUESTS = N_CLIENTS * REQUESTS_PER_CLIENT
DEADLINE = 300.0
LIBRARY = standard_cell_library()


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


@pytest.fixture(scope="module")
def workload():
    design, parasitics = random_design(N_INSTANCES, seed=7)
    payload = {
        "name": "bench",
        "netlist": design_to_dict(design),
        "parasitics": [parasitics_to_payload(p) for p in parasitics.values()],
    }
    candidates = []
    for name, instance in sorted(design.instances.items()):
        cell = instance.cell.name
        if cell.endswith("_X1") and not instance.cell.is_sequential:
            candidates.append((name, cell[:-3] + "_X2"))
    assert len(candidates) >= 32
    direct = TimingGraph(DesignDB(design, parasitics))
    expected = direct.whatif_resize_worst_slack(
        [(instance, LIBRARY[cell]) for instance, cell in candidates]
    )
    oracle = {
        (instance, cell): float(score)
        for (instance, cell), score in zip(candidates, expected)
    }
    return payload, candidates, oracle


def _swap_for(candidates, index):
    return candidates[index % len(candidates)]


async def _serialized_burst(payload, candidates):
    """One client, one request at a time: the floor."""
    server = TimingServer(port=0)
    await server.start()
    client = ServeClient("127.0.0.1", server.port)
    try:
        await client.connect()
        await client.create_session(payload)
        latencies = []
        responses = []
        start = time.perf_counter()
        for index in range(N_REQUESTS):
            instance, cell = _swap_for(candidates, index)
            t0 = time.perf_counter()
            response = await client.whatif("bench", [[instance, cell]])
            latencies.append(time.perf_counter() - t0)
            responses.append(((instance, cell), response["scores"][0]))
        elapsed = time.perf_counter() - start
        return elapsed, latencies, responses, None
    finally:
        await client.close()
        await server.stop()


async def _coalesced_burst(payload, candidates):
    """N_CLIENTS concurrent clients, coalesced behind each solve."""
    server = TimingServer(port=0)
    await server.start()
    admin = ServeClient("127.0.0.1", server.port)
    clients = []
    try:
        await admin.connect()
        await admin.create_session(payload)
        for _ in range(N_CLIENTS):
            client = ServeClient("127.0.0.1", server.port)
            await client.connect()
            clients.append(client)

        latencies = []
        responses = []

        async def drive(worker, client):
            for round_index in range(REQUESTS_PER_CLIENT):
                index = worker + round_index * N_CLIENTS
                instance, cell = _swap_for(candidates, index)
                t0 = time.perf_counter()
                response = await client.whatif("bench", [[instance, cell]])
                latencies.append(time.perf_counter() - t0)
                responses.append(((instance, cell), response["scores"][0]))

        start = time.perf_counter()
        await asyncio.gather(
            *[drive(worker, client) for worker, client in enumerate(clients)]
        )
        elapsed = time.perf_counter() - start
        stats = (await admin.session_info("bench"))["batching"]
        return elapsed, latencies, responses, stats
    finally:
        for client in clients:
            await client.close()
        await admin.close()
        await server.stop()


def _check_parity(responses, oracle, label):
    worst = 0.0
    for key, got in responses:
        want = oracle[key]
        scale = max(abs(want), 1e-18)
        worst = max(worst, abs(got - want) / scale)
    assert worst < 1e-12, f"{label}: worst relative mismatch {worst:.3e}"
    return worst


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, DEADLINE))


def test_coalesced_throughput_beats_serialized_loop(benchmark, workload, report):
    payload, candidates, oracle = workload

    # Warm both paths once (session build, first solve, socket setup).
    _run(_serialized_burst(payload, candidates))
    _run(_coalesced_burst(payload, candidates))

    serial_elapsed, serial_lat, serial_responses, _ = _run(
        _serialized_burst(payload, candidates)
    )
    coal_elapsed, coal_lat, coal_responses, stats = _run(
        _coalesced_burst(payload, candidates)
    )

    worst_serial = _check_parity(serial_responses, oracle, "serialized")
    worst_coal = _check_parity(coal_responses, oracle, "coalesced")
    assert len(serial_responses) == N_REQUESTS
    assert len(coal_responses) == N_REQUESTS

    serial_rps = N_REQUESTS / serial_elapsed
    coal_rps = N_REQUESTS / coal_elapsed
    speedup = coal_rps / serial_rps

    benchmark.extra_info.update(
        {
            "clients": N_CLIENTS,
            "requests": N_REQUESTS,
            "serialized_rps": serial_rps,
            "coalesced_rps": coal_rps,
            "throughput_speedup": speedup,
            "serialized_p50_ms": _percentile(serial_lat, 0.50) * 1e3,
            "serialized_p99_ms": _percentile(serial_lat, 0.99) * 1e3,
            "coalesced_p50_ms": _percentile(coal_lat, 0.50) * 1e3,
            "coalesced_p99_ms": _percentile(coal_lat, 0.99) * 1e3,
            "max_batch_requests": stats["max_batch_requests"],
            "mean_batch_requests": stats["mean_batch_requests"],
        }
    )
    benchmark(lambda: _run(_coalesced_burst(payload, candidates)))

    rows = [
        (
            "serialized (1 client)",
            serial_rps,
            _percentile(serial_lat, 0.50) * 1e3,
            _percentile(serial_lat, 0.99) * 1e3,
            1.0,
        ),
        (
            f"coalesced ({N_CLIENTS} clients)",
            coal_rps,
            _percentile(coal_lat, 0.50) * 1e3,
            _percentile(coal_lat, 0.99) * 1e3,
            speedup,
        ),
    ]
    table = format_table(
        ["mode", "req/s", "p50 (ms)", "p99 (ms)", "throughput x"],
        rows,
        precision=2,
        title=(
            f"{N_REQUESTS} single-swap what-ifs on a {N_INSTANCES}-instance "
            f"design; batches up to {stats['max_batch_requests']} requests "
            f"(mean {stats['mean_batch_requests']:.1f}); "
            f"parity {max(worst_serial, worst_coal):.1e}"
        ),
    )
    report("coalesced what-if service", table)

    assert N_CLIENTS >= 64
    assert speedup >= 3.0, (
        f"coalesced throughput {coal_rps:.0f} req/s is only {speedup:.2f}x "
        f"the serialized loop's {serial_rps:.0f} req/s"
    )
