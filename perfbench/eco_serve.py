"""``eco_serve``: interactive ECO iterations against a ``repro.cli serve`` process.

The server runs as a subprocess with default settings and holds one
5k-instance session.  Two keep-alive connections (one per usable core of
the reference machine) each run a closed loop of iterations:
``query/whatif`` of 2 swaps -> ``eco/resize_instance`` (X1<->X2 toggle of a
seeded instance) -> ``eco/update_net`` of that instance's output net (its
original parasitics scaled by a seeded factor) -> ``query/slack``.

Writes are partitioned by connection (instance ``u<i>`` belongs to
connection ``i % 2``, and only its owner rewrites its output net), so the
final session state does not depend on how the connections interleave: it
is checked against an in-process replay of every write.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import select
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.flat import FlatForest
from repro.generators import random_design
from repro.graph import DesignDB, TimingGraph
from repro.scenarios import Scenario, scaled_parasitics
from repro.serve import ServeClient
from repro.serve.schema import parasitics_to_payload
from repro.sta.cells import standard_cell_library
from repro.sta.delaycalc import DelayModel
from repro.sta.netlist import design_from_dict, design_to_dict

from perfbench.harness import LoopResult, OkCounter, Tracer, Workload, close_to, median
from perfbench.signoff import process_share, record_engine

INSTANCES = 5000
CONNECTIONS = 2
WHATIF_SWAPS = 2
CLOCK_PERIOD = 1e-8
SESSION = "eco"
MODELS = [model.value for model in (DelayModel.ELMORE, DelayModel.UPPER_BOUND, DelayModel.LOWER_BOUND)]
ROUTES = ("whatif", "resize_instance", "update_net", "slack")
#: Iterations replayed with reads (and spans) in the traced run.
TRACED_REPLAY = 40
SERVER_START_TIMEOUT = 60.0


async def _gather(coroutines) -> list:
    return await asyncio.gather(*coroutines)


def toggled(cell: str) -> str:
    return cell[:-1] + ("2" if cell.endswith("X1") else "1")


def iteration_gate(responses: Dict[str, dict], last_version: int) -> Tuple[bool, int]:
    """One iteration's responses are ``ok``, well-formed and versions advance.

    Queries report the version they observed, ECOs the version they
    committed; on one connection the sequence must never go back, and each
    ECO must commit a version newer than everything seen before it.
    """
    try:
        if not all(responses[route].get("ok") is True for route in ROUTES):
            return False, last_version
        whatif = responses["whatif"]["version"]
        resize = responses["resize_instance"]["version"]
        update = responses["update_net"]["version"]
        slack = responses["slack"]["version"]
        scores = responses["whatif"]["scores"]
        ok = (
            last_version <= whatif < resize < update <= slack
            and len(scores) == WHATIF_SWAPS
            and all(math.isfinite(score) for score in scores)
            and math.isfinite(responses["slack"]["worst_slack"])
        )
        return ok, max(last_version, slack)
    except (KeyError, TypeError):
        return False, last_version


def final_gate(served: Dict[str, float], replayed: Dict[str, float]) -> bool:
    """The session's final worst slack per model equals the replay at 1e-12."""
    return sorted(served) == sorted(replayed) and close_to(
        [served[m] for m in MODELS], [replayed[m] for m in MODELS]
    )


class EcoServe(Workload):
    def __init__(self, workdir: str) -> None:
        super().__init__(workdir)
        self.loop = asyncio.new_event_loop()
        self.server: Optional[subprocess.Popen] = None
        self.clients: List[ServeClient] = []
        self.tracer: Optional[Tracer] = None

    # -- inputs ------------------------------------------------------------
    def generate(self, seed: int) -> None:
        design, self.parasitics = random_design(INSTANCES, seed=seed)
        self.netlist = design_to_dict(design)
        self.payload = {
            "name": SESSION,
            "netlist": self.netlist,
            "parasitics": [parasitics_to_payload(p) for p in self.parasitics.values()],
            "clock_period": CLOCK_PERIOD,
        }
        library = standard_cell_library()
        self.original = {}
        self.owned: List[List[str]] = [[] for _ in range(CONNECTIONS)]
        for index, (name, record) in enumerate(self.netlist["instances"].items()):
            cell = record["cell"]
            if not cell.endswith(("X1", "X2")) or toggled(cell) not in library:
                continue
            output = record["connections"][library[cell].output]
            if output not in self.parasitics:
                continue
            self.original[name] = (cell, output)
            self.owned[index % CONNECTIONS].append(name)
        self.candidates = sorted(self.original)
        self.rngs = [random.Random(seed * 1000 + c) for c in range(CONNECTIONS)]
        self._reset_state()

    def _reset_state(self) -> None:
        self.cells = {name: cell for name, (cell, _) in self.original.items()}
        #: Per connection, every iteration's plan in the order it was sent.
        self.plans: List[List[dict]] = [[] for _ in range(CONNECTIONS)]
        self.route_times: Dict[str, List[float]] = {route: [] for route in ROUTES}

    def plan(self, c: int) -> dict:
        """The next iteration of connection ``c`` (untimed input generation)."""
        rng = self.rngs[c]
        swaps = [
            [name, toggled(self.original[name][0])]
            for name in rng.sample(self.candidates, WHATIF_SWAPS)
        ]
        instance = rng.choice(self.owned[c])
        cell = toggled(self.cells[instance])
        self.cells[instance] = cell
        net = self.original[instance][1]
        factor = rng.uniform(0.8, 1.25)
        parasitics = scaled_parasitics(
            self.parasitics[net], Scenario("eco", r_derate=factor, c_derate=factor)
        )
        step = {
            "swaps": swaps,
            "instance": instance,
            "cell": cell,
            "net": net,
            "parasitics": parasitics,
            "payload": parasitics_to_payload(parasitics),
        }
        self.plans[c].append(step)
        return step

    # -- server lifecycle --------------------------------------------------
    def _start_server(self) -> int:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            env=env,
            cwd=root,
        )
        ready, _, _ = select.select([self.server.stdout], [], [], SERVER_START_TIMEOUT)
        line = self.server.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            raise RuntimeError(f"serve did not start: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def _stop_server(self) -> None:
        # Connection loops still pending after an interrupted run stop here,
        # before their server does.
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        if pending:
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        for client in self.clients:
            self.loop.run_until_complete(client.close())
        self.clients = []
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None

    def setup(self) -> None:
        port = self._start_server()
        self.clients = [ServeClient("127.0.0.1", port) for _ in range(CONNECTIONS)]
        for client in self.clients:
            self.loop.run_until_complete(client.connect())
        self.loop.run_until_complete(self.clients[0].create_session(self.payload))
        # Warm-up op: one iteration per connection; its writes are replayed.
        self.loop.run_until_complete(
            _gather(self._iteration(c, self.plan(c)) for c in range(CONNECTIONS))
        )
        self.versions = [0] * CONNECTIONS

    def discard(self) -> None:
        self._stop_server()
        self._reset_state()

    def worker_pid(self) -> int:
        return self.server.pid

    def teardown(self) -> None:
        self._stop_server()
        self.loop.close()

    # -- the op ------------------------------------------------------------
    async def _iteration(self, c: int, step: dict) -> Tuple[Dict[str, dict], Dict[str, float]]:
        client = self.clients[c]
        calls = (
            ("whatif", lambda: client.whatif(SESSION, step["swaps"])),
            ("resize_instance", lambda: client.resize_instance(SESSION, step["instance"], step["cell"])),
            ("update_net", lambda: client.update_net(SESSION, step["payload"])),
            ("slack", lambda: client.slack(SESSION)),
        )
        responses, times = {}, {}
        for route, call in calls:
            t0 = time.perf_counter()
            responses[route] = await call()
            times[route] = time.perf_counter() - t0
        return responses, times

    def closed_loop(self, seconds: float, tracer: Optional[Tracer] = None) -> LoopResult:
        latencies: List[float] = []
        ends: List[float] = []
        ok = OkCounter()
        for route in ROUTES:
            self.route_times[route] = []

        async def connection(c: int, deadline: float) -> None:
            while time.perf_counter() < deadline:
                step = self.plan(c)
                t0 = time.perf_counter()
                try:
                    responses, times = await self._iteration(c, step)
                except Exception as error:  # noqa: BLE001 - counted as a failed op
                    print(f"eco_serve: iteration failed: {error!r}", file=sys.stderr)
                    ok.record(False)
                    continue
                latencies.append(time.perf_counter() - t0)
                ends.append(time.perf_counter() - start)
                passed, self.versions[c] = iteration_gate(responses, self.versions[c])
                ok.record(passed)
                for route, value in times.items():
                    self.route_times[route].append(value)

        start = time.perf_counter()
        deadline = start + seconds
        self.loop.run_until_complete(
            _gather(connection(c, deadline) for c in range(CONNECTIONS))
        )
        return LoopResult(latencies, ends, ok)

    # -- run-level gate and the in-process replay --------------------------
    def finish(self, ok: OkCounter) -> None:
        client = self.clients[0]
        self.served = {
            model: self.loop.run_until_complete(client.slack(SESSION, model=model))["worst_slack"]
            for model in MODELS
        }
        info = self.loop.run_until_complete(client.session_info(SESSION))
        self.batching = info["batching"]
        self.replayed = self.replay(self.tracer)
        if not final_gate(self.served, self.replayed):
            print("eco_serve: final state differs from the replay", file=sys.stderr)
            ok.fail_all()

    def replay(self, tracer: Optional[Tracer]) -> Dict[str, float]:
        """Apply every write in-process; with a tracer, also time the reads.

        The traced replay covers the last ``TRACED_REPLAY`` iterations: a
        what-if right after the previous ECO (the server's situation), the
        same what-if again with warm caches, both ECOs and the slack query.
        """
        library = standard_cell_library()
        graph = TimingGraph(
            DesignDB(design_from_dict(self.netlist), self.parasitics),
            clock_period=CLOCK_PERIOD,
        )
        steps = [step for plan in self.plans for step in plan]
        traced_from = len(steps) - TRACED_REPLAY if tracer is not None else len(steps)
        for index, step in enumerate(steps):
            cell = library[step["cell"]]
            if index < traced_from:
                graph.resize_instance(step["instance"], cell)
                graph.update_net(step["net"], step["parasitics"])
                continue
            tracer.op = index
            swaps = [(name, library[cell_name]) for name, cell_name in step["swaps"]]
            with tracer.span("graph.whatif_after_eco"):
                graph.whatif_resize_worst_slack(swaps, DelayModel.UPPER_BOUND)
            with tracer.span("graph.whatif_warm"):
                graph.whatif_resize_worst_slack(swaps, DelayModel.UPPER_BOUND)
            with tracer.span("graph.resize_instance"):
                cone = graph.resize_instance(step["instance"], cell)
            with tracer.span("graph.update_net"):
                cone += graph.update_net(step["net"], step["parasitics"])
            tracer.count("graph.eco_cone_vertices", cone)
            with tracer.span("graph.endpoint_slacks"):
                graph.worst_slack(DelayModel.UPPER_BOUND)
                graph.endpoint_slacks(DelayModel.UPPER_BOUND)
        return {model: graph.worst_slack(DelayModel(model)) for model in MODELS}

    # -- tracing -----------------------------------------------------------
    def instrument(self, tracer: Tracer) -> None:
        self.tracer = tracer
        tracer.wrap(DesignDB, "whatif_cell_elements", "designdb.whatif_cell_elements")
        tracer.wrap(FlatForest, "solve_batch", "parallel.solve", after=record_engine)

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        route_p50 = {route: 1e3 * median(self.route_times[route]) for route in ROUTES}
        in_process = {
            "whatif": tracer.p50_ms("graph.whatif_after_eco"),
            "resize_instance": tracer.p50_ms("graph.resize_instance"),
            "update_net": tracer.p50_ms("graph.update_net"),
            "slack": tracer.p50_ms("graph.endpoint_slacks"),
        }
        return {
            "serve.whatif_ms": route_p50["whatif"],
            "serve.resize_instance_ms": route_p50["resize_instance"],
            "serve.update_net_ms": route_p50["update_net"],
            "serve.slack_ms": route_p50["slack"],
            "serve.overhead_ms": sum(route_p50.values()) - sum(in_process.values()),
            "serve.batch_requests_mean": float(self.batching["mean_batch_requests"]),
            "graph.whatif_after_eco_ms": in_process["whatif"],
            "graph.whatif_warm_ms": tracer.p50_ms("graph.whatif_warm"),
            "graph.resize_instance_ms": in_process["resize_instance"],
            "graph.update_net_ms": in_process["update_net"],
            "graph.eco_cone_vertices": median(tracer.per_op_counts("graph.eco_cone_vertices")),
            "graph.endpoint_slacks_ms": in_process["slack"],
            "designdb.whatif_cell_elements_ms": tracer.p50_ms("designdb.whatif_cell_elements"),
            "parallel.solve_ms": tracer.p50_ms("parallel.solve"),
            "parallel.process_share": process_share(tracer),
        }

    def details(self) -> Dict[str, object]:
        return {
            "connections": CONNECTIONS,
            "iterations": [len(plan) for plan in self.plans],
            "route_p50_ms": {
                route: 1e3 * median(values) for route, values in self.route_times.items()
            },
            "batching": self.batching,
            "served_worst_slack": self.served,
            "replayed_worst_slack": self.replayed,
        }
