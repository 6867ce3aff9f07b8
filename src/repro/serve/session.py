"""Warm timing sessions: the state the server keeps between requests.

A :class:`Session` owns one loaded design -- a
:class:`~repro.graph.DesignDB` (in RAM or out-of-core via ``store_dir``)
wrapped by a :class:`~repro.graph.TimingGraph` -- plus the two things that
make it safe to share across an event loop: a per-session
:class:`asyncio.Lock` serializing *all* state access, and a monotonically
increasing ``version`` counter stamped on every operation so concurrent
clients (and the linearizability test oracle) can reconstruct the serial
order the lock imposed.

The compute methods here are plain synchronous functions: the server's
handler coroutines hand them to a thread-pool executor while holding the
session lock, so the event loop keeps accepting traffic during a solve but
no two operations ever interleave on the same graph.  Because the lock is
held across the executor hop, a session behaves exactly like a
single-threaded :class:`~repro.graph.TimingGraph` -- which is what the
serial-replay oracle in ``tests/properties/test_serve_linearizability.py``
checks.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.graph import DesignDB, TimingGraph
from repro.serve.schema import ServeError
from repro.sta.cells import Cell, standard_cell_library
from repro.sta.delaycalc import DelayModel
from repro.sta.netlist import Design
from repro.sta.parasitics import NetParasitics

__all__ = ["Session", "SessionRegistry"]


class Session:
    """One warm design: database, graph, lock, and operation counter."""

    def __init__(
        self,
        name: str,
        design: Design,
        parasitics: Dict[str, NetParasitics],
        *,
        clock_period: float = 1e-9,
        threshold: float = 0.5,
        input_drive_resistance: float = 0.0,
        default_wire_capacitance: float = 0.0,
        store_dir: Optional[str] = None,
        engine: Optional[str] = None,
    ):
        self.name = name
        self.db = DesignDB(
            design,
            parasitics,
            input_drive_resistance=input_drive_resistance,
            default_wire_capacitance=default_wire_capacitance,
            store_dir=store_dir,
        )
        self.graph = TimingGraph(
            self.db, clock_period=clock_period, threshold=threshold
        )
        #: Serializes every read and write; the executor hop happens under it.
        self.lock = asyncio.Lock()
        #: Stamped on each completed operation -- the session's serial order.
        self._versions = itertools.count(1)
        self.version = 0
        self.engine = engine
        self.store_backed = store_dir is not None
        self.library = standard_cell_library()
        self.closed = False

    def bump(self) -> int:
        """Advance and return the session version (call with the lock held)."""
        self.version = next(self._versions)
        return self.version

    # -- synchronous compute, run in the executor under ``self.lock`` -------

    def summary_payload(self, model: DelayModel) -> Dict[str, Any]:
        """Full design summary (per-endpoint slacks, worst path) as JSON."""
        return self.graph.summary(path_model=model).to_dict()

    def slack_payload(
        self, model: DelayModel, pins: Optional[Sequence[str]] = None
    ) -> Dict[str, Any]:
        """Worst slack plus endpoint (or requested pin) slacks."""
        payload: Dict[str, Any] = {
            "model": model.value,
            "worst_slack": self.graph.worst_slack(model),
        }
        if pins is None:
            payload["endpoint_slacks"] = self.graph.endpoint_slacks(model)
        else:
            slacks = self.graph.pin_slacks(model)
            missing = [pin for pin in pins if pin not in slacks]
            if missing:
                raise ServeError(
                    f"unknown pins {missing!r}", status=404, code="unknown_pin"
                )
            payload["pin_slacks"] = {pin: slacks[pin] for pin in pins}
        return payload

    def corners_payload(
        self, scenarios, model: DelayModel, with_paths: bool
    ) -> Dict[str, Any]:
        """Multi-corner analysis through the session's pinned backend."""
        report = self.graph.analyze_scenarios(
            scenarios,
            path_model=model,
            with_critical_paths=with_paths,
            engine=self.engine,
        )
        return report.to_dict()

    def whatif_scores(
        self, swaps: Sequence[Tuple[str, Cell]], model: DelayModel
    ) -> List[float]:
        """Batched what-if worst slacks -- the coalescer's solve kernel."""
        scores = self.graph.whatif_resize_worst_slack(
            swaps, model, engine=self.engine
        )
        return [float(score) for score in scores]

    def apply_update_net(self, net: str, parasitics: NetParasitics) -> int:
        """ECO: replace one net's parasitics; returns the re-timed cone size."""
        return self.graph.update_net(net, parasitics)

    def apply_resize_instance(self, instance: str, cell: Cell) -> int:
        """ECO: swap one instance's cell; returns the re-timed cone size."""
        return self.graph.resize_instance(instance, cell)

    def close(self) -> None:
        """Release the underlying database (a no-op for in-RAM sessions)."""
        self.closed = True
        owners = [self.db]
        if self.store_backed:
            owners.append(self.db.store)
        for owner in owners:
            close = getattr(owner, "close", None)
            if callable(close):
                close()


class SessionRegistry:
    """Named sessions with an async-safe create/get/close surface."""

    def __init__(self) -> None:
        self._sessions: Dict[str, Session] = {}
        self._lock = asyncio.Lock()

    async def add(self, session: Session) -> None:
        """Register a session; 409 ``session_exists`` on a duplicate name."""
        async with self._lock:
            if session.name in self._sessions:
                raise ServeError(
                    f"session {session.name!r} already exists",
                    status=409,
                    code="session_exists",
                )
            self._sessions[session.name] = session

    async def get(self, name: str) -> Session:
        """Look up a session; 404 ``unknown_session`` when absent."""
        async with self._lock:
            session = self._sessions.get(name)
        if session is None:
            raise ServeError(
                f"no session named {name!r}", status=404, code="unknown_session"
            )
        return session

    async def close(self, name: str) -> Session:
        """Unregister and return a session; 404 ``unknown_session`` when absent."""
        async with self._lock:
            session = self._sessions.pop(name, None)
        if session is None:
            raise ServeError(
                f"no session named {name!r}", status=404, code="unknown_session"
            )
        return session

    async def names(self) -> List[str]:
        """The sorted names of every open session."""
        async with self._lock:
            return sorted(self._sessions)

    async def drain(self) -> List[Session]:
        """Remove and return every session (server shutdown)."""
        async with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        return sessions
