"""Request coalescing: many concurrent what-if queries, one batched solve.

The paper's candidates-as-scenarios kernel
(:meth:`~repro.graph.TimingGraph.whatif_resize_worst_slack`) prices ``S``
cell swaps at one batched solve of just the stage trees they touch plus
one ``(cone, S)`` re-relaxation of the arrivals they change, so a server
that solves each client's what-if alone pays that fixed per-call cost --
sub-forest gather, kernel dispatch, one level loop over the cone -- once
per client instead of once per round.  The :class:`WhatIfBatcher` closes
that gap: ``submit()`` checks the request's swaps (unknown instance,
changed pin interface) so a bad request fails alone, parks them in a
pending list and resolves a future later; a flush task fires one *tick*
(default a couple of milliseconds) after the first request of a round,
drains everything that accumulated, groups it by delay model,
concatenates the swap lists, and runs one batched what-if per model in the
executor -- then slices the score vector back out to each caller's future.
A failure inside that solve still fails every request of the group.

Two properties make this correct and live:

* The event loop is single-threaded, so "check pending / schedule flush"
  and "drain pending / clear task" are atomic -- no request can fall
  between a drain and the task teardown.
* The solve runs under the session lock, so batched what-ifs serialize
  with ECO writes exactly like every other operation; and because scenario
  columns (and member trees) are computed independently in the vectorized
  kernels, a swap scored in a 64-wide batch equals the same swap scored
  alone against the same state -- bitwise whenever both solves auto-select
  the same backend, to the backends' shared 1e-12 otherwise.

While one batch is solving, new arrivals open the next round and
accumulate behind the lock -- under load the batch size grows naturally
with concurrency, which is why throughput *rises* instead of collapsing.
A tick of ``0`` still coalesces whatever piles up during a solve, but adds
no artificial latency (the benchmark's serialized baseline).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sta.cells import Cell
from repro.sta.delaycalc import DelayModel

from repro.serve.session import Session

__all__ = ["BatchStats", "WhatIfBatcher"]


@dataclass
class BatchStats:
    """Coalescing counters, exposed in ``GET /sessions/{name}`` responses."""

    requests: int = 0
    batches: int = 0
    solved_swaps: int = 0
    max_batch_requests: int = 0

    def to_payload(self) -> Dict[str, float]:
        """JSON form, with the derived ``mean_batch_requests`` included."""
        mean = self.requests / self.batches if self.batches else 0.0
        return {
            "requests": self.requests,
            "batches": self.batches,
            "solved_swaps": self.solved_swaps,
            "max_batch_requests": self.max_batch_requests,
            "mean_batch_requests": mean,
        }


@dataclass
class _Pending:
    """One parked ``submit()`` call awaiting its slice of a batch solve."""

    swaps: List[Tuple[str, Cell]]
    model: DelayModel
    future: "asyncio.Future" = field(default_factory=asyncio.Future)


class WhatIfBatcher:
    """Tick-coalesced front end to one session's what-if kernel."""

    def __init__(self, session: Session, *, tick: float = 0.002, executor=None):
        self._session = session
        self._tick = tick
        self._executor = executor
        self._pending: List[_Pending] = []
        self._flush_task: Optional[asyncio.Task] = None
        self._closed = False
        self.stats = BatchStats()

    async def submit(
        self, swaps: Sequence[Tuple[str, Cell]], model: DelayModel
    ) -> Tuple[List[float], int]:
        """Score ``swaps``; returns ``(scores, session_version)``.

        The call coalesces with every other ``submit`` that lands within
        the same tick (or while a previous batch is still solving).  The
        returned version is the session version the scores were computed
        against, for clients correlating what-ifs with ECO history.  Swaps
        naming an unknown instance or changing a cell's pin interface
        raise :class:`~repro.core.exceptions.AnalysisError` before
        anything is enqueued.
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        # Refuse a bad swap here, so only its own client sees the error
        # instead of every client coalesced into the same solve.  A dict
        # lookup, safe without the session lock: instances are never
        # added, and resizes keep pin interfaces.
        for instance, cell in swaps:
            self._session.db.check_cell_swap(instance, cell)
        entry = _Pending(list(swaps), model)
        self._pending.append(entry)
        self.stats.requests += 1
        if self._flush_task is None:
            self._flush_task = asyncio.ensure_future(self._flush_after_tick())
        return await entry.future

    async def _flush_after_tick(self) -> None:
        try:
            if self._tick > 0:
                await asyncio.sleep(self._tick)
            while self._pending:
                batch = self._pending
                self._pending = []
                await self._solve_batch(batch)
        finally:
            # No await between the last pending-check and this clear: the
            # next submit() sees task=None and opens a fresh round.
            self._flush_task = None
            if self._pending and not self._closed:
                self._flush_task = asyncio.ensure_future(self._flush_after_tick())

    async def _solve_batch(self, batch: List[_Pending]) -> None:
        """One coalesced round: group by model, solve, slice, resolve."""
        self.stats.batches += 1
        self.stats.max_batch_requests = max(
            self.stats.max_batch_requests, len(batch)
        )
        by_model: Dict[DelayModel, List[_Pending]] = {}
        for entry in batch:
            by_model.setdefault(entry.model, []).append(entry)
        loop = asyncio.get_running_loop()
        session = self._session
        for model, entries in by_model.items():
            merged: List[Tuple[str, Cell]] = []
            for entry in entries:
                merged.extend(entry.swaps)
            try:
                async with session.lock:
                    version = session.version
                    scores = await loop.run_in_executor(
                        self._executor, session.whatif_scores, merged, model
                    )
            except Exception as error:  # noqa: BLE001 - fan the failure out
                for entry in entries:
                    if not entry.future.done():
                        entry.future.set_exception(error)
                continue
            self.stats.solved_swaps += len(merged)
            offset = 0
            for entry in entries:
                width = len(entry.swaps)
                if not entry.future.done():
                    entry.future.set_result(
                        (scores[offset : offset + width], version)
                    )
                offset += width

    async def close(self) -> None:
        """Stop accepting work and fail anything still parked."""
        self._closed = True
        task = self._flush_task
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._flush_task = None
        pending, self._pending = self._pending, []
        for entry in pending:
            if not entry.future.done():
                entry.future.set_exception(RuntimeError("batcher closed"))
