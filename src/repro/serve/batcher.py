"""Request coalescing: many concurrent what-if queries, one batched solve.

The paper's candidates-as-scenarios kernel
(:meth:`~repro.graph.TimingGraph.whatif_resize_worst_slack`) prices ``S``
cell swaps at one batched solve of just the stage trees they touch plus
one ``(cone, S)`` re-relaxation of the arrivals they change, so a server
that solves each client's what-if alone pays that fixed per-call cost --
sub-forest gather, kernel dispatch, one level loop over the cone -- once
per client instead of once per round.  The :class:`WhatIfBatcher` closes
that gap without a timer, like a group commit: ``submit()`` checks the
request's swaps (unknown instance, changed pin interface) so a bad request
fails alone, parks them in a pending list and starts a drain task when
none is running.  The drain takes everything parked, groups it by delay
model, concatenates the swap lists, runs one batched what-if per model
through :meth:`~repro.serve.session.Session.call` -- then slices the score
vector back out to each caller's future.  It repeats while requests are
parked and exits when the list is empty.  A failure inside a solve still
fails every request of its group.

Two properties make this correct and live:

* The event loop is single-threaded, so "park / start the drain" and
  "find the list empty / clear the task" are atomic -- no request can fall
  between the drain's last check and its exit.
* The solve runs under the session lock, so batched what-ifs serialize
  with ECO writes exactly like every other operation; and because scenario
  columns (and member trees) are computed independently in the vectorized
  kernels, a swap scored in a 64-wide batch equals the same swap scored
  alone against the same state -- bitwise whenever both solves auto-select
  the same backend, to the backends' shared 1e-12 otherwise.

The first request of an idle batcher is solved at once.  While one batch
is solving, new arrivals park and become the next batch -- under load the
batch size grows with concurrency, which is why throughput *rises*
instead of collapsing.  :meth:`WhatIfBatcher.close` refuses new requests
and waits for the drain, so every parked request is answered and no solve
outlives its session.
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
    """Self-clocking front end to one session's what-if kernel."""

    def __init__(self, session: Session, *, executor=None):
        self._session = session
        self._executor = executor
        self._pending: List[_Pending] = []
        self._drain_task: Optional[asyncio.Task] = None
        self._closed = False
        self.stats = BatchStats()

    async def submit(
        self, swaps: Sequence[Tuple[str, Cell]], model: DelayModel
    ) -> Tuple[List[float], int]:
        """Score ``swaps``; returns ``(scores, session_version)``.

        The call coalesces with every other ``submit`` parked while a
        previous batch is solving.  The returned version is the session
        version the scores were computed against, for clients correlating
        what-ifs with ECO history.  Swaps naming an unknown instance or
        changing a cell's pin interface raise
        :class:`~repro.core.exceptions.AnalysisError` before anything is
        enqueued.
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
        if self._drain_task is None:
            self._drain_task = asyncio.ensure_future(self._drain())
        return await entry.future

    async def _drain(self) -> None:
        try:
            while self._pending:
                batch, self._pending = self._pending, []
                await self._solve_batch(batch)
        finally:
            # No await between the last pending-check and this clear: the
            # next submit() sees task=None and starts a fresh drain.
            self._drain_task = None

    async def _solve_batch(self, batch: List[_Pending]) -> None:
        """One coalesced round: group by model, solve, slice, resolve."""
        self.stats.batches += 1
        self.stats.max_batch_requests = max(
            self.stats.max_batch_requests, len(batch)
        )
        by_model: Dict[DelayModel, List[_Pending]] = {}
        for entry in batch:
            by_model.setdefault(entry.model, []).append(entry)
        session = self._session
        for model, entries in by_model.items():
            merged: List[Tuple[str, Cell]] = []
            for entry in entries:
                merged.extend(entry.swaps)
            try:
                scores, version = await session.call(
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
        """Refuse new requests, then wait until every parked one is answered."""
        self._closed = True
        if self._drain_task is not None:
            await self._drain_task
