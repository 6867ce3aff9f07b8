"""Timing-as-a-service: a persistent asyncio server over warm timing state.

The batch engines make a *cold* analysis fast; this package makes a *warm*
design queryable at interactive rates.  A :class:`TimingServer` loads each
design once into a :class:`~repro.graph.DesignDB` /
:class:`~repro.graph.TimingGraph` session (in RAM or out-of-core via
``store_dir``) and then serves concurrent HTTP/JSON clients: ECO edits
(``update_net`` / ``resize_instance``) funnelled through a per-session
serialized writer, slack and corner queries, and what-if resize scoring.

The piece that makes throughput *rise* under load is request coalescing
(:class:`~repro.serve.batcher.WhatIfBatcher`): what-if queries arriving
within a configurable tick are merged into one candidates-as-scenarios
solve through :meth:`~repro.graph.TimingGraph.whatif_resize_worst_slack`,
so sixty-four concurrent clients cost one batched forest sweep instead of
sixty-four serial ones.  All solve work runs in a thread-pool executor --
handler coroutines never touch a kernel directly (enforced by reprolint
RL009) -- and engine selection flows through the
:mod:`repro.parallel` backend registry unchanged.

Everything is stdlib (``asyncio`` + hand-rolled HTTP/1.1): the server adds
no dependency.
"""

from repro.serve.batcher import BatchStats, WhatIfBatcher
from repro.serve.client import ServeClient
from repro.serve.schema import ServeError
from repro.serve.server import TimingServer, run_server
from repro.serve.session import Session, SessionRegistry

__all__ = [
    "BatchStats",
    "ServeClient",
    "ServeError",
    "Session",
    "SessionRegistry",
    "TimingServer",
    "WhatIfBatcher",
    "run_server",
]
