"""Timing-as-a-service: a persistent asyncio server over warm timing state.

The batch engines make a *cold* analysis fast; this package makes a *warm*
design queryable at interactive rates.  A :class:`TimingServer` loads each
design once into a :class:`~repro.graph.DesignDB` /
:class:`~repro.graph.TimingGraph` session (in RAM or out-of-core via
``store_dir``) and then serves concurrent HTTP/JSON clients: ECO edits
(``update_net`` / ``resize_instance``) funnelled through a per-session
serialized writer, slack and corner queries, and what-if resize scoring.

The piece that makes throughput *rise* under load is request coalescing
(:class:`~repro.serve.batcher.WhatIfBatcher`): what-if queries that
arrive while a batch is solving are merged into one candidates-as-scenarios
call of :meth:`~repro.graph.TimingGraph.whatif_resize_worst_slack`, which
solves only the stage trees the swaps touch and re-relaxes only the
arrivals they change, so sixty-four concurrent clients share one
sub-forest solve and one cone relaxation instead of paying sixty-four.
All solve work runs in a thread-pool executor -- handler coroutines never
touch a kernel directly (enforced by reprolint RL009) -- and engine
selection flows through the :mod:`repro.parallel` engine table
unchanged.

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
