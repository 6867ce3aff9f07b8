"""The coalescing batcher: correctness, batching behavior, failure fan-out."""

import asyncio
import threading

import pytest

from repro.serve.batcher import WhatIfBatcher
from repro.serve.session import Session
from repro.sta.cells import standard_cell_library
from repro.sta.delaycalc import DelayModel

LIBRARY = standard_cell_library()
#: Seconds a test waits for a parked request after close(); a pending
#: future fails the test through this deadline instead of hanging it.
CLOSE_DEADLINE = 5.0


def make_session(workload, **kwargs):
    return Session("s", workload.design, workload.parasitics, **kwargs)


def resizable_instances(workload, count):
    return workload.resizable_instances(count)


def test_batched_scores_equal_direct_solo_calls(workload, hang_guard):
    """Every coalesced response is bitwise equal to a direct solo what-if."""
    swaps = resizable_instances(workload, 6)
    direct = workload.direct_graph()

    async def main():
        session = make_session(workload)
        batcher = WhatIfBatcher(session)
        results = await asyncio.gather(
            *[
                batcher.submit([swap], DelayModel.UPPER_BOUND)
                for swap in swaps
            ]
        )
        await batcher.close()
        return results, batcher.stats

    results, stats = asyncio.run(main())
    for (scores, version), swap in zip(results, swaps):
        expected = direct.whatif_resize_worst_slack([swap])
        assert version == 0
        assert scores == [float(expected[0])]
    # All six submits parked before the drain's first step: they coalesced.
    assert stats.requests == 6
    assert stats.batches < 6
    assert stats.max_batch_requests > 1
    assert stats.solved_swaps == 6


def test_multi_swap_submissions_slice_correctly(workload, hang_guard):
    swaps = resizable_instances(workload, 6)
    direct = workload.direct_graph()

    async def main():
        session = make_session(workload)
        batcher = WhatIfBatcher(session)
        first, second = await asyncio.gather(
            batcher.submit(swaps[:4], DelayModel.UPPER_BOUND),
            batcher.submit(swaps[4:], DelayModel.UPPER_BOUND),
        )
        await batcher.close()
        return first, second

    (scores_a, _), (scores_b, _) = asyncio.run(main())
    expected = direct.whatif_resize_worst_slack(swaps)
    assert scores_a == [float(x) for x in expected[:4]]
    assert scores_b == [float(x) for x in expected[4:]]


def test_mixed_models_solve_separately_but_coalesce(workload, hang_guard):
    swaps = resizable_instances(workload, 2)
    direct = workload.direct_graph()

    async def main():
        session = make_session(workload)
        batcher = WhatIfBatcher(session)
        upper, elmore = await asyncio.gather(
            batcher.submit([swaps[0]], DelayModel.UPPER_BOUND),
            batcher.submit([swaps[1]], DelayModel.ELMORE),
        )
        await batcher.close()
        return upper, elmore, batcher.stats

    (upper, _), (elmore, _), stats = asyncio.run(main())
    assert upper == [
        float(direct.whatif_resize_worst_slack([swaps[0]], DelayModel.UPPER_BOUND)[0])
    ]
    assert elmore == [
        float(direct.whatif_resize_worst_slack([swaps[1]], DelayModel.ELMORE)[0])
    ]
    # One batch (one drain), two kernel groups inside it.
    assert stats.batches == 1
    assert stats.max_batch_requests == 2


def test_requests_during_solve_coalesce_into_next_round(workload, hang_guard):
    """Arrivals during an in-flight solve form the next batch."""
    swaps = resizable_instances(workload, 8)

    async def main():
        session = make_session(workload)
        batcher = WhatIfBatcher(session)
        tasks = []
        for swap in swaps:
            tasks.append(
                asyncio.ensure_future(
                    batcher.submit([swap], DelayModel.UPPER_BOUND)
                )
            )
            # Let the flush task start solving before the next arrival.
            await asyncio.sleep(0)
        results = await asyncio.gather(*tasks)
        await batcher.close()
        return results, batcher.stats

    results, stats = asyncio.run(main())
    assert len(results) == 8
    assert stats.requests == 8
    assert stats.solved_swaps == 8


def test_solve_failure_fans_out_to_waiters(workload, hang_guard):
    async def main():
        session = make_session(workload)
        batcher = WhatIfBatcher(session)
        bogus = [("no_such_instance", LIBRARY["INV_X2"])]
        with pytest.raises(Exception):
            await batcher.submit(bogus, DelayModel.UPPER_BOUND)
        # The batcher must survive a failed round and keep serving.
        good = resizable_instances(workload, 1)
        scores, _ = await batcher.submit(good, DelayModel.UPPER_BOUND)
        await batcher.close()
        return scores

    scores = asyncio.run(main())
    assert len(scores) == 1


def test_bad_request_fails_alone_in_its_batch(workload, hang_guard):
    """A bogus and a good submit in one batch: only the bogus one fails."""
    from repro.core.exceptions import AnalysisError

    good = resizable_instances(workload, 1)
    direct = workload.direct_graph()
    bad = [(good[0][0], LIBRARY["DFF_X1"])]  # changes the pin interface

    async def main():
        session = make_session(workload)
        batcher = WhatIfBatcher(session)
        results = await asyncio.gather(
            batcher.submit(
                [("no_such_instance", LIBRARY["INV_X2"])], DelayModel.UPPER_BOUND
            ),
            batcher.submit(good, DelayModel.UPPER_BOUND),
            batcher.submit(bad, DelayModel.UPPER_BOUND),
            return_exceptions=True,
        )
        await batcher.close()
        return results, batcher.stats

    (unknown, (scores, version), refused), stats = asyncio.run(main())
    assert isinstance(unknown, AnalysisError)
    assert isinstance(refused, AnalysisError)
    expected = direct.whatif_resize_worst_slack(good)
    assert version == 0
    assert scores == [float(expected[0])]
    assert stats.batches == 1
    assert stats.solved_swaps == 1


def test_closed_batcher_refuses_and_answers_pending(workload, hang_guard):
    """close() answers what is already parked, then refuses new requests."""
    swap = resizable_instances(workload, 1)
    direct = workload.direct_graph()

    async def main():
        session = make_session(workload)
        batcher = WhatIfBatcher(session)
        pending = asyncio.ensure_future(
            batcher.submit(swap, DelayModel.UPPER_BOUND)
        )
        await asyncio.sleep(0)
        await batcher.close()
        result = await asyncio.wait_for(pending, CLOSE_DEADLINE)
        with pytest.raises(RuntimeError):
            await batcher.submit(swap, DelayModel.UPPER_BOUND)
        return result

    scores, version = asyncio.run(main())
    assert version == 0
    assert scores == [float(direct.whatif_resize_worst_slack(swap)[0])]


def test_close_during_solve_answers_the_batch(workload, hang_guard):
    """close() while a batch is in the executor still answers that batch.

    The solve is held at a gate inside the executor, so close() is called
    with the batch provably in flight.  Its waiter must resolve within a
    deadline, and the session lock must stay held until the solve returns.
    """
    swap = resizable_instances(workload, 1)
    direct = workload.direct_graph()
    started = threading.Event()
    gate = threading.Event()

    async def main():
        session = make_session(workload)
        solve = session.whatif_scores

        def gated(swaps, model):
            started.set()
            gate.wait(CLOSE_DEADLINE)
            return solve(swaps, model)

        session.whatif_scores = gated
        batcher = WhatIfBatcher(session)
        pending = asyncio.ensure_future(
            batcher.submit(swap, DelayModel.UPPER_BOUND)
        )
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, started.wait, CLOSE_DEADLINE)
        closing = asyncio.ensure_future(batcher.close())
        await asyncio.sleep(0.05)
        lock_held = session.lock.locked()
        gate.set()
        result = await asyncio.wait_for(pending, CLOSE_DEADLINE)
        await asyncio.wait_for(closing, CLOSE_DEADLINE)
        return lock_held, result

    lock_held, (scores, version) = asyncio.run(main())
    assert lock_held
    assert version == 0
    assert scores == [float(direct.whatif_resize_worst_slack(swap)[0])]
