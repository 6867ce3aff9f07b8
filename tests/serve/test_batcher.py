"""The coalescing batcher: correctness, batching behavior, failure fan-out."""

import asyncio

import pytest

from repro.serve.batcher import WhatIfBatcher
from repro.serve.session import Session
from repro.sta.cells import standard_cell_library
from repro.sta.delaycalc import DelayModel

LIBRARY = standard_cell_library()


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
        batcher = WhatIfBatcher(session, tick=0.005)
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
    # All six submits landed inside one tick: they must have coalesced.
    assert stats.requests == 6
    assert stats.batches < 6
    assert stats.max_batch_requests > 1
    assert stats.solved_swaps == 6


def test_multi_swap_submissions_slice_correctly(workload, hang_guard):
    swaps = resizable_instances(workload, 6)
    direct = workload.direct_graph()

    async def main():
        session = make_session(workload)
        batcher = WhatIfBatcher(session, tick=0.005)
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
        batcher = WhatIfBatcher(session, tick=0.005)
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
    """Zero tick: arrivals during an in-flight solve form the next batch."""
    swaps = resizable_instances(workload, 8)

    async def main():
        session = make_session(workload)
        batcher = WhatIfBatcher(session, tick=0.0)
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
        batcher = WhatIfBatcher(session, tick=0.005)
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


def test_bad_request_fails_alone_in_its_tick(workload, hang_guard):
    """A bogus and a good submit in one tick: only the bogus one fails."""
    from repro.core.exceptions import AnalysisError

    good = resizable_instances(workload, 1)
    direct = workload.direct_graph()
    bad = [(good[0][0], LIBRARY["DFF_X1"])]  # changes the pin interface

    async def main():
        session = make_session(workload)
        batcher = WhatIfBatcher(session, tick=0.005)
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


def test_closed_batcher_refuses_and_fails_pending(workload, hang_guard):
    async def main():
        session = make_session(workload)
        batcher = WhatIfBatcher(session, tick=60.0)  # never flushes on its own
        swap = resizable_instances(workload, 1)
        pending = asyncio.ensure_future(
            batcher.submit(swap, DelayModel.UPPER_BOUND)
        )
        await asyncio.sleep(0)
        await batcher.close()
        with pytest.raises(RuntimeError):
            await pending
        with pytest.raises(RuntimeError):
            await batcher.submit(swap, DelayModel.UPPER_BOUND)

    asyncio.run(main())
