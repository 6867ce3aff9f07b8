"""Sessions on the compiled kernels: concurrent solves through the executor.

Two sessions, each on a design whose forest alone clears
``AUTO_NATIVE_CELLS``, so auto-selection sends their corner sweeps to the
Numba kernels.  Corner and what-if queries of both sessions run at once in
one thread-pool executor; every answer must equal a serial numpy solve of
the same query to 1e-12.  Numba is optional, so the test skips without it
(CI's service job installs it) and wherever the kernels are disabled or
fail to compile, since auto-selection cannot pick them there.
"""

import asyncio
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.flat.native import native_ready, native_status
from repro.generators.random_designs import random_design
from repro.graph import DesignDB, TimingGraph
from repro.parallel import AUTO_NATIVE_CELLS, resolve_engine
from repro.scenarios import ScenarioSet
from repro.serve.batcher import WhatIfBatcher
from repro.serve.session import Session
from repro.sta.cells import standard_cell_library
from repro.sta.delaycalc import DelayModel

LIBRARY = standard_cell_library()
N_INSTANCES = 16000
SPEC = [
    {"name": "typ"},
    {"name": "slow", "r_derate": 1.25, "c_derate": 1.1},
    {"name": "fast", "r_derate": 0.8, "c_derate": 0.9},
]
MODELS = ("elmore", "upper_bound", "lower_bound")
#: Seconds for the whole test, cold Numba compile included; CI's
#: per-test timeout is 180 s.
DEADLINE = 160


def _candidates(design, count):
    picks = []
    for name, instance in sorted(design.instances.items()):
        cell = instance.cell.name
        if cell.endswith("_X1") and not instance.cell.is_sequential:
            picks.append((name, LIBRARY[cell[:-3] + "_X2"]))
        if len(picks) == count:
            return picks
    raise AssertionError("not enough resizable instances")


def _assert_close(got, want):
    np.testing.assert_allclose(
        np.asarray(got, dtype=float),
        np.asarray(want, dtype=float),
        rtol=1e-12,
        atol=1e-24,
    )


def _worst_slacks(report):
    return [
        [scenario["worst_slack"][model] for model in MODELS]
        for scenario in report["scenarios"]
    ]


def test_two_native_sessions_in_parallel_match_serial_numpy(hang_guard):
    pytest.importorskip("numba")
    hang_guard(DEADLINE)
    if not native_ready():
        pytest.skip(f"native kernels unusable: {native_status()}")
    scenarios = ScenarioSet.from_dict(SPEC)
    designs = [random_design(N_INSTANCES, seed=seed) for seed in (1, 2)]
    sessions = [
        Session(f"s{index}", design, parasitics)
        for index, (design, parasitics) in enumerate(designs)
    ]
    for session in sessions:
        nodes = session.db.forest.node_count
        assert nodes >= AUTO_NATIVE_CELLS
        assert resolve_engine(None, cells=nodes, nodes=nodes) == "native"
    swaps = [_candidates(design, 8) for design, _ in designs]

    async def main():
        with ThreadPoolExecutor(max_workers=4) as executor:
            batchers = [
                WhatIfBatcher(session, executor=executor) for session in sessions
            ]

            async def queries(session, batcher, picks):
                return await asyncio.gather(
                    session.call(
                        executor,
                        session.corners_payload,
                        scenarios,
                        DelayModel.UPPER_BOUND,
                        False,
                    ),
                    *[batcher.submit([swap], DelayModel.UPPER_BOUND) for swap in picks],
                )

            results = await asyncio.wait_for(
                asyncio.gather(*map(queries, sessions, batchers, swaps)), DEADLINE
            )
            for batcher in batchers:
                await batcher.close()
        return results

    results = asyncio.run(main())
    for (design, parasitics), picks, result in zip(designs, swaps, results):
        (report, version), *whatifs = result
        serial = TimingGraph(DesignDB(design, parasitics))
        want_report = serial.analyze_scenarios(
            scenarios, path_model=DelayModel.UPPER_BOUND, engine="numpy"
        ).to_dict()
        assert version == 0
        assert [(s["name"], s["verdict"]) for s in report["scenarios"]] == [
            (s["name"], s["verdict"]) for s in want_report["scenarios"]
        ]
        _assert_close(_worst_slacks(report), _worst_slacks(want_report))
        want_scores = serial.whatif_resize_worst_slack(
            picks, DelayModel.UPPER_BOUND, engine="numpy"
        )
        _assert_close([scores[0] for scores, _ in whatifs], want_scores)
        assert all(version == 0 for _, version in whatifs)
    for session in sessions:
        session.close()
