"""A big scenario sweep runs in-process: no child process, no shm segment.

Every backend runs in the calling thread, so even a large sweep must leave
no worker process alive and no ``/dev/shm`` segment behind.
"""

import multiprocessing
import os

from repro.generators import random_design
from repro.graph import TimingGraph
from repro.scenarios import ScenarioSet

SHM_DIR = "/dev/shm"
#: ``nodes x scenarios`` cells the sweep must exceed: large enough that an
#: engine fanning big sweeps out to worker processes would do so here.
BIG_SWEEP_CELLS = 1 << 19


def _shm_segments():
    if not os.path.isdir(SHM_DIR):
        return set()
    return set(os.listdir(SHM_DIR))


def test_big_sweep_leaves_no_child_process_or_shm_segment():
    design, parasitics = random_design(1000, seed=3)
    graph = TimingGraph(design, dict(parasitics), clock_period=1e-8)
    scenarios = ScenarioSet.monte_carlo(128, seed=5)
    assert graph.db.forest.node_count * len(scenarios) >= BIG_SWEEP_CELLS
    before = _shm_segments()

    report = graph.analyze_scenarios(scenarios)

    assert report.worst_slack.shape[0] == len(scenarios)
    assert multiprocessing.active_children() == []
    assert _shm_segments() - before == set()
