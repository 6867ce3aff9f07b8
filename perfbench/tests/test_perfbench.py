"""Tests for the benchmark's own helpers and correctness gates."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import harness
from perfbench.harness import OkCounter, Span, Tracer, self_times, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)


# ----------------------------------------------------------------------
# Tail percentile rule
# ----------------------------------------------------------------------
class TestTailPercentile:
    def test_leaves_exactly_ten_samples_beyond(self):
        samples = list(range(1, 101))
        assert tail_percentile(samples) == (90.0, 90.0, 10)

    def test_order_of_samples_does_not_matter(self):
        samples = [5.0, 1.0, 4.0, 3.0, 2.0] * 4
        assert tail_percentile(samples) == tail_percentile(sorted(samples))

    def test_smallest_sample_count_with_a_tail(self):
        percentile, value, beyond = tail_percentile([float(x) for x in range(11)])
        assert (value, beyond) == (0.0, 10)
        assert percentile == pytest.approx(100.0 / 11)

    def test_too_few_samples_report_the_maximum_unresolved(self):
        assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            tail_percentile([])


class TestWindowedTail:
    def test_short_runs_use_one_window(self):
        samples = [float(x) for x in range(1, 100)]
        assert harness.windowed_tail(samples) == tail_percentile(samples) + (1,)

    def test_median_of_window_tails_ignores_one_burst(self):
        steady = [10.0] * 40 + [11.0] * 10
        burst = [10.0] * 30 + [50.0] * 20
        samples = steady + burst + steady + steady
        percentile, value, beyond, windows = harness.windowed_tail(samples)
        assert (percentile, value, beyond, windows) == (80.0, 10.0, 10, 4)
        assert tail_percentile(samples)[1] == 50.0

    def test_windows_are_capped_and_leftovers_dropped(self):
        windows = harness.TAIL_WINDOWS
        samples = [1.0] * (100 * windows) + [99.0] * (windows - 1)
        assert harness.windowed_tail(samples) == (90.0, 1.0, 10, windows)


class TestWindowedRate:
    def test_one_window_is_ops_over_timed_wall(self):
        ends = [0.5 * (index + 1) for index in range(40)]
        assert harness.windowed_rate(ends) == pytest.approx(2.0)

    def test_median_over_windows_ignores_one_stall(self):
        ends, clock = [], 0.0
        for window in range(4):
            for _ in range(50):
                clock += 1.0 if window == 1 else 0.1
                ends.append(clock)
        assert harness.windowed_rate(ends) == pytest.approx(10.0)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _tracer(spans):
    tracer = Tracer()
    tracer.spans = [Span(*fields) for fields in spans]
    return tracer


class TestSelfTime:
    def test_overlapping_children_are_counted_once(self):
        spans = [
            Span("outer", 0.0, 10.0, -1, 0),
            Span("a", 1.0, 3.0, 0, 0),
            Span("b", 2.0, 5.0, 0, 0),
            Span("c", 7.0, 8.0, 0, 0),
        ]
        assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])

    def test_only_direct_children_are_subtracted(self):
        spans = [
            Span("outer", 0.0, 10.0, -1, 0),
            Span("mid", 2.0, 6.0, 0, 0),
            Span("inner", 3.0, 4.0, 1, 0),
        ]
        assert self_times(spans) == pytest.approx([6.0, 3.0, 1.0])

    def test_child_is_clipped_to_its_parent(self):
        spans = [Span("outer", 0.0, 4.0, -1, 0), Span("late", 3.0, 9.0, 0, 0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_recorded_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert (outer.parent, inner.parent) == (-1, 0)
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_p50_is_per_op_and_self_time_excludes_children(self):
        tracer = _tracer(
            [
                ("analyze", 0.0, 0.010, -1, 0),
                ("solve", 0.002, 0.006, 0, 0),
                ("analyze", 1.0, 1.020, -1, 1),
                ("solve", 1.001, 1.011, 2, 1),
                ("solve", 1.012, 1.014, 2, 1),
                ("analyze", 2.0, 2.030, -1, 2),
            ]
        )
        assert tracer.p50_ms("analyze") == pytest.approx(20.0)
        assert tracer.p50_ms("solve") == pytest.approx(8.0)  # ops 0 and 1: 4 and 12
        assert tracer.p50_ms("analyze", self_time=True) == pytest.approx(8.0)
        assert tracer.p50_ms("never") == 0.0


class TestResidualLayerMetrics:
    def test_residual_is_the_median_of_per_op_differences(self):
        tracer = _tracer(
            [
                ("spef.parse", 0.0, 0.030, -1, 0),
                ("designdb.from_spef", 0.1, 0.200, -1, 0),
                ("spef.parse", 1.0, 1.040, -1, 1),
                ("designdb.from_spef", 1.1, 1.250, -1, 1),
                ("spef.parse", 2.0, 2.010, -1, 2),
                ("designdb.from_spef", 2.1, 2.180, -1, 2),
            ]
        )
        # Per op: 100 - 30, 150 - 40, 80 - 10 ms.
        assert tracer.residual_p50_ms(
            "designdb.from_spef", ["spef.parse"]
        ) == pytest.approx(70.0)

    def test_serve_overhead_is_route_p50s_minus_in_process_p50s(self):
        from perfbench.eco_serve import EcoServe, ROUTES

        workload = EcoServe.__new__(EcoServe)
        workload.route_times = {route: [0.010, 0.030, 0.020] for route in ROUTES}
        workload.batching = {"mean_batch_requests": 1.5}
        tracer = _tracer(
            [
                ("graph.whatif_after_eco", 0.0, 0.005, -1, 0),
                ("graph.resize_instance", 0.0, 0.001, -1, 0),
                ("graph.update_net", 0.0, 0.001, -1, 0),
                ("graph.endpoint_slacks", 0.0, 0.003, -1, 0),
            ]
        )
        metrics = workload.layer_metrics(tracer)
        assert metrics["serve.overhead_ms"] == pytest.approx(4 * 20.0 - 10.0)
        assert metrics["serve.batch_requests_mean"] == 1.5

    def test_wrap_records_spans_and_unwrap_restores(self):
        class Owner:
            def work(self, x):
                return 2 * x

        original = Owner.__dict__["work"]
        tracer = Tracer()
        tracer.wrap(Owner, "work", "owner.work", after=lambda t, r: t.count("n", r))
        assert Owner().work(3) == 6
        tracer.unwrap()
        assert Owner.__dict__["work"] is original
        assert [span.name for span in tracer.spans] == ["owner.work"]
        assert tracer.per_op_counts("n") == [6]


# ----------------------------------------------------------------------
# ok_ratio accounting
# ----------------------------------------------------------------------
class TestOkRatio:
    def test_counts_failures_against_attempts(self):
        ok = OkCounter()
        for passed in (True, True, False, True):
            ok.record(passed)
        assert (ok.attempted, ok.failed, ok.ok_ratio) == (4, 1, 0.75)

    def test_run_level_failure_fails_every_op(self):
        ok = OkCounter()
        for _ in range(5):
            ok.record(True)
        ok.fail_all()
        assert (ok.failed, ok.ok_ratio) == (5, 0.0)

    def test_nothing_attempted_is_not_a_pass(self):
        assert OkCounter().ok_ratio == 0.0

    def test_close_to_scales_by_the_largest_reference(self):
        assert harness.close_to([1.0, 1e-20], [1.0, 0.0])
        assert not harness.close_to([1.0 + 1e-9], [1.0])
        assert not harness.close_to([float("nan")], [1.0])
        assert not harness.close_to([1.0], [1.0, 2.0])


# ----------------------------------------------------------------------
# Each gate rejects a corrupted result, so ok_ratio drops
# ----------------------------------------------------------------------
def _ratio(results, gate):
    ok = OkCounter()
    for result in results:
        ok.record(gate(result))
    return ok.ok_ratio


class TestGates:
    def test_signoff_gate(self):
        from repro.generators import random_design
        from repro.graph import TimingGraph
        from repro.scenarios import ScenarioSet

        from perfbench.signoff import signoff_gate

        design, parasitics = random_design(40, seed=3)
        graph = TimingGraph(design, parasitics, clock_period=1e-8)
        scenarios = ScenarioSet.monte_carlo(4, seed=3)
        reference = graph.analyze_scenarios(scenarios, engine="numpy").worst_slack
        good = graph.analyze_scenarios(scenarios).worst_slack
        bad = good.copy()
        bad[2, 1] *= 1 + 1e-9
        gate = lambda slack: signoff_gate(slack, reference)  # noqa: E731
        assert _ratio([good, good], gate) == 1.0
        assert _ratio([good, bad], gate) == 0.5
        assert not gate(good[:3])

    def test_load_gate(self):
        from perfbench import load

        workload = load.Load("unused")
        original = load.INSTANCES, load.DESIGNS
        load.INSTANCES, load.DESIGNS = 30, 1
        try:
            workload.generate(seed=5)
            workload.setup()
            workload.references()
            good = workload.op(0)
        finally:
            load.INSTANCES, load.DESIGNS = original
        slack = json.loads(json.dumps(good))
        slack["worst_slack"]["upper_bound"] *= 1 + 1e-9
        path = json.loads(json.dumps(good))
        path["critical_path"] = path["critical_path"][:-1]
        verdict = json.loads(json.dumps(good))
        verdict["verdict"] = "FAIL" if good["verdict"] != "FAIL" else "PASS"
        gate = lambda summary: workload.check(0, summary)  # noqa: E731
        assert _ratio([good], gate) == 1.0
        assert _ratio([good, slack, path, verdict], gate) == 0.25

    def test_store_gate(self, tmp_path):
        from repro.generators import stream_random_nets
        from repro.store import StoredForest, ingest_blocks

        from perfbench.store import Store, store_gate

        directory = str(tmp_path / "store")
        ingest_blocks(stream_random_nets(64, seed=2), directory)
        workload = Store(str(tmp_path))
        workload.generate(seed=2)
        workload.forest = StoredForest(directory)
        workload.offsets = np.asarray(workload.forest.offsets)
        arg = workload.prepare(0)
        tp = workload.op(arg)
        assert _ratio([tp], lambda value: store_gate(value, arg[1])) == 1.0
        assert _ratio(
            [tp, tp * (1 + 1e-9)], lambda value: store_gate(value, arg[1])
        ) == 0.5
        workload.forest.close()

    def test_eco_serve_iteration_gate(self):
        from perfbench.eco_serve import iteration_gate

        def responses(whatif=5, resize=6, update=7, slack=7, scores=(1e-9, 2e-9)):
            return {
                "whatif": {"ok": True, "version": whatif, "scores": list(scores)},
                "resize_instance": {"ok": True, "version": resize},
                "update_net": {"ok": True, "version": update},
                "slack": {"ok": True, "version": slack, "worst_slack": 1e-9},
            }

        assert iteration_gate(responses(), 4) == (True, 7)
        refused = responses()
        refused["update_net"]["ok"] = False
        corrupted = [
            responses(whatif=3),  # went back behind the last version seen
            responses(update=6),  # the ECO did not commit a new version
            responses(scores=(1e-9,)),  # a what-if score is missing
            responses(scores=(1e-9, float("nan"))),
            refused,
            {"whatif": {"ok": True}},  # truncated
        ]
        gate = lambda r: iteration_gate(r, 4)[0]  # noqa: E731
        assert _ratio([responses()] + corrupted, gate) == pytest.approx(1 / 7)

    def test_eco_serve_final_gate(self):
        from perfbench.eco_serve import MODELS, final_gate

        replay = {model: 1e-9 * (index + 1) for index, model in enumerate(MODELS)}
        drifted = dict(replay, upper_bound=replay["upper_bound"] * (1 + 1e-9))
        assert final_gate(dict(replay), replay)
        assert not final_gate(drifted, replay)
        assert not final_gate({"elmore": 1e-9}, replay)
        ok = OkCounter()
        ok.record(True)
        ok.record(True)
        if not final_gate(drifted, replay):
            ok.fail_all()
        assert ok.ok_ratio == 0.0


# ----------------------------------------------------------------------
# Contract of the command
# ----------------------------------------------------------------------
def test_metric_names_match_benchmark_json():
    from perfbench.run import END_TO_END, PER_LAYER, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(PER_LAYER.values())
    # Every gated workload runs; ``store`` runs but is not gated (README).
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in WORKLOADS if name != "store"
    ]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "load", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""


def test_stop_children_waits_for_the_resource_tracker():
    # Creating a shared-memory segment starts multiprocessing's resource
    # tracker, a child that would otherwise outlive its parent.
    script = (
        "from multiprocessing import shared_memory\n"
        "from perfbench.harness import child_pids, stop_children\n"
        "block = shared_memory.SharedMemory(create=True, size=4096)\n"
        "block.close(); block.unlink()\n"
        "assert child_pids(), 'no resource tracker started'\n"
        "print(stop_children(), child_pids())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "[]"]
