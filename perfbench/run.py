"""The repository benchmark: one workload per run, metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload signoff --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures half
the time untraced and half with spans around the layer functions, and
prints the per-layer metrics instead.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's environment and details.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Every workload the command runs.  ``store`` is not listed in
#: ``BENCHMARK.json`` (so no regression bound applies to it): its timings
#: follow the shared disk's latency too closely to be bounded.
WORKLOADS = {
    "signoff": ("perfbench.signoff", "Signoff"),
    "eco_serve": ("perfbench.eco_serve", "EcoServe"),
    "load": ("perfbench.load", "Load"),
    "store": ("perfbench.store", "Store"),
}

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

#: Per-layer metrics and their units.  A traced run reports every one; a
#: layer its workload never calls reads 0.
PER_LAYER = {
    "parallel.solve_ms": "ms",
    "parallel.process_share": "ratio",
    "designdb.solve_scenarios_ms": "ms",
    "designdb.planes_ms": "ms",
    "designdb.from_spef_ms": "ms",
    "designdb.compile_ms": "ms",
    "designdb.whatif_cell_elements_ms": "ms",
    "flat.bounds_ms": "ms",
    "graph.analyze_ms": "ms",
    "graph.propagate_ms": "ms",
    "graph.build_ms": "ms",
    "graph.summary_ms": "ms",
    "graph.whatif_warm_ms": "ms",
    "graph.whatif_after_eco_ms": "ms",
    "graph.resize_instance_ms": "ms",
    "graph.update_net_ms": "ms",
    "graph.eco_cone_vertices": "count",
    "graph.endpoint_slacks_ms": "ms",
    "serve.whatif_ms": "ms",
    "serve.resize_instance_ms": "ms",
    "serve.update_net_ms": "ms",
    "serve.slack_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.batch_requests_mean": "count",
    "spef.parse_ms": "ms",
    "netlist.parse_ms": "ms",
    "store.ingest_s": "s",
    "store.first_solve_s": "s",
    "store.replace_tree_ms": "ms",
    "store.resolve_ms": "ms",
    "store.readback_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "teardown.leaked": "count",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it from there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path[:0] = [ROOT, src]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def measure(args: argparse.Namespace) -> dict:
    import importlib

    from perfbench.harness import (
        OkCounter,
        Tracer,
        environment,
        leaked,
        median,
        peak_rss_mb,
        shm_segments,
        windowed_rate,
        windowed_tail,
    )
    from repro.parallel import shutdown_pools

    module, cls = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    shm_before = shm_segments()
    workload = getattr(importlib.import_module(module), cls)(workdir)
    try:
        workload.generate(args.seed)
        setup_times = []
        for repeat in range(workload.setup_repeats):
            if repeat:
                workload.discard()
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        workload.references()
        tracer = None
        if args.trace:
            untraced = workload.closed_loop(args.seconds / 2)
            tracer = Tracer()
            workload.instrument(tracer)
            loop = workload.closed_loop(args.seconds / 2, tracer)
            ok = OkCounter()
            ok.attempted = untraced.ok.attempted + loop.ok.attempted
            ok.failed = untraced.ok.failed + loop.ok.failed
        else:
            loop = workload.closed_loop(args.seconds)
            ok = loop.ok
        workload.finish(ok)
        if tracer is not None:
            layers = workload.layer_metrics(tracer)
            tracer.unwrap()
        rss = peak_rss_mb(workload.worker_pid())
        details = workload.details()
        leaks = leaked(shm_before, workdir)
    finally:
        workload.teardown()
        shutdown_pools()
        after = leaked(shm_before, workdir)
        shutil.rmtree(workdir, ignore_errors=True)
    # Children and shared-memory segments are counted after teardown, which
    # must have ended them; batch scratch files before it removed the store.
    leaks["child_processes"] = after["child_processes"]
    leaks["shm_segments"] = after["shm_segments"]

    latencies_ms = [1e3 * value for value in loop.latencies]
    percentile, tail, beyond, windows = windowed_tail(latencies_ms)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(ROOT),
        "ops": len(latencies_ms),
        "setup_s_each": setup_times,
        "op_ms_tail_percentile": percentile,
        "op_ms_tail_beyond": beyond,
        "op_ms_tail_windows": windows,
        "teardown_leaked": leaks,
        "details": details,
    }
    if args.trace:
        untraced_p50 = median(untraced.latencies)
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(layers)
        metrics["trace.overhead_ratio"] = median(loop.latencies) / untraced_p50
        metrics["teardown.leaked"] = float(sum(leaks.values()))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": median(setup_times),
            "op_ms_p50": median(latencies_ms),
            "op_ms_tail": tail,
            "ops_per_s": windowed_rate(loop.ends),
            "peak_rss_mb": rss,
            "ok_ratio": ok.ok_ratio,
        }
        units = END_TO_END
    return {
        "record": record,
        "result": {
            "correct": ok.attempted > 0 and ok.failed == 0,
            "attempted": ok.attempted,
            "failed": ok.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still tears down: SystemExit unwinds through finally.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import_program()
    from perfbench.harness import stop_children

    try:
        out = measure(args)
    except Exception:  # noqa: BLE001 - report and exit non-zero without a result
        traceback.print_exc()
        return 1
    finally:
        # Nothing the run started may outlive it, not even the resource
        # tracker that multiprocessing leaves to exit on its own.
        stop_children()
    print(json.dumps(out["record"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
