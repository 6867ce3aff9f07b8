"""Measurement helpers shared by every workload.

Nothing here imports :mod:`repro`: these are the benchmark's own statistics,
span recorder, correctness accounting, environment record and leak scan, so
they can be unit-tested on plain numbers (``perfbench/tests``).
"""

from __future__ import annotations

import atexit
import gc
import glob
import importlib.util
import math
import os
import platform
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The tail percentile is the highest one with at least this many samples
#: strictly beyond it (choosing-metrics rule).
TAIL_MIN_BEYOND = 10
#: A run with enough ops is cut into up to this many equal windows of at
#: least ``WINDOW_MIN_OPS`` ops; the tail is taken per window and the median
#: reported, so one burst of host noise moves one window, not the result.
TAIL_WINDOWS = 8
WINDOW_MIN_OPS = 50


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence; ``0.0`` for an empty one."""
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(
    samples: Sequence[float], min_beyond: int = TAIL_MIN_BEYOND
) -> Tuple[float, float, int]:
    """``(percentile, value, beyond)`` of the highest well-sampled tail.

    With ``n`` sorted samples the nearest-rank percentile ``100 k / n`` is
    the ``k``-th smallest sample, and ``n - k`` samples lie beyond it; the
    highest percentile leaving ``min_beyond`` samples beyond is therefore
    ``k = n - min_beyond``.  With too few samples for any such percentile the
    maximum is returned as percentile 100 with nothing beyond it, so the
    caller can see the tail is unresolved.
    """
    if not samples:
        raise ValueError("tail_percentile needs at least one sample")
    ordered = sorted(samples)
    n = len(ordered)
    k = n - min_beyond
    if k < 1:
        return 100.0, float(ordered[-1]), 0
    return 100.0 * k / n, float(ordered[k - 1]), n - k


def window_bounds(n: int) -> List[Tuple[int, int]]:
    """``[lo, hi)`` of up to ``TAIL_WINDOWS`` equal consecutive windows of ``n`` ops.

    The at most ``windows - 1`` ops left over at the end join no window.
    """
    count = max(1, min(TAIL_WINDOWS, n // WINDOW_MIN_OPS))
    size = n // count
    return [(index * size, (index + 1) * size) for index in range(count)]


def windowed_tail(samples: Sequence[float]) -> Tuple[float, float, int, int]:
    """``(percentile, value, beyond, windows)``: median of per-window tails.

    ``samples`` are in the order the ops completed.  Every window has the
    same size, so the percentile and the count beyond it are the same in
    each.
    """
    bounds = window_bounds(len(samples))
    tails = [tail_percentile(samples[lo:hi]) for lo, hi in bounds]
    percentile, _, beyond = tails[0]
    return percentile, median([tail[1] for tail in tails]), beyond, len(bounds)


def windowed_rate(ends: Sequence[float]) -> float:
    """Median over the same windows of ops completed per second.

    ``ends[i]`` is the timed wall clock, in seconds, at which op ``i``
    completed; a window's rate is its op count over the time from the end
    of the previous window to the end of its last op.
    """
    rates = []
    for lo, hi in window_bounds(len(ends)):
        start = ends[lo - 1] if lo else 0.0
        rates.append((hi - lo) / (ends[hi - 1] - start))
    return median(rates)


# ----------------------------------------------------------------------
# Correctness accounting
# ----------------------------------------------------------------------
class OkCounter:
    """Ops attempted versus ops that completed and passed their gate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def fail_all(self) -> None:
        """A run-level gate failed: no op of the run counts as correct."""
        self.failed = self.attempted

    @property
    def ok_ratio(self) -> float:
        if self.attempted == 0:
            return 0.0
        return (self.attempted - self.failed) / self.attempted


def close_to(actual, expected, rel: float = 1e-12) -> bool:
    """Element-wise ``|a - e| <= rel * max(|e|)`` over flat sequences.

    The scale is the largest reference magnitude, so a slack that happens to
    sit near zero is held to the same absolute precision as its neighbours.
    """
    actual = [float(x) for x in actual]
    expected = [float(x) for x in expected]
    if len(actual) != len(expected):
        return False
    if not all(math.isfinite(x) for x in actual):
        return False
    scale = max((abs(x) for x in expected), default=0.0)
    return all(abs(a - e) <= rel * scale for a, e in zip(actual, expected))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cursor = lo
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(index, []), span.start, span.end)
        for index, span in enumerate(spans)
    ]


class Tracer:
    """In-memory span recorder for one thread of calls.

    Spans are recorded around calls the benchmark makes, or around public
    functions it wraps with :meth:`wrap`; the program itself is not edited.
    ``op`` tags every span with the closed-loop op that caused it.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[Tuple[int, str], float] = {}
        self.op = 0
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to the per-op counter ``name``."""
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        after: Optional[Callable[["Tracer", object], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a spanned wrapper until :meth:`unwrap`.

        ``after(tracer, result)`` runs once the call returns, inside the
        span's op, to record counts taken at the same boundary.
        """
        original = owner.__dict__[attribute]
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(tracer, result)
            return result

        setattr(owner, attribute, wrapper)
        self._restore.append(lambda: setattr(owner, attribute, original))

    def unwrap(self) -> None:
        while self._restore:
            self._restore.pop()()

    def by_op(self, name: str, *, self_time: bool = False) -> Dict[int, float]:
        """Total seconds of spans called ``name``, per op that has one."""
        durations = (
            self_times(self.spans)
            if self_time
            else [span.duration for span in self.spans]
        )
        totals: Dict[int, float] = {}
        for span, duration in zip(self.spans, durations):
            if span.name == name:
                totals[span.op] = totals.get(span.op, 0.0) + duration
        return totals

    def per_op_counts(self, name: str) -> List[float]:
        return [value for (op, key), value in sorted(self.counts.items()) if key == name]

    def p50_ms(self, name: str, *, self_time: bool = False) -> float:
        """Median per-op milliseconds in spans ``name`` (0 when never called)."""
        return 1e3 * median(list(self.by_op(name, self_time=self_time).values()))

    def residual_p50_ms(self, name: str, minus: Sequence[str]) -> float:
        """Median over ops of ``name``'s time minus the named sibling spans.

        For a layer whose inner call cannot be wrapped (it is imported inside
        the outer function), the inner call is timed separately in the same
        op and subtracted here.
        """
        inner = [self.by_op(other) for other in minus]
        return 1e3 * median(
            [
                total - sum(times.get(op, 0.0) for times in inner)
                for op, total in self.by_op(name).items()
            ]
        )


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
@dataclass
class LoopResult:
    latencies: List[float]  # seconds, one per completed op, in completion order
    ends: List[float]  # timed wall clock (seconds) at each op's completion
    ok: OkCounter


class Workload:
    """One closed-loop workload: a fixed composite op, by default one caller.

    The runner times :meth:`setup` (repeated ``setup_repeats`` times, with
    :meth:`discard` in between) and each :meth:`op`; :meth:`generate`,
    :meth:`references`, :meth:`prepare` and :meth:`check` run outside every
    timed window.
    """

    setup_repeats = 3

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def generate(self, seed: int) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def discard(self) -> None:
        """Release what :meth:`setup` built before it is repeated."""

    def references(self) -> None:
        """Compute the gates' references (untimed)."""

    def prepare(self, k: int, tracer: Optional[Tracer] = None):
        """Inputs of op ``k`` (untimed)."""
        return k

    def op(self, arg, tracer: Optional[Tracer] = None):
        raise NotImplementedError

    def check(self, arg, result) -> bool:
        raise NotImplementedError

    def finish(self, ok: OkCounter) -> None:
        """Run-level gates after the timed loop."""

    def instrument(self, tracer: Tracer) -> None:
        """Wrap the layer functions the traced run times."""

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        return {}

    def worker_pid(self) -> int:
        """The process whose peak RSS is reported."""
        return os.getpid()

    def details(self) -> Dict[str, object]:
        """Facts recorded beside the metrics (backends used, sizes)."""
        return {}

    def teardown(self) -> None:
        pass

    def closed_loop(self, seconds: float, tracer: Optional[Tracer] = None) -> LoopResult:
        latencies: List[float] = []
        ends: List[float] = []
        ok = OkCounter()
        deadline = time.perf_counter() + seconds
        k = 0
        while time.perf_counter() < deadline:
            if tracer is not None:
                tracer.op = k
            arg = self.prepare(k, tracer)
            t0 = time.perf_counter()
            result = self.op(arg, tracer)
            latencies.append(time.perf_counter() - t0)
            # Only the ops are timed wall: input generation and gates are not.
            ends.append((ends[-1] if ends else 0.0) + latencies[-1])
            ok.record(self.check(arg, result))
            k += 1
        return LoopResult(latencies, ends, ok)


# ----------------------------------------------------------------------
# Process facts: memory, environment, leaks
# ----------------------------------------------------------------------
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """High-water resident set (``VmHWM``) of ``pid`` (default: this process)."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def _git_sha(root: str) -> str:
    """The checkout's commit from ``.git`` files, or ``"unknown"``."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, "r", encoding="ascii") as handle:
            head = handle.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(root, ".git", ref), "r", encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(root, ".git", "packed-refs"), "r", encoding="ascii") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> Dict[str, object]:
    """Facts a reader needs to compare two runs."""
    import numpy

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
    }


def child_pids() -> List[int]:
    """Live (not zombie) processes whose parent is this process."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # State and ppid follow the parenthesised command name.
        fields = stat[stat.rfind(b")") + 2 :].split()
        if len(fields) > 1 and int(fields[1]) == os.getpid() and fields[0] != b"Z":
            found.append(int(entry))
    return found


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def leaked(shm_before: set, search_dir: str) -> Dict[str, int]:
    """Child processes, new ``/dev/shm`` segments and batch scratch files left."""
    return {
        "child_processes": len(child_pids()),
        "shm_segments": len(shm_segments() - shm_before),
        "batch_files": len(
            glob.glob(os.path.join(search_dir, "**", ".batch-*.bin"), recursive=True)
        ),
    }


def stop_children(timeout: float = 10.0) -> int:
    """Stop every helper process this process started and wait for each.

    The program's exit handlers (worker pools, shared-memory blocks and
    their finalizers) are run now rather than at interpreter exit, so that
    nothing registers a segment afterwards; then multiprocessing's resource
    tracker, which would otherwise outlive this process while it cleans up,
    is stopped and waited for.  Any other child still alive is terminated
    (killed after ``timeout`` seconds) and reaped.  Returns how many such
    other children there were.
    """
    gc.collect()
    atexit._run_exitfuncs()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    stragglers = child_pids()
    for pid in stragglers:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    for pid in stragglers:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)
    return len(stragglers)
