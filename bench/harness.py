"""Timing, tracing and statistics shared by the benchmark workloads.

Nothing here imports mcgraph, so ``bootstrap`` can refuse to run before the
package is imported when the checkout holds no source tree.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from itertools import accumulate
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent


def bootstrap():
    """Import mcgraph from this checkout's ``src`` tree, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mcgraph" / "__init__.py").is_file():
        raise SystemExit(f"bench: no mcgraph source tree under {src}")
    sys.path.insert(0, str(src))
    import mcgraph

    if Path(mcgraph.__file__).resolve().parent != (src / "mcgraph").resolve():
        raise SystemExit(f"bench: imported mcgraph from {mcgraph.__file__}")
    return mcgraph


# -- host speed ----------------------------------------------------------------

PROBE_ITERATIONS = 6000
PROBE_REFERENCE_S = 0.002  # the probe's duration at the reference speed
PROBE_INTERVAL_S = 0.05
PROBE_MIN_SAMPLES = 4


def _probe_loop() -> int:
    table: dict[int, int] = {}
    seen: set[int] = set()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        k = (i * 7919) & 511
        table[k] = table.get(k, 0) + 1
        if k & 1:
            seen.add(k)
        acc += len(seen) ^ i
    return acc


class SpeedProbe:
    """Samples the host's speed with a fixed pure-Python loop on SIGALRM.

    Shared hosts drift in core speed by a quarter and more over seconds,
    which moves the probe and the workload alike.  ``seconds`` reports an
    interval at the reference speed: its duration less the probe time inside
    it, scaled by PROBE_REFERENCE_S over the mean duration of the probes
    inside it, or of the PROBE_MIN_SAMPLES nearest when it holds fewer.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_loop()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._cumulative = [0.0, *accumulate(self.durations)]

    def seconds(self, start: float, end: float) -> float:
        return self.busy(start, end) * self.factor(start, end)

    def busy(self, start: float, end: float) -> float:
        """The interval's duration less the probe time inside it."""
        inside = self._probe_time(bisect_left(self.starts, start), bisect_right(self.starts, end))
        return end - start - inside

    def factor(self, start: float, end: float) -> float:
        """Reference probe time over the mean probe time at the interval."""
        lo, hi = bisect_left(self.starts, start), bisect_right(self.starts, end)
        total = len(self.starts)
        while hi - lo < PROBE_MIN_SAMPLES and hi - lo < total:
            lo = max(lo - 1, 0)
            if hi - lo < PROBE_MIN_SAMPLES:
                hi = min(hi + 1, total)
        if lo == hi:
            return 1.0
        return PROBE_REFERENCE_S * (hi - lo) / self._probe_time(lo, hi)

    def _probe_time(self, lo: int, hi: int) -> float:
        return self._cumulative[hi] - self._cumulative[lo]

    def relative_speed(self) -> float | None:
        """Reference probe time over the median measured one (1.0 = reference)."""
        return PROBE_REFERENCE_S / statistics.median(self.durations) if self.durations else None


class RawClock:
    """Plain durations, for runs without a probe."""

    @staticmethod
    def seconds(start: float, end: float) -> float:
        return end - start

    busy = seconds

    @staticmethod
    def factor(start: float, end: float) -> float:
        return 1.0


# -- tracing -----------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    pass_no: int  # -1 for set-up


class Tracer:
    """Spans around the benchmark's own calls into mcgraph's layers.

    When disabled, ``call`` is a plain call and ``count`` does nothing, so a
    timed run pays no tracing cost.  Spans stay in memory until ``dump``.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.op = "setup"
        self.pass_no = -1
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        record = Span(name, time.perf_counter(), 0.0, parent, self.op, self.pass_no)
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + amount

    def layer_totals(self, passes: int, clock=RawClock) -> dict[str, dict[str, float]]:
        """calls / busy_s / self_s per span name: set-up once plus the mean
        traced pass.  Self time is the span's duration minus its children's,
        scaled by the span's own speed factor."""
        busy = [clock.busy(s.start, s.end) for s in self.spans]
        child_time = [0.0] * len(self.spans)
        for s, dur in zip(self.spans, busy):
            if s.parent is not None:
                child_time[s.parent] += dur
        totals: dict[str, dict[str, float]] = {}
        for s, dur, kids in zip(self.spans, busy, child_time):
            weight = 1.0 if s.pass_no < 0 else 1.0 / passes
            factor = weight * clock.factor(s.start, s.end)
            row = totals.setdefault(s.name, {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += weight
            row["busy_s"] += factor * dur
            row["self_s"] += factor * (dur - kids)
        return totals

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s.__dict__}) + "\n")


# -- ops and passes ----------------------------------------------------------


@dataclass
class OpReport:
    """What one op found: failed checks as (tag, message), and exact calls."""

    problems: list[tuple[str, str]] = field(default_factory=list)
    exact_calls: int = 0
    exact_decided: int = 0

    def fail(self, tag: str, message: str) -> None:
        self.problems.append((tag, message))


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[Tracer, OpReport], None]


@dataclass
class OpResult:
    name: str
    start: float
    end: float
    report: OpReport


def run_op(tracer: Tracer, op: Op) -> OpResult:
    tracer.op = op.name
    report = OpReport()
    start = time.perf_counter()
    with tracer.span("bench.op"):
        try:
            op.run(tracer, report)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            report.fail("exception", f"{type(exc).__name__}: {exc}")
    return OpResult(op.name, start, time.perf_counter(), report)


@dataclass
class Pass:
    start: float
    end: float
    results: list[OpResult]


def run_pass(tracer: Tracer, ops: list[Op], pass_no: int, traced: bool) -> Pass:
    tracer.enabled, tracer.pass_no = traced, pass_no
    start = time.perf_counter()
    results = [run_op(tracer, op) for op in ops]
    tracer.enabled = False
    return Pass(start, time.perf_counter(), results)


def tally(results: list[OpResult], known: dict) -> tuple[list[OpResult], list[OpResult]]:
    """(failed ops, failed ops not wholly explained by a known defect)."""
    failed = [r for r in results if r.report.problems]
    unexplained = [
        r for r in failed if any((r.name, tag) not in known for tag, _ in r.report.problems)
    ]
    return failed, unexplained


# -- statistics and run facts --------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float | None:
    """The 90th percentile, only when at least ten samples lie beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR as a share of the median)."""
    mid = statistics.median(values)
    if len(values) < 2:
        return mid, mid, mid, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, q1, q3, (q3 - q1) / mid if mid else float("inf")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_facts() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "MCGRAPH_BUDGET": os.environ.get("MCGRAPH_BUDGET"),
    }
