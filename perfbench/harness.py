"""Measurement plumbing shared by the workloads: percentiles, an
in-memory span tracer with self-time accounting, Spark job/task
counters, and run metadata.

Nothing here imports pyspark at module level, so the self-tests and the
online workload run without a JVM.
"""
from __future__ import annotations

import math
import os
import platform
import resource
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 ≤ q ≤ 100).

    Same rule as ``numpy.percentile(..., method="linear")``: rank
    ``(n - 1) * q / 100`` between the two nearest order statistics.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    xs = sorted(values)
    rank = (len(xs) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th
    percentile rank — the guide's "at least ten samples beyond it"."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def peak_rss_mb() -> float:
    """Peak resident set size of this Python process (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Tracing


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the part of it its children cover."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        inside = [(max(lo, s.start), min(hi, s.end))
                  for lo, hi in kids.get(s.sid, []) if hi > s.start and lo < s.end]
        out[s.sid] = s.duration - _covered(inside)
    return out


class Tracer:
    """Records one span per call the benchmark makes into a layer.

    Spans nest through an explicit stack (the benchmark is one client
    in a closed loop, so one thread). ``op`` tags every span of one
    operation: measured ones count from 0, warm-up ones are negative,
    and other set-up spans carry ``None``.
    """

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), name,
                 self._stack[-1] if self._stack else None, self.op,
                 time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.sid)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def self_by_name(self, *, ops_only: bool = False) -> dict[str, list[float]]:
        """Span name → self time of every span with that name."""
        st = self_times(self.spans)
        out: dict[str, list[float]] = {}
        for s in self.spans:
            if ops_only and (s.op is None or s.op < 0):
                continue
            out.setdefault(s.name, []).append(st[s.sid])
        return out

    def dump(self) -> list[dict]:
        st = self_times(self.spans)
        return [{"id": s.sid, "name": s.name, "parent": s.parent, "op": s.op,
                 "start": s.start, "end": s.end, "self": st[s.sid]}
                for s in self.spans]


class NullTracer(Tracer):
    """Tracing off: same interface, records nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield None


# --------------------------------------------------------------------------
# Spark counters


class SparkCounter:
    """Counts Spark jobs and tasks an operation launches.

    Each operation runs under its own job group; the status tracker maps
    the group back to its jobs and their stages' task counts.
    """

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self._n = 0

    @contextmanager
    def group(self, label: str):
        self._n += 1
        gid = f"perfbench-{label}-{self._n}"
        self.sc.setJobGroup(gid, label)
        out = {"jobs": 0, "tasks": 0}
        try:
            yield out
        finally:
            self.sc.setJobGroup("perfbench-idle", "idle")
            tracker = self.sc.statusTracker()
            jobs = tracker.getJobIdsForGroup(gid)
            out["jobs"] = len(jobs)
            for jid in jobs:
                info = tracker.getJobInfo(jid)
                for sid in (info.stageIds if info else []):
                    st = tracker.getStageInfo(sid)
                    out["tasks"] += st.numTasks if st else 0

    def jvm_heap_peak_mb(self) -> float:
        """Sum of the JVM heap pools' peak usage."""
        mf = self.sc._jvm.java.lang.management.ManagementFactory
        heap = mf.getMemoryPoolMXBeans()
        total = 0
        for pool in heap:
            if str(pool.getType()) == "Heap memory":
                total += pool.getPeakUsage().getUsed()
        return total / 2**20


# --------------------------------------------------------------------------
# Run metadata


def git_sha(root: Path) -> str:
    """HEAD of ``root`` if it is a git work tree, else ``"unknown"``.

    The search for ``.git`` stops at ``root`` so nothing above it is read.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(root: Path, seed: int, spark=None) -> dict:
    import pandas
    import pyarrow
    meta = {
        "git_sha": git_sha(root),
        "host": socket.gethostname(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "seed": seed,
        "argv": sys.argv[1:],
    }
    try:
        import pyspark
        meta["pyspark"] = pyspark.__version__
    except ImportError:
        meta["pyspark"] = None
    if spark is not None:
        sc = spark.sparkContext
        meta["spark_master"] = sc.master
        meta["spark_default_parallelism"] = sc.defaultParallelism
        meta["spark_driver_memory"] = sc.getConf().get("spark.driver.memory", "")
    return meta
