"""Host calibration: the benchmark's time base.

This VM's CPU speed drifts by up to ~1.5x for seconds to minutes at a
time (noisy neighbours, frequency steps), and every CPU-bound duration
follows it.  A *calibration slice* is a fixed amount of interpreter
work — integer arithmetic, dict/list/str allocation, objects + heap +
generator, small and large numpy operations — timed on the wall clock.
Slices bracket every measurement *segment*; the segment's host factor is

    h = mean(slice before, slice after) / CALIB_REF_MS

and a *host-normalised* duration is ``d / h``: it reads as milliseconds
on the reference host (the one on which ``CALIB_REF_MS`` was recorded).
Raw values and ``h`` are always stored beside the reported ones, so
either time base can be recomputed from ``out/results.json``.

Whether a workload reports host-normalised or wall time is a fixed
property of the workload (``catalog.WORKLOADS[name]["time_base"]``), not
a run-time option.  Generator-determined time (an open-loop schedule)
is never scaled.
"""

from __future__ import annotations

import gc
import heapq
import os
import threading
import time
from typing import List, Optional

import numpy as np

#: Wall milliseconds one slice took on the reference host (this VM in
#: its usual regime, between the segments of a workload, 2026-10-01).
#: Fixed at first recording: changing it rescales every host-normalised
#: metric.
CALIB_REF_MS = 10.0

#: The same for a micro-slice (see :func:`micro_slice`).
MICRO_REF_MS = 0.31

#: A segment whose bracketing slices differ by more than this share of
#: their mean straddles a speed change and is not trusted.
SLICE_MISMATCH = 0.15

#: If more than this share of segments is mismatched the host was too
#: unsteady for the rule to mean anything: every segment is kept and the
#: share is reported (``host.segments_dropped_share``) for the reader.
MAX_DROPPED_SHARE = 0.30

_BIG = np.arange(1 << 17, dtype=np.float64)


class _Node:
    __slots__ = ("key", "items", "index")

    def __init__(self, key: int):
        self.key = key
        self.items = [key]
        self.index = {key: key}


def _ticks(n: int):
    for i in range(n):
        yield float(i)


def _kernel() -> float:
    """The fixed work of one slice (the result defeats dead-code elision)."""
    acc = 7
    for _ in range(18000):
        acc = (acc * 6364136223846793005 + 1442695040888963407) % (1 << 64)
    table = {}
    for i in range(6000):
        table[i] = (i, str(i))
    total = float(sum(len(v[1]) for v in table.values()))
    total += len([x * 2 for x in range(6000)])
    heap: List = []
    for node in [_Node(i) for i in range(3000)]:
        heapq.heappush(heap, (-(node.key * 7919 % 1013), node.key))
    for value in _ticks(3000):
        total += value
    while heap:
        total += heapq.heappop(heap)[1]
    small = np.arange(256, dtype=np.float64)
    for i in range(80):
        scaled = small * 1.5 + i
        total += float(scaled.sum()) + float(np.where(scaled > 100, scaled, 0.0)[3])
    total += float((_BIG * 1.0001).sum())
    return total + (acc & 1)


def calibration_slice() -> float:
    """Run one slice; return its wall time in milliseconds.

    The collector is off meanwhile: the slice allocates enough to
    trigger it, and would then be charged for collecting the workload's
    cyclic garbage (tens of milliseconds after a window of requests).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return (time.perf_counter() - start) * 1e3
    finally:
        if was_enabled:
            gc.enable()


def _nothing() -> None:
    pass


def micro_slice() -> float:
    """A ~0.3 ms slice an open-loop generator runs *inside* its window.

    A mostly idle process runs its short bursts at another effective
    speed than sustained work (idle states, ramp-up), so slices taken
    between windows do not track request latency; these do (see
    NOISE.md).  Half interpreter work, half a thread start and join,
    like the requests it stands in for.  Too short to allocate its way
    into a collection.
    """
    start = time.perf_counter()
    acc = 7
    for _ in range(500):
        acc = (acc * 6364136223846793005 + 1442695040888963407) % (1 << 64)
    table = {}
    for i in range(100):
        table[i] = (i, str(i))
    acc += sum(len(v[1]) for v in table.values())
    thread = threading.Thread(target=_nothing)
    thread.start()
    thread.join()
    return (time.perf_counter() - start) * 1e3


def host_factor(before_ms: float, after_ms: float) -> float:
    return (before_ms + after_ms) / 2.0 / CALIB_REF_MS


def mismatched(before_ms: float, after_ms: float) -> bool:
    mean = (before_ms + after_ms) / 2.0
    return abs(before_ms - after_ms) > SLICE_MISMATCH * mean


class Calibrator:
    """Takes the slices that bracket segments and remembers every one.

    Consecutive segments share a slice: the one closing segment *i* is
    the one opening segment *i + 1*.
    """

    def __init__(self):
        self.slices_ms: List[float] = []

    def slice(self) -> float:
        value = calibration_slice()
        self.slices_ms.append(value)
        return value

    def before(self) -> float:
        """The slice opening a segment: the latest one taken."""
        return self.slices_ms[-1] if self.slices_ms else self.slice()


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (and the workers it forks later) to one allowed
    CPU; None where unsupported.

    A thread-pool workload bounces between cores otherwise, and every
    cross-core GIL handoff costs a wakeup: unpinned, the service's
    closed-loop rate is bimodal (~750 vs ~1700 req/s in one process).
    A process pool spread over two virtual CPUs is as fast as the
    *other* CPU happens to be free: unpinned, ``proc-pool`` ran 12%
    faster in three runs of ten, which no single-CPU calibration can
    see.  On one CPU every workload is the sum of its CPU work, which
    the slices track.  The highest-numbered allowed CPU is used because
    interrupts and the benchmark's own parent process tend to sit on
    CPU 0.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[-1]})
    except OSError:
        return None
    return allowed[-1]
