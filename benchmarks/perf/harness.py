"""Shared measurement machinery: segments, set-up clock, e2e reduction.

A workload produces :class:`Segment` records (at most about a second of
ops each, bracketed by calibration slices); :func:`end_to_end` reduces
the kept segments to the ten end-to-end metrics in the workload's time
base.  Raw per-segment values and host factors travel with the result
so either time base can be recomputed later (``noise.py`` does).
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Any, Dict, Iterable, List, Sequence

from calibrate import (MAX_DROPPED_SHARE, MICRO_REF_MS, Calibrator,
                       host_factor, mismatched)

#: Sends issued later than this after their due time count as late.
LATE_S = 1e-3


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sequence (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(values: Sequence[float]) -> float:
    """``statistics.median``, but 0 for an empty sequence."""
    return statistics.median(values) if values else 0.0


class Segment:
    """One bracketed stretch of ops.

    ``lat_s`` holds one wall latency per *completed* op; ``ok`` counts
    the ops whose output verified, ``attempted`` everything sent.
    ``busy_s`` is the wall time the ops occupied (the throughput
    denominator: verification and the precise reference are outside
    it), ``cpu_s`` the CPU the process and its workers spent on them.
    ``norm`` is the segment's fluid/precise ratio, ``accuracy`` the mean
    accuracy of its ops.
    """

    __slots__ = ("lat_s", "ok_lat_s", "attempted", "ok", "busy_s", "cpu_s",
                 "norm", "accuracy", "sends", "late", "before_ms",
                 "after_ms", "micro_ms", "scheduled", "extra")

    def __init__(self):
        self.lat_s: List[float] = []
        #: latencies of verified ops only (what slo_share counts).
        self.ok_lat_s: List[float] = []
        self.attempted = 0
        self.ok = 0
        self.busy_s = 0.0
        self.cpu_s = 0.0
        self.norm = 0.0
        self.accuracy = 1.0
        self.sends = 0
        self.late = 0
        self.before_ms = 0.0
        self.after_ms = 0.0
        #: micro-slices taken inside the segment (open loop only); when
        #: present they, not the bracketing slices, give the host factor.
        self.micro_ms: List[float] = []
        #: True when ``busy_s`` is set by a generator's schedule: such
        #: time is never host-scaled.
        self.scheduled = False
        self.extra: Dict[str, Any] = {}

    @property
    def h(self) -> float:
        if self.micro_ms:
            return median(self.micro_ms) / MICRO_REF_MS
        return host_factor(self.before_ms, self.after_ms)

    def record(self, latency_s: float, ok: bool) -> None:
        self.attempted += 1
        self.lat_s.append(latency_s)
        if ok:
            self.ok += 1
            self.ok_lat_s.append(latency_s)

    def to_json(self) -> Dict[str, Any]:
        return {"before_ms": self.before_ms, "after_ms": self.after_ms,
                "micro_ms_p50": median(self.micro_ms), "h": self.h,
                "attempted": self.attempted, "ok": self.ok,
                "busy_s": self.busy_s, "cpu_s": self.cpu_s,
                "norm": self.norm, "accuracy": self.accuracy,
                "sends": self.sends, "late": self.late,
                "lat_p50_s": median(self.lat_s),
                "lat_p90_s": percentile(self.lat_s, 0.9)}


def run_segments(workload, calibrator: Calibrator, seconds: float,
                 modes: Sequence[tuple]) -> List[List[Segment]]:
    """Run bracketed segments for ``seconds`` of wall time, taking the
    ``(recorder, telemetry)`` pairs of ``modes`` in turn (so that host
    drift hits every mode alike); returns one segment list per mode, at
    least two segments each."""
    buckets: List[List[Segment]] = [[] for _ in modes]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(buckets[-1]) < 2:
        for bucket, (recorder, telemetry) in zip(buckets, modes):
            workload.between_segments()
            before = calibrator.before()
            segment = workload.run_segment(recorder, telemetry)
            segment.before_ms = before
            segment.after_ms = calibrator.slice()
            bucket.append(segment)
    return buckets


def keep_segments(segments: List[Segment]) -> "tuple[List[Segment], float]":
    """Apply the slice-mismatch rule; returns (kept, dropped share)."""
    kept = [s for s in segments
            if s.micro_ms or not mismatched(s.before_ms, s.after_ms)]
    share = 1.0 - len(kept) / len(segments) if segments else 0.0
    if share > MAX_DROPPED_SHARE or not kept:
        return list(segments), share
    return kept, share


def end_to_end(segments: List[Segment], time_base: str,
               slo_ms: float) -> Dict[str, float]:
    """Reduce kept segments to the per-run end-to-end metrics (all but
    ``setup_s`` and ``peak_rss_mb``, which the caller adds)."""
    def factor(segment: Segment) -> float:
        return segment.h if time_base == "host" else 1.0

    attempted = sum(s.attempted for s in segments)
    ok = sum(s.ok for s in segments)
    rates = [s.ok / (s.busy_s / (1.0 if s.scheduled else factor(s)))
             for s in segments if s.busy_s > 0]
    latencies_ms: List[float] = []
    slo_shares: List[float] = []
    cpu_ms: List[float] = []
    for s in segments:
        f = factor(s)
        latencies_ms.extend(lat / f * 1e3 for lat in s.lat_s)
        within = sum(1 for lat in s.ok_lat_s if lat / f * 1e3 <= slo_ms)
        slo_shares.append(safe_div(within, s.attempted))
        if s.ok:
            cpu_ms.append(s.cpu_s / f / s.ok * 1e3)
    weights = [max(1, s.attempted) for s in segments]
    accuracy = (sum(s.accuracy * w for s, w in zip(segments, weights))
                / sum(weights)) if segments else 0.0
    # Shares and rates are medians over segments: a host stall of tens
    # of milliseconds ruins the one segment it falls in, not the run.
    return {
        "ops_per_s": median(rates),
        "op_latency_p50_ms": median(latencies_ms),
        "slo_share": median(slo_shares),
        "ok_share": ok / attempted if attempted else 0.0,
        "norm_latency": median([s.norm for s in segments]),
        "accuracy": accuracy,
        "cpu_ms_per_op": median(cpu_ms),
        "on_time_share": median([1.0 - safe_div(s.late, s.sends)
                                 for s in segments]),
        "_attempted": attempted,
        "_failed": attempted - ok,
        "_n_latencies": len(latencies_ms),
    }


class SetupClock:
    """Times set-up in phases, each host-normalised by the slices
    around it, from the moment the parent spawned this process."""

    def __init__(self, spawned_at: float, calibrator: Calibrator):
        self.calibrator = calibrator
        self.phases: List[Dict[str, float]] = []
        # Interpreter start-up and the numpy import happened before the
        # first slice could run; they take that slice's factor.
        now = time.perf_counter()
        first = calibrator.slice()
        self._last_slice = first
        self._mark_at = time.perf_counter()
        self._add("interpreter", now - spawned_at, first, first)

    def _add(self, name: str, wall_s: float, before: float,
             after: float) -> None:
        h = host_factor(before, after)
        self.phases.append({"phase": name, "wall_s": wall_s, "h": h,
                            "norm_s": wall_s / h})

    def mark(self, name: str) -> None:
        """Close the phase that started at the previous mark."""
        wall = time.perf_counter() - self._mark_at
        after = self.calibrator.slice()
        self._add(name, wall, self._last_slice, after)
        self._last_slice = after
        self._mark_at = time.perf_counter()

    @property
    def setup_s(self) -> float:
        return sum(p["norm_s"] for p in self.phases)

    @property
    def wall_s(self) -> float:
        return sum(p["wall_s"] for p in self.phases)


# -- process accounting ------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _stat_fields(pid) -> List[bytes]:
    """Fields of ``/proc/<pid>/stat`` after the command name (state is
    [0], parent pid [1], utime [11], stime [12]); empty if unreadable."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return []


def pid_cpu_s(pid: int) -> float:
    """utime + stime of another live process, seconds (0 if unreadable)."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _TICK if fields else 0.0


def live_children() -> List[int]:
    """PIDs of this process's children that are not zombies (Linux
    ``/proc``; empty elsewhere)."""
    me = str(os.getpid()).encode()
    try:
        entries = [e for e in os.listdir("/proc") if e.isdigit()]
    except OSError:
        return []
    found = []
    for entry in entries:
        fields = _stat_fields(entry)
        if fields and fields[1] == me and fields[0] != b"Z":
            found.append(int(entry))
    return found


def pid_peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(parts: Iterable[Any]) -> str:
    """Stable short digest of a workload's generated inputs."""
    import hashlib

    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode("utf-8"))
        sha.update(b"\x00")
    return sha.hexdigest()[:16]


def safe_div(a: float, b: float, default: float = 0.0) -> float:
    return a / b if b else default


def share_of(recorder, name: str, parent: str = "op") -> float:
    """Self time of span ``name`` as a share of all ``parent`` time."""
    total = recorder.total_times().get(parent, 0.0)
    return safe_div(recorder.self_times().get(name, 0.0), total)


class Workload:
    """Interface the four workloads implement (see each ``wl_*.py``)."""

    name = "workload"

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.input_digest = ""

    def setup(self, clock: SetupClock) -> None:
        raise NotImplementedError

    def between_segments(self) -> None:
        """Unmeasured work before a segment's opening slice."""

    def run_segment(self, recorder, telemetry) -> Segment:
        raise NotImplementedError

    def layer_metrics(self, segments: List[Segment], recorder,
                      telemetry) -> Dict[str, float]:
        """Per-layer metrics this workload derives from its traced run."""
        return {}

    def extras(self, budget_s: float) -> Dict[str, float]:
        """Extra experiments only this workload runs in a traced run."""
        return {}

    def worker_pids(self) -> List[int]:
        return []

    def teardown(self) -> None:
        pass
