"""Three continuous applications for the streaming-pipeline layer.

Each app is a 3-stage :class:`~repro.stream.pipeline.Pipeline` over a
deterministic synthetic item stream, chosen so that dropping or missing
an item produces a *measurable* accuracy loss against the serial
reference (the fig6-style quality axis):

``logagg``
    Incremental log/metrics aggregation: parse structured log records,
    fold them into per-service EMA latency estimates (order-sensitive,
    so out-of-order staleness shows up in the numbers), and emit a
    rolling summary per record.  Every fourth record is must-deliver,
    so at ``k > 0`` up to ``k`` fill-in records per edge may be
    skipped — measurably perturbing the EMAs.

``topk``
    Top-k re-ranking over drifting document scores: score updates feed
    an exponentially decayed score table and each item emits the
    current top-3 ranking.  Sheddable except every 5th item, so
    backpressure shedding is part of the measured behaviour.

``frames``
    Video-frame edge detection reusing
    :mod:`repro.workloads.images`: per-seq synthetic frames are
    box-blurred and reduced to an edge-pixel count.  Keyframes (every
    4th) are must-deliver; a small queue capacity makes shedding the
    norm under k > 0.

All stage functions and must-deliver predicates are module-level (so
they pickle for the process backend), stage functions are pure in their
``value`` argument, and every app supplies a
``metric(outputs, reference) -> error in [0, 1]`` where a missing item
counts as fully wrong — so ``accuracy = 1 - error`` is comparable
across k and backends.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional

from .pipeline import Pipeline, Stage

_SERVICES = ("auth", "cart", "search", "billing")


class StreamApp(NamedTuple):
    """One streaming benchmark app: a pipeline factory plus its meter."""

    name: str
    stages: "tuple[Stage, ...]"
    make_items: Callable[[int], list]
    metric: Callable[[Dict[int, Any], Dict[int, Any]], float]
    must: Optional[Callable[[int], bool]]
    capacity: Optional[int]
    interarrival: float

    def pipeline(self, *, k: float = 0, window: int = 32,
                 capacity: Optional[int] = None, **kwargs) -> Pipeline:
        return Pipeline(self.stages, k=k, window=window,
                        capacity=self.capacity if capacity is None
                        else capacity,
                        must=self.must, interarrival=self.interarrival,
                        name=self.name, **kwargs)

    def error(self, outputs: Dict[int, Any], n_items: int) -> float:
        """Error in [0, 1] against the serial reference on ``n_items``."""
        reference = self.pipeline().run_serial(self.make_items(n_items))
        return self.metric(outputs, reference)


def every_4th(seq: int) -> bool:
    """Must-deliver predicate of ``logagg`` and ``frames``."""
    return seq % 4 == 0


def every_5th(seq: int) -> bool:
    """Must-deliver predicate of ``topk``."""
    return seq % 5 == 0


def _coverage_error(outputs: Dict[int, Any], reference: Dict[int, Any],
                    item_error: Callable[[Any, Any], float]) -> float:
    """Mean per-item error; an item missing from ``outputs`` scores 1."""
    if not reference:
        return 0.0
    total = 0.0
    for seq, expected in reference.items():
        if seq not in outputs:
            total += 1.0
        else:
            total += min(1.0, item_error(outputs[seq], expected))
    return total / len(reference)


# -- logagg: incremental log/metrics aggregation ---------------------------

def make_log_items(n: int) -> list:
    """Deterministic structured log records as raw text lines."""
    items = []
    for i in range(n):
        service = _SERVICES[(i * 7) % len(_SERVICES)]
        latency = 20 + ((i * 37) % 113)
        status = 500 if (i % 11) == 0 else 200
        items.append(f"ts={i} svc={service} lat_ms={latency} st={status}")
    return items


def logagg_parse(state: Any, seq: int, value: str):
    fields = dict(part.split("=", 1) for part in value.split())
    record = {"svc": fields["svc"], "lat": float(fields["lat_ms"]),
              "err": fields["st"] != "200"}
    return state, record


def logagg_aggregate(state: Any, seq: int, record: dict):
    # EMA per service: deliberately order-sensitive, so serving items
    # out of order (staleness) perturbs the estimates measurably.
    state = dict(state or {})
    svc = record["svc"]
    ema, errors, count = state.get(svc, (record["lat"], 0, 0))
    ema = 0.8 * ema + 0.2 * record["lat"]
    state[svc] = (ema, errors + (1 if record["err"] else 0), count + 1)
    return state, (svc, state[svc])


def logagg_summarize(state: Any, seq: int, update):
    svc, (ema, errors, count) = update
    return state, (svc, round(ema, 4), errors, count)


def logagg_item_error(got, expected) -> float:
    if got[0] != expected[0] or got[2:] != expected[2:]:
        return 1.0
    scale = max(1.0, abs(expected[1]))
    return abs(got[1] - expected[1]) / scale


# -- topk: re-ranking over drifting document scores ------------------------

def make_topk_items(n: int) -> list:
    """(doc, score) updates with slow per-doc drift."""
    docs = [f"doc{d}" for d in range(8)]
    items = []
    for i in range(n):
        doc = docs[(i * 5) % len(docs)]
        score = 100.0 + ((i * 13) % 97) - 0.3 * (i % 29)
        items.append((doc, round(score, 2)))
    return items


def topk_score(state: Any, seq: int, item):
    doc, score = item
    return state, (doc, score)


def topk_rank(state: Any, seq: int, update):
    # Decayed score table: every update decays all scores slightly, so
    # ranking depends on arrival order and staleness is measurable.
    state = dict(state or {})
    doc, score = update
    for key in state:
        state[key] *= 0.995
    state[doc] = 0.5 * state.get(doc, score) + 0.5 * score
    top = sorted(state.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    return state, tuple(doc for doc, _ in top)


def topk_emit(state: Any, seq: int, top):
    return state, top


def topk_item_error(got, expected) -> float:
    if not expected:
        return 0.0
    hits = sum(1 for doc in got if doc in expected)
    return 1.0 - hits / len(expected)


# -- frames: video-frame edge detection ------------------------------------

_FRAME_SIZE = 16


def make_frame_items(n: int) -> list:
    """Seeded 16x16 grayscale frames as nested lists (picklable)."""
    from ..workloads.images import synthetic_image

    return [synthetic_image(_FRAME_SIZE, _FRAME_SIZE, diversity=3,
                            noise=6.0, seed=seq).tolist()
            for seq in range(n)]


def frames_blur(state: Any, seq: int, frame):
    h, w = len(frame), len(frame[0])
    out = [[0.0] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            total = count = 0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        total += frame[yy][xx]
                        count += 1
            out[y][x] = total / count
    return state, out


def frames_gradient(state: Any, seq: int, frame):
    h, w = len(frame), len(frame[0])
    edges = 0
    for y in range(h - 1):
        for x in range(w - 1):
            gx = frame[y][x + 1] - frame[y][x]
            gy = frame[y + 1][x] - frame[y][x]
            if abs(gx) + abs(gy) > 12.0:
                edges += 1
    return state, edges


def frames_track(state: Any, seq: int, edges):
    # Rolling mean of edge density across frames (stateful, so skipped
    # frames shift the trajectory, not just the skipped output).
    state = state or (0.0, 0)
    mean, count = state
    mean = (mean * count + edges) / (count + 1)
    return (mean, count + 1), (edges, round(mean, 4))


def frames_item_error(got, expected) -> float:
    if got[0] != expected[0]:
        return 1.0
    scale = max(1.0, abs(expected[1]))
    return min(1.0, abs(got[1] - expected[1]) / scale)


# -- registry ---------------------------------------------------------------

APPS: Dict[str, StreamApp] = {
    "logagg": StreamApp(
        name="logagg",
        stages=(Stage("parse", logagg_parse, cost=1.0),
                Stage("aggregate", logagg_aggregate, cost=2.0,
                      state0={}),
                Stage("summarize", logagg_summarize, cost=0.5)),
        make_items=make_log_items,
        metric=lambda got, ref: _coverage_error(got, ref,
                                                logagg_item_error),
        must=every_4th,
        capacity=None,
        interarrival=1.0,
    ),
    "topk": StreamApp(
        name="topk",
        stages=(Stage("score", topk_score, cost=1.0),
                Stage("rank", topk_rank, cost=3.0, state0={}),
                Stage("emit", topk_emit, cost=0.5)),
        make_items=make_topk_items,
        metric=lambda got, ref: _coverage_error(got, ref,
                                                topk_item_error),
        must=every_5th,
        capacity=None,
        interarrival=1.0,
    ),
    "frames": StreamApp(
        name="frames",
        stages=(Stage("blur", frames_blur, cost=4.0),
                Stage("gradient", frames_gradient, cost=2.0),
                Stage("track", frames_track, cost=0.5,
                      state0=(0.0, 0))),
        make_items=make_frame_items,
        metric=lambda got, ref: _coverage_error(got, ref,
                                                frames_item_error),
        must=every_4th,
        capacity=8,
        interarrival=2.0,
    ),
}
