"""Invariant checking over observed executions.

The :class:`InvariantChecker` is a telemetry-bus subscriber: it reads
the same event stream every other consumer reads (``connect(bus)`` for
a live run, or feed a recorded event list through ``on_event``) and
audits, over ``transition`` events:

* **Legality** — every observed transition is an arc of
  ``LEGAL_TRANSITIONS`` (the runtime itself enforces this with
  :class:`~repro.core.errors.StateError`, so a violation recorded here
  means the enforcement seam was bypassed);
* **Exactly-once completion** — every task that was observed enters
  ``COMPLETE`` exactly once by the end of the run;
* **Serial elision** — under always-strict valves (thresholds at 1.0)
  any schedule's final outputs must bit-match the serial precise run;
  the scenario harness feeds both sides to :func:`check_equivalence`.

and, over the ``stream`` events of :mod:`repro.stream` stage queues,
the streaming relaxation contract:

* **Staleness bound** — no drain begins with more unsettled items than
  the queue's bound, and no serve overtakes more than ``bound`` missing
  seqs (a forced-true staleness valve breaks exactly this);
* **Must-delivery** — no must-deliver item is ever shed.

Violations are collected, not raised, so a sweep can report all of them
and still shrink the schedule afterwards.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.states import LEGAL_TRANSITIONS, TaskState


class InvariantViolation:
    """One detected invariant breach."""

    def __init__(self, kind: str, task: str, detail: str):
        self.kind = kind
        self.task = task
        self.detail = detail

    def __repr__(self) -> str:
        return f"InvariantViolation({self.kind}, {self.task}: {self.detail})"

    def __str__(self) -> str:
        return f"[{self.kind}] {self.task}: {self.detail}"


class InvariantChecker:
    """Audits the ``transition`` and ``stream`` events of one run.

    A task's identity is its ``(region, task)`` name pair, so one
    checker audits one run whose pairs are unique (true of every
    SchedLab scenario).  ``stream`` events come from task bodies — on
    the thread backend concurrently, outside the pool lock — so the
    stream audit only ever appends.
    """

    def __init__(self):
        #: (task name, src, dst) in observation order.
        self.transitions: List[Tuple[str, TaskState, TaskState]] = []
        self.violations: List[InvariantViolation] = []
        #: (region, task) -> times it entered COMPLETE.
        self._complete_counts: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------- subscriber

    def connect(self, bus) -> "InvariantChecker":
        bus.subscribe(self.on_event, kinds=("transition", "stream"))
        return self

    def on_event(self, event) -> None:
        if event.kind == "transition":
            self._observe(event)
        elif event.kind == "stream":
            self._observe_stream(event)

    def _observe(self, event) -> None:
        src = TaskState[event.data["src"]]
        dst = TaskState[event.name]
        self.transitions.append((event.task, src, dst))
        key = (event.region, event.task)
        count = self._complete_counts.setdefault(key, 0)
        if dst not in LEGAL_TRANSITIONS[src]:
            self.violations.append(InvariantViolation(
                "illegal-transition", event.task, f"{src} -> {dst}"))
        if dst is TaskState.COMPLETE:
            self._complete_counts[key] = count + 1
            if count:
                self.violations.append(InvariantViolation(
                    "multiple-completion", event.task,
                    f"entered COMPLETE {count + 1} times"))

    def _observe_stream(self, event) -> None:
        """Audit one stage-queue event against the relaxation contract.

        ``begin`` with more unsettled items than the bound means a
        consumer ran before its staleness valve was honestly satisfied;
        ``serve`` past the bound means the k-out-of-order limit was
        broken; a ``drop`` of a must item is never legal.  The bound is
        the queue's *effective* (possibly autotuned) k at event time.
        """
        data = event.data
        bound = data["bound"]
        if event.name == "begin" and data["missing"] > bound:
            self.violations.append(InvariantViolation(
                "staleness", data["queue"],
                f"drain began with {data['missing']} items unsettled "
                f"(bound {bound:g})"))
        elif event.name == "serve" and data["displacement"] > bound:
            self.violations.append(InvariantViolation(
                "staleness", data["queue"],
                f"seq {data['seq']} served {data['displacement']} "
                f"positions out of order (bound {bound:g})"))
        elif event.name == "drop" and data["must"]:
            self.violations.append(InvariantViolation(
                "must-deliver-drop", data["queue"],
                f"must-deliver seq {data['seq']} was shed"))

    # ------------------------------------------------------ final audit

    def check_completion(self) -> List[InvariantViolation]:
        """After a successful run: every observed task completed.  (A
        second completion was already reported when it was observed.)"""
        for (_region, task), completions in self._complete_counts.items():
            if completions == 0:
                self.violations.append(InvariantViolation(
                    "incomplete-task", task, "entered COMPLETE 0 times"))
        return self.violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return (f"{len(self.transitions)} transitions over "
                    f"{len(self._complete_counts)} tasks, all legal")
        return "; ".join(str(v) for v in self.violations[:5])


def check_equivalence(observed, expected) -> List[str]:
    """Bit-match ``observed`` against ``expected`` outputs.

    Handles numpy arrays, (nested) tuples/lists, and scalars; returns a
    list of human-readable mismatch descriptions (empty = equivalent).
    """
    mismatches: List[str] = []
    _compare(observed, expected, "output", mismatches)
    return mismatches


def _compare(observed, expected, path: str, mismatches: List[str]) -> None:
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a hard dep here
        np = None
    if np is not None and (isinstance(observed, np.ndarray) or
                           isinstance(expected, np.ndarray)):
        same_shape = np.shape(observed) == np.shape(expected)
        if not same_shape or not np.array_equal(
                np.asarray(observed), np.asarray(expected)):
            mismatches.append(f"{path}: arrays differ")
        return
    if isinstance(observed, (tuple, list)) and \
            isinstance(expected, (tuple, list)):
        if len(observed) != len(expected):
            mismatches.append(
                f"{path}: length {len(observed)} != {len(expected)}")
            return
        for index, (item_o, item_e) in enumerate(zip(observed, expected)):
            _compare(item_o, item_e, f"{path}[{index}]", mismatches)
        return
    if observed != expected:
        mismatches.append(f"{path}: {observed!r} != {expected!r}")
