"""A deterministic discrete-event queue.

Events are ordered by ``(time, sequence)``; the sequence number makes
simultaneous events fire in insertion order, which keeps every run fully
deterministic (a requirement for regenerating the paper's tables).

SchedLab hook: a :class:`~repro.schedlab.policy.SchedulePolicy` may be
attached to break ties among *simultaneous* events differently.  Virtual
time still dominates — the policy only chooses among events that carry
exactly the same timestamp — so every policy-driven run is a legal
timing of the same virtual-time execution.  With no policy attached the
queue behaves exactly as before (FIFO among ties).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple

from ..core.errors import StateError


class EventQueue:
    """A min-heap of timed callbacks with optional tie-break policy."""

    def __init__(self, policy: Optional[Any] = None):
        self._heap: List[Tuple[float, int, str, Callable[[], Any]]] = []
        self._sequence = 0
        #: SchedulePolicy consulted on pop() when >= 2 events tie on time.
        self.policy = policy

    def push(self, time: float, callback: Callable[[], Any],
             key: str = "") -> None:
        """Schedule ``callback`` at ``time``.

        ``key`` labels the event for schedule-exploration policies (task
        names make PCT-style priority policies meaningful); it is unused
        when no policy is attached.
        """
        if not 0.0 <= time < math.inf:
            raise ValueError(
                f"event time must be a finite number >= 0, got {time}")
        heapq.heappush(self._heap, (time, self._sequence, key, callback))
        self._sequence += 1

    def pop(self) -> Tuple[float, Callable[[], Any]]:
        if not self._heap:
            raise StateError(
                "pop from an empty EventQueue: the simulation has no "
                "pending events (all regions done, or an admission stall)")
        if self.policy is None:
            time, _seq, _key, callback = heapq.heappop(self._heap)
            return time, callback
        return self._pop_with_policy()

    def _pop_with_policy(self) -> Tuple[float, Callable[[], Any]]:
        """Collect every event tied at the minimum time and let the
        policy pick which fires; the rest go back on the heap with their
        original sequence numbers (so FIFO order is preserved among the
        survivors unless the policy reorders them again)."""
        time = self._heap[0][0]
        ties: List[Tuple[float, int, str, Callable[[], Any]]] = []
        while self._heap and self._heap[0][0] == time:
            ties.append(heapq.heappop(self._heap))
        if len(ties) == 1:
            return time, ties[0][3]
        index = self.policy.choose("event", [entry[2] for entry in ties])
        chosen = ties.pop(index)
        for entry in ties:
            heapq.heappush(self._heap, entry)
        return time, chosen[3]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
