"""Fault plans: controlled failures at chosen execution steps.

A :class:`FaultPlan` is attached to a region (``region.fault_plan =
plan``) before the run; the core seams consult it:

* body faults (``raise``, ``delay``) are applied by
  :meth:`~repro.core.task.FluidTask.make_generator` wrapping the body
  generator — a ``raise`` fires at a chosen chunk boundary of a chosen
  run, a ``delay`` stretches a chunk (extra virtual cost under the
  simulator, a real sleep under the thread/process backends);
* valve faults (``valve_false``, ``valve_true``) transiently force a
  task's start/end valve verdict for a bounded number of checks —
  modelling flaky quality functions and premature starts;
* ``kill_worker`` (process backend only) SIGKILLs the worker a task was
  just dispatched to, exercising the parent's dead-worker recovery: the
  worker is respawned, the region reinstalled from its factory and the
  batch re-dispatched, so the run still completes.

On the process backend, body faults fire in the workers: each worker's
copy of a region is rebuilt by SchedLab's ``remote_factory`` with the
run's fault plan attached, so ``raise``/``delay`` behave as elsewhere but
are logged in the worker's plan, not the parent's :attr:`FaultPlan.fired`.

Plans are JSON-serializable so a failing (schedule, faults) pair can be
stored in one replay artifact.  Every fault that actually fires is
recorded in :attr:`FaultPlan.fired` so tests can assert coverage.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from fnmatch import fnmatchcase
from typing import Iterable, List, Optional

from ..core.errors import FluidError

#: Fault kinds a plan may contain.
KINDS = ("raise", "delay", "valve_false", "valve_true", "kill_worker")


class FaultInjected(FluidError):
    """Raised from inside a task body by a ``raise`` fault."""


@dataclass
class Fault:
    """One planned fault.

    ``task`` is an ``fnmatch`` pattern over task names; ``run_index``
    restricts the fault to one run attempt (None = any attempt);
    ``at_chunk`` positions body faults at a chunk boundary; ``count``
    bounds how many times the fault fires (valve flakes are transient
    by nature); ``cost``/``wall`` size a ``delay`` in virtual cost units
    and wall-clock seconds respectively.
    """

    kind: str
    task: str = "*"
    run_index: Optional[int] = None
    at_chunk: int = 0
    count: int = 1
    cost: float = 0.0
    wall: float = 0.0
    valve: str = "any"          # "start" | "end" | "any" (valve faults)
    remaining: int = field(default=-1, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise FluidError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        if self.remaining < 0:
            self.remaining = self.count

    def matches(self, task_name: str, run_index: Optional[int]) -> bool:
        if self.remaining == 0:
            return False
        if not fnmatchcase(task_name, self.task):
            return False
        if self.run_index is not None and run_index is not None and \
                self.run_index != run_index:
            return False
        return True

    def fire(self) -> None:
        if self.remaining > 0:
            self.remaining -= 1


class FaultPlan:
    """A set of faults plus a log of the ones that actually fired."""

    def __init__(self, faults: Iterable[Fault] = ()):
        self.faults: List[Fault] = list(faults)
        #: (kind, task name, run index, detail) for every fired fault.
        self.fired: List[tuple] = []

    # ------------------------------------------------------------- seams

    def wrap_body(self, task, generator):
        """Wrap a task-body generator with raise/delay faults.

        A ``raise`` fault replaces the matching chunk boundary with an
        exception; a ``delay`` fault inserts an extra chunk of
        ``fault.cost`` virtual time (which the simulator serves like any
        other chunk) and sleeps ``fault.wall`` real seconds (visible to
        the thread/process backends).
        """
        def wrapped():
            chunk = 0
            for cost in generator:
                extra = self._body_step(task, chunk)
                if extra > 0.0:
                    yield extra
                yield cost
                chunk += 1
            self._body_step(task, chunk, final=True)
        return wrapped()

    def _body_step(self, task, chunk: int, final: bool = False) -> float:
        extra_cost = 0.0
        for fault in self.faults:
            if fault.kind != "raise" and fault.kind != "delay":
                continue
            if not fault.matches(task.name, task.run_index):
                continue
            if fault.at_chunk != chunk and not (final and fault.at_chunk >= chunk):
                continue
            fault.fire()
            if fault.kind == "raise":
                self.fired.append(("raise", task.name, task.run_index, chunk))
                raise FaultInjected(
                    f"fault plan: injected failure in task {task.name!r} "
                    f"(run {task.run_index}, chunk {chunk})")
            self.fired.append(("delay", task.name, task.run_index, chunk))
            extra_cost += fault.cost
            if fault.wall > 0.0:
                time.sleep(fault.wall)
        return extra_cost

    def valve_override(self, task, which: str) -> Optional[bool]:
        """Transiently force a start ("start") / end ("end") verdict."""
        for fault in self.faults:
            if fault.kind not in ("valve_false", "valve_true"):
                continue
            if fault.valve not in ("any", which):
                continue
            if not fault.matches(task.name, task.run_index):
                continue
            fault.fire()
            self.fired.append((fault.kind, task.name, task.run_index, which))
            return fault.kind == "valve_true"
        return None

    def should_kill_worker(self, task) -> bool:
        """Process backend: SIGKILL the worker this task was sent to?"""
        for fault in self.faults:
            if fault.kind != "kill_worker":
                continue
            if not fault.matches(task.name, task.run_index):
                continue
            fault.fire()
            self.fired.append(
                ("kill_worker", task.name, task.run_index, None))
            return True
        return False

    # ----------------------------------------------------- serialization

    def to_list(self) -> List[dict]:
        out = []
        for fault in self.faults:
            record = asdict(fault)
            record.pop("remaining", None)
            out.append(record)
        return out

    @classmethod
    def from_list(cls, records: Iterable[dict]) -> "FaultPlan":
        return cls(Fault(**record) for record in records)

    def attach(self, regions) -> "FaultPlan":
        """Install this plan on every region in ``regions``."""
        for region in regions:
            region.fault_plan = self
        return self

    def kinds_fired(self) -> set:
        return {entry[0] for entry in self.fired}
