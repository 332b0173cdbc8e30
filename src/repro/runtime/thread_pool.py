"""A shared, long-lived thread-backend pool hosting many concurrent runs.

The pool owns everything that can be shared safely — the lock/condition
pair, the stop event, the run-slot gate and its ``repro.sched``
discipline, the wall clock — while every run's private state and its
region lifecycle live in a :class:`~repro.runtime.context.RunContext`.

One pool can therefore serve an arbitrary stream of contexts
concurrently — the substrate for :class:`repro.service.FluidService` —
and the single-shot :class:`~repro.runtime.thread_backend.ThreadExecutor`
is a thin facade over a private pool with exactly one context.

Concurrency contract:

* every Coordinator call, state transition and count publish happens
  under the pool lock, so regions from different contexts can never
  observe each other's half-applied updates;
* counts/valves are per-region objects reached only through that
  region's tasks, so contexts are isolated by construction — the lock
  only serializes, it never shares state between them;
* guard threads are tracked per context and joined when the context
  finishes or the pool shuts down (long-lived services must not leak a
  thread per request).
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

from ..core.count import Count, UpdateSink
from ..core.errors import SchedulerError, TaskBodyError
from ..core.guard import Coordinator, GuardHost
from ..core.region import FluidRegion
from ..core.states import TaskState
from ..core.task import FluidTask
from .context import RunContext

#: Upper bound on one guard wait.  Guards are woken by events — count
#: publishes, data-cell bumps, scheduled re-runs and task completions all
#: notify the pool condition — so the timed wait is a pure safety net.
FALLBACK_INTERVAL = 0.05


class _PoolSink(UpdateSink):
    """Dispatches count updates under the pool lock and wakes guards."""

    def __init__(self, pool: "SharedThreadPool"):
        self.pool = pool

    def count_updated(self, count: Count, value) -> None:
        self.pool._sleep_jitter("publish")
        with self.pool._lock:
            count.dispatch(value)
            self.pool._condition.notify_all()


class _ContextHost(GuardHost):
    """Routes one context's Coordinator callbacks into the shared pool."""

    __slots__ = ("pool", "ctx")

    def __init__(self, pool: "SharedThreadPool", ctx: RunContext):
        self.pool = pool
        self.ctx = ctx

    def now(self) -> float:
        return self.pool.now()

    def schedule_run(self, task: FluidTask) -> None:
        # Called with the pool lock held (Coordinator serialization
        # contract): setting the event and notifying under the same
        # lock closes the lost-wakeup window.
        self.ctx.run_events[id(task)].set()
        self.pool._condition.notify_all()

    def cell_updated(self, data) -> None:
        self.pool._cell_updated()

    def task_completed(self, task: FluidTask) -> None:
        self.pool._task_completed(self.ctx, task)

    def admit_dynamic_task(self, region: FluidRegion,
                           task: FluidTask) -> None:
        self.pool._admit_dynamic_task(self.ctx, region, task)


class SharedThreadPool:
    """Hosts concurrent :class:`RunContext` runs over one guard-thread
    substrate with shared run-slot gating.

    ``slots``/``scheduler`` gate RUNNING entry exactly as on the
    single-run backend, except the gate now spans every active context:
    the scheduler sees one merged ready queue, which is what makes the
    pool a genuinely *shared* backend rather than N private executors.
    """

    def __init__(self, slots: int = 4,
                 scheduler: Optional[object] = None,
                 policy: Optional[object] = None,
                 bus: Optional[object] = None,
                 fallback_interval: float = FALLBACK_INTERVAL,
                 name: str = "pool"):
        if slots < 1:
            raise SchedulerError("thread pool needs at least one slot")
        self.name = name
        self.slots = slots
        self.policy = policy
        self.bus = bus
        self.fallback_interval = fallback_interval
        self.scheduler = None
        if scheduler is not None:
            from ..sched import make_scheduler

            self.scheduler = make_scheduler(scheduler).bind(
                policy=policy, bus=bus, point="core", workers=slots)
        self._slots_free = slots
        #: id(task) -> slot reserved by _grant_slots, unclaimed so far.
        self._granted: set = set()
        #: id(task) currently parked in the scheduler's ready queue.
        self._slot_queued: set = set()
        self._lock = threading.RLock()
        self._condition = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._epoch = time.perf_counter()
        self._contexts: List[RunContext] = []
        self._sink = _PoolSink(self)
        self._closed = False

    # ------------------------------------------------------------- clock

    def now(self) -> float:
        return time.perf_counter() - self._epoch

    def reset_epoch(self) -> None:
        """Re-zero the pool clock (single-run facade compatibility)."""
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------ contexts

    def active_contexts(self) -> int:
        with self._lock:
            return len(self._contexts)

    def start(self, ctx: RunContext) -> None:
        """Admit a context: launch its dependency-free regions now.

        Regions with ``after`` dependencies launch as their
        predecessors complete (event-driven, from the completing guard).
        An empty context finishes immediately.
        """
        ctx.bind(_ContextHost(self, ctx), time_scale=1e6, sink=self._sink,
                 policy=self.policy)
        with self._lock:
            if self._closed:
                raise SchedulerError(f"thread pool {self.name!r} is shut down")
            self._contexts.append(ctx)
            self._try_launches(ctx)
            self._maybe_finish(ctx)

    def wait(self, ctx: RunContext, timeout: float) -> None:
        """Block until ``ctx`` finishes; surface errors like ``run()``.

        Raises the first recorded :class:`TaskBodyError` as soon as it
        lands (without waiting for sibling guards to drain) and
        :class:`SchedulerError` on timeout.  Used by the single-shot
        facade; the async service listens on ``ctx.on_finished``
        instead.
        """
        deadline = time.perf_counter() + timeout
        with self._lock:
            while True:
                if ctx.body_error is not None:
                    raise ctx.body_error
                if ctx.finished.is_set():
                    return
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise SchedulerError(
                        f"thread backend timed out after {timeout}s: "
                        + ctx.pending_description())
                self._condition.wait(min(self.fallback_interval, remaining))

    def stop_context(self, ctx: RunContext) -> None:
        """Cancel a context: request body cancellation and drain guards.

        Guards notice ``ctx.stopped`` at their next wake and exit; the
        context finishes (and fires ``on_finished``) once the last one
        is gone.
        """
        with self._lock:
            if ctx.finished.is_set() or ctx.stopped:
                return
            ctx.stopped = True
            for run in ctx.runs:
                if not run.launched:
                    continue
                for task in run.region.tasks:
                    if task.state is not TaskState.COMPLETE:
                        task.cancel_requested = True
            self._condition.notify_all()
            self._maybe_finish(ctx)

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Stop every context, wake jitter sleeps, join all guards.

        One deadline covers all joins; guards are cooperative (bodies
        cancel at chunk boundaries) so stragglers past the deadline are
        daemonic and cannot wedge interpreter exit.  Idempotent.
        """
        with self._lock:
            self._closed = True
            contexts = list(self._contexts)
        for ctx in contexts:
            self.stop_context(ctx)
        self._stop.set()
        with self._lock:
            self._condition.notify_all()
        deadline = time.perf_counter() + join_timeout
        for ctx in contexts:
            ctx.join(max(0.0, deadline - time.perf_counter()))

    # ----------------------------------------------------------- plumbing

    def _sleep_jitter(self, point: str) -> None:
        """Policy-driven chaos: a tiny seeded delay before a wake point.

        Sleeps on the pool's stop event, not the wall clock, so
        shutdown interrupts an in-flight delay instead of hanging for
        its full length.
        """
        if self.policy is None:
            return
        delay = self.policy.jitter(point)
        if delay > 0.0:
            self._stop.wait(delay)

    def _cell_updated(self) -> None:
        """A task body bumped (or finalized) a watched data cell: poke
        guards blocked in START_CHECK/W so valves over data contents
        are re-checked now, not at the next fallback tick."""
        with self._lock:
            self._condition.notify_all()

    def _try_launches(self, ctx: RunContext) -> None:
        """Launch every region whose ``after`` set is done and spawn its
        guard threads (lock held, so no guard runs before its region is
        fully launched)."""
        if ctx.stopped:
            return
        for run in ctx.launchable():
            coordinator = ctx.launch(run)
            coordinator.enable_update_wakeups()
            for task in run.region.graph:
                self._spawn_guard(ctx, task, coordinator)

    def _spawn_guard(self, ctx: RunContext, task: FluidTask,
                     coordinator: Coordinator) -> None:
        """Create, track and start one guard thread (lock held)."""
        ctx.run_events[id(task)] = threading.Event()
        thread = threading.Thread(
            target=self._guard_main, args=(ctx, task, coordinator),
            name=f"guard-{task.region.name}-{task.name}", daemon=True)
        ctx.threads.append(thread)
        ctx.active_guards += 1
        thread.start()

    def _admit_dynamic_task(self, ctx: RunContext, region: FluidRegion,
                            task: FluidTask) -> None:
        """Called from a guard thread mid-body (outside the lock); guard
        creation is itself thread-safe."""
        with self._lock:
            coordinator = ctx.admit_dynamic_task(region, task).coordinator
            coordinator.enable_update_wakeups()
            self._spawn_guard(ctx, task, coordinator)

    def _task_completed(self, ctx: RunContext, task: FluidTask) -> None:
        """A finished region may unblock dependents (lock held, via the
        context host)."""
        if ctx.task_completed(task):
            self._try_launches(ctx)
        self._condition.notify_all()

    def _maybe_finish(self, ctx: RunContext) -> None:
        """Finish the context once nothing is left to do (lock held).

        The completing guard itself still holds ``active_guards`` > 0
        when the last region completes, so the finish lands in that
        guard's exit path — after ``_task_completed`` already launched
        any dependent regions, which keeps the check race-free.
        """
        if ctx.finished.is_set() or ctx.active_guards > 0:
            return
        if not ctx.stopped and not ctx.all_done:
            return
        if ctx in self._contexts:
            self._contexts.remove(ctx)
        self._condition.notify_all()
        # on_finished contract: cheap and non-blocking (e.g.
        # call_soon_threadsafe); runs under the pool lock in the
        # finishing thread.
        ctx.finish()

    # ------------------------------------------------------- slot gating

    def _try_acquire_slot(self, task: FluidTask) -> bool:
        """Queue ``task`` with the scheduler and try to claim a run slot.

        Called with the lock held, only when a scheduler is configured
        and the task is otherwise eligible to run.  Every admission goes
        through ``submit``/``pick`` so the discipline's ordering, pick
        counts and queue-residence histogram all apply — across every
        active context, since the ready queue is pool-wide.  Guard
        submissions are never sheddable: dropping a Fluid task would
        deadlock its region, so a bounded scheduler parks overflow
        instead (see repro.sched.BoundedScheduler).
        """
        tid = id(task)
        if tid not in self._granted and tid not in self._slot_queued:
            self._slot_queued.add(tid)
            self.scheduler.submit(task, now=self.now())
        self._grant_slots()
        if tid in self._granted:
            self._granted.discard(tid)
            return True
        return False

    def _grant_slots(self) -> None:
        """Hand free slots to the scheduler's picks (lock held).

        Tasks that completed while queued (cascade completion) are
        skipped without consuming a slot.
        """
        while self._slots_free > 0 and self.scheduler.pending():
            picked = self.scheduler.pick(now=self.now(),
                                         worker=self._slots_free - 1)
            if picked is None:
                break
            self._slot_queued.discard(id(picked))
            if picked.state is TaskState.COMPLETE:
                continue
            self._slots_free -= 1
            self._granted.add(id(picked))
        self._condition.notify_all()

    def _release_slot(self) -> None:
        """Return a slot and immediately re-grant it (lock held)."""
        self._slots_free += 1
        self._grant_slots()

    def _drop_slot_claims(self, task: FluidTask) -> None:
        """A guard is exiting: free any slot it was granted but never
        claimed (lock held)."""
        tid = id(task)
        if tid in self._granted:
            self._granted.discard(tid)
            self._release_slot()
        self._slot_queued.discard(tid)

    # --------------------------------------------------------- guard main

    def _guard_main(self, ctx: RunContext, task: FluidTask,
                    coordinator: Coordinator) -> None:
        """The per-task guard: Figure 5 driven by a real thread."""
        try:
            self._run_guard(ctx, task, coordinator)
        finally:
            with self._lock:
                if self.scheduler is not None:
                    self._drop_slot_claims(task)
                ctx.active_guards -= 1
                self._maybe_finish(ctx)

    def _stopping(self, ctx: RunContext) -> bool:
        return ctx.stopped or self._stop.is_set()

    def _run_guard(self, ctx: RunContext, task: FluidTask,
                   coordinator: Coordinator) -> None:
        self._sleep_jitter(f"guard:{task.name}")
        with self._lock:
            if task.state is TaskState.INIT:
                task.transition(TaskState.START_CHECK, self.now())
            # The valve re-test and the wait both happen under the lock,
            # and every wake source (count publish, data bump, rerun,
            # completion, stop) notifies under the same lock, so a bump
            # between the check and the wait cannot be lost; the timeout
            # is a pure fallback.
            while task.state is TaskState.START_CHECK and \
                    not task.start_valves_satisfied():
                if self._stopping(ctx):
                    return
                self._condition.wait(self.fallback_interval)
        run_event = ctx.run_events[id(task)]
        while True:
            self._sleep_jitter(f"wake:{task.name}")
            with self._lock:
                if self._stopping(ctx):
                    return
                if task.state is TaskState.COMPLETE:
                    return
                if self.scheduler is not None:
                    # Gated mode: the guard must win a run slot from the
                    # scheduler before it may enter RUNNING.  The run
                    # event is cleared only *after* the slot is granted,
                    # so a poke that arrives while the guard is queued
                    # is never lost.
                    if task.state is TaskState.START_CHECK:
                        eligible = task.start_valves_satisfied()
                    elif task.state in (TaskState.WAITING,
                                        TaskState.DEP_STALLED):
                        eligible = run_event.is_set()
                    else:  # pragma: no cover - defensive
                        eligible = False
                    if not eligible or not self._try_acquire_slot(task):
                        self._condition.wait(self.fallback_interval)
                        continue
                    # Slot held: re-validate, since the state may have
                    # moved while the guard sat in the ready queue.
                    if task.state is TaskState.START_CHECK:
                        task.transition(TaskState.RUNNING, self.now())
                    elif task.state in (TaskState.WAITING,
                                        TaskState.DEP_STALLED) and \
                            run_event.is_set():
                        run_event.clear()
                        task.transition(TaskState.RUNNING, self.now())
                    else:
                        self._release_slot()
                        continue
                elif task.state is TaskState.START_CHECK:
                    task.transition(TaskState.RUNNING, self.now())
                elif task.state in (TaskState.WAITING, TaskState.DEP_STALLED):
                    if not run_event.is_set():
                        # schedule_run sets the event and notifies under
                        # this lock, so the re-test on wake cannot miss
                        # a poke (lost-wakeup audit); the timeout is a
                        # fallback only.
                        self._condition.wait(self.fallback_interval)
                        continue
                    run_event.clear()
                    task.transition(TaskState.RUNNING, self.now())
                else:  # pragma: no cover - defensive
                    self._condition.wait(self.fallback_interval)
                    continue
                if ctx.bus is not None:
                    ctx.bus.emit(
                        "sched", task.region.name, task.name, "run",
                        data={"detail": f"attempt={task.run_index}"})
                run_ctx = task.begin_run()
                generator = task.make_generator(run_ctx)
            cancelled = self._consume(ctx, task, generator)
            with self._lock:
                if self.scheduler is not None:
                    self._release_slot()
                if self._stopping(ctx):
                    return
                if task.state is TaskState.COMPLETE:
                    return  # completed concurrently (cascade)
                if cancelled:
                    coordinator.body_cancelled(task)
                else:
                    task.transition(TaskState.END_CHECK, self.now())
                    coordinator.body_finished(task)
                self._condition.notify_all()

    def _consume(self, ctx: RunContext, task: FluidTask, generator) -> bool:
        """Run the body outside the lock; honour cooperative cancellation.

        A body exception is recorded on the context and surfaced by the
        waiter (``run()`` / the service future), instead of silently
        killing the guard thread."""
        try:
            for _cost in generator:
                if task.cancel_requested:
                    generator.close()
                    return True
        except Exception as exc:
            region_name = task.region.name if task.region else "?"
            error = TaskBodyError(region_name, task.name,
                                  task.run_index, exc)
            error.__cause__ = exc
            with self._lock:
                ctx.fail(error)
                self._condition.notify_all()
            # Fail fast: cancel the rest of the context so its guards
            # drain instead of stalling on data the failed body will
            # never produce, then let the waiter surface the error.
            self.stop_context(ctx)
            return True
        return False
