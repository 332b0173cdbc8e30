"""A shared, long-lived thread-backend pool hosting many concurrent runs.

The paper gives every task a guard thread (Figure 5) and notes that "a
thread-pool will clearly mitigate these overheads" (Section 3.3); this
is that pool.  A task has no thread of its own:

* a task waiting on its start valves is a *record* in its context's
  :class:`~repro.runtime.context.WaitSet` — the wake rule every driver
  shares (``RunContext.admit`` / ``woken`` / ``begin``);
* this driver's publisher is the pool thread itself: the thread that
  publishes a count, or bumps / finalises a data cell, re-evaluates the
  records ``woken`` names (the polled ones for a cell) and pushes the
  runnable ones onto the pool's one ready queue — a ``repro.sched``
  discipline spanning every active context.  A count publish that can
  open no record not already queued takes no lock and checks nothing
  (``count_updated``);
* ``slots`` long-lived workers pull from that queue and run bodies, so
  at most ``slots`` bodies run at once.  A re-execution is an enqueue,
  early termination a dropped pick, cancellation a cleared wait set.

One pool serves an arbitrary stream of
:class:`~repro.runtime.context.RunContext` runs concurrently — the
substrate for :class:`repro.service.FluidService`; the single-shot
:class:`~repro.runtime.thread_backend.ThreadExecutor` is a facade over
a private pool with one context.  Every Coordinator call, transition,
valve check and subscriber dispatch happens under the pool lock; counts
and valves are per-region objects, so the lock only serializes contexts.
See docs/runtime-semantics.md, "The thread driver".
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Tuple

from ..core.count import Count, UpdateSink
from ..core.errors import SchedulerError
from ..core.guard import GuardHost
from ..core.region import FluidRegion
from ..core.states import TaskState
from ..core.task import FluidTask, TaskContext
from .context import ReadyQueue, RunContext, WaitSet

#: Upper bound on an idle worker's wait while some record is parked.
#: Records are re-evaluated by events — count publishes, data-cell bumps
#: and finalisations — so the timed wait is a pure safety net for valves
#: over state nothing announces (and for injected valve faults).
FALLBACK_INTERVAL = 0.05


class _ContextHost(GuardHost, UpdateSink):
    """One context's door into the shared pool: its Coordinator
    callbacks, count publishes and data-cell bumps all arrive here
    already knowing whose wait set they concern."""

    def __init__(self, pool: "SharedThreadPool", ctx: RunContext):
        self.pool = pool
        self.ctx = ctx
        self.now = pool.now
        #: Bodies of this context currently on a worker; a stopped
        #: context finishes when it reaches zero.
        self.running = 0

    def schedule_run(self, task: FluidTask) -> None:
        # Lock held (Coordinator serialization contract).
        if self.pool.ready.push(self.ctx, task):
            self.pool._idle.notify()

    def count_updated(self, count: Count, value) -> None:
        """Re-evaluate the records ``ctx.woken`` names for ``count``; if
        it opens none not already queued and has no subscriber, unlocked:
        sound for the reason ``cell_updated`` is.  A queued record needs
        no re-check: the value is written before this runs, and ``take``
        re-checks its valves after the pick leaves the queue."""
        pool = self.pool
        if pool.policy is not None:
            pool._sleep_jitter("publish")
        # ``opens`` reads floors before the dispatch below.  Sound because
        # a convergence valve's history grows only in its own
        # subscription, which makes ``count._subscribers`` true: its
        # count always takes the locked path, where ``woken`` reads it.
        if count._subscribers or self.ctx.waiting.opens(count, pool.ready):
            with pool._lock:
                count.dispatch(value)
                for task in self.ctx.woken((count,)):
                    pool._recheck(self.ctx, task)

    def cell_updated(self, data) -> None:
        """A body bumped (or a finished run finalised) a data cell:
        re-poll the records no count can open.  The emptiness test runs
        without the lock — a record is parked under the lock *before*
        its first valve check, so a bump that misses it here happened
        before that check read the cell."""
        polled = self.ctx.waiting.polled
        if polled:
            with self.pool._lock:
                for task in tuple(polled.values()):
                    self.pool._recheck(self.ctx, task)

    def task_completed(self, task: FluidTask) -> None:
        """A finished region may unblock dependents or finish the
        context (lock held)."""
        if self.ctx.task_completed(task):
            self.pool._try_launches(self.ctx)
            self.pool._maybe_finish(self.ctx)

    def admit_dynamic_task(self, region: FluidRegion,
                           task: FluidTask) -> None:
        """Called from a worker mid-body (outside the lock)."""
        with self.pool._lock:
            run = self.ctx.admit_dynamic_task(region, task)
            run.coordinator.enable_update_wakeups()
            self.pool._admit(self.ctx, task)


class SharedThreadPool:
    """Hosts concurrent :class:`RunContext` runs: ``slots`` workers
    drain one ``scheduler``-ordered :class:`ReadyQueue` merged across
    every active context, which is what makes the pool a genuinely
    *shared* backend rather than N private executors.
    """

    #: A hosted run's parallelism: the GIL serializes the workers.
    parallelism = 1

    def __init__(self, slots: int = 4,
                 scheduler: Optional[object] = None,
                 policy: Optional[object] = None,
                 bus: Optional[object] = None,
                 name: str = "pool"):
        if slots < 1:
            raise SchedulerError("thread pool needs at least one slot")
        self.name = name
        self.slots = slots
        self.policy = policy
        self._epoch = time.perf_counter()
        self.ready = ReadyQueue(scheduler, policy=policy, bus=bus,
                                point="core", workers=slots, clock=self.now)
        self.scheduler = self.ready.scheduler
        self._lock = threading.RLock()
        #: Workers with nothing to pick wait on ``_idle`` (one notify
        #: per enqueue); ``wait()`` callers on ``_done``, notified only
        #: when a context finishes or fails.
        self._idle = threading.Condition(self._lock)
        self._done = threading.Condition(self._lock)
        #: Set by ``shutdown()``: workers exit, ``start()`` refuses,
        #: in-flight jitter sleeps are interrupted.
        self._stop = threading.Event()
        self._contexts: List[RunContext] = []
        self._workers: List[threading.Thread] = []
        #: Idle workers on the timed safety-net wait.
        self._polling = 0

    # ------------------------------------------------------------- clock

    def now(self) -> float:
        return time.perf_counter() - self._epoch

    # ------------------------------------------------------------ contexts

    def active_contexts(self) -> int:
        with self._lock:
            return len(self._contexts)

    def start(self, ctx: RunContext) -> None:
        """Admit a context: launch its dependency-free regions now.

        Regions with ``after`` dependencies launch as their
        predecessors complete (from the completing worker).  An empty
        context finishes immediately.
        """
        host = _ContextHost(self, ctx)
        ctx.bind(host, time_scale=1e6, sink=host, policy=self.policy)
        self._start_workers()
        with self._lock:
            if self._stop.is_set():
                raise SchedulerError(f"thread pool {self.name!r} is shut down")
            self._contexts.append(ctx)
            self._try_launches(ctx)
            self._maybe_finish(ctx)

    def _start_workers(self) -> None:
        """Bring up all ``slots`` workers on the pool's first ``start()``.

        ``Thread.start()`` hands the GIL to the new thread until it
        blocks, so *where* a worker starts decides what it overtakes.
        Never lazily from a publish: it would run the just-opened
        consumer to completion before its producer is finalised (a
        spurious re-execution of a fully-closed chain).  And outside
        the pool lock, so each worker has parked itself idle before the
        first context launches instead of queueing on the lock.
        """
        if self._workers:
            return
        with self._lock:
            if self._workers or self._stop.is_set():
                return
            workers = self._workers = [threading.Thread(
                target=self._worker_main, args=(index,),
                name=f"{self.name}-worker-{index}", daemon=True)
                for index in range(self.slots)]
        for worker in workers:
            worker.start()

    def wait(self, ctx: RunContext, timeout: float) -> None:
        """Block until ``ctx`` finishes; surface errors like ``run()``.

        Raises the first recorded :class:`TaskBodyError` as soon as it
        lands (without waiting for sibling bodies to drain) and
        :class:`SchedulerError` on timeout.  Used by
        ``ThreadExecutor.run`` and ``Pipeline.run``; the async service
        listens on ``ctx.on_finished`` instead.
        """
        deadline = time.perf_counter() + timeout
        with self._lock:
            while True:
                if ctx.body_error is not None:
                    raise ctx.body_error
                if ctx.is_finished:
                    return
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise SchedulerError(
                        f"thread backend timed out after {timeout}s: "
                        + ctx.pending_description())
                self._done.wait(remaining)

    def stop_context(self, ctx: RunContext) -> None:
        """Cancel a context: clear its wait set, request cancellation
        of its running bodies.

        Its queued tasks become dropped picks.  The context finishes
        (and fires ``on_finished``) at once when no body of its own is
        on a worker, else when the last one leaves at its next chunk
        boundary.
        """
        with self._lock:
            if ctx.is_finished or ctx.stopped:
                return
            ctx.stopped = True
            ctx.waiting = WaitSet()
            for run in ctx.runs:
                if not run.launched:
                    continue
                for task in run.region.tasks:
                    if task.state is not TaskState.COMPLETE:
                        task.cancel_requested = True
            self._maybe_finish(ctx)

    def stop_all(self) -> None:
        """Cancel every active context."""
        with self._lock:
            for ctx in tuple(self._contexts):
                self.stop_context(ctx)

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Stop every context, wake jitter sleeps, join the workers.

        One deadline covers all joins; bodies cancel cooperatively at
        chunk boundaries, so a straggler past the deadline is daemonic
        and cannot wedge interpreter exit.  Idempotent.
        """
        with self._lock:
            self.stop_all()
            self._stop.set()
            workers, self._workers = self._workers, []
            self._idle.notify_all()
        deadline = time.perf_counter() + join_timeout
        for worker in workers:
            # (A worker a racing first start() has yet to start is not
            # alive; it exits on its own as soon as it does start.)
            if worker.is_alive():
                worker.join(max(0.0, deadline - time.perf_counter()))

    # ----------------------------------------------------------- plumbing

    def _sleep_jitter(self, point: str) -> None:
        """Policy-driven chaos: a tiny seeded delay before a wake point
        (callers check that there is a policy).

        Sleeps on the pool's stop event, not the wall clock, so
        shutdown interrupts an in-flight delay instead of hanging for
        its full length.
        """
        delay = self.policy.jitter(point)
        if delay > 0.0:
            self._stop.wait(delay)

    def _try_launches(self, ctx: RunContext) -> None:
        """Launch every region whose ``after`` set is done and admit its
        tasks (lock held, so no body runs before its region is fully
        launched)."""
        if ctx.stopped:
            return
        for run in ctx.launchable():
            coordinator = ctx.launch(run)
            for task in run.region.graph:
                self._admit(ctx, task)
            if ctx.waiting.polled:
                # Only polled records care about cell bumps; a region
                # without one is never wired, so its bodies' writes call
                # back into nothing.  (No body of the region can bump a
                # cell before the lock is released.)
                coordinator.enable_update_wakeups()

    def _admit(self, ctx: RunContext, task: FluidTask) -> None:
        """INIT -> START_CHECK (lock held).  The record is parked
        *before* its first valve check — see ``cell_updated``.  A record
        only a re-poll can open (a valve over no count, a fault plan, an
        autotuner moving thresholds) sends an idle worker onto the timed
        wait unless one is on it already."""
        ctx.admit(task)
        if self.ready.recheck(ctx, task) or (not self._polling and (
                id(task) in ctx.waiting.polled
                or ctx.autotuner is not None
                or getattr(task.region, "fault_plan", None) is not None)):
            self._idle.notify()

    def _recheck(self, ctx: RunContext, task: FluidTask) -> None:
        """Re-evaluate one parked record (lock held); a satisfied one
        joins the ready queue and wakes a worker."""
        if self.ready.recheck(ctx, task):
            self._idle.notify()

    def _maybe_finish(self, ctx: RunContext) -> None:
        """Finish the context once nothing is left to do (lock held):
        every region done, or stopped with no body still on a worker."""
        idle = not ctx.host.running if ctx.stopped else ctx.all_done
        if ctx.is_finished or not idle:
            return
        self._contexts.remove(ctx)
        # Nothing calls the host of a finished context again: unbinding
        # it breaks the context <-> host cycle, so the context and its
        # regions are freed by reference counting once their owner lets
        # go of them.  (``ctx.host`` stays readable: its clock and
        # ``running``.)
        ctx.host.ctx = None
        # on_finished contract: cheap and non-blocking (e.g.
        # call_soon_threadsafe); runs under the pool lock in the
        # finishing thread.
        ctx.finish()
        self._done.notify_all()

    # ------------------------------------------------------------ workers

    def _worker_main(self, index: int) -> None:
        """One of the pool's ``slots`` long-lived workers: one critical
        section per body — the leaving of the body that just left and
        the start of the next — then the body itself, unlocked."""
        left = None
        while True:
            with self._lock:
                if left is not None:
                    self._for_context(self._body_left, *left)
                    left = None
                started = self._next(index)
            if started is None:
                return
            ctx, task, run_ctx = started
            left = ctx, task, self._consume(task, run_ctx)
            # Only ``left`` outlives the body, and only until the lock:
            # an idle worker keeps no finished context alive.
            started = ctx = task = run_ctx = None

    def _for_context(self, step, ctx: RunContext, *args):
        """Run one locked step on a context's behalf.  Workers outlive
        contexts, so an exception out of a step — a user valve predicate
        raising, an illegal transition — fails that context instead of
        killing the worker."""
        try:
            return step(ctx, *args)
        except Exception as error:
            self._fail(ctx, error)
            return None

    def _fail(self, ctx: RunContext, error: Exception) -> None:
        """Record the context's first error for its waiter, then cancel
        the rest of it (lock held): fail fast, so nothing stalls on data
        a failed body will never produce."""
        ctx.fail(error)
        self._done.notify_all()
        self.stop_context(ctx)

    def _next(self, worker: int) \
            -> Optional[Tuple[RunContext, FluidTask, TaskContext]]:
        """Start the ready queue's next startable pick, waiting while
        the queue is empty (lock held, released while idle); None once
        the pool shuts down."""
        while not self._stop.is_set():
            picked = self.ready.pick(worker)
            if picked is not None:
                task, ctx = picked
                if self.policy is not None:
                    # This worker holds the lock exactly once.
                    self._lock.release()
                    try:
                        self._sleep_jitter(f"wake:{task.name}")
                    finally:
                        self._lock.acquire()
                run_ctx = self._for_context(self._begin, ctx, task)
                if run_ctx is not None:
                    return ctx, task, run_ctx
                continue
            # The timed wait is a safety net for parked records only
            # (a record still filed while its task is queued is not
            # parked); with none anywhere, sleep until notified.
            parked = not self.ready and \
                any(ctx.waiting for ctx in self._contexts)
            self._polling += parked
            woke = self._idle.wait(FALLBACK_INTERVAL if parked else None)
            self._polling -= parked
            if not woke:
                for ctx in tuple(self._contexts):
                    for task in tuple(ctx.waiting.records.values()):
                        self._for_context(self._recheck, ctx, task)
        return None

    def _begin(self, ctx: RunContext,
               task: FluidTask) -> Optional[TaskContext]:
        """Enter RUNNING (lock held), or drop a stale pick (``take`` —
        early termination of a pointless re-run lands here).  Queued
        until here, not until the pick: a publish during the worker's
        wake jitter must not enqueue the record twice."""
        if not self.ready.take(task):
            return None
        run_ctx = ctx.begin(task)
        ctx.host.running += 1
        return run_ctx

    def _consume(self, task: FluidTask,
                 run_ctx: TaskContext) -> Optional[Exception]:
        """Run the body outside the lock, leaving at the first chunk
        boundary after a cancellation request.  Returns what the body
        raised, if anything: a worker outlives its bodies."""
        try:
            generator = task.make_generator(run_ctx)
            for _cost in generator:
                if task.cancel_requested:
                    generator.close()
                    break
        except Exception as exc:
            return exc
        return None

    def _body_left(self, ctx: RunContext, task: FluidTask,
                   error: Optional[Exception]) -> None:
        """A body left its worker (lock held): the context judges it,
        END_CHECK's verdict follows at once.  A failure fails the context
        fast; a stopped context finishes with its last body."""
        ctx.host.running -= 1
        if ctx.body_left(task, error):
            ctx.end_check(task)
        elif ctx.stopped:
            self._maybe_finish(ctx)
        elif error is not None:
            self._fail(ctx, ctx.body_error)
