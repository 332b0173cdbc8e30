"""The real-thread backend: task bodies on ``slots`` pooled OS threads.

The paper gives every task its own guard thread; this backend keeps the
guard's *decisions* (check start valves, run the body, evaluate end
conditions, wait in W/D until signalled) and drops the thread: waiting
tasks are records, runnable ones sit in a ready queue, and ``slots``
workers run bodies.  Under CPython the GIL serializes the actual
computation, so this backend demonstrates *semantics* under genuine
preemption and asynchrony — the performance experiments use the
virtual-time simulator instead (see DESIGN.md, substitution table).

All guard decisions go through the same :class:`~repro.core.guard.Coordinator`
as the simulator, serialized by a per-pool lock, so the two backends
cannot diverge semantically.

The machinery lives in
:class:`~repro.runtime.thread_pool.SharedThreadPool`, which hosts many
concurrent :class:`~repro.runtime.context.RunContext` runs over one
ready queue.  :class:`ThreadExecutor` is the single-shot facade: one
private pool, one context; it joins the pool's workers on every exit
path, so back-to-back runs do not leak threads.
"""

from __future__ import annotations

from typing import Optional

from .context import RunContext
from .executor import Executor, RunResult
from .thread_pool import SharedThreadPool


class ThreadExecutor(Executor):
    """Executes regions on a private ``slots``-worker pool (single-shot)."""

    def __init__(self, modulation: Optional[object] = None,
                 timeout: float = 60.0,
                 cancel_first_runs: bool = False,
                 policy: Optional[object] = None,
                 telemetry: Optional[object] = None,
                 scheduler: Optional[object] = None,
                 slots: Optional[int] = None,
                 autotune: Optional[object] = None):
        # The autotuner's callback and every telemetry publish point run
        # under the pool lock, so neither needs locking of its own (the
        # bus serialization contract).
        self.context = RunContext.for_executor(
            "thread-run", telemetry=telemetry, autotune=autotune,
            modulation=modulation, cancel_first_runs=cancel_first_runs)
        self.telemetry = self.context.telemetry
        self.autotuner = self.context.autotuner
        self.timeout = timeout
        # ``policy`` is a SchedLab schedule policy.  Real threads cannot
        # be ordered deterministically, so it contributes seeded jitter
        # at wake/publish points, the ready-queue tie-break, and the
        # fan-out order inside the Coordinator (which runs under the
        # lock).
        self._pool = SharedThreadPool(
            slots=4 if slots is None else slots, scheduler=scheduler,
            policy=policy, bus=self.context.bus, name="thread-backend")
        #: The repro.sched discipline ordering the ready queue the
        #: ``slots`` workers drain (``scheduler=None`` is FCFS).
        self.scheduler = self._pool.scheduler
        #: Pool-wide stop event; also interrupts injected jitter sleeps
        #: (SchedLab relies on setting this directly in tests).
        self._stop = self._pool._stop
        self._sleep_jitter = self._pool._sleep_jitter

    def run(self) -> RunResult:
        self._start_once()
        pool = self._pool
        pool.reset_epoch()
        try:
            pool.start(self.context)
            pool.wait(self.context, self.timeout)
        finally:
            # Stop and *join* the workers on every exit path (normal,
            # timeout or body error): a long-lived process running
            # executors back-to-back must not accumulate leaked daemon
            # threads.  Also releases a worker parked in an injected
            # jitter delay.
            pool.shutdown(join_timeout=min(self.timeout, 5.0))
            # One worker: the GIL serializes the actual computation.
            self.context.record_run(self.scheduler, 1)
        return RunResult(pool.now(), self.context.regions)
