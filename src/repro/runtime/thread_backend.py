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

The machinery, and the host calls, are those of a private
:class:`~repro.runtime.thread_pool.SharedThreadPool`; ``run()`` joins
its workers on every exit path, so back-to-back runs leak no threads.
"""

from __future__ import annotations

from typing import Optional

from .executor import Executor
from .thread_pool import SharedThreadPool


class ThreadExecutor(Executor):
    """Executes regions on a private ``slots``-worker pool; ``run()``
    drives the executor's own context once."""

    def __init__(self, modulation: Optional[object] = None,
                 timeout: float = 60.0,
                 cancel_first_runs: bool = False,
                 policy: Optional[object] = None,
                 telemetry: Optional[object] = None,
                 slots: Optional[int] = None,
                 autotune: Optional[object] = None):
        # The autotuner's callback and every telemetry publish point run
        # under the pool lock, so neither needs locking of its own (the
        # bus serialization contract).
        super().__init__("thread-run", telemetry=telemetry, autotune=autotune,
                         modulation=modulation,
                         cancel_first_runs=cancel_first_runs)
        self.timeout = timeout
        # ``policy`` is a SchedLab schedule policy.  Real threads cannot
        # be ordered deterministically, so it contributes seeded jitter
        # at wake/publish points, the ready-queue tie-break, and the
        # fan-out order inside the Coordinator (which runs under the
        # lock).
        self._pool = SharedThreadPool(
            slots=4 if slots is None else slots, policy=policy,
            name="thread-backend")
        #: The FCFS queue the ``slots`` workers drain.
        self.scheduler = self._pool.scheduler
        #: Pool-wide stop event; also interrupts injected jitter sleeps
        #: (SchedLab relies on setting this directly in tests).
        self._stop = self._pool._stop
        self._sleep_jitter = self._pool._sleep_jitter
        # The host calls are the private pool's.
        self.start = self._pool.start
        self.wait = self._pool.wait
        self.now = self._pool.now

    def shutdown(self) -> None:
        # Also releases a worker parked in an injected jitter delay.
        self._pool.shutdown(join_timeout=min(self.timeout, 5.0))
