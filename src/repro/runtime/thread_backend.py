"""The real-thread backend: one guard thread per Fluid task.

This backend mirrors the paper's implementation strategy directly: every
task gets its own guard thread that checks start valves, runs the body,
evaluates end conditions, and sleeps in W/D until signalled.  Under
CPython the GIL serializes the actual computation, so this backend
demonstrates *semantics* under genuine preemption and asynchrony — the
performance experiments use the virtual-time simulator instead (see
DESIGN.md, substitution table).

All guard decisions go through the same :class:`~repro.core.guard.Coordinator`
as the simulator, serialized by a per-pool lock, so the two backends
cannot diverge semantically.

The guard machinery lives in
:class:`~repro.runtime.thread_pool.SharedThreadPool`, which hosts many
concurrent :class:`~repro.runtime.context.RunContext` runs over one
shared slot gate.  :class:`ThreadExecutor` is the single-shot facade:
one private pool, one context; it joins its guard threads on every exit
path, so back-to-back runs do not leak threads.
"""

from __future__ import annotations

from typing import Optional

from .context import RunContext
from .executor import Executor, RunResult
from .thread_pool import FALLBACK_INTERVAL, SharedThreadPool


class ThreadExecutor(Executor):
    """Executes regions with one OS guard thread per task (single-shot)."""

    def __init__(self, modulation: Optional[object] = None,
                 fallback_interval: float = FALLBACK_INTERVAL,
                 timeout: float = 60.0,
                 cancel_first_runs: bool = False,
                 policy: Optional[object] = None,
                 telemetry: Optional[object] = None,
                 scheduler: Optional[object] = None,
                 slots: Optional[int] = None,
                 autotune: Optional[object] = None):
        self.modulation = modulation
        # The autotuner's callback and every telemetry publish point run
        # under the pool lock, so neither needs locking of its own (the
        # bus serialization contract).
        self.context = RunContext.for_executor(
            "thread-run", telemetry=telemetry, autotune=autotune,
            modulation=modulation, cancel_first_runs=cancel_first_runs)
        self.telemetry = self.context.telemetry
        self.autotuner = self.context.autotuner
        self.cancel_first_runs = cancel_first_runs
        self.timeout = timeout
        self.fallback_interval = fallback_interval
        #: SchedLab schedule policy.  Real threads cannot be ordered
        #: deterministically, so the policy contributes (a) seeded
        #: jitter at wake/publish points and (b) deterministic fan-out
        #: order inside the Coordinator (which runs under the lock).
        self.policy = policy
        self.slots = slots if slots is not None else 4
        self._pool = SharedThreadPool(
            slots=self.slots, scheduler=scheduler, policy=policy,
            bus=self.context.bus, fallback_interval=fallback_interval,
            name="thread-backend")
        #: Optional repro.sched discipline gating RUNNING entry behind
        #: ``slots`` concurrent run slots; ``None`` (default) leaves
        #: RUNNING entry ungated.
        self.scheduler = self._pool.scheduler
        #: Pool-wide stop event; also interrupts injected jitter sleeps
        #: (SchedLab relies on setting this directly in tests).
        self._stop = self._pool._stop

    # ------------------------------------------------------------- public

    def run(self) -> RunResult:
        self._start_once()
        pool = self._pool
        pool.reset_epoch()
        try:
            pool.start(self.context)
            pool.wait(self.context, self.timeout)
        finally:
            # Stop and *join* the guard threads on every exit path
            # (normal, timeout or body error): a long-lived process
            # running executors back-to-back must not accumulate one
            # leaked daemon thread per task.  Also releases guards
            # parked in an injected jitter delay.
            pool.shutdown(join_timeout=min(self.timeout, 5.0))
            # One worker: the GIL serializes the actual computation.
            self.context.record_run(self.scheduler, 1)
        return RunResult(pool.now(), self.context.regions)

    # ----------------------------------------------------------- plumbing

    def _sleep_jitter(self, point: str) -> None:
        self._pool._sleep_jitter(point)
