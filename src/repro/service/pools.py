"""Backend pools the service can multiplex request contexts over.

The thread backend has a genuinely shared pool
(:class:`repro.runtime.thread_pool.SharedThreadPool`): one lock, one
ready queue, ``slots`` workers, many concurrent contexts.  The simulator and
process backends are single-shot by construction (virtual time only
advances inside ``run()``; leased workers belong to one parent control
loop at a time), so :class:`OneShotPool` adapts them: each admitted
:class:`~repro.runtime.context.RunContext` is executed on a fresh
executor, dispatched onto a small pool of dispatcher threads that
bounds how many run at once.

Both pool shapes expose the same calls the service uses — ``start(ctx)``
/ ``stop_context(ctx)`` / ``stop_all()`` / ``shutdown()`` / ``now()`` —
with completion always delivered through ``ctx.on_finished``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from ..core.errors import SchedulerError
from ..runtime.context import RunContext
from ..runtime.executor import make_executor


class OneShotPool:
    """Runs each context on a fresh single-shot executor (sim/process).

    ``workers`` bounds concurrent executor runs; excess contexts queue
    inside the dispatcher pool.  Cancellation (``stop_context``) is
    cooperative and coarse: a context that has not started yet is
    skipped, a running one finishes its executor run (the simulator
    cannot be interrupted mid-virtual-time; the process backend has its
    own timeout).

    Process contexts all lease one lazily-forked
    :class:`~repro.runtime.worker_pool.PersistentProcessPool` instead
    of forking a fresh worker set per request, so every region needs a
    picklable ``remote_factory``.  The pool's exclusive lease
    serializes them — deliberate: the pool is sized to the physical
    cores, and two forked pools racing for them was oversubscription,
    not concurrency.
    """

    def __init__(self, backend: str, workers: int = 2,
                 executor_options: Optional[Dict[str, Any]] = None,
                 name: str = "oneshot"):
        from concurrent.futures import ThreadPoolExecutor

        if backend not in ("sim", "process"):
            raise SchedulerError(
                f"OneShotPool hosts 'sim' or 'process' backends, not "
                f"{backend!r}; the thread backend uses SharedThreadPool")
        if workers < 1:
            raise SchedulerError("OneShotPool needs at least one worker")
        self.backend = backend
        self.executor_options = dict(executor_options or {})
        self._dispatchers = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"fluid-{name}")
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._closed = False
        self.name = name
        #: Lazily-forked worker pool of the process contexts; None until
        #: the first one (forever, for sim).
        self._process_pool = None

    def now(self) -> float:
        return time.perf_counter() - self._epoch

    def start(self, ctx: RunContext) -> None:
        with self._lock:
            if self._closed:
                raise SchedulerError(
                    f"one-shot {self.backend} pool is shut down")
        self._dispatchers.submit(self._run, ctx)

    def stop_context(self, ctx: RunContext) -> None:
        ctx.stopped = True

    def stop_all(self) -> None:
        """Nothing to cancel: a started context runs its executor to
        the end (class docstring); ``shutdown()`` waits for it."""

    def shutdown(self, join_timeout: float = 5.0) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._dispatchers.shutdown(wait=True)
        with self._lock:
            pool, self._process_pool = self._process_pool, None
        if pool is not None:
            pool.close()

    # ------------------------------------------------------------ internal

    def _shared_pool(self):
        """The process contexts' worker pool, forked on first use (a
        context still queued at ``shutdown()`` may be that use; the pool
        closes after it)."""
        from ..runtime.worker_pool import PersistentProcessPool

        with self._lock:
            if self._process_pool is None:
                self._process_pool = PersistentProcessPool(
                    workers=self.executor_options.get("workers"),
                    name=f"fluid-{self.name}")
            return self._process_pool

    def _run(self, ctx: RunContext) -> None:
        try:
            if ctx.stopped:
                raise SchedulerError(
                    f"context {ctx.label!r} cancelled before dispatch")
            options = dict(self.executor_options)
            if ctx.telemetry is not None:
                options.setdefault("telemetry", ctx.telemetry)
            if ctx.modulation is not None:
                options.setdefault("modulation", ctx.modulation)
            if ctx.cancel_first_runs:
                options.setdefault("cancel_first_runs", True)
            if self.backend == "process":
                options["pool"] = self._shared_pool()
            executor = make_executor(self.backend, **options)
            # The executor drives this context's own region records, so
            # launch and region-done land where the service reads them.
            executor.context.runs = ctx.runs
            executor.run()
        except Exception as error:
            ctx.fail(error)
        finally:
            ctx.finish()
