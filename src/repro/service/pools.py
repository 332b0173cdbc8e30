"""Backend pools the service can multiplex request contexts over.

The thread backend's :class:`repro.runtime.thread_pool.SharedThreadPool`
runs many contexts at once over one ready queue and ``slots`` workers.
The simulator and process executors host one context at a time, so
:class:`OneShotPool` hands each admitted context to one dispatcher
thread that starts it on the host and waits for it.  Both expose the
calls the service uses (``start(ctx)`` / ``stop_context(ctx)`` /
``stop_all()`` / ``shutdown()`` / ``now()`` / ``parallelism``), with
completion delivered through ``ctx.on_finished``.
"""

from __future__ import annotations

import inspect
import threading
import time
from typing import Any, Dict, Optional

from ..core.errors import SchedulerError
from ..runtime.context import RunContext
from ..runtime.executor import make_executor

#: ``RunContext``'s run options: a context brings its own.
_RUN_OPTIONS = {name for name, parameter
                in inspect.signature(RunContext).parameters.items()
                if parameter.kind is parameter.KEYWORD_ONLY} - {"label"}


class OneShotPool:
    """Runs contexts one at a time on one host executor (sim/process).

    ``executor_options`` configure the host (``cores``, ``workers``,
    ``timeout``, ``policy``, ...); a run's own options are its
    context's.  Contexts run in admission order, so a long request
    holds up every request queued behind it (head-of-line blocking).
    Cancellation (``stop_context``) is coarse: a context not started
    yet is skipped, a running one finishes (the process host has its
    own timeout).  The process host forks its workers at the first
    context and every context leases them, so every region needs a
    picklable ``remote_factory``.
    """

    def __init__(self, backend: str,
                 executor_options: Optional[Dict[str, Any]] = None,
                 name: str = "oneshot"):
        from concurrent.futures import ThreadPoolExecutor

        if backend not in ("sim", "process"):
            raise SchedulerError(
                f"OneShotPool hosts 'sim' or 'process' backends, not "
                f"{backend!r}; the thread backend uses SharedThreadPool")
        options = dict(executor_options or {})
        run_options = sorted(_RUN_OPTIONS & set(options))
        if run_options:
            raise SchedulerError(
                f"{run_options} are a context's options, not its host's")
        self.backend = backend
        self.host = make_executor(backend, **options)
        self.parallelism = self.host.parallelism
        self._dispatcher = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"fluid-{name}")
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._closed = False

    def now(self) -> float:
        return time.perf_counter() - self._epoch

    def start(self, ctx: RunContext) -> None:
        with self._lock:
            if self._closed:
                raise SchedulerError(
                    f"one-shot {self.backend} pool is shut down")
        self._dispatcher.submit(self._run, ctx)

    def stop_context(self, ctx: RunContext) -> None:
        ctx.stopped = True

    def stop_all(self) -> None:
        """Nothing to cancel: a started context runs to the end (class
        docstring); ``shutdown()`` waits for it."""

    def shutdown(self, join_timeout: float = 5.0) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._dispatcher.shutdown(wait=True)
        self.host.shutdown()

    def _run(self, ctx: RunContext) -> None:
        try:
            if ctx.stopped:
                raise SchedulerError(
                    f"context {ctx.label!r} cancelled before dispatch")
            self.host.start(ctx)
            self.host.wait(ctx, self.host.timeout)
        except Exception as error:
            ctx.fail(error)
        finally:
            ctx.finish()
