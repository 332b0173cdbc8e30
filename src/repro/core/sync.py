"""The ``sync(...)`` barrier API (Section 4.2).

``sync`` blocks until a task, a region, or everything submitted to an
executor has finished.  Under the simulator backend time only advances
inside :meth:`run`, so ``sync`` there simply validates that the target
already completed; under the thread backend it genuinely blocks.
"""

from __future__ import annotations

import time
from typing import Union

from .errors import SchedulerError
from .region import FluidRegion
from .states import TaskState
from .task import FluidTask

SyncTarget = Union[FluidTask, FluidRegion, None]


def _is_done(target: SyncTarget, executor) -> bool:
    if isinstance(target, FluidTask):
        return target.state is TaskState.COMPLETE
    if isinstance(target, FluidRegion):
        return target.complete
    if executor is not None:
        return executor.context.all_done
    raise SchedulerError("sync() with no target needs an executor")


def sync(target: SyncTarget = None, executor=None,
         timeout: float = 60.0, poll: float = 0.002) -> None:
    """Block until ``target`` (or everything) completes.

    With no argument, behaves like the paper's bare ``sync()``: a barrier
    on all scheduled tasks of ``executor``.
    """
    from ..runtime.thread_backend import ThreadExecutor

    if executor is not None and not isinstance(executor, ThreadExecutor):
        # Simulated time cannot be awaited from outside runtime.run();
        # sync() degenerates to an assertion that the work already ran.
        if not _is_done(target, executor):
            raise SchedulerError(
                "sync() under the simulator requires the executor to have "
                "run; call executor.run() first")
        return
    deadline = time.perf_counter() + timeout
    while not _is_done(target, executor):
        if time.perf_counter() > deadline:
            raise SchedulerError(f"sync() timed out after {timeout}s")
        time.sleep(poll)
