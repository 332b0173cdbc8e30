"""Worker processes for the process backend: :class:`PersistentProcessPool`.

The pool is the single owner of worker processes — forking them,
respawning a crashed one, and the join → terminate → kill teardown.
:class:`~repro.runtime.process_backend.ProcessExecutor` only ever
*leases* workers: from a long-lived pool shared by a sequence of
executors (``FluidService`` requests, ``repro.stream`` windows — the
loky / ``concurrent.futures`` reuse pattern, which stops paying a fork
per run), or — fork-per-run — from a private pool it forks at ``run()``
and closes on exit.

How a worker obtains a region is decided per region, by what the region
carries:

* a picklable ``remote_factory`` — ``(callable, args, kwargs)`` with a
  module-level callable that rebuilds a structurally identical region
  (see :class:`~repro.core.region.FluidRegion`) — is *installed* in
  every worker, so it runs on any pool and survives a worker respawn;
* a closure-only region can only be *inherited*: the workers must have
  been forked after it existed (``inherit=``, i.e. a private pool), and
  a worker that dies running it fails the run.

:func:`pool_blob` checks a region's factory for picklability so callers
can decide before committing a region to a shared pool.

Lifecycle contract
------------------

* ``lease()`` / ``release()`` — exclusive: one executor drives the
  workers at a time (serializing process contexts also avoids
  oversubscribing the physical cores the pool was sized to).  The
  executor resets every worker's region/arena caches before releasing.
* ``respawn(slot)`` — replaces a crashed worker with a fresh process
  *and a fresh inbox* (items queued to the dead worker must not replay
  on its replacement), swapping both into the pool's lists in place.
* ``next_dispatch_id()`` — pool-global dispatch ids, unique across
  leases, so stale messages from a previous lease can never alias a
  live dispatch.
* ``close()`` — shuts the workers down under one shared deadline per
  pass; idempotent.
"""

from __future__ import annotations

import logging
import os
import pickle
import queue as queue_module
import threading
import time
from typing import List, Optional, Sequence

from ..core.errors import SchedulerError
from ..core.region import FluidRegion

logger = logging.getLogger(__name__)


def pool_blob(region: FluidRegion) -> Optional[bytes]:
    """Pickle a region's ``remote_factory`` for pool-worker installation.

    Returns None when the region has no factory or the factory does not
    pickle — such a region can only be inherited by a private pool.
    """
    factory = getattr(region, "remote_factory", None)
    if factory is None:
        return None
    try:
        return pickle.dumps(factory)
    except Exception:
        return None


def _pool_worker_main(slot: int, inbox, outbox, cancel_flags,
                      inherited: Sequence[FluidRegion]) -> None:
    """Entry point of one worker: run bodies, stream updates back."""
    from .process_backend import _WorkerLoop

    _WorkerLoop(slot, outbox, cancel_flags, inherited).serve(inbox)


class PersistentProcessPool:
    """A reusable set of forked workers for the process backend.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()``.
    name:
        Prefix for the worker process names (diagnostics).
    inherit:
        Regions that already exist and whose task-body closures the
        workers keep from the fork, addressed by position (the region's
        index in its run).  Empty for a shared pool, whose workers fork
        before any region exists.
    """

    def __init__(self, workers: Optional[int] = None,
                 name: str = "fluid-pool",
                 inherit: Sequence[FluidRegion] = ()):
        import multiprocessing

        if workers is not None and workers < 1:
            raise SchedulerError("need at least one worker process")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise SchedulerError(
                "the process backend needs the 'fork' start method "
                "(POSIX only: closure task bodies cannot be pickled); "
                "use the thread backend on this platform")
        self.workers = workers or (os.cpu_count() or 1)
        self.name = name
        self.inherited = tuple(inherit)
        self.context = multiprocessing.get_context("fork")
        self.outbox = self.context.Queue()
        # "q" (int64): the flag carries a dispatch_id (or -1 for all).
        self.cancel_flags = self.context.Array("q", self.workers, lock=False)
        #: respawn() swaps a slot's entries in place, so a leasing
        #: executor must index these lists afresh, never copy them.
        self.inboxes: List = []
        self.processes: List = []
        self._lease_lock = threading.Lock()
        self._id_lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        for slot in range(self.workers):
            inbox = self.context.Queue()
            self.inboxes.append(inbox)
            self.processes.append(self._make_process(slot, inbox))
        # Fork only after every queue exists and before the first put
        # spawns a feeder thread (forking a multi-threaded parent is
        # where fork-based pools go wrong).
        for process in self.processes:
            process.start()

    def _make_process(self, slot: int, inbox):
        return self.context.Process(
            target=_pool_worker_main,
            args=(slot, inbox, self.outbox, self.cancel_flags,
                  self.inherited),
            name=f"{self.name}-{slot}", daemon=True)

    # -- leasing -----------------------------------------------------------

    def lease(self) -> "PersistentProcessPool":
        """Block until this pool is exclusively ours; returns the pool."""
        self._lease_lock.acquire()
        if self._closed:
            self._lease_lock.release()
            raise SchedulerError("pool is closed")
        return self

    def release(self) -> None:
        self._lease_lock.release()

    def next_dispatch_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    # -- health ------------------------------------------------------------

    def alive(self) -> List[bool]:
        """Per-slot health snapshot (diagnostics/tests)."""
        return [process.is_alive() for process in self.processes]

    def respawn(self, slot: int) -> None:
        """Replace one worker with a fresh process and a fresh inbox.

        The old inbox is abandoned, not drained: items queued to the
        dead worker must not replay on its replacement (the leasing
        executor re-dispatches what it still needs, with new ids).
        """
        old = self.processes[slot]
        if old.is_alive():
            old.terminate()
            old.join(timeout=1.0)
            if old.is_alive():  # pragma: no cover - stubborn worker
                old.kill()
                old.join(timeout=1.0)
        old_inbox = self.inboxes[slot]
        try:
            old_inbox.cancel_join_thread()
            old_inbox.close()
        except (ValueError, OSError):
            pass  # already closed
        inbox = self.context.Queue()
        process = self._make_process(slot, inbox)
        self.inboxes[slot] = inbox
        self.processes[slot] = process
        process.start()

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Shut the workers down; safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        for inbox in self.inboxes:
            try:
                inbox.put_nowait(None)
            except (ValueError, OSError, queue_module.Full):
                pass  # queue already closed/broken or worker gone
            except Exception:
                logger.exception("unexpected error sending pool shutdown")
        # One deadline covers the whole pool: joining N workers
        # sequentially with a per-process timeout would stall close()
        # for N x timeout when the pool is wedged.  Workers that miss
        # the graceful window are terminated in one pass, then killed
        # in one pass, each pass sharing a single deadline.
        self._join_all(self.processes, 0.5)
        stragglers = [p for p in self.processes if p.is_alive()]
        for process in stragglers:
            process.terminate()
        self._join_all(stragglers, 0.5)
        stubborn = [p for p in stragglers if p.is_alive()]
        for process in stubborn:  # pragma: no cover - stubborn worker
            process.kill()
        self._join_all(stubborn, 0.5)
        for channel in self.inboxes + [self.outbox]:
            try:
                channel.cancel_join_thread()
                channel.close()
            except (ValueError, OSError):
                pass  # already closed
            except Exception:
                logger.exception("unexpected error closing pool queue")

    @staticmethod
    def _join_all(processes, timeout: float) -> None:
        """Join ``processes`` under one shared deadline (not per-join)."""
        deadline = time.perf_counter() + timeout
        for process in processes:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return
            process.join(timeout=remaining)

    def __enter__(self) -> "PersistentProcessPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
