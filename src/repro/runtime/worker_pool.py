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
  executor reclaims and resets every worker (recycling its result
  arena) before releasing; ``release()`` recycles the dispatch arena.
* ``arena`` — the pool's dispatch :class:`~repro.core.data.PayloadArena`
  (parent writes, workers read) for its whole life; each worker's own
  result arena names its segments from the pool and the worker's pid,
  so the pool unlinks them without having seen a handle.  No segment is
  made per run; a pool keeps what its largest lease used until
  ``close()``.
* ``conns`` — the parent's end of each worker's duplex pipe.  Nothing
  is shared with another process, so a worker killed mid-message harms
  only its own pipe, and its death reads as end-of-file there.
* ``respawn(slot)`` — replaces a crashed worker with a fresh process
  *and a fresh pipe* (messages to or from the dead worker must not
  reach its replacement), swapping both into the pool's lists in place,
  and sweeps the dead worker's result segments.
* ``next_dispatch_id()`` — pool-global dispatch ids, unique across
  leases, so stale messages from a previous lease can never alias a
  live dispatch.
* ``close()`` — shuts the workers down under one shared deadline per
  pass, then sweeps every worker's result segments and unlinks the
  dispatch arena; idempotent.
"""

from __future__ import annotations

import os
import pickle
import secrets
import threading
import time
from typing import List, Optional, Sequence

from ..core.data import PayloadArena, arena_sweep
from ..core.errors import SchedulerError
from ..core.region import FluidRegion


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


def _worker_segments(pool_prefix: str, pid: int) -> str:
    """Name prefix of the result-arena segments of worker ``pid``."""
    return f"{pool_prefix}{pid}-"


def _pool_worker_main(slot: int, conn, parent_end, cancel_flags,
                      inherited: Sequence[FluidRegion],
                      pool_prefix: str) -> None:
    """Entry point of one worker: run bodies, stream updates back."""
    from .process_backend import _WorkerLoop

    parent_end.close()
    arena = PayloadArena(prefix=_worker_segments(pool_prefix, os.getpid()))
    _WorkerLoop(slot, conn, cancel_flags, arena, inherited).serve()


def _alive(process) -> bool:
    try:
        return process.is_alive()
    except ValueError:  # released by close(), after reaping it
        return False


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
        # "q" (int64): the flag carries a dispatch_id (or -1 for all).
        self.cancel_flags = self.context.Array("q", self.workers, lock=False)
        #: respawn() swaps a slot's entries in place, so a leasing
        #: executor must index these lists afresh, never copy them.
        self.conns: List = [None] * self.workers
        self.processes: List = [None] * self.workers
        self.arena = PayloadArena()
        #: Unique per pool; short, since macOS caps shm names at 31 bytes.
        self._segment_prefix = f"fluid-{secrets.token_hex(4)}-"
        self._lease_lock = threading.Lock()
        self._id_lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        for slot in range(self.workers):
            self._start(slot)

    def _start(self, slot: int) -> None:
        """Fork ``slot``'s worker on a fresh pipe.  The parent's copy of
        the child's end is closed before the next fork, which would
        otherwise inherit it and hide this worker's end-of-file."""
        conn, child_end = self.context.Pipe()
        process = self.context.Process(
            target=_pool_worker_main,
            args=(slot, child_end, conn, self.cancel_flags,
                  self.inherited, self._segment_prefix),
            name=f"{self.name}-{slot}", daemon=True)
        process.start()
        child_end.close()
        self.conns[slot] = conn
        self.processes[slot] = process

    # -- leasing -----------------------------------------------------------

    def lease(self) -> "PersistentProcessPool":
        """Block until this pool is exclusively ours; returns the pool."""
        self._lease_lock.acquire()
        if self._closed:
            self._lease_lock.release()
            raise SchedulerError("pool is closed")
        return self

    def release(self) -> None:
        # The leasing executor has reclaimed every worker, so no reader
        # holds a dispatch handle any more.
        self.arena.recycle()
        self._lease_lock.release()

    def next_dispatch_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    # -- health ------------------------------------------------------------

    def alive(self) -> List[bool]:
        """Per-slot health snapshot (diagnostics/tests)."""
        return [_alive(process) for process in self.processes]

    def respawn(self, slot: int) -> None:
        """Replace one worker with a fresh process and a fresh pipe.

        The old pipe is closed, not drained: items sent to the dead
        worker must not replay on its replacement, nor its last messages
        reach the executor (which re-dispatches what it still needs,
        with new ids).
        Handles into the old worker's result arena are stale by then
        (their dispatch ids are dropped), so its segments go too.
        """
        old = self.processes[slot]
        if old.is_alive():
            old.terminate()
            old.join(timeout=1.0)
            if old.is_alive():  # pragma: no cover - stubborn worker
                old.kill()
                old.join(timeout=1.0)
        self._sweep(old)
        self.conns[slot].close()
        self._start(slot)

    def _sweep(self, process) -> None:
        """Unlink a worker's result-arena segments and close the parent's
        attachments to them."""
        arena_sweep(_worker_segments(self._segment_prefix, process.pid))

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Shut the workers down; safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        for conn in self.conns:
            try:
                conn.send(None)
            except OSError:
                pass  # worker gone
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
        for process, conn in zip(self.processes, self.conns):
            self._sweep(process)
            conn.close()
            if not process.is_alive():
                process.close()  # frees its sentinel pipe
        self.arena.close()

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
