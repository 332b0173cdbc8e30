"""The true-parallel backend: Fluid task bodies in a process pool.

CPython's GIL serializes the thread backend's task bodies, so only the
virtual-time simulator could demonstrate the paper's latency numbers.
This backend runs bodies on real cores: a pool of forked worker
processes *does* the work while the parent process keeps *deciding* —
every valve check, Figure-5 transition and re-execution decision goes
through the same :class:`~repro.core.guard.Coordinator` as the
simulator and the thread backend, serialized in the parent's single
control loop.  The region lifecycle, the wake rule and the body exit
are :class:`~repro.runtime.context.RunContext`'s and the worker processes
are :class:`~repro.runtime.worker_pool.PersistentProcessPool`'s; this
module is the wire protocol between them.

The parent never scans for runnable tasks: a task waiting on its start
valves is a record in ``context.waiting`` (``admit`` at region launch,
``begin`` at dispatch).  Applying a worker flush wakes the records filed
under the counts it replayed (``woken``), a drained batch of messages
that applied a payload or a terminal message re-polls the records no
count can open, and a ``_FALLBACK_INTERVAL`` without a message re-polls
every parked record — the thread pool's safety net on this driver's
clock (docs/runtime-semantics.md, "Wakeups").  A worker's liveness is
read only when its process sentinel fires or the wait times out.

Division of labour
------------------

parent (control loop)
    Region admission, start-valve checks, dispatch, the whole guard
    state machine, end-quality evaluation, early termination,
    modulation.  Owns the authoritative ``FluidData``/``Count`` objects.

workers (forked processes, leased from a pool)
    Execute task bodies serially against their own copies of the region
    objects.  Inputs/outputs/counts are (re)installed from parent
    snapshots at dispatch; count updates and payload writes are
    streamed back in chunk-boundary batches.

Batched dispatch
----------------

When more tasks are ready than workers are idle, the parent coalesces
up to ``batch_size`` ready bodies into one worker round-trip (one
``("runs", ...)`` message), amortizing the pipe/pickle cost that
dominates small-body workloads.  Pick order is preserved — batch
items are exactly the next picks the ready queue would have made —
and per-task events (``sched``/``run``, ``worker``/``dispatch``,
``payload``/``to-worker``) are still emitted individually, so golden
traces and SchedLab replay are unaffected.  Each dispatch carries an
executor-local ``dispatch_id`` that every worker message echoes.  No
message outlives its dispatch: a respawned worker gets a fresh pipe and
the lease's reclaim drains every live one, so every message the parent
applies names a dispatch still in flight.
Cancellation stays advisory: the per-slot cancel flag holds the
dispatch_id to abandon (or ``-1`` for *everything*), checked at item
start and at every chunk boundary.

Payload arenas
--------------

Large payload cells cross the boundary in both directions through
:class:`~repro.core.data.PayloadArena` slots keyed
``(region_index, cell)``: dispatches through the pool's arena, flushes
through the worker's own result arena.  Both live as long as the pool,
so no segment is created, attached or unlinked per run (contract in
``core/data.py``, lifetimes in ``worker_pool.py``).  The ``_shipped``
record keeps a cell off the wire to a worker whose copy already holds the
parent's version — including its producer, once its ``_FINISHED`` is
applied.

Worker pools
------------

The executor is a host of contexts, one at a time (``start`` /
``wait``), each leasing its workers from a
:class:`~repro.runtime.worker_pool.PersistentProcessPool`: the ``pool=``
one, shared with other executors, or a private pool forked at the first
``start`` (so module-level patches made before then reach the workers)
and closed at ``shutdown()``.  Every region is installed from its
picklable ``remote_factory`` with the first batch the run sends a worker
(again after a respawn); a region without one fails the run with a
``SchedulerError`` before any body runs.  A crashed worker is respawned
and its in-flight tasks re-dispatched, up to ``_MAX_RESPAWNS`` per slot.

Each worker has its own duplex pipe to the parent: ``("runs",
flush_interval, installs, items)`` and ``("reset",)`` go down, flushes
come back, in order per worker (none holds across workers).  A pipe that
ends, even mid-message, is a dead worker's.  The rule that rules out
deadlock: **the parent writes to a worker only when the worker has
reported a terminal message for every item it holds (so it is blocked
in ``recv``), or when the worker was just forked.**  So ``runs`` go to
idle or fresh slots, ``reset`` follows the lease's reclaim, and a
region's install waits in the parent for the slot's next ``runs``.

Data crosses the boundary as picklable snapshots
(:func:`~repro.core.data.export_payload`); large numpy payloads ride
the arenas instead of the pickle stream.  Workers check a
shared cancellation flag at every chunk boundary, giving the same
cooperative early-termination the other backends have.

Granularity: where the thread backend publishes every count update and
element write immediately, a worker publishes at chunk boundaries,
batched to at most one flush per ``FLUSH_INTERVAL`` seconds.  A
concurrent consumer therefore sees the producer's payload as of the
last flush — a coarser but still monotonically-growing prefix, which is
exactly the relaxation Fluid licenses.  Batching coarsens one more
thing: a batch item transitions to RUNNING at dispatch, so its RUNNING
interval includes time queued behind its batch-mates, and its input
snapshots are taken at dispatch time.

Requirements and limits — the ``fork`` start method, a picklable
``remote_factory``, honest guard tuples, one payload object per cell, no
dynamic task graphs — are docs/runtime-semantics.md's "process-backend
contract".
"""

from __future__ import annotations

import os
import pickle
import select
import time
import traceback
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.count import RecordingSink
from ..core.data import PayloadArena, import_payload, payload_nbytes
from ..core.errors import SchedulerError
from ..core.guard import GuardHost, ModulationPolicy
from ..core.region import FluidRegion
from ..core.states import TaskState
from ..core.task import FluidTask, TaskContext
from .context import ReadyQueue, RegionRun, RunContext
from .executor import Executor
from .worker_pool import PersistentProcessPool, pool_blob

#: Worker -> parent message kinds.
_PROGRESS, _FINISHED, _CANCELLED, _ERROR = "progress", "finished", "cancelled", "error"

#: Cancel-flag sentinel: abandon every in-flight item on the slot (used
#: when a leased pool is reclaimed); positive values target one
#: dispatch_id, 0 means no cancellation is requested.
_CANCEL_ALL = -1

#: Seconds a pool reclaim waits for cancelled workers to come back
#: before respawning them.
_RECLAIM_GRACE = 2.0

#: Crash-respawn budget per slot per run: beyond this the run fails
#: (a region whose install/body crashes deterministically would
#: otherwise respawn forever).
_MAX_RESPAWNS = 3

#: Upper bound on one control-loop block.  The loop is woken by
#: events — a message on a busy worker's pipe, or its process sentinel
#: closing — so this only bounds how stale the deadline check can get,
#: and paces the safety-net re-poll of parked records.
_FALLBACK_INTERVAL = 0.1

#: Minimum seconds between a worker's mid-run publications of count
#: updates and payload snapshots.  Smaller values tighten the
#: approximation granularity at the cost of more IPC.  Read at every
#: ``runs`` send and carried in the message, so a patch reaches a pool
#: forked earlier.
FLUSH_INTERVAL = 0.01


class _WorkerLoop:
    """Worker-side run loop over this worker's end of its pipe.

    Regions are rebuilt from the factory blobs of a ``runs`` message's
    ``installs``, by run index.  The loop
    serves ``("runs", ...)`` batches serially, sending chunk-boundary
    flushes back on the same pipe as 7-tuples::

        (kind, slot, dispatch_id, region_index, task_index,
         records_or_excrepr, payloads_or_traceback)

    Large outputs travel in ``arena``, this worker's result arena.
    ``None`` or end-of-file ends the loop.
    """

    def __init__(self, slot: int, conn, cancel_flags, arena: PayloadArena):
        self.slot = slot
        self.conn = conn
        self.cancel_flags = cancel_flags
        self.arena = arena
        self.sink = RecordingSink()
        self.regions: Dict[int, FluidRegion] = {}

    def serve(self) -> None:
        while True:
            try:
                message = self.conn.recv()
            except EOFError:
                return
            if message is None:
                return
            kind = message[0]
            if kind == "runs":
                _kind, flush_interval, installs, items = message
                for region_index, blob in installs:
                    self.install(region_index, blob)
                for item in items:
                    self._run_item(flush_interval, item)
            elif kind == "reset":
                self.reset()

    # -- region management -------------------------------------------------

    def install(self, region_index: int, blob: bytes) -> None:
        """Rebuild a region from its pickled ``remote_factory`` triple.

        The parent built and validated its graph at launch, and nothing
        on a worker reads one: declare the tasks (``build()`` for a lazy
        region) and mark the cells no task produces as region inputs,
        as ``finalize()`` does."""
        factory, args, kwargs = pickle.loads(blob)
        region = factory(*args, **kwargs)
        if not region.tasks:
            region.build()
        produced = {id(data) for task in region.tasks
                    for data in task.spec.outputs}
        for task in region.tasks:
            for data in task.spec.inputs:
                if id(data) not in produced:
                    data.mark_input()
        region.bind_sink(self.sink)
        self.regions[region_index] = region

    def reset(self) -> None:
        """Forget all regions between pool leases.

        Region indices are a per-run namespace, so neither the regions
        nor the result-arena slots keyed by them may leak across leases
        (the parent has dropped every handle of the ending lease).
        Attachments to the dispatch arena last for the worker's life.
        """
        self.regions.clear()
        self.arena.recycle()

    # -- body execution ----------------------------------------------------

    def _run_item(self, flush_interval: float, item: Tuple) -> None:
        dispatch_id, region_index, task_index, run_index, payloads, counts = \
            item
        region = self.regions[region_index]
        for name, (value, updates) in counts.items():
            count = region.counts[name]
            # Monotone install: a batch-mate that already ran on this
            # worker may have advanced the local count past the parent's
            # dispatch-time snapshot; never regress it.
            if updates >= count.updates:
                count.install_state(value, updates)
        for name, handle in payloads.items():
            region.datas[name].apply_payload(import_payload(handle),
                                             bump=False)
        task = region.tasks[task_index]
        self._run_body(flush_interval, dispatch_id, region_index, task_index,
                       run_index, task)

    def _cancelled(self, dispatch_id: int) -> bool:
        flag = self.cancel_flags[self.slot]
        return flag == dispatch_id or flag == _CANCEL_ALL

    def _run_body(self, flush_interval: float, dispatch_id: int,
                  region_index: int, task_index: int, run_index: int,
                  task: FluidTask) -> None:
        send = self.conn.send
        slot = self.slot
        if self._cancelled(dispatch_id):
            # Cancelled while still queued behind its batch-mates.
            send((_CANCELLED, slot, dispatch_id, region_index, task_index,
                  self.sink.drain(), {}))
            return
        task.run_index = run_index
        task.cancel_requested = False
        task.state = TaskState.RUNNING  # worker-local; parent is authoritative
        self.sink.drain()  # drop anything buffered outside a body
        versions = {data.name: data.version for data in task.spec.outputs}
        last_flush = time.monotonic()
        try:
            generator = task.make_generator(TaskContext(task))
            for _cost in generator:
                if self._cancelled(dispatch_id):
                    task.cancel_requested = True
                    generator.close()
                    send((_CANCELLED, slot, dispatch_id, region_index,
                          task_index, self.sink.drain(), {}))
                    return
                now = time.monotonic()
                if now - last_flush >= flush_interval:
                    last_flush = now
                    payloads = {}
                    for data in task.spec.outputs:
                        if data.version != versions[data.name]:
                            versions[data.name] = data.version
                            payloads[data.name] = data.export_payload(
                                self.arena, (region_index, data.name))
                    if self.sink.buffer or payloads:
                        send((_PROGRESS, slot, dispatch_id, region_index,
                              task_index, self.sink.drain(), payloads))
        except Exception as exc:
            send((_ERROR, slot, dispatch_id, region_index, task_index,
                  f"{exc!r}\n{traceback.format_exc()}"))
            return
        payloads = {data.name: data.export_payload(
                        self.arena, (region_index, data.name))
                    for data in task.spec.outputs}
        send((_FINISHED, slot, dispatch_id, region_index, task_index,
              self.sink.drain(), payloads))


class ProcessExecutor(Executor, GuardHost):
    """Executes regions with task bodies on a multiprocessing pool.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()`` (with ``pool=`` the
        pool's size wins).
    timeout:
        Overall wall-clock deadline, as in
        :class:`~repro.runtime.thread_backend.ThreadExecutor`.
    batch_size:
        Maximum ready tasks coalesced into one worker round-trip.  The
        parent only batches when more tasks are queued than workers are
        idle (breadth-first dispatch is never sacrificed for batching);
        ``1`` reproduces the historical one-task-per-message protocol.
    pool:
        A :class:`~repro.runtime.worker_pool.PersistentProcessPool` to
        lease workers from; it outlives the executor.  Without it the
        executor forks a private pool at its first ``start`` and closes
        it at ``shutdown()``.  Either way every context leases the pool
        for its run, and every submitted region must carry a picklable
        ``remote_factory``.
    """

    def __init__(self, workers: Optional[int] = None,
                 modulation: Optional[ModulationPolicy] = None,
                 timeout: float = 60.0,
                 cancel_first_runs: bool = False,
                 policy: Optional[object] = None,
                 telemetry: Optional[object] = None,
                 autotune: Optional[object] = None,
                 batch_size: int = 8,
                 pool: Optional[PersistentProcessPool] = None):
        if workers is not None and workers < 1:
            raise SchedulerError("need at least one worker process")
        if batch_size < 1:
            raise SchedulerError("batch_size must be at least 1")
        self.workers = self.parallelism = pool.workers if pool is not None else (
            workers or os.cpu_count() or 1)
        #: The pool every context leases; a private one is forked at the
        #: first ``start`` (so module-level patches made before then,
        #: SchedLab mutations, reach the workers), closed by ``shutdown``.
        self._source = pool
        self._private: Optional[PersistentProcessPool] = None
        self.batch_size = batch_size
        # Autotuning is parent-side, like the guards — valves live in
        # the parent, so actuations need no IPC.  Every telemetry
        # publish point is in the parent control loop, which is
        # single-threaded, so the bus serialization contract holds;
        # workers never see the bus.
        super().__init__("process-run", telemetry=telemetry,
                         autotune=autotune, modulation=modulation,
                         cancel_first_runs=cancel_first_runs)
        self.timeout = timeout
        #: SchedLab schedule policy: chooses which ready task is
        #: dispatched to a free worker, and orders the Coordinator's
        #: signal fan-out (all in the parent's control loop, so these
        #: decisions are deterministic even though body timing is not).
        self.policy = policy
        self._ready = ReadyQueue(policy=policy, point="dispatch",
                                 clock=self.now)
        self.scheduler = self._ready.scheduler
        #: The context driven and the pool leased for it, from ``start``
        #: to the end of ``wait``.
        self._ctx: Optional[RunContext] = None
        self._pool: Optional[PersistentProcessPool] = None
        #: The host clock's origin, the first lease (``now()`` is 0.0
        #: before it); the clock runs on across contexts.
        self._epoch: Optional[float] = None

    # --------------------------------------------------------------- host

    def start(self, ctx: RunContext) -> None:
        """Bind ``ctx``, reset every per-run table (a released context's
        ids are recycled, and region indices are a per-run namespace)
        and lease the pool; ``wait`` drives the context and releases it.
        A region without a factory fails here, before any fork or body."""
        self._ctx = ctx
        ctx.bind(self, time_scale=1e6, policy=self.policy)
        self._bus = ctx.bus
        self._task_index: Dict[int, Tuple[int, int]] = {}
        #: In-flight dispatches: dispatch_id -> (task, slot).
        self._inflight: Dict[int, Tuple[FluidTask, int]] = {}
        #: Dispatch ids restart at 1 per context, even on a shared pool:
        #: ``_release_pool`` drains (or respawns) every worker, so no
        #: earlier lease's message is left to alias one of these ids.
        self._next_id = 0
        #: id(task) -> its live dispatch_id (for cancellation routing).
        self._task_dispatch: Dict[int, int] = {}
        #: Delta-aware payload export: per slot, the parent-side version
        #: of each cell that worker's copy holds (shipped there, or sent
        #: back by its producer's applied ``_FINISHED``).  A cell whose
        #: version is unchanged is skipped at dispatch.
        self._shipped: Dict[int, Dict[Tuple[int, str], int]] = {}
        #: ``(run index, pickled factory)`` of every submitted region,
        #: sent with a slot's first batch (again after a respawn).
        self._installs = [(run.index, pool_blob(run.region))
                          for run in ctx.runs]
        #: Slots whose worker holds ``_installs``.
        self._installed: set = set()
        self._respawns: Dict[int, int] = {}
        #: The last wait returned a sentinel or timed out (``_receive``).
        self._suspect = False
        if not ctx.runs:
            return
        if self._source is None:
            self._source = self._private = PersistentProcessPool(
                workers=self.workers, name="fluid-worker")
        # Lease before the clock starts: waiting for another run to
        # release a shared pool must not consume this run's timeout.
        self._pool = self._source.lease()
        self._idle = list(range(self.workers))
        #: slot -> dispatch_ids still in flight there (dispatch order).
        self._slot_ids = {slot: [] for slot in range(self.workers)}
        if self._epoch is None:
            self._epoch = time.perf_counter()

    def wait(self, ctx: RunContext, timeout: float) -> None:
        """Run the control loop until ``ctx`` finishes, then return the
        leased workers to the pool in a reusable state.  A context that
        fails is stopped, so the host's next context drops its queued
        picks."""
        if self._pool is None:
            return  # an empty context leases nothing
        deadline = time.perf_counter() + timeout
        try:
            while True:
                for run in ctx.launchable():
                    self._launch_region(run)
                self._dispatch_ready()
                if ctx.body_error is not None:
                    raise ctx.body_error
                if ctx.all_done:
                    break
                self._drain_events()
                self._check_workers()
                if time.perf_counter() > deadline:
                    raise SchedulerError(
                        "process backend timed out after "
                        f"{timeout}s: {self._diagnose()}")
        except BaseException:
            ctx.stopped = True
            raise
        finally:
            self._release_pool()

    def shutdown(self) -> None:
        if self._private is not None:
            self._private.close()

    # ---------------------------------------------------------- GuardHost

    def now(self) -> float:
        return 0.0 if self._epoch is None else time.perf_counter() - self._epoch

    def schedule_run(self, task: FluidTask) -> None:
        self._ready.push(self._ctx, task)

    def request_cancel(self, task: FluidTask) -> None:
        super().request_cancel(task)
        dispatch_id = self._task_dispatch.get(id(task))
        if dispatch_id is None:
            return
        entry = self._inflight.get(dispatch_id)
        if entry is not None:
            # One flag per slot: a second cancellation on the same slot
            # overwrites the first.  Cancellation is advisory (a body
            # may finish before noticing the flag on every backend), so
            # the overwritten run simply completes and the parent-side
            # guard disposes of the result.
            self._pool.cancel_flags[entry[1]] = dispatch_id

    def task_completed(self, task: FluidTask) -> None:
        self._ctx.task_completed(task)

    def admit_dynamic_task(self, region: FluidRegion,
                           task: FluidTask) -> None:  # pragma: no cover
        raise SchedulerError(
            "the process backend does not support dynamic task graphs: "
            "a spawned body would exist only in the worker process")

    # ------------------------------------------------------- leased pool

    def _release_pool(self) -> None:
        """Return the leased workers to the pool in a reusable state.

        Cancels anything still in flight, waits briefly for the workers
        to come back, respawns the wedged or dead ones, and resets every
        worker's regions (region indices are a per-run namespace).  No
        handle of this lease is read after this point, which is what
        lets ``reset`` and ``pool.release()`` recycle the arenas.
        """
        pool = self._pool
        try:
            for slot, ids in self._slot_ids.items():
                if ids:
                    pool.cancel_flags[slot] = _CANCEL_ALL
            deadline = time.perf_counter() + _RECLAIM_GRACE
            while time.perf_counter() < deadline:
                busy = [slot for slot, ids in self._slot_ids.items()
                        if ids and pool.processes[slot].is_alive()]
                if not busy:
                    break
                # Unapplied: their handles own nothing to release.
                for message in self._receive(busy, 0.05):
                    kind, slot, dispatch_id = message[:3]
                    ids = self._slot_ids[slot]
                    if kind != _PROGRESS and dispatch_id in ids:
                        ids.remove(dispatch_id)
            for slot in range(self.workers):
                if self._slot_ids.get(slot) or \
                        not pool.processes[slot].is_alive():
                    pool.respawn(slot)
                    self._slot_ids[slot] = []
                pool.cancel_flags[slot] = 0
                self._send(slot, ("reset",))
            self._inflight.clear()
            self._task_dispatch.clear()
        finally:
            self._pool = None
            pool.release()

    def _check_workers(self) -> None:
        """Respawn a dead busy worker; only after a wait that returned a
        sentinel or timed out is ``is_alive()`` (a ``waitpid``) asked."""
        if not self._suspect:
            return
        for slot, ids in list(self._slot_ids.items()):
            if ids and not self._pool.processes[slot].is_alive():
                self._respawn_slot(slot)

    def _respawn_slot(self, slot: int) -> None:
        """Replace a crashed worker and re-dispatch its tasks."""
        process = self._pool.processes[slot]
        self._respawns[slot] = self._respawns.get(slot, 0) + 1
        if self._respawns[slot] > _MAX_RESPAWNS:
            raise SchedulerError(
                f"pool worker {slot} crashed {self._respawns[slot]} times "
                f"(last exit code {process.exitcode}); giving up")
        if self._bus is not None:
            self._bus.emit("worker", "", "", "respawn",
                           data={"slot": slot,
                                 "exitcode": process.exitcode})
        ids = list(self._slot_ids.get(slot, ()))
        tasks: List[FluidTask] = []
        for dispatch_id in ids:
            entry = self._inflight.pop(dispatch_id, None)
            if entry is None:
                continue
            task = entry[0]
            if self._task_dispatch.get(id(task)) == dispatch_id:
                del self._task_dispatch[id(task)]
            tasks.append(task)
        self._slot_ids[slot] = []
        # The crashed body dirtied its local copies without a terminal
        # event; nothing shipped to this slot can be trusted.
        self._shipped.pop(slot, None)
        self._installed.discard(slot)
        self._pool.respawn(slot)
        self._pool.cancel_flags[slot] = 0
        redispatch: List[FluidTask] = []
        for task in tasks:
            if task.cancel_requested:
                # The worker died before acknowledging the cancellation:
                # the body left, exactly as a _CANCELLED reply says.
                self._ctx.body_left(task)
            elif task.state is TaskState.RUNNING:
                redispatch.append(task)
        if redispatch:
            # Same run_index (RUNNING has no backward arc in Figure 5;
            # this is a retry of the same attempt, not a re-execution).
            self._send_batch(slot, redispatch, fresh=False)
        elif slot not in self._idle:
            self._idle.append(slot)

    # ------------------------------------------------- admission/dispatch

    def _launch_region(self, run: RegionRun) -> None:
        ctx = self._ctx
        ctx.launch(run)
        for task_index, task in enumerate(run.region.tasks):
            self._task_index[id(task)] = (run.index, task_index)
            ctx.admit(task)
        for task in run.region.tasks:
            self._ready.recheck(ctx, task)

    def _dispatch_ready(self) -> None:
        while self._idle and self._ready:
            slot = self._idle[-1]
            # Batch only when more work is queued than workers are idle:
            # ceil(queued / idle) keeps dispatch breadth-first, so
            # batching never leaves a worker empty-handed.  batch_size=1
            # reproduces the historical one-task-per-message dispatch.
            cap = max(1, min(self.batch_size,
                             -(-len(self._ready) // max(1, len(self._idle)))))
            batch: List[FluidTask] = []
            task = None
            while len(batch) < cap:
                task = self._ready.next()
                if task is None:
                    break
                batch.append(task)
            if batch:
                self._send_batch(slot, batch)
            if task is None:
                break  # queue drained

    def _send_batch(self, slot: int, tasks: List[FluidTask],
                    fresh: bool = True) -> None:
        if fresh:
            self._idle.remove(slot)
            self._pool.cancel_flags[slot] = 0  # slot was idle: flag is stale
        shipped = self._shipped.setdefault(slot, {})
        ids = self._slot_ids.setdefault(slot, [])
        items = []
        # Cells produced by an earlier item of this batch: never ship
        # the parent's (older) snapshot over them — by the time a later
        # item installs its payloads, the worker-local copy is fresher.
        produced: set = set()
        for task in tasks:
            self._next_id += 1
            dispatch_id = self._next_id
            region_index, task_index = self._task_index[id(task)]
            region = task.region
            self._inflight[dispatch_id] = (task, slot)
            self._task_dispatch[id(task)] = dispatch_id
            ids.append(dispatch_id)
            if fresh:
                self._ctx.begin(task)
            payloads = {}
            skipped = 0
            for data in tuple(task.spec.inputs) + tuple(task.spec.outputs):
                if data.name in payloads:
                    continue
                key = (region_index, data.name)
                if key in produced:
                    skipped += 1
                    continue
                if shipped.get(key) == data.version:
                    # Unchanged since this worker's copy last matched
                    # the parent's; it already holds identical bytes.
                    # (Cells a body ran against on this slot are
                    # forgotten when the run ends unless its _FINISHED
                    # was applied, so worker-local dirt can never
                    # satisfy this test.)
                    skipped += 1
                    continue
                payloads[data.name] = data.export_payload(self._pool.arena,
                                                          key)
                shipped[key] = data.version
            counts = {name: count.export_state()
                      for name, count in region.counts.items()}
            for data in task.spec.outputs:
                produced.add((region_index, data.name))
            items.append((dispatch_id, region_index, task_index,
                          task.run_index, payloads, counts))
            if self._bus is not None:
                self._bus.emit("worker", region.name, task.name, "dispatch",
                               data={"slot": slot})
                self._bus.emit(
                    "payload", region.name, task.name, "to-worker",
                    data={"bytes": sum(payload_nbytes(handle)
                                       for handle in payloads.values()),
                          "cells": len(payloads), "skipped": skipped})
        installs = [] if slot in self._installed else self._installs
        self._installed.add(slot)
        self._send(slot, ("runs", FLUSH_INTERVAL, installs, items))
        if self._bus is not None:
            self._bus.emit("worker", tasks[0].region.name, "", "batch",
                           data={"slot": slot, "size": len(items)})
        if fresh:
            for task in tasks:
                self._maybe_kill_worker(task.region, task, slot)

    def _maybe_kill_worker(self, region: FluidRegion, task: FluidTask,
                           slot: int) -> None:
        """SchedLab fault injection: SIGKILL the worker a task was just
        dispatched to, exercising the parent's dead-worker recovery
        (``_check_workers`` respawns it and re-dispatches the batch)."""
        fault_plan = getattr(region, "fault_plan", None)
        if fault_plan is None or not fault_plan.should_kill_worker(task):
            return
        import signal

        process = self._pool.processes[slot]
        if process.is_alive() and process.pid:
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=1.0)

    def _send(self, slot: int, message: Tuple) -> None:
        """Write to an idle or fresh worker (the send rule); a dead one is
        left to ``_check_workers``."""
        try:
            self._pool.conns[slot].send(message)
        except OSError:
            pass

    # ----------------------------------------------------- event handling

    def _drain_events(self) -> None:
        """Apply every waiting worker message, then re-poll the records
        no count can open if the batch changed a cell (a payload or a
        terminal message) — once per batch, not per cell: a finishing
        producer bumps, then finalises.  No message for a whole
        ``_FALLBACK_INTERVAL``: re-poll every parked record instead."""
        ctx = self._ctx
        records = ctx.waiting.records  # no message: every parked record
        busy = [slot for slot, ids in self._slot_ids.items() if ids]
        for message in self._receive(busy, _FALLBACK_INTERVAL):
            self._apply_event(message)
            if message[0] != _PROGRESS or message[6]:
                records = ctx.waiting.polled  # a cell changed
            elif records is ctx.waiting.records:
                records = {}  # count-only: ``woken`` did the re-checks
        for task in records.values():
            self._ready.recheck(ctx, task)

    def _receive(self, slots: List[int], timeout: float) -> Iterator[Tuple]:
        """Wait up to ``timeout`` for a pipe of ``slots`` to be readable or
        a worker to die, then yield what every readable pipe holds.  A
        pipe that ends is left to ``_check_workers``.  Raw ``select.poll``
        objects: ``multiprocessing.connection.wait`` and ``conn.poll()``
        build a Python selector per call, and this runs per message."""
        pool = self._pool
        conns = [pool.conns[slot] for slot in slots]
        sentinels = [pool.processes[slot].sentinel for slot in slots]
        poller = select.poll()
        for handle in conns + sentinels:
            poller.register(handle, select.POLLIN)
        ready = {fd for fd, _event in poller.poll(timeout * 1e3)}
        self._suspect = not ready or not ready.isdisjoint(sentinels)
        for conn in conns:
            if conn.fileno() not in ready:
                continue
            more = select.poll()
            more.register(conn, select.POLLIN)
            try:
                while True:
                    yield conn.recv()
                    if not more.poll(0):
                        break
            except (EOFError, OSError):
                pass

    def _apply_event(self, message: Tuple) -> None:
        kind, slot, dispatch_id, region_index, task_index = message[:5]
        task = self._inflight[dispatch_id][0]
        run = self._ctx.runs[region_index]
        if self._bus is not None:
            if kind in (_PROGRESS, _FINISHED) and message[6]:
                self._bus.emit(
                    "payload", run.region.name, task.name, "from-worker",
                    data={"bytes": sum(payload_nbytes(handle)
                                       for handle in message[6].values()),
                          "cells": len(message[6])})
            if kind in (_FINISHED, _CANCELLED, _ERROR):
                self._bus.emit("worker", run.region.name, task.name, "free",
                               data={"slot": slot})
        if kind == _PROGRESS:
            # A task completed by a cascade while its body was still
            # running must not have `final` cleared by a late flush on
            # cells nobody will produce again.
            if task.state is not TaskState.COMPLETE:
                self._apply_payloads(run.region, message[6])
            self._replay_counts(run.region, message[5])
            return
        # Terminal events retire the dispatch.  Forget the run's output
        # cells from the slot's shipped-version record: the body mutated
        # its local copies, and a cancelled/errored run dirties them
        # *without* a parent-side version bump, so equality of versions
        # must not be trusted for them on the next dispatch.  Only an
        # applied _FINISHED re-records them, below.
        del self._inflight[dispatch_id]
        if self._task_dispatch.get(id(task)) == dispatch_id:
            del self._task_dispatch[id(task)]
        ids = self._slot_ids.get(slot)
        if ids is not None and dispatch_id in ids:
            ids.remove(dispatch_id)
        shipped = self._shipped.setdefault(slot, {})
        for data in task.spec.outputs:
            shipped.pop((region_index, data.name), None)
        if self._pool.cancel_flags[slot] == dispatch_id:
            # Only the cancelled dispatch's own terminal clears the
            # flag: a flag re-aimed at a batch-mate must survive until
            # the worker reaches that item.
            self._pool.cancel_flags[slot] = 0
        if not ids:
            # The whole batch is accounted for; the worker is idle.
            self._idle.append(slot)
        ctx = self._ctx
        if kind == _ERROR:
            # The cause: the body's exception repr and worker traceback.
            ctx.body_left(task, RuntimeError(message[5]))
            return
        if kind == _FINISHED and task.state is not TaskState.COMPLETE:
            # Final payloads, then the verdict (it marks outputs final),
            # then the last count batch: a consumer that batch opens reads
            # final data.  A task a cascade completed gets no payloads,
            # only its (real) count observations.
            self._apply_payloads(run.region, message[6])
            # The producer's copies are now exactly the parent's (final
            # reads are never torn): never ship them back to it.
            for data in task.spec.outputs:
                shipped[(region_index, data.name)] = data.version
        if ctx.body_left(task):
            ctx.end_check(task)
        self._replay_counts(run.region, message[5])

    def _apply_payloads(self, region: FluidRegion, payloads: Dict) -> None:
        for name, handle in payloads.items():
            region.datas[name].apply_payload(import_payload(handle))

    def _replay_counts(self, region: FluidRegion,
                       records: List[Tuple[str, Any]]) -> None:
        if not records:
            return  # most flushes of a compute-heavy body carry none
        counts = region.counts
        for name, value in records:
            counts[name].replay(value)
        ctx = self._ctx
        for task in ctx.woken(counts[name] for name, _value in records):
            self._ready.recheck(ctx, task)

    # ------------------------------------------------------------- debug

    def _diagnose(self) -> str:
        busy = ", ".join(
            f"worker{slot}=" + ",".join(
                self._inflight[did][0].name
                for did in ids if did in self._inflight)
            for slot, ids in sorted(self._slot_ids.items()) if ids)
        return self._ctx.pending_description() + \
            (f" [busy: {busy}]" if busy else "")
