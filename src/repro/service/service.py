"""`FluidService`: the asyncio multi-region frontend.

One long-lived service object accepts a stream of region-execution
requests (``await service.submit(region)``) and multiplexes them over a
single shared backend pool:

* **thread** (default) — a
  :class:`~repro.runtime.thread_pool.SharedThreadPool`: every request's
  regions run concurrently over one lock/ready-queue/worker substrate
  with per-region count/valve isolation;
* **sim** / **process** — a :class:`~repro.service.pools.OneShotPool`
  running one context at a time on one host executor.

Admission is a bounded relaxed queue (:class:`AdmissionQueue`):
sheddable requests are rejected with :class:`AdmissionError` when the
queue is full (backpressure the caller can see), must-run requests are
parked and never dropped.  Small requests (by ``cost_estimate``) can be
batched into one :class:`~repro.runtime.context.RunContext` so a burst
of tiny regions pays one launch instead of N.  Every request's
lifecycle lands on the TelemetryBus as ``svc.*`` events — latency and
queue-wait histograms, SLO met/missed counters — so an operator can
watch the service the same way they watch a single run.

Threading model: all service state (queue, in-flight accounting, bus)
is touched only from the event-loop thread.  Pool completion callbacks
hop back onto the loop via ``call_soon_threadsafe``; the pool itself
serializes guard work under its own lock.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional

from ..core.errors import SchedulerError
from ..core.region import FluidRegion
from ..runtime.context import RunContext
from ..runtime.thread_pool import SharedThreadPool
from .admission import AdmissionError, AdmissionQueue
from .pools import OneShotPool

#: Backends a service can host.
SERVICE_BACKENDS = ("thread", "sim", "process")


class ServiceRequest:
    """One admitted region-execution request (internal bookkeeping).

    The ``priority`` / ``deadline`` / ``cost_estimate`` attributes are
    read by the admission queue's discipline; they are the only
    scheduling hints in the system (a driver's ready queue is FCFS).
    """

    __slots__ = ("region", "future", "sheddable", "latency_slo", "timeout",
                 "priority", "deadline", "cost_estimate", "enqueued",
                 "dispatched", "name")

    def __init__(self, region: FluidRegion, future: "asyncio.Future", *,
                 sheddable: bool, latency_slo: Optional[float],
                 timeout: Optional[float], priority: float,
                 deadline: Optional[float], cost_estimate: Optional[float]):
        self.region = region
        self.name = region.name
        self.future = future
        self.sheddable = sheddable
        self.latency_slo = latency_slo
        self.timeout = timeout
        self.priority = priority
        self.deadline = deadline
        self.cost_estimate = cost_estimate
        self.enqueued = 0.0
        self.dispatched: Optional[float] = None


class ServiceResult:
    """What ``await service.submit(...)`` resolves to."""

    __slots__ = ("region", "latency", "queue_wait", "slo_met", "batch_size")

    def __init__(self, region: FluidRegion, latency: float,
                 queue_wait: float, slo_met: Optional[bool],
                 batch_size: int):
        self.region = region
        #: Seconds from admission to completion (what the SLO is over).
        self.latency = latency
        #: Seconds spent parked in the admission queue.
        self.queue_wait = queue_wait
        #: True/False against the request's latency SLO; None if no SLO.
        self.slo_met = slo_met
        #: Number of requests coalesced into this request's context.
        self.batch_size = batch_size

    @property
    def makespan(self) -> float:
        """The region's own execution makespan (pool-clock seconds)."""
        return self.region.stats.makespan

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ServiceResult({self.region.name!r}, "
                f"latency={self.latency:.3f}, "
                f"queue_wait={self.queue_wait:.3f})")


class FluidService:
    """Async frontend multiplexing region requests over one backend pool.

    Parameters
    ----------
    backend:
        ``thread`` (shared pool, default), ``sim`` or ``process``
        (one-shot pools).
    slots:
        The thread pool's workers: at most ``slots`` bodies run
        concurrently, picked first-come-first-serve across *all*
        in-flight requests.  The sim and process backends run one
        context at a time on one host executor.
    queue_capacity / discipline:
        The bounded admission queue and its dispatch order.
    max_concurrency:
        Cap on run contexts in flight (dispatched, not finished); a
        batch of requests occupies one context.  ``None`` (default)
        means ``4 * slots``; a cap below 1 is refused.
    latency_slo:
        Default per-request latency SLO in seconds.
    batch_max / batch_cost_threshold:
        Requests whose ``cost_estimate`` is at or below the threshold
        are coalesced (up to ``batch_max`` per dispatch) into one run
        context.  ``batch_max=1`` (default) disables batching.  Batched
        requests share fate: one body error fails the whole batch.
    request_timeout:
        Default per-request timeout; a timed-out request's context is
        cancelled and its future fails with :class:`SchedulerError`.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; receives ``svc.*``
        request-lifecycle events and the admission queue's shed/defer
        events (all published from the event-loop thread).
    """

    def __init__(self, *, backend: str = "thread",
                 slots: int = 4,
                 queue_capacity: int = 64,
                 discipline: str = "fcfs",
                 max_concurrency: Optional[int] = None,
                 latency_slo: Optional[float] = None,
                 batch_max: int = 1,
                 batch_cost_threshold: Optional[float] = None,
                 request_timeout: Optional[float] = None,
                 telemetry: Optional[object] = None,
                 backend_options: Optional[Dict[str, Any]] = None,
                 name: str = "fluid-service"):
        if backend not in SERVICE_BACKENDS:
            raise SchedulerError(
                f"unknown service backend {backend!r}; expected one of "
                f"{', '.join(SERVICE_BACKENDS)}")
        if batch_max < 1:
            raise SchedulerError("batch_max must be >= 1")
        if max_concurrency is None:
            max_concurrency = 4 * slots
        if max_concurrency < 1:
            raise SchedulerError("max_concurrency must be >= 1")
        self.name = name
        self.backend = backend
        self.telemetry = telemetry
        self._bus = telemetry.bus if telemetry is not None else None
        self.latency_slo = latency_slo
        self.request_timeout = request_timeout
        self.batch_max = batch_max
        self.batch_cost_threshold = batch_cost_threshold
        self.max_concurrency = max_concurrency
        # The admission queue is driven only from the event-loop thread,
        # so it may share the service bus; the backend pool publishes
        # from its worker threads and therefore gets no bus (per-request
        # telemetry would race the service's own publishes).
        self.queue = AdmissionQueue(capacity=queue_capacity,
                                    discipline=discipline, bus=self._bus)
        options = dict(backend_options or {})
        if backend == "thread":
            self.pool = SharedThreadPool(
                slots=slots, name=name, **options)
        else:
            self.pool = OneShotPool(backend, executor_options=options,
                                    name=name)
        if telemetry is not None:
            telemetry.bus.bind_clock(self.pool.now, 1e6)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inflight = 0
        self._dispatched_total = 0
        self._closing = False
        self._closed = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._timers: Dict[int, object] = {}

    # ------------------------------------------------------------- public

    async def __aenter__(self) -> "FluidService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def submit(self, region: FluidRegion, *,
                     sheddable: bool = False,
                     latency_slo: Optional[float] = None,
                     timeout: Optional[float] = None,
                     priority: float = 0.0,
                     deadline: Optional[float] = None,
                     cost_estimate: Optional[float] = None) -> ServiceResult:
        """Execute one region; resolves when it completes.

        Raises :class:`AdmissionError` immediately if the request is
        sheddable and the bounded queue is full (backpressure), or if
        the service is closing.  Must-run requests are parked, never
        shed.
        """
        loop = asyncio.get_running_loop()
        self._adopt_loop(loop)
        name = region.name
        self._emit("request", name, {"sheddable": sheddable})
        if self._closing:
            self._emit("shed", name, {"reason": "closing"})
            raise AdmissionError(
                f"service {self.name!r} is closing; request {name!r} refused")
        request = ServiceRequest(
            region, loop.create_future(), sheddable=sheddable,
            latency_slo=(latency_slo if latency_slo is not None
                         else self.latency_slo),
            timeout=(timeout if timeout is not None
                     else self.request_timeout),
            priority=priority, deadline=deadline,
            cost_estimate=cost_estimate)
        request.enqueued = self.pool.now()
        if not self.queue.offer(request, now=request.enqueued,
                                sheddable=sheddable):
            self._emit("shed", name, {"reason": "queue-full"})
            raise AdmissionError(
                f"request {name!r} shed: admission queue full "
                f"({self.queue.capacity} waiting)")
        self._emit("admit", name, {"pending": self.queue.pending()})
        self._idle.clear()
        self._dispatch()
        return await request.future

    async def close(self, drain: bool = True,
                    timeout: Optional[float] = None) -> None:
        """Stop accepting requests; optionally drain, then shut the pool.

        With ``drain=True`` (default) every admitted request finishes
        first; with ``drain=False`` queued requests fail with
        :class:`AdmissionError` and in-flight contexts are cancelled.
        """
        if self._closed:
            return
        self._closing = True
        if not drain:
            now = self.pool.now()
            while True:
                request = self.queue.take(now=now)
                if request is None:
                    break
                self._fail_request(
                    request, AdmissionError(
                        f"service {self.name!r} closed before dispatch"))
            self.pool.stop_all()
        if self._inflight or self.queue.pending():
            try:
                await asyncio.wait_for(self._idle.wait(), timeout)
            except asyncio.TimeoutError:
                pass
        self._closed = True
        self.pool.shutdown()
        if self.telemetry is not None:
            now = self.pool.now()
            self.telemetry.record_scheduler(self.queue.scheduler)
            self.telemetry.run_finished(now, self.pool.parallelism, now=now)

    def stats(self) -> Dict[str, Any]:
        """Live service counters (event-loop thread only)."""
        return {
            "inflight": self._inflight,
            "queued": self.queue.pending(),
            "dispatched_total": self._dispatched_total,
            "max_concurrency": self.max_concurrency,
            "admission": self.queue.counters(),
        }

    # ----------------------------------------------------------- dispatch

    def _adopt_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise SchedulerError(
                f"service {self.name!r} is bound to a different event loop")

    def _emit(self, event: str, region: str,
              data: Optional[Dict[str, Any]] = None) -> None:
        if self._bus is not None:
            self._bus.emit("svc", region, "", event, data=data or {})

    def _batchable(self, request: ServiceRequest) -> bool:
        return (self.batch_max > 1
                and self.batch_cost_threshold is not None
                and request.cost_estimate is not None
                and request.cost_estimate <= self.batch_cost_threshold)

    def _dispatch(self) -> None:
        """Drain the admission queue into the pool up to the cap."""
        while self._inflight < self.max_concurrency:
            now = self.pool.now()
            request = self.queue.take(now=now)
            if request is None:
                break
            batch = [request]
            if self._batchable(request):
                # Coalesce a run of consecutive small requests into one
                # context.  A non-batchable pick ends the run and
                # dispatches solo — it was already dequeued, so it must
                # go now (may overshoot the context cap by one).
                solo: List[ServiceRequest] = []
                while len(batch) < self.batch_max:
                    peek = self.queue.take(now=now)
                    if peek is None:
                        break
                    if self._batchable(peek):
                        batch.append(peek)
                    else:
                        solo.append(peek)
                        break
                self._dispatch_batch(batch)
                for extra in solo:
                    self._dispatch_batch([extra])
            else:
                self._dispatch_batch(batch)

    def _dispatch_batch(self, batch: List[ServiceRequest]) -> None:
        now = self.pool.now()
        ctx = RunContext(label=f"{self.name}-{self._dispatched_total}")
        self._dispatched_total += 1
        for request in batch:
            request.dispatched = now
            ctx.submit(request.region)
        loop = self._loop
        ctx.on_finished = lambda done: loop.call_soon_threadsafe(
            self._ctx_done, done, batch)
        self._inflight += 1
        self._emit("dispatch", batch[0].name,
                   {"requests": len(batch),
                    "queue_wait": now - batch[0].enqueued,
                    "inflight": self._inflight})
        timeouts = [r.timeout for r in batch if r.timeout is not None]
        if timeouts:
            self._timers[id(ctx)] = loop.call_later(
                min(timeouts), self._timeout_ctx, ctx)
        try:
            self.pool.start(ctx)
        except Exception as error:
            self._cancel_timer(ctx)
            self._inflight -= 1
            for request in batch:
                self._fail_request(request, error)
            self._maybe_idle()

    def _timeout_ctx(self, ctx: RunContext) -> None:
        if not ctx.is_finished:
            self.pool.stop_context(ctx)

    def _cancel_timer(self, ctx: RunContext) -> None:
        timer = self._timers.pop(id(ctx), None)
        if timer is not None:
            timer.cancel()

    def _ctx_done(self, ctx: RunContext, batch: List[ServiceRequest]) -> None:
        """Pool completion landed back on the loop: resolve futures."""
        self._cancel_timer(ctx)
        self._inflight -= 1
        now = self.pool.now()
        error: Optional[Exception] = ctx.body_error
        if error is None and ctx.stopped and not ctx.all_done:
            error = SchedulerError(
                f"request context {ctx.label!r} was cancelled "
                "(timeout or service shutdown)")
        for request in batch:
            if error is not None:
                self._fail_request(request, error)
                continue
            latency = now - request.enqueued
            queue_wait = (request.dispatched or now) - request.enqueued
            slo = request.latency_slo
            slo_met = None if slo is None else latency <= slo
            self._emit("complete", request.name,
                       {"latency": latency, "queue_wait": queue_wait,
                        "slo": slo, "slo_met": slo_met,
                        "requests": len(batch)})
            if not request.future.done():
                request.future.set_result(ServiceResult(
                    request.region, latency, queue_wait, slo_met,
                    len(batch)))
        self._dispatch()
        self._maybe_idle()

    def _fail_request(self, request: ServiceRequest,
                      error: Exception) -> None:
        self._emit("fail", request.name, {"error": repr(error)})
        if not request.future.done():
            request.future.set_exception(error)

    def _maybe_idle(self) -> None:
        if self._inflight == 0 and self.queue.pending() == 0:
            self._idle.set()
