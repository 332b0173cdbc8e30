"""Fluid-as-a-service: the async multi-region frontend.

``FluidService`` turns the single-shot executors into a long-lived
service: an asyncio frontend accepts a stream of region-execution
requests, admits them through a bounded relaxed queue (shed-or-park,
reusing :mod:`repro.sched`), optionally batches small regions, and
multiplexes the admitted run contexts over one shared backend pool.
See ``docs/service.md`` for the architecture and
``python -m repro.service.loadgen`` for the load generator.
"""

from .admission import AdmissionError, AdmissionQueue
from .pools import OneShotPool
from .service import (SERVICE_BACKENDS, FluidService, ServiceRequest,
                      ServiceResult)

__all__ = [
    "AdmissionError",
    "AdmissionQueue",
    "FluidService",
    "OneShotPool",
    "SERVICE_BACKENDS",
    "ServiceRequest",
    "ServiceResult",
]
