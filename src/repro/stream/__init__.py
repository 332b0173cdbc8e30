"""Streaming-pipeline layer: continuous operation for Fluid regions.

Stages are Fluid tasks linked by staleness-relaxed bounded queues
(:class:`StageQueue`); the valve condition is "consume input no staler
than k" (:class:`~repro.core.valves.StalenessValve`).  See
``docs/streaming.md`` for the queue semantics and the valve contract.
"""

from .apps import APPS, StreamApp
from .pipeline import (Pipeline, PipelineResult, Stage, WindowReport)
from .queue import DROPPED, StageQueue

__all__ = [
    "APPS", "StreamApp",
    "Pipeline", "PipelineResult", "Stage", "WindowReport",
    "DROPPED", "StageQueue",
]
