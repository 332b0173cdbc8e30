"""Fixtures shared by the test modules."""

import pytest

from repro.runtime import process_backend, thread_pool


@pytest.fixture
def slow_safety_net(monkeypatch):
    """The parked-record re-polls of the thread and process drivers out
    of reach (10 s): a lost or wrongly skipped wakeup stalls the run
    instead of being rescued by a timed re-poll."""
    monkeypatch.setattr(thread_pool, "FALLBACK_INTERVAL", 10.0)
    monkeypatch.setattr(process_backend, "_FALLBACK_INTERVAL", 10.0)


@pytest.fixture
def every_chunk_flushes(monkeypatch):
    """A process worker flushes at every chunk boundary that has
    something to say, so each publish reaches the parent on its own."""
    monkeypatch.setattr(process_backend, "FLUSH_INTERVAL", 0.0)
