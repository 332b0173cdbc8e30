"""``ReadyQueue``: the one ready queue every driver drains.

Each test names the mutant of ``repro.runtime.context.ReadyQueue`` it
kills.  The end-to-end pick order it produces on the simulator is
pinned by ``test_sim_picks_golden.py``.
"""

from repro.core.states import TaskState
from repro.runtime.context import ReadyQueue, RunContext

from util import make_pipeline


def _queue():
    return ReadyQueue(None, policy=None, bus=None, point="core", workers=1,
                      clock=lambda: 0.0)


def _tasks():
    """A (non-leaf producer, leaf consumer) pair, both still in INIT."""
    region = make_pipeline(n=4)
    produce, consume = region.finalize()
    return produce, consume


def test_a_task_is_queued_at_most_once():
    """Mutant killed: ``push`` without its queued check, which hands the
    discipline a second copy of the task."""
    ready, ctx = _queue(), RunContext()
    _produce, consume = _tasks()
    assert ready.push(ctx, consume)
    assert not ready.push(ctx, consume)
    assert len(ready) == 1
    assert ready.scheduler.pending() == 1


def test_a_pick_stays_queued_until_take():
    """Mutant killed: ``pick`` dequeuing the task, so a publish during
    the thread pool's wake jitter (between pick and take) queues it a
    second time."""
    ready, ctx = _queue(), RunContext()
    _produce, consume = _tasks()
    ready.push(ctx, consume)
    assert ready.pick(0) == (consume, ctx)
    assert consume in ready
    assert not ready.push(ctx, consume)
    assert ready.scheduler.pending() == 0
    consume.state = TaskState.WAITING  # a leaf awaiting its re-run
    assert ready.take(consume)
    assert consume not in ready and not ready


def test_next_drops_a_stale_pick():
    """Mutant killed: ``next`` returning a pick without asking
    ``may_start``, which would start a body for a task that completed
    while it was queued."""
    ready, ctx = _queue(), RunContext()
    produce, consume = _tasks()
    ready.push(ctx, produce)
    ready.push(ctx, consume)
    produce.state = TaskState.COMPLETE
    consume.state = TaskState.WAITING
    assert ready.next(0) is consume
    assert not ready
    assert ready.next(0) is None


def test_a_stopped_context_s_pick_is_stale():
    ready, ctx = _queue(), RunContext()
    _produce, consume = _tasks()
    consume.state = TaskState.WAITING
    ready.push(ctx, consume)
    ctx.stopped = True
    assert ready.next(0) is None
    assert not ready
