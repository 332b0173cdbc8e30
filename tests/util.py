"""Shared builders for the test suite: parametric Fluid regions.

These construct the canonical topologies of Figure 1(a):

* :func:`make_pipeline` — single producer -> consumer;
* :func:`make_chain` — an N-task chain (Bellman-Ford / NN shape);
* :func:`make_diamond` — one producer, two middle tasks, one joiner
  (multi-producer/multi-consumer shape, FFT/DCT class).

Every builder returns the region, carrying the ``remote_factory`` that
rebuilds it so it runs on the process backend too; task bodies compute
simple integer transformations so tests can assert exact outputs.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional, Sequence

from repro import (DataFinalValve, FluidRegion, PercentValve, PredicateValve,
                   Valve)


def with_factory(region: FluidRegion, builder, **kwargs) -> FluidRegion:
    """Set ``region.remote_factory`` to ``builder(**kwargs)`` under the
    region's own name; ``builder`` must be a module-level function."""
    region.remote_factory = (builder, (), dict(kwargs, name=region.name))
    return region


def make_count_flusher_region(flushes, quiet, name="count-flusher"):
    """``produce`` sends ``flushes`` count-only flushes, goes quiet for
    ``quiet`` seconds inside its last chunk, then writes ``cell``.
    ``final`` waits for ``cell`` by ``DataFinalValve``; ``opaque`` by a
    ``PredicateValve`` that reads the count without declaring it."""
    region = FluidRegion(name)
    ticks = region.add_count("ticks")
    cell = region.add_data("cell", None)

    def produce(ctx):
        for _ in range(flushes):
            time.sleep(0.002)
            ticks.add()
            yield 1.0
        time.sleep(quiet)
        cell.write(flushes)

    region.add_task("produce", produce, outputs=[cell])
    for task, valve in (
            ("final", DataFinalValve(cell)),
            ("opaque", PredicateValve(lambda: ticks.value >= flushes))):
        out = region.add_data(f"{task}_out", None)

        def consume(ctx, out=out):
            out.write(cell.read())
            yield 1.0

        region.add_task(task, consume, start_valves=[valve], inputs=[cell],
                        outputs=[out])
    return with_factory(region, make_count_flusher_region, flushes=flushes,
                        quiet=quiet)


def make_pipeline(n: int = 50, start_fraction: float = 0.4,
                  producer_cost: float = 1.0, consumer_cost: float = 1.0,
                  end_fraction: Optional[float] = 1.0,
                  exact_quality: bool = False,
                  name: Optional[str] = None) -> FluidRegion:
    """producer doubles, consumer adds one; expected out[i] = 2*i + 1.

    ``exact_quality`` swaps the time-based end valve for a content check
    (the output must equal the precise answer); use it in tests that
    assert exact outputs on the *thread* backend, where uncontrolled
    thread speeds make time-based quality bars legitimately accept
    stale reads.
    """

    class Pipeline(FluidRegion):
        def build(self):
            src = self.input_data("src", list(range(n)))
            mid = self.add_array("mid", [0] * n)
            out = self.add_array("out", [0] * n)
            ct = self.add_count("ct")

            def produce(ctx):
                data = src.read()
                for i in range(n):
                    mid[i] = data[i] * 2
                    ct.add()
                    yield producer_cost

            def consume(ctx):
                for i in range(n):
                    out[i] = mid[i] + 1
                    yield consumer_cost

            start: List[Valve] = [PercentValve(ct, start_fraction, n)]
            end: List[Valve] = []
            if exact_quality:
                end.append(PredicateValve(
                    lambda: all(out[i] == 2 * i + 1 for i in range(n)),
                    name="exact"))
            elif end_fraction is not None:
                end.append(PercentValve(ct, end_fraction, n))
            self.add_task("produce", produce, inputs=[src], outputs=[mid])
            self.add_task("consume", consume, start_valves=start,
                          end_valves=end, inputs=[mid], outputs=[out])

    return with_factory(Pipeline(name), make_pipeline, n=n,
                        start_fraction=start_fraction,
                        producer_cost=producer_cost,
                        consumer_cost=consumer_cost,
                        end_fraction=end_fraction,
                        exact_quality=exact_quality)


def pipeline_expected(n: int) -> List[int]:
    return [2 * i + 1 for i in range(n)]


def make_chain(depth: int = 3, n: int = 40,
               start_fraction: float = 0.3,
               costs: Optional[Sequence[float]] = None,
               exact_quality: bool = True,
               name: Optional[str] = None) -> FluidRegion:
    """A depth-task chain; stage k adds 1 to every element.

    Expected out[i] = i + depth.  With ``exact_quality`` the leaf's end
    valve demands the exact precise answer, forcing re-execution chains.
    """
    if costs is None:
        costs = [1.0] * depth
    if len(costs) != depth:
        raise ValueError("need one cost per stage")

    class Chain(FluidRegion):
        def build(self):
            src = self.input_data("src", list(range(n)))
            arrays = [self.add_array(f"a{k}", [0] * n) for k in range(depth)]
            counts = [self.add_count(f"ct{k}") for k in range(depth)]

            def stage_body(k):
                def body(ctx):
                    source = src.read() if k == 0 else arrays[k - 1]
                    for i in range(n):
                        arrays[k][i] = source[i] + 1
                        counts[k].add()
                        yield costs[k]
                return body

            previous = None
            for k in range(depth):
                start = []
                if k > 0:
                    start = [PercentValve(counts[k - 1], start_fraction, n)]
                end = []
                if k == depth - 1 and exact_quality:
                    target = arrays[k]
                    end = [PredicateValve(
                        lambda target=target: all(
                            target[i] == i + depth for i in range(n)),
                        name="exact")]
                inputs = [src] if k == 0 else [arrays[k - 1]]
                previous = self.add_task(
                    f"t{k}", stage_body(k), start_valves=start,
                    end_valves=end, inputs=inputs, outputs=[arrays[k]])

    return with_factory(Chain(name), make_chain, depth=depth, n=n,
                        start_fraction=start_fraction, costs=costs,
                        exact_quality=exact_quality)


def chain_expected(depth: int, n: int) -> List[int]:
    return [i + depth for i in range(n)]


def make_diamond(n: int = 40, start_fraction: float = 0.4,
                 exact_quality: bool = False,
                 name: Optional[str] = None) -> FluidRegion:
    """root -> (left, right) -> join; join[i] = left[i] + right[i].

    Expected out[i] = (i + 1) + (i * 2) = 3*i + 1.
    """

    class Diamond(FluidRegion):
        def build(self):
            src = self.input_data("src", list(range(n)))
            base = self.add_array("base", [0] * n)
            left = self.add_array("left", [0] * n)
            right = self.add_array("right", [0] * n)
            out = self.add_array("out", [0] * n)
            ct0 = self.add_count("ct0")
            ctl = self.add_count("ctl")
            ctr = self.add_count("ctr")

            def root(ctx):
                data = src.read()
                for i in range(n):
                    base[i] = data[i]
                    ct0.add()
                    yield 1.0

            def go_left(ctx):
                for i in range(n):
                    left[i] = base[i] + 1
                    ctl.add()
                    yield 1.0

            def go_right(ctx):
                for i in range(n):
                    right[i] = base[i] * 2
                    ctr.add()
                    yield 1.0

            def join(ctx):
                for i in range(n):
                    out[i] = left[i] + right[i]
                    yield 1.0

            self.add_task("root", root, inputs=[src], outputs=[base])
            self.add_task("left", go_left, inputs=[base], outputs=[left],
                          start_valves=[PercentValve(ct0, start_fraction, n)])
            self.add_task("right", go_right, inputs=[base], outputs=[right],
                          start_valves=[PercentValve(ct0, start_fraction, n)])
            if exact_quality:
                end: List[Valve] = [PredicateValve(
                    lambda: all(out[i] == 3 * i + 1 for i in range(n)),
                    name="exact")]
            else:
                end = [PercentValve(ctl, 1.0, n),
                       PercentValve(ctr, 1.0, n)]
            self.add_task("join", join, inputs=[left, right], outputs=[out],
                          start_valves=[PercentValve(ctl, start_fraction, n),
                                        PercentValve(ctr, start_fraction, n)],
                          end_valves=end)

    return with_factory(Diamond(name), make_diamond, n=n,
                        start_fraction=start_fraction,
                        exact_quality=exact_quality)


def diamond_expected(n: int) -> List[int]:
    return [3 * i + 1 for i in range(n)]


def shm_names() -> set:
    """The POSIX shared-memory segments that exist now (Linux lists them
    under ``/dev/shm``; tests that call this skip where it is absent)."""
    return set(os.listdir("/dev/shm"))
