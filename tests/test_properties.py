"""Property-based tests (hypothesis) for core invariants.

The central theorems of the reproduction:

1. *Termination*: any well-formed Fluid region — random DAG topology,
   random costs, random start thresholds, even with exact-equality
   quality functions — terminates; the worst case degenerates to precise
   execution (Section 6.1).
2. *Precise equivalence*: when quality demands the exact answer, the
   fluid output equals the serial (original-program) output.
3. *Valve monotonicity*: a CountValve over a monotonically increasing
   count never flips from satisfied back to unsatisfied.
4. *Determinism*: the simulator is a pure function of its inputs.
"""

import math

from hypothesis import given, settings, strategies as st

from repro import (FluidRegion, PercentValve, PredicateValve, SimExecutor, TaskState, run_serial)
from repro.core.count import Count
from repro.core.valves import CountValve
from repro.runtime.events import EventQueue


# --------------------------------------------------------------------------
# Random layered-DAG regions
# --------------------------------------------------------------------------

@st.composite
def dag_specs(draw):
    """A layered DAG: layer 0 is the single root; every later node picks
    at least one parent from the previous layers."""
    rng = draw(st.randoms(use_true_random=False))
    layers = draw(st.integers(min_value=1, max_value=4))
    spec = [[0]]  # layer -> list of node ids; node 0 is the root
    next_id = 1
    nodes = [()]  # node -> tuple of parent ids
    for _layer in range(1, layers):
        width = draw(st.integers(min_value=1, max_value=3))
        layer_nodes = []
        for _ in range(width):
            candidates = list(range(next_id))
            k = rng.randint(1, min(2, len(candidates)))
            parents = tuple(sorted(rng.sample(candidates, k)))
            nodes.append(parents)
            layer_nodes.append(next_id)
            next_id += 1
        spec.append(layer_nodes)
    costs = [draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
             for _ in range(len(nodes))]
    fraction = draw(st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]))
    return nodes, costs, fraction


def reference_values(nodes, n):
    """Precise per-node outputs: root echoes input+1, others sum parents+1."""
    values = []
    src = list(range(n))
    for node, parents in enumerate(nodes):
        if not parents:
            values.append([x + 1 for x in src])
        else:
            values.append([sum(values[p][i] for p in parents) + 1
                           for i in range(n)])
    return values


def build_dag_region(nodes, costs, fraction, n=12, name=None):
    expected = reference_values(nodes, n)
    children = [[] for _ in nodes]
    for node, parents in enumerate(nodes):
        for p in parents:
            children[p].append(node)

    class RandomDag(FluidRegion):
        def build(self):
            src = self.input_data("src", list(range(n)))
            arrays = [self.add_array(f"d{k}", [0] * n)
                      for k in range(len(nodes))]
            counts = [self.add_count(f"ct{k}") for k in range(len(nodes))]

            def body_for(node):
                parents = nodes[node]

                def body(ctx):
                    for i in range(n):
                        if not parents:
                            arrays[node][i] = src.read()[i] + 1
                        else:
                            arrays[node][i] = sum(
                                arrays[p][i] for p in parents) + 1
                        counts[node].add()
                        yield costs[node]
                return body

            for node, parents in enumerate(nodes):
                start = [PercentValve(counts[p], fraction, n)
                         for p in parents]
                end = []
                if not children[node]:  # leaf: demand the exact answer
                    target = arrays[node]
                    want = expected[node]
                    end = [PredicateValve(
                        lambda target=target, want=want: list(target.read()) == want,
                        name="exact")]
                self.add_task(f"t{node}", body_for(node), start_valves=start,
                              end_valves=end,
                              inputs=[src] if not parents else
                                     [arrays[p] for p in parents],
                              outputs=[arrays[node]])

    region = RandomDag(name)
    region.remote_factory = (dag_region,
                             (nodes, costs, fraction, n, region.name), {})
    return region, expected


def dag_region(nodes, costs, fraction, n, name):
    """``build_dag_region``'s region alone: its ``remote_factory``."""
    return build_dag_region(nodes, costs, fraction, n, name)[0]


@settings(max_examples=40, deadline=None)
@given(dag_specs(), st.integers(min_value=1, max_value=6))
def test_random_dags_terminate_with_precise_output(spec, cores):
    nodes, costs, fraction = spec
    region, expected = build_dag_region(nodes, costs, fraction)
    executor = SimExecutor(cores=cores)
    executor.submit(region)
    executor.run()  # must not deadlock or raise
    assert region.complete
    for node in range(len(nodes)):
        if not any(node in parents for parents in nodes):
            pass  # interior outputs may legitimately stay partial snapshots
    # Every leaf demanded exactness, so leaf outputs match the reference.
    children = [[] for _ in nodes]
    for node, parents in enumerate(nodes):
        for p in parents:
            children[p].append(node)
    for node, kids in enumerate(children):
        if not kids:
            assert list(region.datas[f"d{node}"].read()) == expected[node]


@settings(max_examples=25, deadline=None)
@given(dag_specs())
def test_fluid_leaves_match_serial_run(spec):
    nodes, costs, fraction = spec
    fluid, _ = build_dag_region(nodes, costs, fraction)
    serial, _ = build_dag_region(nodes, costs, fraction)
    executor = SimExecutor(cores=4)
    executor.submit(fluid)
    executor.run()
    run_serial(serial)
    children = [[] for _ in nodes]
    for node, parents in enumerate(nodes):
        for p in parents:
            children[p].append(node)
    for node, kids in enumerate(children):
        if not kids:
            assert list(fluid.datas[f"d{node}"].read()) == \
                list(serial.datas[f"d{node}"].read())


@settings(max_examples=30, deadline=None)
@given(dag_specs(), st.integers(min_value=1, max_value=4))
def test_simulator_is_deterministic(spec, cores):
    nodes, costs, fraction = spec

    def run_once():
        region, _ = build_dag_region(nodes, costs, fraction)
        executor = SimExecutor(cores=cores)
        executor.submit(region)
        result = executor.run()
        runs = tuple(task.stats.runs for task in region.tasks)
        return result.makespan, runs

    assert run_once() == run_once()


@settings(max_examples=40, deadline=None)
@given(dag_specs())
def test_all_tasks_reach_complete(spec):
    nodes, costs, fraction = spec
    region, _ = build_dag_region(nodes, costs, fraction)
    executor = SimExecutor(cores=3)
    executor.submit(region)
    executor.run()
    assert all(task.state is TaskState.COMPLETE for task in region.tasks)


# --------------------------------------------------------------------------
# Valve monotonicity
# --------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                max_size=30),
       st.integers(min_value=0, max_value=50))
def test_count_valve_monotone(increments, threshold):
    count = Count("ct")
    valve = CountValve(count, threshold=threshold)
    history = []
    for delta in increments:
        count.add(delta)
        history.append(valve.check())
    assert history == sorted(history)  # False* then True*


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=10))
def test_tighten_never_loosens(base_fraction, tightenings):
    valve = PercentValve(Count("ct"), fraction=base_fraction, total=100.0)
    previous = valve.threshold
    for fraction in tightenings:
        valve.tighten(fraction)
        assert valve.threshold >= previous - 1e-12
        assert valve.threshold <= valve.max_threshold + 1e-9
        previous = valve.threshold


# --------------------------------------------------------------------------
# Event queue ordering
# --------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_event_queue_pops_sorted(times):
    queue = EventQueue()
    for t in times:
        queue.push(t, lambda: None)
    popped = []
    while queue:
        popped.append(queue.pop()[0])
    assert popped == sorted(popped)
    assert not math.isnan(popped[0])
