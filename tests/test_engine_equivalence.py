"""Bitwise equivalence of ``Engine.run`` vs the reference loop.

The engine's numpy event loop is only allowed to be *faster* than the
per-event Python scan it replaced (kept as the oracle in
``tests/engine_oracle.py``) — never different.  Every test here runs
the same workload through both loops and compares the complete
observable outcome with ``==`` (no tolerances): makespan, event
counts, finish times, per-task execution segments, per-resource
utilization traces, and the fault injector's kill/requeue log.  Any
float that drifts by one ulp fails.

Workloads come from three sources: hand-built DAGs covering the
engine's edge cases, hypothesis-generated random DAGs, and the real
compiled plans the bench suites run.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import RunConfig, run
from repro.core.config import PicassoConfig
from repro.core.executor import compile_plan
from repro.core.planner import PicassoPlanner
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.sim import Engine, Phase, Resource, ResourceKind, SimTask
from tests.engine_oracle import run_reference

KINDS = (ResourceKind.NET, ResourceKind.GPU_SM, ResourceKind.HBM,
         ResourceKind.CPU)


def _run_both(resources_builder, tasks_builder, **run_kwargs):
    """Run fresh tasks through the oracle, then the engine; return both.

    Builders are callables so each loop gets its own task/resource
    objects — the engine mutates both during a run.
    """
    kwargs = dict(keep_finish_times=True, record_tasks=True, **run_kwargs)
    reference = run_reference(resources_builder(), tasks_builder(),
                              **kwargs)
    engine = Engine(resources_builder()).run(tasks_builder(), **kwargs)
    return reference, engine


def _assert_bitwise_equal(reference, engine):
    """Every observable of the two results must compare ``==``."""
    assert engine.makespan == reference.makespan
    assert engine.task_count == reference.task_count
    assert engine.event_count == reference.event_count
    assert engine.finish_times == reference.finish_times
    reference_records = [(r.name, r.start, r.end, r.preds, r.segments)
                         for r in reference.task_records]
    engine_records = [(r.name, r.start, r.end, r.preds, r.segments)
                      for r in engine.task_records]
    assert engine_records == reference_records
    assert set(engine.recorder.kinds()) == set(reference.recorder.kinds())
    for kind in reference.recorder.kinds():
        a = reference.recorder.trace(kind)
        b = engine.recorder.trace(kind)
        assert b.busy_seconds == a.busy_seconds, kind
        assert b.work_done == a.work_done, kind
        assert b.segments == a.segments, kind


# ---------------------------------------------------------------------
# Hand-built DAGs: the engine's structural edge cases.
# ---------------------------------------------------------------------

class TestHandBuiltEquivalence:
    def _resources(self):
        return {
            ResourceKind.NET: Resource(ResourceKind.NET, capacity=10.0),
            ResourceKind.GPU_SM: Resource(ResourceKind.GPU_SM,
                                          capacity=7.0),
            ResourceKind.LAUNCH: Resource(ResourceKind.LAUNCH,
                                          capacity=2.0, slots=2),
        }

    def test_empty_task_list(self):
        reference, engine = _run_both(self._resources, lambda: [])
        _assert_bitwise_equal(reference, engine)

    def test_zero_phase_and_zero_work_tasks(self):
        def tasks():
            a = SimTask("a", [])
            b = SimTask("b", [Phase(ResourceKind.NET, 0.0),
                              Phase(ResourceKind.NET, 13.0)])
            c = SimTask("c", [Phase(ResourceKind.GPU_SM, 0.0)])
            c.depends_on(a)
            return [a, b, c]
        reference, engine = _run_both(self._resources, tasks)
        _assert_bitwise_equal(reference, engine)

    def test_processor_sharing_with_caps(self):
        def tasks():
            out = [SimTask(f"t{i}",
                           [Phase(ResourceKind.NET, 37.0,
                                  max_rate=1.5 + 0.7 * i)])
                   for i in range(5)]
            out.append(SimTask("free", [Phase(ResourceKind.NET, 11.0)]))
            return out
        reference, engine = _run_both(self._resources, tasks)
        _assert_bitwise_equal(reference, engine)

    def test_fifo_slot_queue_ordering(self):
        def tasks():
            # 5 tasks through a 2-slot resource: admission order and
            # queue rotation must match the reference FIFO exactly.
            return [SimTask(f"q{i}",
                            [Phase(ResourceKind.LAUNCH, 1.0 + i),
                             Phase(ResourceKind.NET, 5.0)])
                    for i in range(5)]
        reference, engine = _run_both(self._resources, tasks)
        _assert_bitwise_equal(reference, engine)

    def test_diamond_with_mixed_kinds(self):
        def tasks():
            a = SimTask("a", [Phase(ResourceKind.NET, 10.0)])
            b = SimTask("b", [Phase(ResourceKind.GPU_SM, 21.0)])
            c = SimTask("c", [Phase(ResourceKind.NET, 8.0),
                              Phase(ResourceKind.GPU_SM, 3.0)])
            d = SimTask("d", [Phase(ResourceKind.NET, 1.0)])
            b.depends_on(a)
            c.depends_on(a)
            d.depends_on(b)
            d.depends_on(c)
            return [a, b, c, d]
        reference, engine = _run_both(self._resources, tasks)
        _assert_bitwise_equal(reference, engine)

    def test_cycle_detection_in_both_loops(self):
        def cycle():
            a = SimTask("a", [Phase(ResourceKind.NET, 1.0)])
            b = SimTask("b", [Phase(ResourceKind.NET, 1.0)])
            a.depends_on(b)
            b.depends_on(a)
            return [a, b]
        with pytest.raises(RuntimeError):
            run_reference(self._resources(), cycle())
        with pytest.raises(RuntimeError):
            Engine(self._resources()).run(cycle())


# ---------------------------------------------------------------------
# Random DAGs (hypothesis): structure, work amounts, caps, and slots
# drawn adversarially.
# ---------------------------------------------------------------------

@st.composite
def dag_specs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    work = st.floats(min_value=1e-6, max_value=1e4,
                     allow_nan=False, allow_infinity=False)
    tasks = []
    for i in range(n):
        phase_count = draw(st.integers(min_value=0, max_value=3))
        phases = []
        for _ in range(phase_count):
            kind = draw(st.sampled_from(range(len(KINDS))))
            cap = draw(st.one_of(
                st.none(),
                st.floats(min_value=0.1, max_value=50.0,
                          allow_nan=False)))
            phases.append((kind, draw(work), cap))
        preds = sorted(draw(st.sets(
            st.integers(min_value=0, max_value=i - 1),
            max_size=min(i, 3)))) if i else []
        tasks.append((phases, preds))
    capacities = tuple(
        draw(st.floats(min_value=0.5, max_value=100.0,
                       allow_nan=False))
        for _ in KINDS)
    slots = draw(st.one_of(st.none(),
                           st.integers(min_value=1, max_value=3)))
    return tasks, capacities, slots


def _materialize(spec):
    task_specs, capacities, slots = spec

    def resources():
        built = {
            kind: Resource(kind, capacity=capacity)
            for kind, capacity in zip(KINDS, capacities)
        }
        if slots is not None:
            built[KINDS[0]] = Resource(KINDS[0],
                                       capacity=capacities[0],
                                       slots=slots)
        return built

    def tasks():
        built = []
        for index, (phases, _preds) in enumerate(task_specs):
            built.append(SimTask(
                f"t{index}",
                [Phase(KINDS[kind], amount)
                 if cap is None
                 else Phase(KINDS[kind], amount, max_rate=cap)
                 for kind, amount, cap in phases]))
        for index, (_phases, preds) in enumerate(task_specs):
            for pred in preds:
                built[index].depends_on(built[pred])
        return built

    return resources, tasks


class TestRandomDagEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(dag_specs())
    def test_random_dag_bitwise(self, spec):
        resources, tasks = _materialize(spec)
        reference, engine = _run_both(resources, tasks)
        _assert_bitwise_equal(reference, engine)


# ---------------------------------------------------------------------
# Fault injection: capacity windows and crash kill/requeue ordering.
# ---------------------------------------------------------------------

class TestFaultEquivalence:
    def _plan(self):
        return FaultPlan(events=(
            FaultEvent(kind="straggler", time_s=0.5, duration_s=2.0,
                       severity=3.0),
            FaultEvent(kind="crash", time_s=2.0, duration_s=1.0),
            FaultEvent(kind="link_degrade", time_s=4.0,
                       duration_s=2.0, severity=0.5),
            FaultEvent(kind="crash", time_s=7.0, duration_s=0.5),
        ))

    def _resources(self):
        return {
            ResourceKind.NET: Resource(ResourceKind.NET, capacity=10.0),
            ResourceKind.GPU_SM: Resource(ResourceKind.GPU_SM,
                                          capacity=7.0),
        }

    def _tasks(self):
        out = []
        for i in range(8):
            task = SimTask(f"f{i}",
                           [Phase(ResourceKind.NET, 9.0 + i),
                            Phase(ResourceKind.GPU_SM, 4.0)])
            if i >= 4:
                task.depends_on(out[i - 4])
            out.append(task)
        return out

    def test_faulted_run_bitwise(self):
        injectors = [FaultInjector(self._plan()) for _ in range(2)]
        reference = run_reference(self._resources(), self._tasks(),
                                  keep_finish_times=True,
                                  record_tasks=True,
                                  injector=injectors[0])
        engine = Engine(self._resources()).run(self._tasks(),
                                               keep_finish_times=True,
                                               record_tasks=True,
                                               injector=injectors[1])
        logs = [[(event.kind, event.time_s, time_s, killed)
                 for event, time_s, killed in injector.log]
                for injector in injectors]
        _assert_bitwise_equal(reference, engine)
        # Kill/requeue ordering: same crashes applied at the same
        # instants, killing the same number of in-flight tasks.
        assert logs[1] == logs[0]
        assert any(killed > 0 for _k, _t0, _t1, killed in logs[0])


# ---------------------------------------------------------------------
# Real compiled plans: the exact workloads the bench suites gate.
# ---------------------------------------------------------------------

class TestCompiledPlanEquivalence:
    @pytest.mark.parametrize("scale,batch,iterations", [
        (0.05, 4000, 2),
        (0.2, 8000, 1),
    ])
    def test_bench_workload_bitwise(self, scale, batch, iterations):
        config = RunConfig(model="W&D", dataset="Product-1",
                           scale=scale, cluster="eflops:2",
                           batch_size=batch, iterations=iterations)
        planner = PicassoPlanner(config.picasso or PicassoConfig())
        plan = planner.plan(config.build_model(),
                            config.resolved_cluster(), batch)
        # compile_plan memoizes (graph, tasks) per fingerprint and
        # resets task state on every hit, so both loops see identical
        # fresh task objects.
        _graph, tasks, resources = compile_plan(plan, iterations)
        reference = run_reference(resources, tasks,
                                  keep_finish_times=True,
                                  record_tasks=True)
        _graph, tasks, resources = compile_plan(plan, iterations)
        engine = Engine(resources).run(tasks, keep_finish_times=True,
                                       record_tasks=True)
        _assert_bitwise_equal(reference, engine)


# ---------------------------------------------------------------------
# The full-scale single-step workload, pinned to exact values.
# ---------------------------------------------------------------------

class TestFullScaleWorkload:
    def test_structure_and_modeled_throughput_exact(self):
        # The full-scale W&D model for one step.  A change to the
        # graph, the lowering or the engine's arithmetic moves at least
        # one of these four values.
        report = run(RunConfig(model="W&D", dataset="Product-1",
                               scale=1.0, cluster="eflops:2",
                               batch_size=20_000, iterations=1))
        summary = report.result.summary()
        assert summary.task_count == 243
        assert summary.event_count == 479
        assert report.result.makespan == 0.46374228643299586
        assert report.ips == 43127.40197542825
