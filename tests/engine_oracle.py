"""The reference engine loop: the equivalence suite's oracle.

:func:`run_reference` is the original per-event Python scan of
:class:`repro.sim.engine.Engine`: on every event it re-runs each
occupied resource's water-fill (:meth:`Resource.allocate_rates`),
takes the earliest completion, drains every running task and admits
successors.  It is slow and obviously correct, which is why it lives
here: ``test_engine_equivalence.py`` holds ``Engine.run`` to it with
``==`` on every observable.
"""

import math

from repro.sim.engine import _EPS, SimResult, SimTask
from repro.sim.trace import TaskRecord, TraceRecorder


def _done_with_phases(task: SimTask) -> bool:
    """Whether every phase has completed."""
    return task._phase_index >= len(task.phases)


def _advance_phase(task: SimTask) -> bool:
    """Move to the next phase; return ``False`` when none remain."""
    task._phase_index += 1
    if task._phase_index >= len(task.phases):
        return False
    task.remaining = task.current_phase.work
    return True


def run_reference(resources: dict, tasks: list,
                  keep_finish_times: bool = False,
                  record_tasks: bool = False, injector=None) -> SimResult:
    """Run ``tasks`` on ``resources`` with the per-event Python scan.

    Same contract and arguments as :meth:`Engine.run`.
    """
    for resource in resources.values():
        resource.active.clear()
        resource.queue.clear()
    recorder = TraceRecorder(
        {kind: res.capacity for kind, res in resources.items()})
    now = 0.0
    events = 0
    finished = 0
    total = len(tasks)
    running: set = set()
    records: list = []
    segment_start: dict = {}  # task -> current segment's start time
    segments: dict = {}  # task -> [(kind value, t0, t1), ...]
    pred_names: dict = {}
    if record_tasks:
        pred_names = {id(task): [] for task in tasks}
        for task in tasks:
            for succ in task.succs:
                pred_names[id(succ)].append(task.name)

    def begin_segment(task: SimTask) -> None:
        if record_tasks:
            segment_start[id(task)] = now

    def end_segment(task: SimTask) -> None:
        if record_tasks:
            start = segment_start.pop(id(task))
            segments.setdefault(id(task), []).append(
                (task.current_phase.kind.value, start, now))

    def admit(task: SimTask) -> None:
        while True:
            if _done_with_phases(task) or not task.phases:
                complete(task)
                return
            if task.current_phase.work <= 0:
                if not _advance_phase(task):
                    complete(task)
                    return
                continue
            break
        resource = resources[task.current_phase.kind]
        if resource.has_free_slot():
            resource.active.append(task)
            running.add(task)
            begin_segment(task)
            if task.start_time is None:
                task.start_time = now
        else:
            resource.queue.append(task)
            if task.start_time is None:
                task.start_time = now

    def complete(task: SimTask) -> None:
        nonlocal finished
        task.finish_time = now
        finished += 1
        if record_tasks:
            records.append(TaskRecord(
                name=task.name,
                start=task.start_time if task.start_time is not None
                else now,
                end=now,
                preds=tuple(pred_names.get(id(task), ())),
                tags=dict(task.tags),
                segments=tuple(segments.pop(id(task), ()))))
        for succ in task.succs:
            succ.indegree -= 1
            if succ.indegree == 0:
                admit(succ)

    # Snapshot the initial ready set first: admitting a zero-work
    # task can cascade completions that drop other tasks' indegree
    # to zero, and those are already admitted by the cascade.
    initially_ready = [task for task in tasks if task.indegree == 0]
    for task in initially_ready:
        admit(task)

    def kill_in_flight() -> int:
        """Crash semantics: every in-flight task loses its current
        phase's progress and re-enters its resource queue."""
        killed = 0
        for resource in resources.values():
            for task in list(resource.active):
                end_segment(task)  # the aborted occupancy stays visible
                task.remaining = task.current_phase.work
                resource.active.remove(task)
                running.discard(task)
                resource.queue.append(task)
                killed += 1
            while resource.queue and resource.has_free_slot():
                queued = resource.queue.pop(0)
                resource.active.append(queued)
                running.add(queued)
                begin_segment(queued)
                if queued.start_time is None:
                    queued.start_time = now
        return killed

    while running:
        events += 1
        # Allocate rates per resource and find the earliest completion.
        rates: dict = {}
        totals: dict = {}
        dt = math.inf
        for kind, resource in resources.items():
            if not resource.active:
                continue
            scale = injector.scale(kind, now) if injector else 1.0
            allocation = resource.allocate_rates(scale)
            totals[kind] = sum(allocation.values())
            for task, rate in allocation.items():
                rates[task] = rate
                if rate > 0:
                    dt = min(dt, task.remaining / rate)
        if injector is not None:
            boundary = injector.next_boundary(now)
            if math.isfinite(boundary):
                dt = min(dt, max(boundary - now, 0.0))
        if not math.isfinite(dt):
            raise RuntimeError("simulation stalled with running tasks")
        dt = max(dt, 0.0)
        if dt > 0:
            recorder.add_interval(now, now + dt, totals)
        previous = now
        now += dt

        completed_phase = []
        for task, rate in rates.items():
            task.remaining -= rate * dt
            if task.remaining <= _EPS * max(1.0, rate):
                completed_phase.append(task)
        for task in completed_phase:
            resource = resources[task.current_phase.kind]
            end_segment(task)
            resource.active.remove(task)
            running.discard(task)
            while resource.queue and resource.has_free_slot():
                queued = resource.queue.pop(0)
                resource.active.append(queued)
                running.add(queued)
                begin_segment(queued)
                if queued.start_time is None:
                    queued.start_time = now
            if _advance_phase(task):
                admit(task)
            else:
                complete(task)

        if injector is not None:
            for event in injector.crashes_between(previous, now):
                injector.record(event, now, kill_in_flight())

    if finished != total:
        stuck = total - finished
        raise RuntimeError(
            f"{stuck} task(s) never became ready; dependency cycle?")
    finish_times = {}
    if keep_finish_times:
        finish_times = {task.name: task.finish_time for task in tasks}
    return SimResult(makespan=now, recorder=recorder,
                     task_count=total, event_count=events,
                     finish_times=finish_times, task_records=records)
