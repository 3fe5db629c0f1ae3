"""The discrete-event engine executing operator DAGs on shared resources.

Execution model:

* Every :class:`SimTask` runs its :class:`~repro.sim.resource.Phase`
  list in order; a phase occupies exactly one resource.
* A task becomes *ready* once all its predecessors finished; ready
  tasks are admitted to their first phase's resource, waiting FIFO if
  the resource has no free slot (the launch queue has one slot).
* Between events, every resource splits its capacity across occupants
  by water-filling; the engine advances to the earliest phase
  completion, logs the interval, and repeats.

The engine simulates a single worker node in detail.  Distributed
effects (collective communication volume, stragglers from skewed data)
enter through the phase costs computed by :mod:`repro.distributed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.hardware.topology import NodeSpec
from repro.sim.resource import Phase, Resource, ResourceKind
from repro.sim.trace import TaskRecord, TraceRecorder

_EPS = 1e-12

#: Initial capacity of the engine's slot arrays; grows by doubling
#: when concurrency exceeds it.
_MIN_SLOTS = 64


class SimTask:
    """One schedulable unit: an operator instance with sequential phases.

    :param name: identifier for debugging and per-task metrics.
    :param phases: the resource demands, executed in order.  Zero-work
        phases complete immediately and are allowed (useful for pure
        control-flow nodes).
    :param tags: free-form metadata (layer name, op kind, ...), carried
        into results for breakdowns.
    """

    __slots__ = ("name", "phases", "tags", "succs", "indegree",
                 "_phase_index", "remaining", "finish_time", "start_time",
                 "_slot", "_cap")

    def __init__(self, name: str, phases: list, tags: dict | None = None):
        self.name = name
        self.phases = list(phases)
        self.tags = tags or {}
        self.succs: list = []
        self.indegree = 0
        self._phase_index = 0
        self.remaining = self.phases[0].work if self.phases else 0.0
        self.finish_time: float | None = None
        self.start_time: float | None = None
        #: slot index in the engine's arrays (-1 = inactive) and the
        #: current phase's max_rate, both engine-managed.
        self._slot = -1
        self._cap = math.inf

    @property
    def current_phase(self) -> Phase:
        """The phase the task is currently executing or about to enter."""
        return self.phases[self._phase_index]

    def depends_on(self, other: "SimTask") -> None:
        """Declare that this task cannot start before ``other`` finishes."""
        other.succs.append(self)
        self.indegree += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimTask({self.name!r}, phases={len(self.phases)})"


@dataclass
class SimSummary:
    """Headline numbers of one engine run (a ``Stats`` object).

    The mergeable summary telemetry exports; ``merge`` composes two
    runs sequentially (makespans and counts add, per-resource busy
    time and work add).
    """

    makespan: float
    task_count: int
    event_count: int
    busy_seconds: dict = field(default_factory=dict)
    work_done: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Plain-dict snapshot for telemetry export and benchmarks."""
        return {
            "makespan": self.makespan,
            "task_count": self.task_count,
            "event_count": self.event_count,
            "busy_seconds": dict(self.busy_seconds),
            "work_done": dict(self.work_done),
        }

    def merge(self, other: "SimSummary") -> "SimSummary":
        """Sequential composition of two runs into one summary."""
        busy = dict(self.busy_seconds)
        for kind, seconds in other.busy_seconds.items():
            busy[kind] = busy.get(kind, 0.0) + seconds
        work = dict(self.work_done)
        for kind, units in other.work_done.items():
            work[kind] = work.get(kind, 0.0) + units
        return SimSummary(
            makespan=self.makespan + other.makespan,
            task_count=self.task_count + other.task_count,
            event_count=self.event_count + other.event_count,
            busy_seconds=busy, work_done=work)


@dataclass
class SimResult:
    """Outcome of one engine run."""

    makespan: float
    recorder: TraceRecorder
    task_count: int
    event_count: int
    finish_times: dict = field(default_factory=dict)
    #: populated when the engine ran with ``record_tasks=True``.
    task_records: list = field(default_factory=list)
    #: run provenance manifest (see :mod:`repro.telemetry.provenance`),
    #: stamped by the :func:`repro.api.run` facade.
    provenance: dict = field(default_factory=dict)

    def busy_fraction(self, kind: ResourceKind) -> float:
        """Fraction of the makespan the resource was occupied at all."""
        if self.makespan <= 0:
            return 0.0
        return min(1.0, self.recorder.trace(kind).busy_seconds / self.makespan)

    def mean_rate(self, kind: ResourceKind) -> float:
        """Average sustained rate on the resource over the makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.recorder.trace(kind).work_done / self.makespan

    def summary(self) -> SimSummary:
        """The mergeable :class:`SimSummary` of this run."""
        return SimSummary(
            makespan=self.makespan,
            task_count=self.task_count,
            event_count=self.event_count,
            busy_seconds={kind.value:
                          self.recorder.trace(kind).busy_seconds
                          for kind in self.recorder.kinds()},
            work_done={kind.value: self.recorder.trace(kind).work_done
                       for kind in self.recorder.kinds()})


def build_node_resources(node: NodeSpec, launch_slots: int = 4,
                         net_efficiency: float = 0.35,
                         pcie_efficiency: float = 0.5) -> dict:
    """Instantiate the per-worker resource set for a cluster node.

    One worker owns one GPU; the host-side resources (DRAM bandwidth,
    PCIe lanes, NIC) are divided evenly among the node's workers, which
    is how co-located workers contend in practice.

    ``launch_slots`` models the framework's inter-op parallelism (TF
    executors dispatch from a small thread pool); ``net_efficiency`` is
    the achievable fraction of NIC line rate for collective traffic
    (protocol overhead, incast, synchronization).
    """
    share = max(1, node.gpus_per_node)
    resources = {
        ResourceKind.LAUNCH: Resource(
            ResourceKind.LAUNCH, capacity=float(launch_slots),
            slots=launch_slots),
        ResourceKind.CPU: Resource(
            ResourceKind.CPU, capacity=node.cpu.fp32_flops / share),
        ResourceKind.GPU_SM: Resource(
            ResourceKind.GPU_SM, capacity=node.gpu.fp32_flops),
        ResourceKind.HBM: Resource(
            ResourceKind.HBM, capacity=node.gpu.hbm_bandwidth),
        ResourceKind.DRAM: Resource(
            ResourceKind.DRAM, capacity=node.dram.bandwidth / share),
        ResourceKind.PCIE: Resource(
            ResourceKind.PCIE,
            capacity=node.pcie.bandwidth * pcie_efficiency),
        ResourceKind.NET: Resource(
            ResourceKind.NET,
            capacity=node.network.bandwidth * net_efficiency / share),
    }
    if node.nvlink is not None:
        resources[ResourceKind.NVLINK] = Resource(
            ResourceKind.NVLINK, capacity=node.nvlink.bandwidth)
    return resources


class _Lane:
    """Cached rate allocation of one resource.

    The water-filling allocation (:meth:`Resource.allocate_rates`) is a
    pure function of the occupant list and the fault scale, so a lane
    caches it and only recomputes when membership or scale actually
    changed (the ``dirty`` flag).  ``alloc_tasks``/``alloc_rates``
    preserve ``allocate_rates``' dict insertion order — capped tasks
    first, per water-filling iteration, then the uncapped fair-share
    rest — which the engine relies on to emit completions in a fixed,
    reproducible order.
    """

    __slots__ = ("resource", "capacity", "alloc_tasks", "alloc_rates",
                 "total", "scale", "dirty", "live", "busy", "work",
                 "trace", "seg_append")

    def __init__(self, resource: Resource, trace):
        self.resource = resource
        self.capacity = resource.capacity
        self.alloc_tasks: list = []
        self.alloc_rates: list = []
        self.total = 0.0
        self.scale = 1.0
        self.dirty = False
        #: whether the lane currently has occupants (mirrors
        #: ``resource.active`` being non-empty after the last rebuild);
        #: live lanes are the only ones the trace step visits.
        self.live = False
        # Trace accumulators, folded in event order exactly as
        # ``TraceRecorder.add_interval`` would; flushed into the
        # ResourceTrace at the end of the run.
        self.busy = 0.0
        self.work = 0.0
        self.trace = trace
        self.seg_append = trace.segments.append


class Engine:
    """Runs a set of :class:`SimTask` DAG nodes to completion.

    The event loop keeps every active task's remaining work in a flat
    numpy slot array, caches per-resource rate allocations until
    membership changes, and advances events with a handful of
    whole-array operations.  ``tests/engine_oracle.py`` keeps the
    original per-event Python scan as the executable specification;
    the equivalence suite holds this loop to it bit for bit —
    makespans, utilization traces, task records and fault
    kill/requeue ordering.
    """

    def __init__(self, resources: dict, record_trace: bool = True):
        """:param resources: mapping of kind -> :class:`Resource`."""
        self.resources = resources
        self.record_trace = record_trace

    def run(self, tasks: list, keep_finish_times: bool = False,
            record_tasks: bool = False, injector=None) -> SimResult:
        """Execute ``tasks`` and return timing plus utilization traces.

        With ``record_tasks=True`` the result additionally carries one
        :class:`~repro.sim.trace.TaskRecord` per task (dependency
        names, per-phase execution segments) — the raw feed for
        :mod:`repro.telemetry`'s trace export and critical-path
        analysis.  Purely additive: scheduling decisions are identical
        either way.

        ``injector`` (a :class:`~repro.faults.inject.FaultInjector`)
        perturbs the run: per-kind capacity scaling over fault windows
        (stragglers, degraded links, crash blackouts) and, at each
        crash, kill-and-requeue of every in-flight task — the current
        phase's partial progress is lost and the task re-enters its
        resource queue.  Event stepping is exact: time advances to the
        earliest of the next phase completion and the next fault
        boundary, so capacity changes never smear across a window edge.

        Raises :class:`RuntimeError` on dependency cycles (detected as a
        stall with unfinished tasks) and :class:`KeyError` when a phase
        references a resource kind this engine was not built with.

        Design (see DESIGN.md "Engine internals"):

        * every *active* task owns a slot in flat float64 arrays
          (``remaining``/``rate``/``thresh``); slots are recycled
          through a free list, so array length tracks peak concurrency,
          not task count.  Inactive slots hold ``remaining = inf`` and
          ``rate = 1.0`` so they are inert under every whole-array op;
        * per-resource allocations live in :class:`_Lane` caches,
          recomputed only when occupancy or the fault scale changes;
        * each event is one fused sweep — divide / min for the next
          completion, multiply / subtract for the work drain, a
          compare + ``flatnonzero`` for completions — instead of an
          O(resources x occupants) Python scan.

        Bitwise equality with the reference scan holds because
        elementwise float64 numpy arithmetic (divide, multiply,
        subtract) rounds identically to Python scalar arithmetic,
        min/compare operations pick values without rounding, and every
        order-sensitive reduction (the recorder totals, completion
        emission) still runs in allocation order.
        """
        resources = self.resources
        res_items = list(resources.items())
        for resource in resources.values():
            resource.active.clear()
            resource.queue.clear()
        recorder = TraceRecorder(
            {kind: res.capacity for kind, res in res_items})
        now = 0.0
        events = 0
        finished = 0
        total = len(tasks)
        running: set = set()
        running_add = running.add
        records: list = []
        segment_start: dict = {}
        segments: dict = {}
        pred_names: dict = {}
        if record_tasks:
            pred_names = {id(task): [] for task in tasks}
            for task in tasks:
                for succ in task.succs:
                    pred_names[id(succ)].append(task.name)

        # --- flat slot state -------------------------------------------------
        cap = _MIN_SLOTS
        remaining = np.full(cap, np.inf)
        rate = np.ones(cap)
        thresh = np.full(cap, -1.0)
        buf_eta = np.empty(cap)
        buf_tmp = np.empty(cap)
        buf_cmp = np.empty(cap, dtype=bool)
        slot_task: list = [None] * cap
        free_slots = list(range(cap - 1, -1, -1))
        lanes = {kind: _Lane(res, recorder.trace(kind))
                 for kind, res in res_items}
        #: ``(resource, lane)`` per kind, so hot paths pay one dict
        #: lookup instead of two.
        kind_info = {kind: (res, lanes[kind]) for kind, res in res_items}
        #: lanes whose allocation must be recomputed before the next
        #: event (appended at most once each — the ``dirty`` flag).
        dirty_lanes: list = []
        dirty_append = dirty_lanes.append
        #: lanes with occupants, maintained by ``rebuild``; the per-event
        #: trace step walks these instead of re-deriving a totals dict.
        live_lanes: list = []

        def grow() -> None:
            nonlocal cap, remaining, rate, thresh, buf_eta, buf_tmp, buf_cmp
            nonlocal eta_argmin, eta_item, cmp_nonzero
            new_cap = cap * 2
            remaining = np.concatenate(
                [remaining, np.full(cap, np.inf)])
            rate = np.concatenate([rate, np.ones(cap)])
            thresh = np.concatenate([thresh, np.full(cap, -1.0)])
            buf_eta = np.empty(new_cap)
            buf_tmp = np.empty(new_cap)
            buf_cmp = np.empty(new_cap, dtype=bool)
            eta_argmin = buf_eta.argmin
            eta_item = buf_eta.item
            cmp_nonzero = buf_cmp.nonzero
            slot_task.extend([None] * cap)
            free_slots.extend(range(new_cap - 1, cap - 1, -1))
            cap = new_cap

        def activate(task: SimTask) -> None:
            if not free_slots:
                grow()
            slot = free_slots.pop()
            task._slot = slot
            slot_task[slot] = task
            remaining[slot] = task.remaining
            running.add(task)

        def deactivate(task: SimTask) -> None:
            slot = task._slot
            task._slot = -1
            slot_task[slot] = None
            remaining[slot] = np.inf
            rate[slot] = 1.0
            thresh[slot] = -1.0
            free_slots.append(slot)
            running.discard(task)

        def rebuild(lane: _Lane) -> None:
            """Recompute one resource's allocation (water-fill).

            Mirrors ``Resource.allocate_rates`` op for op — same
            iteration structure, same sequential budget subtraction —
            so rates and their order are bit-identical; then scatters
            rates and completion thresholds into the slot arrays.
            Also maintains ``live_lanes`` membership and ``lane.total``
            so the trace step needs no per-event recomputation.
            """
            lane.dirty = False
            resource = lane.resource
            active = resource.active
            if not active:
                lane.alloc_tasks = []
                lane.alloc_rates = []
                lane.total = 0.0
                if lane.live:
                    live_lanes.remove(lane)
                    lane.live = False
                return
            scale = lane.scale
            if scale == 1.0:
                budget = lane.capacity
                if len(active) == 1:
                    # The dominant case at this workload's occupancy:
                    # one occupant, full capacity.  ``fair = budget/1``
                    # is exact, so the water-fill collapses to one min.
                    task = active[0]
                    max_rate = task._cap
                    task_rate = max_rate if max_rate < budget else budget
                    lane.alloc_tasks = [task]
                    lane.alloc_rates = [task_rate]
                    lane.total = task_rate
                    slot = task._slot
                    rate[slot] = task_rate
                    thresh[slot] = _EPS * (task_rate if task_rate > 1.0
                                           else 1.0)
                    if not lane.live:
                        live_lanes.append(lane)
                        lane.live = True
                    return
                if len(active) == 2:
                    # Two occupants: the water-fill has four outcomes
                    # (neither / both / either one capped); spelling
                    # them out skips the general loop while keeping
                    # the same float ops in the same order — capped
                    # tasks are still emitted first.
                    first, second = active
                    cap_first = first._cap
                    cap_second = second._cap
                    fair = budget / 2
                    if cap_first < fair:
                        if cap_second < fair:
                            alloc_tasks = [first, second]
                            alloc_rates = [cap_first, cap_second]
                            total = cap_first + cap_second
                        else:
                            left = budget - cap_first
                            if left <= 0:
                                rate_second = 1e-12
                            elif cap_second < left:
                                rate_second = cap_second
                            else:
                                rate_second = left
                            alloc_tasks = [first, second]
                            alloc_rates = [cap_first, rate_second]
                            total = cap_first + rate_second
                    elif cap_second < fair:
                        left = budget - cap_second
                        if left <= 0:
                            rate_first = 1e-12
                        elif cap_first < left:
                            rate_first = cap_first
                        else:
                            rate_first = left
                        alloc_tasks = [second, first]
                        alloc_rates = [cap_second, rate_first]
                        total = cap_second + rate_first
                    else:
                        alloc_tasks = [first, second]
                        alloc_rates = [fair, fair]
                        total = fair + fair
                    lane.alloc_tasks = alloc_tasks
                    lane.alloc_rates = alloc_rates
                    lane.total = total
                    task_rate = alloc_rates[0]
                    slot = alloc_tasks[0]._slot
                    rate[slot] = task_rate
                    thresh[slot] = _EPS * (task_rate if task_rate > 1.0
                                           else 1.0)
                    task_rate = alloc_rates[1]
                    slot = alloc_tasks[1]._slot
                    rate[slot] = task_rate
                    thresh[slot] = _EPS * (task_rate if task_rate > 1.0
                                           else 1.0)
                    if not lane.live:
                        live_lanes.append(lane)
                        lane.live = True
                    return
            elif scale <= 0.0:
                budget = None
            else:
                budget = lane.capacity * min(1.0, float(scale))
            if budget is None:
                alloc_tasks = list(active)
                alloc_rates = [0.0] * len(active)
            else:
                # Single-pass form of allocate_rates' two-comprehension
                # water-fill: capped tasks are appended (and their
                # rates deducted) in the same pending order, the
                # survivors filtered with the same ``>= fair`` test,
                # so every float and every position is unchanged.
                pending = active
                alloc_tasks = []
                alloc_rates = []
                while True:
                    fair = budget / len(pending)
                    survivors = []
                    any_capped = False
                    for task in pending:
                        max_rate = task._cap
                        if max_rate < fair:
                            alloc_tasks.append(task)
                            alloc_rates.append(max_rate)
                            budget -= max_rate
                            any_capped = True
                        else:
                            survivors.append(task)
                    if not any_capped:
                        alloc_tasks.extend(pending)
                        alloc_rates.extend([fair] * len(pending))
                        break
                    if budget <= 0:
                        alloc_tasks.extend(survivors)
                        alloc_rates.extend([1e-12] * len(survivors))
                        break
                    if not survivors:
                        break
                    pending = survivors
            lane.alloc_tasks = alloc_tasks
            lane.alloc_rates = alloc_rates
            lane.total = sum(alloc_rates)
            for task, task_rate in zip(alloc_tasks, alloc_rates):
                slot = task._slot
                rate[slot] = task_rate
                thresh[slot] = _EPS * (task_rate if task_rate > 1.0 else 1.0)
            if not lane.live:
                live_lanes.append(lane)
                lane.live = True

        def begin_segment(task: SimTask) -> None:
            if record_tasks:
                segment_start[id(task)] = now

        def end_segment(task: SimTask) -> None:
            if record_tasks:
                start = segment_start.pop(id(task))
                segments.setdefault(id(task), []).append(
                    (task.current_phase.kind.value, start, now))

        def admit(task: SimTask) -> None:
            # Skip zero-work phases by stepping ``_phase_index``
            # directly: they complete immediately, in phase order.
            phases = task.phases
            count = len(phases)
            index = task._phase_index
            while True:
                if index >= count:
                    complete(task)
                    return
                phase = phases[index]
                if phase.work <= 0:
                    index += 1
                    task._phase_index = index
                    if index >= count:
                        complete(task)
                        return
                    task.remaining = phases[index].work
                    continue
                break
            resource, lane = kind_info[phase.kind]
            task._cap = phase.max_rate
            if resource.slots is None or len(resource.active) < resource.slots:
                resource.active.append(task)
                if not lane.dirty:
                    lane.dirty = True
                    dirty_append(lane)
                # activate(task), inlined
                if not free_slots:
                    grow()
                slot = free_slots.pop()
                task._slot = slot
                slot_task[slot] = task
                remaining[slot] = task.remaining
                running_add(task)
                if record_tasks:
                    segment_start[id(task)] = now
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
            for kind, resource in res_items:
                changed = False
                for task in list(resource.active):
                    end_segment(task)  # the aborted occupancy stays visible
                    task.remaining = task.current_phase.work
                    resource.active.remove(task)
                    deactivate(task)
                    resource.queue.append(task)
                    killed += 1
                    changed = True
                while resource.queue and resource.has_free_slot():
                    queued = resource.queue.pop(0)
                    resource.active.append(queued)
                    activate(queued)
                    begin_segment(queued)
                    if queued.start_time is None:
                        queued.start_time = now
                    changed = True
                if changed:
                    lane = lanes[kind]
                    if not lane.dirty:
                        lane.dirty = True
                        dirty_append(lane)
            return killed

        isfinite = math.isfinite
        np_divide = np.divide
        np_multiply = np.multiply
        np_subtract = np.subtract
        np_less_equal = np.less_equal
        running_discard = running.discard
        free_append = free_slots.append
        # 0-d staging array for the scalar dt: feeding an ndarray to the
        # ufunc skips the per-call Python-float boxing.
        dt_arr = np.empty(())
        eta_argmin = buf_eta.argmin
        eta_item = buf_eta.item
        cmp_nonzero = buf_cmp.nonzero
        with np.errstate(divide="ignore"):
            while running:
                events += 1
                if injector is not None:
                    for kind, resource in res_items:
                        if resource.active:
                            lane = lanes[kind]
                            scale = injector.scale(kind, now)
                            if scale != lane.scale:
                                lane.scale = scale
                                if not lane.dirty:
                                    lane.dirty = True
                                    dirty_append(lane)
                if dirty_lanes:
                    for lane in dirty_lanes:
                        rebuild(lane)
                    del dirty_lanes[:]
                np_divide(remaining, rate, out=buf_eta)
                dt = eta_item(eta_argmin())
                if injector is not None:
                    boundary = injector.next_boundary(now)
                    if isfinite(boundary):
                        dt = min(dt, max(boundary - now, 0.0))
                if not isfinite(dt):
                    raise RuntimeError(
                        "simulation stalled with running tasks")
                if dt < 0.0:
                    dt = 0.0
                previous = now
                if dt > 0.0:
                    end = now + dt
                    dtp = end - now
                    if dtp > 0.0:
                        # ``recorder.add_interval``, unrolled
                        # over the live lanes; same fold order per
                        # kind, so the accumulators round identically.
                        for lane in live_lanes:
                            lane_total = lane.total
                            if lane_total > 0.0:
                                lane.busy += dtp
                                lane.work += lane_total * dtp
                                lane.seg_append((now, end, lane_total))
                    now = end

                dt_arr[...] = dt
                np_multiply(rate, dt_arr, out=buf_tmp)
                np_subtract(remaining, buf_tmp, out=remaining)
                np_less_equal(remaining, thresh, out=buf_cmp)
                hits = cmp_nonzero()[0]
                if hits.shape[0]:
                    if hits.shape[0] == 1:
                        completed_phase = [slot_task[hits.item(0)]]
                    else:
                        # Emit in the reference order: resources-dict
                        # iteration order, allocation order within.
                        hit_set = {slot_task[index] for index in hits}
                        completed_phase = []
                        for kind, resource in res_items:
                            if resource.active:
                                for task in lanes[kind].alloc_tasks:
                                    if task in hit_set:
                                        completed_phase.append(task)
                    for task in completed_phase:
                        phases = task.phases
                        index = task._phase_index
                        resource, lane = kind_info[phases[index].kind]
                        if record_tasks:
                            end_segment(task)
                        resource.active.remove(task)
                        if resource.active or resource.queue:
                            if not lane.dirty:
                                lane.dirty = True
                                dirty_append(lane)
                        elif lane.dirty:
                            pass  # queued rebuild will clear the lane
                        else:
                            # Lane emptied: clear the allocation inline
                            # instead of queueing a rebuild.
                            lane.alloc_tasks = ()
                            lane.alloc_rates = ()
                            lane.total = 0.0
                            if lane.live:
                                live_lanes.remove(lane)
                                lane.live = False
                        # deactivate(task), inlined
                        slot = task._slot
                        task._slot = -1
                        slot_task[slot] = None
                        remaining[slot] = np.inf
                        rate[slot] = 1.0
                        thresh[slot] = -1.0
                        free_append(slot)
                        running_discard(task)
                        while resource.queue and resource.has_free_slot():
                            queued = resource.queue.pop(0)
                            resource.active.append(queued)
                            activate(queued)
                            begin_segment(queued)
                            if queued.start_time is None:
                                queued.start_time = now
                        # advance to the next phase
                        index += 1
                        task._phase_index = index
                        if index < len(phases):
                            task.remaining = phases[index].work
                            admit(task)
                        else:
                            complete(task)

                if injector is not None:
                    for event in injector.crashes_between(previous, now):
                        injector.record(event, now, kill_in_flight())

        # Flush the per-lane trace accumulators into the recorder the
        # callers see; folding happened in event order, so
        # every float is byte-identical to an add_interval stream.
        for lane in lanes.values():
            lane.trace.busy_seconds = lane.busy
            lane.trace.work_done = lane.work

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
