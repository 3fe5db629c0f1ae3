"""Executing plans on the simulator and reporting the paper's metrics.

:func:`simulate_plan` is the shared measurement harness: it compiles an
:class:`~repro.graph.builder.ExecutionPlan` to an operator graph, runs
it, and reports the metrics the paper's tables use (IPS, SM
utilization, PCIe GB/s, network Gbps, breakdowns).
:class:`PicassoExecutor` wraps it behind the user-facing API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import PicassoConfig
from repro.core.planner import PicassoPlanner
from repro.graph.builder import ExecutionPlan, IterationGraphBuilder
from repro.hardware.topology import ClusterSpec
from repro.memo import Memo
from repro.models.base import ModelSpec
from repro.sim.engine import Engine, SimResult, build_node_resources
from repro.sim.resource import ResourceKind


@dataclass
class RunReport:
    """Simulation outcome in the paper's units.

    :param ips: training throughput in instances/second per worker.
    :param sm_utilization: mean fraction of GPU FLOP capacity used —
        the DCGM-style "GPU SM utilization" percentage when x100.
    :param pcie_gbps: sustained PCIe traffic in gigaBYTES/s (Tab. IV).
    :param net_gbps: sustained network traffic in gigaBITS/s (Tab. IV).
    """

    name: str
    batch_size: int
    iterations: int
    seconds_per_iteration: float
    ips: float
    sm_utilization: float
    sm_flops_utilization: float
    sm_busy_fraction: float
    launch_busy_fraction: float
    pcie_gbps: float
    net_gbps: float
    nvlink_gbps: float
    op_count: int
    micro_ops: int
    packed_embeddings: int
    result: SimResult
    _breakdown: dict | None = field(default=None, repr=False)

    @property
    def breakdown(self) -> dict:
        """Time-weighted busy-category breakdown (computed lazily).

        Derived from the run's utilization traces on first access; the
        event sweep is a measurable slice of a run's wall-clock cost
        and most callers (benchmarks, tuning) never read it.
        """
        if self._breakdown is None:
            self._breakdown = self.result.recorder.category_breakdown(
                self.result.makespan)
        return self._breakdown

    @property
    def node_ips(self) -> float:
        """Per-node throughput (workers-per-node x per-worker IPS)."""
        return self.ips

    def gpu_core_hours(self, instances: float, workers: int = 1) -> float:
        """GPU hours to train ``instances`` rows on ``workers`` GPUs.

        Synchronous data-parallel workers consume distinct instances,
        so the fleet processes ``workers * ips`` instances per second
        while burning ``workers`` GPU-seconds per second.
        """
        if self.ips <= 0:
            return float("inf")
        return instances / self.ips / 3600.0


#: Compiled-plan memo: ``(plan fingerprint, iterations)`` ->
#: ``(graph, tasks, initial indegrees)``.  Graph building is fully
#: deterministic (workload statistics are seeded), so two plans with
#: equal signatures compile to identical graphs; repeated
#: bench/tune/replay invocations of the same workload skip the rebuild
#: entirely.
_COMPILED = Memo(64)


def _reset_tasks(tasks: list, indegrees: list) -> None:
    """Rewind cached ``SimTask`` objects to their just-built state.

    The engine consumes tasks destructively (indegrees count down,
    phases advance, remaining work drains); a cache hit hands out the
    same objects, so they are rewound first.  This mirrors exactly what
    ``Graph.to_sim_tasks`` initialises.
    """
    for task, indegree in zip(tasks, indegrees):
        task.indegree = indegree
        task._phase_index = 0
        task.remaining = task.phases[0].work if task.phases else 0.0
        task.finish_time = None
        task.start_time = None


def compile_plan(plan: ExecutionPlan, iterations: int) -> tuple:
    """Compile a plan to ``(graph, tasks, resources)``, costs applied.

    This is the deterministic front half of :func:`simulate_plan`: the
    operator graph, the launch-cost projection (including the
    superlinear large-graph scheduling overhead) and the node's
    resource set — everything the engine needs, and everything the
    what-if predictor (:mod:`repro.tuning`) needs to total per-kind
    work without running the engine.

    Results are cached keyed by the sha256 fingerprint of
    ``plan.signature()`` plus ``iterations``; a hit returns the cached
    graph with its task set rewound to the just-built state (the task
    objects are shared, so do not interleave two concurrent engine
    runs of the same compiled plan).  Resources are always rebuilt —
    they carry engine occupancy state.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    # Imported lazily: repro.bench's package init pulls in the api
    # facade, which imports this module.
    from repro.bench.snapshot import config_fingerprint

    # The fingerprint is cached on the plan object: plans are immutable
    # once planning returns (the planner's plan cache shares them), and
    # hashing a wide plan's signature is a measurable slice of a warm
    # run.
    fingerprint = getattr(plan, "_fingerprint", None)
    if fingerprint is None:
        fingerprint = config_fingerprint(plan.signature())
        plan._fingerprint = fingerprint
    key = (fingerprint, iterations)
    cached = _COMPILED.get(key)
    if cached is not None:
        graph, tasks, indegrees = cached
        _reset_tasks(tasks, indegrees)
        return graph, tasks, build_node_resources(plan.cluster.node)
    builder = IterationGraphBuilder(plan)
    graph = builder.build(iterations)
    # Very large graphs pay superlinear executor scheduling cost (the
    # reason Tab. VIII's PS baseline falls below arithmetic progression
    # as feature fields multiply).
    micro_per_iteration = graph.total_micro_ops / iterations
    overhead = 1.0 + max(0.0, micro_per_iteration
                         / plan.cost.graph_overhead_knee - 1.0)
    launch = plan.cost.launch_per_micro_op * plan.launch_scale * overhead
    floor = plan.cost.launch_floor * plan.launch_scale * overhead
    tasks = graph.to_sim_tasks(launch, floor)
    resources = build_node_resources(plan.cluster.node)
    _COMPILED[key] = (graph, tasks, [task.indegree for task in tasks])
    return graph, tasks, resources


def per_iteration_seconds(makespan: float, first_step_end: float,
                          iterations: int) -> float:
    """Steady-state seconds per iteration from run markers.

    The first iteration is treated as pipeline warm-up: with more than
    one step, per-iteration time is measured from the end of step 0
    (the ``it0/step_end`` marker).  Asynchronous strategies queue
    trailing pushes long past the first step marker, so the
    marker-based estimate can collapse; the mean over all steps
    lower-bounds steady-state cost.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if iterations == 1:
        return makespan
    per_iteration = (makespan - first_step_end) / (iterations - 1)
    return max(per_iteration, makespan / iterations)


def simulate_plan(plan: ExecutionPlan, iterations: int = 3,
                  name: str | None = None,
                  record_tasks: bool = False,
                  fault_plan=None) -> RunReport:
    """Build, execute and measure a plan over ``iterations`` steps.

    The first iteration is treated as pipeline warm-up: per-iteration
    time is measured from the end of step 0 when more than one step is
    simulated.

    ``record_tasks=True`` makes the returned report's ``result`` carry
    per-task :class:`~repro.sim.trace.TaskRecord` telemetry (for
    Chrome-trace export and critical-path analysis).

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`) injects
    crashes/stragglers/link degradations into the engine run: crashes
    kill in-flight work back to the queue, stragglers and link faults
    scale resource capacity over their windows, so the reported
    throughput is the *faulted* throughput.
    """
    graph, tasks, resources = compile_plan(plan, iterations)
    engine = Engine(resources)
    injector = None
    if fault_plan is not None and len(fault_plan):
        from repro.faults.inject import FaultInjector
        injector = FaultInjector(fault_plan)
    result = engine.run(tasks, keep_finish_times=True,
                        record_tasks=record_tasks, injector=injector)

    first_end = result.finish_times.get("it0/step_end", 0.0) or 0.0
    per_iteration = per_iteration_seconds(result.makespan, first_end,
                                          iterations)

    sm_capacity = resources[ResourceKind.GPU_SM].capacity
    nvlink_rate = 0.0
    if ResourceKind.NVLINK in resources:
        nvlink_rate = result.mean_rate(ResourceKind.NVLINK)
    gpu_busy = result.recorder.union_busy_seconds(
        (ResourceKind.GPU_SM, ResourceKind.HBM))
    return RunReport(
        name=name or graph.name,
        batch_size=plan.batch_size,
        iterations=iterations,
        seconds_per_iteration=per_iteration,
        ips=plan.batch_size / per_iteration,
        sm_utilization=min(1.0, gpu_busy / result.makespan)
        if result.makespan > 0 else 0.0,
        sm_flops_utilization=(result.mean_rate(ResourceKind.GPU_SM)
                              / sm_capacity),
        sm_busy_fraction=result.busy_fraction(ResourceKind.GPU_SM),
        launch_busy_fraction=result.busy_fraction(ResourceKind.LAUNCH),
        pcie_gbps=result.mean_rate(ResourceKind.PCIE) / 1e9,
        net_gbps=result.mean_rate(ResourceKind.NET) * 8.0 / 1e9,
        nvlink_gbps=nvlink_rate * 8.0 / 1e9,
        op_count=len(graph),
        micro_ops=graph.total_micro_ops // iterations,
        packed_embeddings=len(plan.groups),
        result=result,
    )


class PicassoExecutor:
    """The user-facing PICASSO training executor.

    Mirrors the deployment model of the paper: one executor per
    machine, hybrid MP/DP strategy, software-system optimization on by
    default.

    Example::

        executor = PicassoExecutor(model, cluster)
        report = executor.run(batch_size=20_000)
        print(report.ips, report.sm_utilization)
    """

    def __init__(self, model: ModelSpec, cluster: ClusterSpec,
                 config: PicassoConfig | None = None):
        self.model = model
        self.cluster = cluster
        self.config = config or PicassoConfig()
        self._planner = PicassoPlanner(self.config)

    def plan(self, batch_size: int) -> ExecutionPlan:
        """The optimized execution plan for one batch size."""
        return self._planner.plan(self.model, self.cluster, batch_size)

    def run(self, batch_size: int, iterations: int = 3,
            record_tasks: bool = False, fault_plan=None) -> RunReport:
        """Plan and simulate a training run; returns the full report."""
        plan = self.plan(batch_size)
        return simulate_plan(plan, iterations=iterations,
                             name=f"PICASSO/{self.model.name}",
                             record_tasks=record_tasks,
                             fault_plan=fault_plan)
