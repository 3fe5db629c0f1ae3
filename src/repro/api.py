"""The public run/serve facade: one config in, one report out.

Every entry point that simulates a workload — the CLI, the experiment
harnesses, the benchmark suite — used to carry its own model-building
/ cluster-parsing / framework-dispatch helpers.  This module is the
single replacement:

* :class:`RunConfig` names a training workload declaratively (model,
  dataset, cluster spec, framework, batch geometry, optional
  :class:`~repro.faults.plan.FaultPlan`);
* :func:`run` resolves it through the framework registry and returns
  the usual :class:`~repro.core.executor.RunReport`;
* :class:`ServeConfig` / :func:`serve` are the serving-side mirror,
  wrapping :func:`~repro.serving.server.simulate_serving`;
* :class:`StreamConfig` / :func:`stream` close the loop: continuous
  training with delta-snapshot publishes hot-swapped into serving,
  wrapping :func:`~repro.online.loop.simulate_stream`;
* :class:`TuneConfig` / :func:`tune` are the fourth leg: a
  trace-driven what-if search (:mod:`repro.tuning`) over PICASSO's
  knobs, validated with real runs and reported with its
  predicted-vs-actual fidelity;
* :func:`profile` runs with telemetry on, returning the report plus a
  ready :class:`~repro.telemetry.CriticalPathReport` and Chrome-trace
  payload.

All configs share the :class:`~repro.config_base.ConfigBase` contract:
``with_overrides`` re-validates through ``__post_init__``, and
``as_dict``/``from_dict`` round-trip losslessly with unknown keys
rejected.

Framework dispatch is an open registry: :func:`register_framework`
binds a name to a runner callable, and :func:`frameworks` lists
whatever is currently registered (the paper's six frameworks ship
built in).  Cluster specs are strings like ``eflops:16`` / ``gn6e:1``
(or an already-built :class:`~repro.hardware.topology.ClusterSpec`),
matching the paper's two testbeds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

from repro.baselines import framework_by_name
from repro.config_base import ConfigBase, codec, dict_codec
from repro.core import PicassoConfig, PicassoExecutor
from repro.core.executor import RunReport, per_iteration_seconds
from repro.data import ALL_DATASETS
from repro.faults.monitor import plan_report
from repro.faults.plan import FaultPlan
from repro.hardware import eflops_cluster, gn6e_cluster
from repro.hardware.topology import ClusterSpec
from repro.memo import Memo
from repro.models import MODEL_BUILDERS
from repro.models.base import ModelSpec
from repro.online.loop import StreamReport, simulate_stream
from repro.prefetch import PrefetchConfig
from repro.replay import WAIT_MODELS
from repro.serving.metrics import ServingReport
from repro.serving.server import CACHE_KINDS, simulate_serving
from repro.serving.traffic import RateShape, shape_from_dict
from repro.sim import FrozenTrace
from repro.telemetry import (
    CriticalPathReport,
    OverlapMonitor,
    PrefetchMonitor,
    PulseDetector,
    Tracer,
    analyze_critical_path,
    chrome_trace,
    emit_alerts,
)
from repro.telemetry.span import ManualClock
from repro.telemetry.provenance import build_manifest
from repro.tuning import (
    KnobSpace,
    ReplayPredictor,
    SearchContext,
    default_space,
    strategy as tuning_strategy,
)

#: name -> runner ``(config, model, cluster) -> RunReport``.
_FRAMEWORK_REGISTRY: dict = {}


def register_framework(name: str, runner, overwrite: bool = False) -> None:
    """Bind a framework name to a runner :func:`run` dispatches to.

    :param runner: callable ``(config, model, cluster) -> RunReport``
        receiving the full :class:`RunConfig`, the built
        :class:`~repro.models.base.ModelSpec` and the resolved
        :class:`ClusterSpec`.
    :param overwrite: allow rebinding an existing name (plug-in
        frameworks shadowing a built-in must opt in explicitly).
    """
    if not name:
        raise ValueError("framework name must be non-empty")
    if not callable(runner):
        raise TypeError(f"runner for {name!r} is not callable")
    if name in _FRAMEWORK_REGISTRY and not overwrite:
        raise ValueError(f"framework {name!r} already registered; "
                         "pass overwrite=True to replace it")
    _FRAMEWORK_REGISTRY[name] = runner


def frameworks() -> tuple:
    """Currently registered framework names, in registration order."""
    return tuple(_FRAMEWORK_REGISTRY)


def framework_runner(name: str):
    """The registered runner for ``name`` (ValueError with choices)."""
    try:
        return _FRAMEWORK_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown framework {name!r}; "
                         f"expected one of {frameworks()}") from None


def parse_cluster(spec) -> ClusterSpec:
    """Resolve ``eflops:N`` / ``gn6e:N`` specs (pass-through for built).

    Names are case-insensitive (``EFLOPS:2`` is ``eflops:2``).
    Raises :class:`ValueError` for unknown testbed names and for node
    counts that are not integers >= 1.
    """
    if isinstance(spec, ClusterSpec):
        return spec
    name, _, count = str(spec).partition(":")
    name = name.lower()
    nodes = int(count) if count else 1
    if name == "eflops":
        return eflops_cluster(nodes)
    if name == "gn6e":
        return gn6e_cluster(nodes)
    raise ValueError(f"unknown cluster {name!r}; expected eflops|gn6e")


def _encode_cluster(spec) -> str:
    """A spec string kept as written; a built cluster as ``name:N``.

    A built :class:`ClusterSpec` round-trips to an equal cluster only
    when it is a stock ``eflops``/``gn6e`` testbed.
    """
    if isinstance(spec, ClusterSpec):
        return f"{spec.name.lower()}:{spec.num_nodes}"
    return spec


def _check_count(name: str, value) -> None:
    """``value`` must be an integer >= 1 (``bool`` is not a count)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _check_rows(name: str, value) -> None:
    """``value`` must be an integer >= 0 (a row capacity; not ``bool``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def _check_serving(config) -> None:
    """Checks :class:`ServeConfig` and :class:`StreamConfig` share."""
    _check_count("requests", config.requests)
    _check_count("max_batch_size", config.max_batch_size)
    _check_count("micro_batch_rows", config.micro_batch_rows)
    _check_rows("hot_rows", config.hot_rows)
    _check_rows("warm_rows", config.warm_rows)
    if config.cache not in CACHE_KINDS:
        raise ValueError(f"unknown cache {config.cache!r}; "
                         f"expected one of {CACHE_KINDS}")
    _check_positive("rate_qps", config.rate_qps)
    _check_positive("slo_s", config.slo_s)
    _check_positive("max_wait_s", config.max_wait_s, allow_zero=True)


def _check_positive(name: str, value, allow_zero: bool = False) -> None:
    """``value`` must be finite and > 0 (>= 0 with ``allow_zero``)."""
    low_ok = value >= 0 if allow_zero else value > 0
    if not (low_ok and value < math.inf):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValueError(f"{name} must be finite and {bound}, "
                         f"got {value}")


#: Process-wide memo for the facade's deterministic model builder.
_MODELS = Memo(1024)


@dataclass(frozen=True)
class RunConfig(ConfigBase):
    """A declarative simulation request (the CLI's flags, as data).

    :param cluster: ``eflops:N`` / ``gn6e:N`` string or a built
        :class:`ClusterSpec`.
    :param picasso: optimization toggles for the ``PICASSO`` framework;
        ignored by the baselines (``PICASSO(Base)`` always runs with
        everything off).
    :param record_tasks: collect per-task telemetry
        (:class:`~repro.sim.trace.TaskRecord`) during the run.
    :param fault_plan: optional :class:`~repro.faults.plan.FaultPlan`
        injected into the simulation (crashes kill in-flight work,
        stragglers/link faults scale capacity).
    :param prefetch: optional
        :class:`~repro.prefetch.PrefetchConfig`; for the ``PICASSO``
        framework its knobs override the equivalent
        ``picasso.prefetch_*`` fields, turning on the hot/cold
        lookahead pipeline.  Ignored by the baselines.
    """

    model: str = "W&D"
    dataset: str = "Product-1"
    scale: float = 1.0
    cluster: object = "eflops:16"
    framework: str = "PICASSO"
    batch_size: int = 20_000
    iterations: int = 3
    picasso: PicassoConfig | None = None
    record_tasks: bool = False
    fault_plan: FaultPlan | None = None
    prefetch: PrefetchConfig | None = None

    _FIELD_CODECS = {
        "cluster": codec(_encode_cluster, lambda value: value),
        "picasso": dict_codec(PicassoConfig),
        "fault_plan": dict_codec(FaultPlan),
        "prefetch": dict_codec(PrefetchConfig),
    }

    def __post_init__(self) -> None:
        _check_positive("scale", self.scale)
        _check_count("batch_size", self.batch_size)
        _check_count("iterations", self.iterations)
        parse_cluster(self.cluster)

    def resolved_cluster(self) -> ClusterSpec:
        """The cluster this config runs on."""
        return parse_cluster(self.cluster)

    def build_model(self) -> ModelSpec:
        """Instantiate the model over the (scaled) dataset.

        Model and dataset specs are immutable and their construction is
        deterministic, so results are memoized process-wide — sweeps
        and benchmark loops re-requesting the same workload share one
        spec.

        Raises :class:`KeyError`-flavoured :class:`ValueError` for
        unknown model or dataset names, listing the valid choices.
        """
        key = (self.model, self.dataset, self.scale)
        cached = _MODELS.get(key)
        if cached is not None:
            return cached
        if self.model not in MODEL_BUILDERS:
            raise ValueError(
                f"unknown model {self.model!r}; "
                f"expected one of {sorted(MODEL_BUILDERS)}")
        if self.dataset not in ALL_DATASETS:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; "
                f"expected one of {list(ALL_DATASETS)}")
        dataset = ALL_DATASETS[self.dataset](self.scale)
        model = MODEL_BUILDERS[self.model](dataset)
        _MODELS[key] = model
        return model


def _run_picasso(config: RunConfig, model: ModelSpec,
                 cluster: ClusterSpec) -> RunReport:
    picasso = config.picasso
    if config.prefetch is not None:
        # The facade-level PrefetchConfig wins over (and fills in) the
        # equivalent PicassoConfig knobs.
        picasso = (picasso or PicassoConfig()).with_overrides(
            prefetch_lookahead=config.prefetch.lookahead_depth,
            prefetch_hot_threshold=config.prefetch.hot_threshold,
            prefetch_inflight_bytes=config.prefetch.max_inflight_bytes,
            prefetch_policy=config.prefetch.policy)
    executor = PicassoExecutor(model, cluster, picasso)
    return executor.run(config.batch_size,
                        iterations=config.iterations,
                        record_tasks=config.record_tasks,
                        fault_plan=config.fault_plan)


def _run_picasso_base(config: RunConfig, model: ModelSpec,
                      cluster: ClusterSpec) -> RunReport:
    executor = PicassoExecutor(model, cluster, PicassoConfig.base())
    return executor.run(config.batch_size,
                        iterations=config.iterations,
                        record_tasks=config.record_tasks,
                        fault_plan=config.fault_plan)


def _baseline_runner(name: str):
    def runner(config: RunConfig, model: ModelSpec,
               cluster: ClusterSpec) -> RunReport:
        return framework_by_name(name).run(
            model, cluster, config.batch_size,
            iterations=config.iterations,
            record_tasks=config.record_tasks,
            fault_plan=config.fault_plan)
    return runner


register_framework("PICASSO", _run_picasso)
register_framework("PICASSO(Base)", _run_picasso_base)
for _baseline in ("TF-PS", "PyTorch", "Horovod", "XDL"):
    register_framework(_baseline, _baseline_runner(_baseline))
del _baseline


def run(config: RunConfig, model: ModelSpec | None = None) -> RunReport:
    """Execute one :class:`RunConfig`; the repo-wide simulation facade.

    Dispatch goes only through the framework registry — built-ins and
    :func:`register_framework` plug-ins are indistinguishable here.

    :param model: an already-built model to reuse (sweeps that vary
        only the framework or batch size skip dataset rebuilding);
        defaults to ``config.build_model()``.
    """
    runner = framework_runner(config.framework)
    model = model if model is not None else config.build_model()
    report = runner(config, model, config.resolved_cluster())
    result = getattr(report, "result", None)
    if result is not None and hasattr(result, "provenance"):
        result.provenance = run_manifest(config, report.name)
    return report


def run_manifest(config: RunConfig, report_name: str = "",
                 kind: str = "run") -> dict:
    """The provenance manifest dict for one :class:`RunConfig` run."""
    knobs = config.picasso.as_dict() if config.picasso else {}
    extra = {"report_name": report_name} if report_name else {}
    return build_manifest(kind=kind, config=config.as_dict(),
                          knobs=knobs, extra=extra).as_dict()


@dataclass(frozen=True)
class ServeConfig(ConfigBase):
    """A declarative serving request — :class:`RunConfig`'s mirror.

    Field for field the knobs of
    :func:`~repro.serving.server.simulate_serving`, plus the
    fault-tolerance pair (``replicas`` + ``fault_plan``): crash events
    in the plan take replicas down over their windows, and
    :func:`serve` responds with degraded-mode admission tightening
    instead of an outage.
    """

    requests: int = 10_000
    seed: int = 0
    rate_qps: float = 20_000.0
    cache: str = "hbm-dram"
    hot_rows: int = 4_000
    warm_rows: int = 60_000
    max_batch_size: int = 64
    max_wait_s: float = 0.002
    slo_s: float = 0.02
    micro_batch_rows: int = 16
    variant: str = "wdl"
    replicas: int = 1
    fault_plan: FaultPlan | None = None
    prefetch: PrefetchConfig | None = None

    _FIELD_CODECS = {
        "fault_plan": dict_codec(FaultPlan),
        "prefetch": dict_codec(PrefetchConfig),
    }

    def __post_init__(self) -> None:
        _check_serving(self)
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")


def serve(config: ServeConfig, tracer=None,
          metrics=None, flight=None) -> ServingReport:
    """Execute one :class:`ServeConfig`; the serving facade.

    Exactly :func:`run`'s shape on the inference side: every entry
    point (CLI ``serve``, experiments, benches) states *what* to serve
    as data and this function owns the wiring.  With a fault plan the
    returned report carries a ``degraded`` summary from the
    :class:`~repro.faults.degraded.DegradedModeController`.

    :param flight: optional :class:`~repro.telemetry.FlightRecorder`;
        batch spans and shed alerts land in its ring.
    """
    return simulate_serving(
        num_requests=config.requests,
        seed=config.seed,
        rate_qps=config.rate_qps,
        cache=config.cache,
        hot_rows=config.hot_rows,
        warm_rows=config.warm_rows,
        max_batch_size=config.max_batch_size,
        max_wait_s=config.max_wait_s,
        slo_s=config.slo_s,
        micro_batch_rows=config.micro_batch_rows,
        variant=config.variant,
        replicas=config.replicas,
        fault_plan=config.fault_plan,
        tracer=tracer,
        metrics=metrics,
        flight=flight,
        prefetch=config.prefetch)


@dataclass(frozen=True)
class StreamConfig(ConfigBase):
    """A declarative continuous-loop request — the third facade leg.

    Field for field the knobs of
    :func:`~repro.online.loop.simulate_stream`: the serving half reads
    like a :class:`ServeConfig`, the training half configures the
    streaming trainer (step cadence, publish interval, concept drift)
    and the loop half the hot-swap and autoscaling machinery.
    """

    requests: int = 4_000
    seed: int = 0
    rate_qps: float = 20_000.0
    shape: RateShape | None = None
    train_steps: int = 400
    train_step_s: float = 0.001
    train_batch_size: int = 256
    publish_interval: int = 25
    drift_ids_per_step: float = 8.0
    max_chain: int = 8
    load_share: float = 0.1
    snapshot_dir: str | None = None
    cache: str = "hbm-dram"
    hot_rows: int = 4_000
    warm_rows: int = 60_000
    max_batch_size: int = 64
    max_wait_s: float = 0.002
    slo_s: float = 0.02
    micro_batch_rows: int = 16
    autoscale: bool = True
    min_replicas: int = 1
    max_replicas: int = 4
    hot_swaps: bool = True
    variant: str = "wdl"
    prefetch: PrefetchConfig | None = None

    _FIELD_CODECS = {
        "shape": codec(lambda value: value.as_dict(),
                       lambda value: shape_from_dict(value)
                       if isinstance(value, dict) else value),
        "prefetch": dict_codec(PrefetchConfig),
    }

    def __post_init__(self) -> None:
        _check_serving(self)
        if self.train_steps < 1:
            raise ValueError("train_steps must be >= 1")
        if self.publish_interval < 1:
            raise ValueError("publish_interval must be >= 1")
        _check_positive("train_step_s", self.train_step_s)


def stream(config: StreamConfig, tracer=None,
           metrics=None, flight=None) -> StreamReport:
    """Execute one :class:`StreamConfig`; the continuous-loop facade.

    The train->publish->swap->serve loop of
    :func:`~repro.online.loop.simulate_stream` behind the same
    config-in / report-out contract as :func:`run` and :func:`serve`.
    Every snapshot the loop publishes carries this config's provenance
    manifest, so hot-swapped serving versions trace back to the run.

    :param flight: optional :class:`~repro.telemetry.FlightRecorder`
        shared by the trainer and the swap/shed paths.
    """
    return simulate_stream(
        num_requests=config.requests,
        seed=config.seed,
        rate_qps=config.rate_qps,
        shape=config.shape,
        train_steps=config.train_steps,
        train_step_s=config.train_step_s,
        train_batch_size=config.train_batch_size,
        publish_interval=config.publish_interval,
        drift_ids_per_step=config.drift_ids_per_step,
        max_chain=config.max_chain,
        load_share=config.load_share,
        snapshot_dir=config.snapshot_dir,
        cache=config.cache,
        hot_rows=config.hot_rows,
        warm_rows=config.warm_rows,
        max_batch_size=config.max_batch_size,
        max_wait_s=config.max_wait_s,
        slo_s=config.slo_s,
        micro_batch_rows=config.micro_batch_rows,
        autoscale=config.autoscale,
        min_replicas=config.min_replicas,
        max_replicas=config.max_replicas,
        hot_swaps=config.hot_swaps,
        variant=config.variant,
        tracer=tracer,
        metrics=metrics,
        flight=flight,
        provenance=build_manifest(
            kind="stream", config=config.as_dict()).as_dict(),
        prefetch=config.prefetch)


@dataclass(frozen=True)
class TuneConfig(ConfigBase):
    """A declarative auto-tuning request — the fourth facade leg.

    :param run: the baseline workload to tune; must target the
        ``PICASSO`` framework (the knobs are PICASSO's).
    :param strategy: registered search strategy name
        (``coordinate-descent``, ``successive-halving``,
        ``warmup-grid``, or a :func:`repro.tuning.register_strategy`
        plug-in).
    :param top_k: how many distinct top-ranked candidates to validate
        with real runs before crowning a winner.
    :param knobs: the :class:`~repro.tuning.KnobSpace` to search, or
        ``None`` for :func:`~repro.tuning.default_space`.
    :param trace_path: replay an existing saved
        :class:`~repro.sim.FrozenTrace` instead of recording a fresh
        baseline run.
    :param wait_model: how replay re-derives queue waits (see
        :data:`repro.replay.WAIT_MODELS`).
    :param shrink_credit: the predictor's damping exponent for work
        reductions (see :class:`~repro.tuning.ReplayPredictor`).
    :param diversity_cap: at most this many validation slots may share
        the same non-default value of any one knob, so a knob the
        predictor is systematically wrong about cannot monopolize the
        validated set.
    :param options: strategy-specific tunables, passed through to the
        :class:`~repro.tuning.SearchContext`.
    """

    run: RunConfig = field(default_factory=RunConfig)
    strategy: str = "coordinate-descent"
    top_k: int = 3
    knobs: KnobSpace | None = None
    trace_path: str | None = None
    wait_model: str = "congestion"
    shrink_credit: float = 0.5
    diversity_cap: int = 2
    options: dict = field(default_factory=dict)

    _FIELD_CODECS = {
        "run": dict_codec(RunConfig),
        "knobs": dict_codec(KnobSpace),
    }

    def __post_init__(self) -> None:
        if not self.strategy:
            raise ValueError("strategy must be non-empty")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.wait_model not in WAIT_MODELS:
            raise ValueError(
                f"unknown wait_model {self.wait_model!r}; "
                f"expected one of {WAIT_MODELS}")
        if not 0.0 < self.shrink_credit <= 1.0:
            raise ValueError(
                f"shrink_credit must be in (0, 1], "
                f"got {self.shrink_credit}")
        if self.diversity_cap < 1:
            raise ValueError(
                f"diversity_cap must be >= 1, "
                f"got {self.diversity_cap}")


@dataclass(frozen=True)
class CandidateValidation:
    """One top-k candidate's predicted-vs-actual comparison."""

    assignment: dict
    predicted_ips: float
    measured_ips: float
    source: str = "replay"

    @property
    def error(self) -> float:
        """Signed relative prediction error vs the real run."""
        if self.measured_ips == 0:
            return float("inf")
        return (self.predicted_ips - self.measured_ips) \
            / self.measured_ips

    def as_dict(self) -> dict:
        return {"assignment": dict(self.assignment),
                "predicted_ips": self.predicted_ips,
                "measured_ips": self.measured_ips,
                "error": self.error,
                "source": self.source}


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one :func:`tune` session: winner plus fidelity.

    ``best_config`` embeds the winning knob assignment as its
    ``picasso`` field; when no validated candidate beats the baseline
    (``improved`` is False) it is the baseline config unchanged and
    the winner metrics collapse onto the baseline's.
    """

    best_config: RunConfig
    best_assignment: dict
    base_ips: float
    best_ips: float
    predicted_ips: float
    validations: tuple
    strategy: str
    candidates_evaluated: int
    improved: bool

    @property
    def gain(self) -> float:
        """Relative throughput gain of the winner over the baseline."""
        if self.base_ips == 0:
            return 0.0
        return self.best_ips / self.base_ips - 1.0

    @property
    def fidelity_error(self) -> float:
        """Signed relative replay-prediction error on the winner."""
        if self.best_ips == 0:
            return float("inf")
        return (self.predicted_ips - self.best_ips) / self.best_ips

    def as_dict(self) -> dict:
        return {
            "best_config": self.best_config.as_dict(),
            "best_assignment": dict(self.best_assignment),
            "base_ips": self.base_ips,
            "best_ips": self.best_ips,
            "predicted_ips": self.predicted_ips,
            "gain": self.gain,
            "fidelity_error": self.fidelity_error,
            "validations": [entry.as_dict()
                            for entry in self.validations],
            "strategy": self.strategy,
            "candidates_evaluated": self.candidates_evaluated,
            "improved": self.improved,
        }


def _trace_ips(records, makespan: float, batch_size: int,
               iterations: int) -> float:
    """The recorded run's ips, recomputed from its own markers."""
    first_end = 0.0
    for record in records:
        if record.name == "it0/step_end":
            first_end = record.end
            break
    per_iteration = per_iteration_seconds(makespan, first_end,
                                          iterations)
    return batch_size / per_iteration


def _select_diverse(ranked, space: KnobSpace,
                    base_picasso: PicassoConfig, top_k: int,
                    cap: int) -> list:
    """Pick ``top_k`` validation candidates, best-predicted first,
    letting at most ``cap`` of them share any one non-default knob
    value.

    Per-class work-ratio replay is blind to knobs that only
    restructure the DAG, and systematically optimistic about others;
    without this rule one mispredicted knob value (say
    ``micro_batches=1``) can fill every validation slot and the true
    winner never gets measured.  Values equal to the base config's
    default are exempt — "unchanged" is not a diversity axis.
    """
    counts: dict = {}
    selected: list = []
    for candidate in ranked:
        effective = {
            knob.name: candidate.assignment.get(
                knob.name, getattr(base_picasso, knob.name))
            for knob in space}
        blocked = any(
            counts.get((name, value), 0) >= cap
            for name, value in effective.items()
            if value != getattr(base_picasso, name))
        if blocked:
            continue
        selected.append(candidate)
        for name, value in effective.items():
            counts[(name, value)] = counts.get((name, value), 0) + 1
        if len(selected) == top_k:
            break
    return selected


def tune(config: TuneConfig,
         model: ModelSpec | None = None) -> TuneResult:
    """Search PICASSO's knob space by what-if replay, then validate.

    Records (or loads) a baseline trace, prices every candidate the
    strategy proposes by replaying that trace under per-class
    work-ratio cost hooks, validates the ``top_k`` best predictions
    (diversity-capped, see :class:`TuneConfig`) with real :func:`run`
    executions, and crowns the best *measured* one — so a replay
    misprediction costs a validation slot, never a wrong winner among
    the validated set.
    """
    base = config.run
    if base.framework != "PICASSO":
        raise ValueError(
            f"tune() searches PICASSO knobs; config.run.framework is "
            f"{base.framework!r}")
    model = model if model is not None else base.build_model()
    cluster = base.resolved_cluster()
    base_picasso = base.picasso or PicassoConfig()

    if config.trace_path is not None:
        trace = FrozenTrace.load(config.trace_path)
        records, makespan = trace.records, trace.makespan
        base_ips = _trace_ips(records, makespan, base.batch_size,
                              base.iterations)
    else:
        report = run(base.with_overrides(record_tasks=True),
                     model=model)
        records = report.result.task_records
        base_ips = report.ips

    predictor = ReplayPredictor(
        model, cluster, base.batch_size, base.iterations, records,
        base_picasso=base_picasso, wait_model=config.wait_model,
        shrink_credit=config.shrink_credit)
    space = config.knobs if config.knobs is not None else default_space()
    ctx = SearchContext(predictor=predictor, space=space,
                        base=base_picasso,
                        options=dict(config.options))
    ranked = tuning_strategy(config.strategy)(ctx)
    if not ranked:
        raise ValueError(
            f"strategy {config.strategy!r} produced no candidates")

    shortlist = _select_diverse(ranked, space, base_picasso,
                                config.top_k, config.diversity_cap)
    validations = []
    best_candidate = None
    best_validation = None
    for candidate in shortlist:
        measured = run(base.with_overrides(picasso=candidate.picasso),
                       model=model)
        validation = CandidateValidation(
            assignment=dict(candidate.assignment),
            predicted_ips=candidate.predicted_ips,
            measured_ips=measured.ips,
            source=candidate.source)
        validations.append(validation)
        if (best_validation is None
                or measured.ips > best_validation.measured_ips):
            best_candidate, best_validation = candidate, validation

    improved = best_validation.measured_ips > base_ips
    if improved:
        best_config = base.with_overrides(
            picasso=best_candidate.picasso)
        best_assignment = dict(best_candidate.assignment)
        best_ips = best_validation.measured_ips
        predicted_ips = best_validation.predicted_ips
    else:
        best_config = base
        best_assignment = {}
        best_ips = base_ips
        predicted_ips = base_ips
    return TuneResult(
        best_config=best_config,
        best_assignment=best_assignment,
        base_ips=base_ips,
        best_ips=best_ips,
        predicted_ips=predicted_ips,
        validations=tuple(validations),
        strategy=config.strategy,
        candidates_evaluated=len(ranked),
        improved=improved)


@dataclass(frozen=True)
class ProfileResult:
    """A profiled run: the report plus its telemetry products.

    ``monitors`` maps monitor name (``pulse``, ``overlap``) to its
    :class:`~repro.telemetry.MonitorReport`; any alerts the monitors
    raised are also embedded in ``trace`` as instant events on the
    ``alerts`` track.
    """

    report: RunReport
    critical_path: CriticalPathReport
    trace: dict  # Chrome-trace payload (chrome://tracing / Perfetto)
    monitors: dict = field(default_factory=dict)


def profile(config: RunConfig, model: ModelSpec | None = None,
            top_k: int = 10) -> ProfileResult:
    """Run with telemetry on and analyze the result in one call.

    The returned trace payload, critical-path report and health
    monitors are pure functions of the modeled run, so two profiles of
    the same config serialize byte-identically.
    """
    config = replace(config, record_tasks=True)
    report = run(config, model=model)
    result = report.result
    critical = analyze_critical_path(result.task_records,
                                     result.makespan, top_k=top_k)
    monitors = {}
    pulse = PulseDetector()
    monitors[pulse.name] = pulse.analyze(result.recorder, result.makespan)
    overlap = OverlapMonitor()
    monitors[overlap.name] = overlap.analyze(
        result.recorder, result.makespan, records=result.task_records)
    if any(r.tags.get("layer") == "prefetch" for r in result.task_records):
        # Only present when the run actually staged batches: a profile
        # of a prefetch-off config stays byte-identical to before.
        prefetch = PrefetchMonitor()
        monitors[prefetch.name] = prefetch.analyze(
            result.recorder, result.makespan, records=result.task_records)
    if config.fault_plan is not None and len(config.fault_plan):
        # The injected schedule lands on the alert track so the trace
        # shows *why* utilization dipped where it did.
        monitors["faults"] = plan_report(config.fault_plan)
    tracer = Tracer(clock=ManualClock())
    emit_alerts(tracer, monitors.values())
    trace = chrome_trace(records=result.task_records,
                         tracer=tracer,
                         recorder=result.recorder,
                         makespan=result.makespan,
                         metadata={"workload": config.as_dict(),
                                   "report_name": report.name,
                                   "provenance": run_manifest(
                                       config, report.name,
                                       kind="profile")})
    return ProfileResult(report=report, critical_path=critical,
                         trace=trace, monitors=monitors)
