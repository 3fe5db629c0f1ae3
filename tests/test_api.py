"""Tests for the RunConfig/run facade and the Stats protocol."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.api import (
    ProfileResult,
    RunConfig,
    ServeConfig,
    StreamConfig,
    TuneConfig,
)
from repro.core.config import PicassoConfig
from repro.faults import FaultEvent, FaultPlan
from repro.embedding.hybrid_hash import CacheStats
from repro.embedding.multilevel import TierStats
from repro.hardware import eflops_cluster, gn6e_cluster
from repro.prefetch import PrefetchConfig
from repro.replay import WAIT_MODELS
from repro.serving import DiurnalShape, FlashCrowdShape
from repro.serving.metrics import ServingReport
from repro.serving.server import CACHE_KINDS
from repro.sim.engine import SimSummary
from repro.tuning import default_space
from repro.telemetry import MetricsRegistry, is_stats, validate_chrome_trace
from repro.training.trainer import TrainResult

TINY = RunConfig(model="DLRM", dataset="Criteo", scale=0.001,
                 cluster="eflops:2", batch_size=512, iterations=1)


class TestParseCluster:
    def test_named_specs(self):
        cluster = api.parse_cluster("eflops:4")
        assert cluster.num_nodes == 4
        assert api.parse_cluster("gn6e:1").num_nodes == 1

    def test_default_node_count(self):
        assert api.parse_cluster("eflops").num_nodes == 1

    def test_built_cluster_passes_through(self):
        built = eflops_cluster(2)
        assert api.parse_cluster(built) is built

    def test_unknown_testbed_rejected(self):
        with pytest.raises(ValueError):
            api.parse_cluster("tpu:4")


class TestRunConfig:
    def test_defaults_resolve(self):
        config = RunConfig()
        assert config.framework == "PICASSO"
        assert config.resolved_cluster().num_nodes == 16
        model = config.build_model()
        assert model.name == "W&D"

    def test_with_overrides(self):
        swept = TINY.with_overrides(framework="TF-PS", batch_size=1024)
        assert swept.framework == "TF-PS"
        assert swept.batch_size == 1024
        assert swept.model == TINY.model
        assert TINY.framework == "PICASSO"  # original untouched

    def test_as_dict_snapshot(self):
        snapshot = TINY.as_dict()
        assert snapshot["cluster"] == "eflops:2"
        assert snapshot["model"] == "DLRM"
        assert snapshot["batch_size"] == 512

    def test_unknown_model_and_dataset(self):
        with pytest.raises(ValueError):
            RunConfig(model="BERT").build_model()
        with pytest.raises(ValueError):
            RunConfig(dataset="ImageNet").build_model()

    # Bad inputs fail at construction instead of running: a zero or
    # negative node count used to run as one node, and a NaN scale
    # died deep in the dataset build.
    def test_zero_node_cluster_rejected(self):
        with pytest.raises(ValueError, match="num_nodes"):
            RunConfig(cluster="eflops:0")

    def test_negative_node_cluster_rejected(self):
        with pytest.raises(ValueError, match="num_nodes"):
            RunConfig(cluster="eflops:-8")

    def test_nan_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            RunConfig(scale=float("nan"))

    def test_inf_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            RunConfig(scale=float("inf"))

    def test_round_trip_with_fault_plan(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", time_s=1.0, duration_s=0.5),))
        config = TINY.with_overrides(fault_plan=plan)
        rebuilt = RunConfig.from_dict(config.as_dict())
        assert rebuilt.fault_plan == plan
        assert rebuilt.model == TINY.model
        assert RunConfig.from_dict(TINY.as_dict()).fault_plan is None


class TestConfigBase:
    """The shared serialization contract all facade configs ride on."""

    def test_unknown_key_rejected_everywhere(self):
        for cls in (RunConfig, ServeConfig, StreamConfig,
                    PicassoConfig):
            with pytest.raises(ValueError,
                               match=f"unknown {cls.__name__}"):
                cls.from_dict({"not_a_field": 1})

    def test_with_overrides_revalidates(self):
        with pytest.raises(ValueError):
            TINY.with_overrides(batch_size=0)
        with pytest.raises(ValueError):
            TINY.with_overrides(iterations=0)
        with pytest.raises(ValueError, match="batch_size"):
            TINY.with_overrides(batch_size=2.5)
        with pytest.raises(ValueError, match="batch_size"):
            TINY.with_overrides(batch_size=True)
        with pytest.raises(ValueError, match="iterations"):
            TINY.with_overrides(iterations=1.5)
        with pytest.raises(ValueError):
            ServeConfig().with_overrides(replicas=0)
        with pytest.raises(ValueError):
            PicassoConfig().with_overrides(micro_batches=0)

    def test_picasso_field_round_trips(self):
        config = TINY.with_overrides(
            picasso=PicassoConfig(micro_batches=2,
                                  hot_storage_bytes=float(1 << 30)))
        snapshot = config.as_dict()
        assert snapshot["picasso"]["micro_batches"] == 2
        rebuilt = RunConfig.from_dict(snapshot)
        assert rebuilt.picasso == config.picasso
        assert rebuilt.as_dict() == snapshot

    def test_parse_cluster_is_case_insensitive(self):
        assert api.parse_cluster("EFLOPS:2").num_nodes == 2
        rebuilt = RunConfig.from_dict(TINY.as_dict())
        assert rebuilt.resolved_cluster().num_nodes == 2

    def test_stream_config_round_trips(self):
        config = StreamConfig(requests=100, train_steps=10)
        rebuilt = StreamConfig.from_dict(config.as_dict())
        assert rebuilt.as_dict() == config.as_dict()


# ---------------------------------------------------------------------
# from_dict(as_dict(c)) == c over all four facade configs.
# ---------------------------------------------------------------------

_seconds = st.floats(min_value=1e-4, max_value=1.0)
_cluster_strings = st.builds(
    "{}:{}".format, st.sampled_from(["eflops", "EFLOPS", "gn6e", "Gn6e"]),
    st.integers(min_value=1, max_value=64)) | st.sampled_from(
        ["eflops", "gn6e"])
_prefetch = st.none() | st.builds(
    PrefetchConfig, lookahead_depth=st.integers(1, 8),
    hot_threshold=st.floats(0.0, 1.0),
    policy=st.sampled_from(["hotness", "fifo"]))
_fault_plan = st.none() | st.builds(
    lambda time_s, duration_s: FaultPlan(events=(FaultEvent(
        kind="crash", time_s=time_s, duration_s=duration_s),)),
    _seconds, _seconds)

run_configs = st.builds(
    RunConfig,
    model=st.sampled_from(["W&D", "DLRM", "DIN", "CAN"]),
    scale=st.floats(min_value=1e-3, max_value=4.0),
    cluster=_cluster_strings,
    framework=st.sampled_from(api.frameworks()),
    batch_size=st.integers(min_value=1, max_value=100_000),
    iterations=st.integers(min_value=1, max_value=512),
    picasso=st.none() | st.builds(
        PicassoConfig, micro_batches=st.integers(1, 8)),
    record_tasks=st.booleans(),
    fault_plan=_fault_plan,
    prefetch=_prefetch)

serve_configs = st.builds(
    ServeConfig,
    requests=st.integers(min_value=1, max_value=100_000),
    seed=st.integers(min_value=0, max_value=2**31),
    rate_qps=st.floats(min_value=1.0, max_value=1e6),
    cache=st.sampled_from(CACHE_KINDS),
    max_wait_s=st.just(0.0) | _seconds,
    slo_s=_seconds,
    replicas=st.integers(min_value=1, max_value=8),
    fault_plan=_fault_plan,
    prefetch=_prefetch)

stream_configs = st.builds(
    StreamConfig,
    requests=st.integers(min_value=1, max_value=100_000),
    rate_qps=st.floats(min_value=1.0, max_value=1e6),
    shape=st.none()
    | st.builds(FlashCrowdShape, _seconds, _seconds,
                st.floats(1.0, 8.0))
    | st.builds(DiurnalShape, _seconds,
                st.floats(0.0, 1.0, exclude_max=True)),
    train_steps=st.integers(min_value=1, max_value=1_000),
    train_step_s=_seconds,
    publish_interval=st.integers(min_value=1, max_value=100),
    cache=st.sampled_from(CACHE_KINDS),
    max_wait_s=st.just(0.0) | _seconds,
    slo_s=_seconds,
    autoscale=st.booleans(),
    prefetch=_prefetch)

tune_configs = st.builds(
    TuneConfig,
    run=run_configs,
    strategy=st.sampled_from(["coordinate-descent",
                              "successive-halving", "warmup-grid"]),
    top_k=st.integers(min_value=1, max_value=8),
    knobs=st.none() | st.builds(default_space),
    wait_model=st.sampled_from(WAIT_MODELS),
    shrink_credit=st.floats(min_value=0.01, max_value=1.0),
    diversity_cap=st.integers(min_value=1, max_value=4),
    options=st.dictionaries(st.sampled_from(["rounds", "eta"]),
                            st.integers(1, 8), max_size=2))


class TestConfigRoundTrip:
    @pytest.mark.parametrize("cls,configs", [
        (RunConfig, run_configs),
        (ServeConfig, serve_configs),
        (StreamConfig, stream_configs),
        (TuneConfig, tune_configs),
    ], ids=["run", "serve", "stream", "tune"])
    def test_from_dict_inverts_as_dict(self, cls, configs):
        @settings(max_examples=40, deadline=None)
        @given(configs)
        def check(config):
            assert cls.from_dict(config.as_dict()) == config

        check()

    @settings(max_examples=20, deadline=None)
    @given(st.builds(lambda build, nodes: build(nodes),
                     st.sampled_from([eflops_cluster, gn6e_cluster]),
                     st.integers(min_value=1, max_value=64)))
    def test_built_cluster_resolves_equal(self, cluster):
        config = RunConfig(cluster=cluster)
        rebuilt = RunConfig.from_dict(config.as_dict())
        assert rebuilt.resolved_cluster() == config.resolved_cluster()


class TestFrameworkRegistry:
    def test_built_ins_registered(self):
        names = api.frameworks()
        assert "PICASSO" in names
        assert "TF-PS" in names

    def test_duplicate_name_rejected_without_overwrite(self):
        with pytest.raises(ValueError):
            api.register_framework("PICASSO", lambda *a: None)

    def test_runner_must_be_callable(self):
        with pytest.raises(TypeError):
            api.register_framework("NotCallable", runner=42)
        with pytest.raises(ValueError):
            api.register_framework("", lambda *a: None)

    def test_plugin_framework_dispatches_through_run(self):
        calls = []

        def runner(config, model, cluster):
            calls.append((config.framework, model.name,
                          cluster.num_nodes))
            return api.run(config.with_overrides(framework="PICASSO"),
                           model=model)

        api.register_framework("TestPlugin", runner)
        try:
            assert "TestPlugin" in api.frameworks()
            report = api.run(TINY.with_overrides(framework="TestPlugin"))
            assert report.ips > 0
            assert calls == [("TestPlugin", "DLRM", 2)]
        finally:
            api._FRAMEWORK_REGISTRY.pop("TestPlugin", None)

    def test_framework_runner_lookup(self):
        assert callable(api.framework_runner("PICASSO"))
        with pytest.raises(ValueError, match="unknown framework"):
            api.framework_runner("MXNet")


class TestRunFacade:
    def test_unknown_framework_rejected(self):
        with pytest.raises(ValueError):
            api.run(TINY.with_overrides(framework="MXNet"))

    def test_run_returns_report(self):
        report = api.run(TINY)
        assert report.ips > 0
        assert report.result.makespan > 0
        # record_tasks defaults off: no per-task telemetry collected.
        assert report.result.task_records == []

    def test_record_tasks_collects_records(self):
        report = api.run(TINY.with_overrides(record_tasks=True))
        assert len(report.result.task_records) > 0
        summary = report.result.summary()
        assert summary.task_count == len(report.result.task_records)

    def test_model_reuse_matches_rebuild(self):
        model = TINY.build_model()
        with_reuse = api.run(TINY, model=model)
        without = api.run(TINY)
        assert with_reuse.ips == pytest.approx(without.ips)

    def test_every_framework_runs(self):
        for framework in api.frameworks():
            report = api.run(TINY.with_overrides(framework=framework))
            assert report.ips > 0, framework

    def test_picasso_beats_base(self):
        picasso = api.run(TINY)
        base = api.run(TINY.with_overrides(framework="PICASSO(Base)"))
        assert picasso.ips > base.ips


class TestProfileFacade:
    def test_profile_result_shape(self):
        result = api.profile(TINY, top_k=5)
        assert isinstance(result, ProfileResult)
        assert result.report.ips > 0
        assert result.critical_path.top_k == 5
        assert validate_chrome_trace(result.trace) > 0

    def test_profile_embeds_workload_metadata(self):
        result = api.profile(TINY)
        workload = result.trace["otherData"]["workload"]
        assert workload["model"] == "DLRM"
        assert workload["record_tasks"] is True


class TestServeFacade:
    def test_serve_returns_report(self):
        report = api.serve(ServeConfig(requests=300))
        assert report.served + report.shed == 300
        assert report.qps > 0
        assert report.degraded is None

    def test_with_overrides_and_round_trip(self):
        base = ServeConfig(requests=500, cache="hbm")
        swept = base.with_overrides(cache="dram", max_batch_size=128)
        assert swept.cache == "dram"
        assert swept.max_batch_size == 128
        assert base.cache == "hbm"  # original untouched
        assert ServeConfig.from_dict(swept.as_dict()) == swept

    def test_round_trip_with_fault_plan(self):
        plan = FaultPlan.periodic(crash_rate=50.0, duration_s=0.02,
                                  crash_downtime_s=0.005, workers=2)
        config = ServeConfig(requests=200, replicas=2, fault_plan=plan)
        rebuilt = ServeConfig.from_dict(config.as_dict())
        assert rebuilt == config
        assert rebuilt.fault_plan == plan

    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(requests=0)
        with pytest.raises(ValueError):
            ServeConfig(replicas=0)
        with pytest.raises(ValueError):
            ServeConfig(cache="tape")
        with pytest.raises(ValueError, match="rate_qps"):
            ServeConfig(rate_qps=float("nan"))
        with pytest.raises(ValueError, match="rate_qps"):
            ServeConfig(rate_qps=0.0)
        with pytest.raises(ValueError, match="slo_s"):
            ServeConfig(slo_s=float("inf"))
        with pytest.raises(ValueError, match="slo_s"):
            ServeConfig(slo_s=-0.01)
        with pytest.raises(ValueError, match="max_wait_s"):
            ServeConfig(max_wait_s=float("nan"))
        with pytest.raises(ValueError, match="max_wait_s"):
            ServeConfig(max_wait_s=-0.001)

    @pytest.mark.parametrize("config_type", [ServeConfig, StreamConfig])
    @pytest.mark.parametrize("field, value", [
        ("hot_rows", -5), ("warm_rows", -1), ("hot_rows", 2.5),
        ("warm_rows", True), ("max_batch_size", 0),
        ("max_batch_size", 1.5), ("micro_batch_rows", 0),
        ("requests", True), ("requests", 2.0),
    ])
    def test_serving_counts_checked_at_the_boundary(self, config_type,
                                                    field, value):
        with pytest.raises(ValueError, match=field):
            config_type(**{field: value})

    @pytest.mark.parametrize("config_type", [ServeConfig, StreamConfig])
    def test_zero_capacity_tiers_allowed(self, config_type):
        config = config_type(hot_rows=0, warm_rows=0)
        assert (config.hot_rows, config.warm_rows) == (0, 0)

    def test_serve_matches_direct_simulation(self):
        from repro.serving.server import simulate_serving

        config = ServeConfig(requests=400, seed=3, cache="hbm")
        via_facade = api.serve(config)
        direct = simulate_serving(num_requests=400, seed=3, cache="hbm")
        assert via_facade.as_dict() == direct.as_dict()


class TestProfileFaultPlan:
    def test_profile_reports_fault_schedule(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", time_s=0.001, duration_s=0.001),))
        result = api.profile(TINY.with_overrides(fault_plan=plan))
        assert "faults" in result.monitors
        verdict = result.monitors["faults"]
        assert verdict.healthy
        assert verdict.summary["crash_events"] == 1

    def test_profile_without_plan_has_no_faults_monitor(self):
        assert "faults" not in api.profile(TINY).monitors


class TestStatsProtocol:
    def test_conformance(self):
        examples = [
            CacheStats(hot_hits=3, cold_misses=1, flushes=0),
            TierStats(hits=4),
            TrainResult(auc=0.7, logloss=0.3, steps=10, losses=[0.3]),
            ServingReport(served=1, shed=0, p50_ms=1.0, p95_ms=2.0,
                          p99_ms=3.0, qps=10.0, shed_rate=0.0,
                          cache_hit_ratio=0.5, makespan_s=0.1,
                          stage_seconds={}),
            SimSummary(makespan=1.0, task_count=2, event_count=3),
            MetricsRegistry(),
        ]
        for example in examples:
            assert is_stats(example), type(example).__name__
            merged = example.merge(example)
            assert is_stats(merged)
            assert isinstance(example.as_dict(), dict)

    def test_cache_stats_merge_sums(self):
        left = CacheStats(hot_hits=3, cold_misses=1, flushes=2)
        merged = left.merge(CacheStats(hot_hits=1, cold_misses=1,
                                       flushes=0))
        assert merged.hot_hits == 4
        assert merged.cold_misses == 2
        assert merged.flushes == 2
        assert merged.hit_ratio == pytest.approx(4 / 6)

    def test_train_result_merge_weights_by_steps(self):
        one = TrainResult(auc=0.6, logloss=0.4, steps=10,
                          losses=[0.5, 0.4])
        two = TrainResult(auc=0.8, logloss=0.2, steps=30, losses=[0.3])
        merged = one.merge(two)
        assert merged.steps == 40
        assert merged.auc == pytest.approx(0.75)
        assert merged.logloss == pytest.approx(0.25)
        assert merged.losses == [0.5, 0.4, 0.3]

    def test_sim_summary_merge_adds(self):
        one = SimSummary(makespan=1.0, task_count=2, event_count=3,
                         busy_seconds={"gpu_sm": 0.5})
        two = SimSummary(makespan=2.0, task_count=4, event_count=5,
                         busy_seconds={"gpu_sm": 1.0, "net": 0.25})
        merged = one.merge(two)
        assert merged.makespan == pytest.approx(3.0)
        assert merged.task_count == 6
        assert merged.busy_seconds["gpu_sm"] == pytest.approx(1.5)
        assert merged.busy_seconds["net"] == pytest.approx(0.25)

    def test_serving_report_merge(self):
        one = ServingReport(served=10, shed=0, p50_ms=1.0, p95_ms=2.0,
                            p99_ms=3.0, qps=100.0, shed_rate=0.0,
                            cache_hit_ratio=0.8, makespan_s=0.1,
                            stage_seconds={"fetch": 0.01})
        two = ServingReport(served=30, shed=10, p50_ms=2.0, p95_ms=1.0,
                            p99_ms=4.0, qps=300.0, shed_rate=0.25,
                            cache_hit_ratio=0.4, makespan_s=0.1,
                            stage_seconds={"fetch": 0.03, "compute": 0.1})
        merged = one.merge(two)
        assert merged.served == 40
        assert merged.shed == 10
        # No raw latencies on either side: percentiles fall back to the
        # pairwise max.
        assert merged.p95_ms == pytest.approx(2.0)
        assert merged.shed_rate == pytest.approx(10 / 50)
        assert merged.cache_hit_ratio == pytest.approx(0.5)
        assert merged.stage_seconds["fetch"] == pytest.approx(0.04)

    def test_serving_report_merge_uses_histograms(self):
        from repro.telemetry.timeseries import Histogram

        def report(latencies_ms, served):
            hist = Histogram.from_values(latencies_ms)
            return ServingReport(
                served=served, shed=0, p50_ms=hist.quantile(0.5),
                p95_ms=hist.quantile(0.95), p99_ms=hist.quantile(0.99),
                qps=0.0, shed_rate=0.0, cache_hit_ratio=0.0,
                makespan_s=0.1, stage_seconds={}, latency_hist=hist)

        # 196 fast requests in one shard, 4 slow in the other.  The old
        # pairwise-max estimate reported the slow shard's 100 ms as the
        # merged p50; the histogram merge keeps the combined p50 fast
        # while the combined p99 correctly lands in the slow tail.
        fast = report([1.0] * 196, served=196)
        slow = report([100.0] * 4, served=4)
        merged = fast.merge(slow)
        assert merged.p50_ms == pytest.approx(1.0, rel=0.03)
        assert merged.p99_ms == pytest.approx(100.0, rel=0.03)
        assert merged.latency_hist.count == 200
