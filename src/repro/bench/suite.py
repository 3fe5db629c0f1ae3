"""The built-in benchmark suite behind ``repro bench``.

Each benchmark is one deterministic, CI-sized workload reduced to a
:class:`~repro.bench.snapshot.BenchSnapshot`:

* ``training`` — a profiled PICASSO W&D run: throughput, utilization,
  critical-path coverage, pulse-phase structure;
* ``interleaving`` — the same workload with K-Interleaving on vs off:
  the comm/compute overlap ratios and their gap (Eq. 3's win, gated so
  a scheduler regression that stops hiding communication fails CI);
* ``serving`` — the end-to-end serving simulation: latency
  percentiles, QPS, shed rate, SLO burn rate;
* ``cache`` — HybridHash over a bounded-Zipf stream: hit ratio, EWMA
  level, flush effectiveness (Algorithm 1's health);
* ``faults`` — the fault-recovery sweep plus degraded-mode serving:
  recovery overhead (goodput ratio vs crash-free, MTTR, replay
  divergence) and replica-loss admission behaviour, gated so a
  regression in the recovery path fails CI;
* ``shards`` — skew-aware shard placement vs hash sharding on the
  acceptance workload (Zipf(1.2), 8 workers): measured max/mean
  per-worker AllToAllv bytes under both policies and the planner's
  ratio cut, gated so a placement regression that re-skews the
  exchange (or drops the cut below 25%) fails CI;
* ``online`` — the continuous train->publish->swap->serve loop under a
  flash crowd, against a no-swap replay of the same trace: goodput,
  swap-pause p99, model staleness and delta compression, gated so a
  swap that starts dropping requests (or a delta format that bloats
  past 1/5th of a full checkpoint) fails CI;
* ``replay`` — the what-if loop on the training workload: unperturbed
  replay must reproduce the engine makespan *exactly* (tolerance 0),
  a launch-halved perturbation must land where it lands, and the
  coordinate-descent auto-tuner must keep finding a >= 10% winner with
  <= 15% prediction error on it, gated so a replay or predictor
  regression fails CI;
* ``prefetch`` — the hot/cold lookahead pipeline on a skewed stream
  with periodic cold scans: the ``fifo`` policy must stay the identity
  schedule and hot-first reordering must keep cutting exposed fetch
  seconds by >= 50% versus FIFO, gated so a scheduler regression that
  stops hiding cold fetches fails CI.

Every metric here is modeled, so snapshots are deterministic and
byte-diff across machines.  The simulator's own wall-clock time is
measured in one place only, ``perfbench/run.py``.

Workloads are deliberately small (seconds each): the gate's job is
catching regressions on every PR, not measuring peak numbers.
"""

from __future__ import annotations

from dataclasses import replace as _replace

import numpy as np

from repro.api import RunConfig, ServeConfig, StreamConfig, \
    TuneConfig, profile, run, serve, stream, tune
from repro.bench.snapshot import BenchSnapshot
from repro.core import PicassoConfig
from repro.data import BoundedZipf
from repro.data.spec import FieldSpec
from repro.embedding.hybrid_hash import HybridHash
from repro.embedding.placement import ShardPlanner, compare_policies
from repro.embedding.table import EmbeddingTable
from repro.experiments.fault_recovery import run_fault_recovery
from repro.faults import FaultPlan
from repro.serving.metrics import ServingMetrics
from repro.serving.server import simulate_serving
from repro.serving.traffic import FlashCrowdShape
from repro.telemetry import (
    CacheHealthMonitor,
    SkewMonitor,
    SloBurnRateMonitor,
)

#: The tiny-but-representative training workload the gates run on.
_TRAIN_CONFIG = dict(model="W&D", dataset="Product-1", scale=0.05,
                     cluster="eflops:2", batch_size=4_000, iterations=2)

#: The interleaving comparison needs >1 worker per set to pipeline.
_INTERLEAVE_CONFIG = dict(model="W&D", dataset="Product-1", scale=0.05,
                          cluster="eflops:4", batch_size=8_000,
                          iterations=2)


#: The training gate's prefetch knobs: every upcoming batch counts as
#: hot (threshold 1.0 against the HBM-deferral residency model) with a
#: 4-deep window, which is the standard scenario the overlap
#: acceptance bar (>= 0.35 comm/compute overlap at 16 steady-state
#: iterations) was set on.
_TRAIN_PREFETCH = dict(prefetch_lookahead=4, prefetch_hot_threshold=1.0)


def bench_training() -> BenchSnapshot:
    """Profiled PICASSO run: throughput + health-monitor structure.

    Runs the training workload with the hot/cold prefetch pipeline on
    (16 iterations so the steady state dominates warm-up) and gates
    both the classic health structure and the prefetch account: the
    comm/compute overlap ratio must hold the >= 0.35 acceptance bar
    and the background stream must stay fully hidden (zero exposed
    fetch seconds).
    """
    workload = dict(_TRAIN_CONFIG, iterations=16)
    config = RunConfig(picasso=PicassoConfig(**_TRAIN_PREFETCH),
                       **workload)
    result = profile(config)
    report = result.report
    pulse = result.monitors["pulse"].summary
    overlap = result.monitors["overlap"].summary
    prefetch = result.monitors["prefetch"].summary
    metrics = {
        "ips": report.ips,
        "seconds_per_iteration": report.seconds_per_iteration,
        "sm_utilization": report.sm_utilization,
        "makespan_s": report.result.makespan,
        "task_count": report.result.summary().task_count,
        "critical_path_coverage": result.critical_path.coverage(10),
        "pulse_phases": pulse["num_phases"],
        "pulse_idle_fraction": pulse["idle_fraction"],
        "overlap_ratio": overlap["overlap_ratio"],
        "overlap_alerts": len(result.monitors["overlap"].alerts),
        "prefetch_seconds": prefetch["prefetch_seconds"],
        "prefetch_exposed_s": prefetch["exposed_fetch_seconds"],
        "prefetch_overlap_ratio": prefetch["overlap_ratio"],
        "prefetch_alerts": len(result.monitors["prefetch"].alerts),
    }
    tolerances = {
        "task_count": 0.0,
        "overlap_alerts": 0.0,
        "prefetch_alerts": 0.0,
        "prefetch_exposed_s": 0.0,
        "pulse_phases": 0.0,
        "pulse_idle_fraction": 0.10,
        "overlap_ratio": 0.10,
        "prefetch_seconds": 0.05,
        "prefetch_overlap_ratio": 0.05,
        "critical_path_coverage": 0.02,
    }
    return BenchSnapshot(
        name="training",
        config=dict(workload, **_TRAIN_PREFETCH),
        metrics=metrics,
        monitors={"pulse": pulse, "overlap": overlap,
                  "prefetch": prefetch},
        tolerances=tolerances)


def bench_interleaving() -> BenchSnapshot:
    """K-Interleaving on vs off: overlap ratios and their gap."""
    results = {}
    for label, picasso in (("on", PicassoConfig()),
                           ("off", PicassoConfig().without("interleaving"))):
        config = RunConfig(picasso=picasso, **_INTERLEAVE_CONFIG)
        results[label] = profile(config)
    overlap_on = results["on"].monitors["overlap"].summary
    overlap_off = results["off"].monitors["overlap"].summary
    metrics = {
        "overlap_ratio_on": overlap_on["overlap_ratio"],
        "overlap_ratio_off": overlap_off["overlap_ratio"],
        "overlap_gain": (overlap_on["overlap_ratio"]
                         - overlap_off["overlap_ratio"]),
        "overlapped_seconds_on": overlap_on["overlapped_seconds"],
        "ips_on": results["on"].report.ips,
        "ips_off": results["off"].report.ips,
        "overlap_alerts_on": len(
            results["on"].monitors["overlap"].alerts),
        "overlap_alerts_off": len(
            results["off"].monitors["overlap"].alerts),
    }
    tolerances = {
        "overlap_alerts_on": 0.0,
        "overlap_alerts_off": 0.0,
        "overlap_ratio_on": 0.10,
        "overlap_ratio_off": 0.10,
        "overlap_gain": 0.10,
        "overlapped_seconds_on": 0.10,
    }
    return BenchSnapshot(
        name="interleaving",
        config=dict(_INTERLEAVE_CONFIG),
        metrics=metrics,
        monitors={"overlap_on": overlap_on, "overlap_off": overlap_off},
        tolerances=tolerances)


def bench_serving() -> BenchSnapshot:
    """End-to-end serving run: percentiles, QPS and SLO burn rate."""
    config = dict(num_requests=2_000, seed=0, rate_qps=20_000.0,
                  cache="hbm-dram", slo_ms=20.0)
    metrics_sink = ServingMetrics()
    report = simulate_serving(
        num_requests=config["num_requests"], seed=config["seed"],
        rate_qps=config["rate_qps"], cache=config["cache"],
        slo_s=config["slo_ms"] * 1e-3, metrics=metrics_sink)
    monitor = SloBurnRateMonitor(slo_ms=config["slo_ms"])
    slo = monitor.analyze(metrics_sink)
    metrics = {
        "served": report.served,
        "shed": report.shed,
        "p50_ms": report.p50_ms,
        "p95_ms": report.p95_ms,
        "p99_ms": report.p99_ms,
        "qps": report.qps,
        "shed_rate": report.shed_rate,
        "cache_hit_ratio": report.cache_hit_ratio,
        "slo_burn_rate": slo.summary["overall_burn_rate"],
        "slo_violations": slo.summary["violations"],
    }
    tolerances = {
        "served": 0.0,
        "shed": 0.0,
        "slo_violations": 0.0,
        "p50_ms": 0.05,
        "p95_ms": 0.05,
        "p99_ms": 0.05,
        "cache_hit_ratio": 0.02,
    }
    return BenchSnapshot(
        name="serving",
        config=config,
        metrics=metrics,
        monitors={"slo": slo.summary},
        tolerances=tolerances)


def bench_cache() -> BenchSnapshot:
    """HybridHash over a bounded-Zipf stream: Algorithm 1's health."""
    config = dict(vocab_size=50_000, exponent=1.2, batch_size=512,
                  iterations=120, hot_rows=2_000, warmup_iters=20,
                  flush_iters=25, dim=8, seed=0)
    table = EmbeddingTable(dim=config["dim"], seed=config["seed"])
    cache = HybridHash(
        table, hot_bytes=config["hot_rows"] * config["dim"] * 4,
        warmup_iters=config["warmup_iters"],
        flush_iters=config["flush_iters"])
    sampler = BoundedZipf(vocab_size=config["vocab_size"],
                          exponent=config["exponent"])
    rng = np.random.default_rng(config["seed"])
    for _ in range(config["iterations"]):
        cache.lookup(sampler.sample(config["batch_size"], rng))
    monitor = CacheHealthMonitor()
    health = monitor.analyze(cache)
    metrics = {
        "hit_ratio": cache.stats.hit_ratio,
        "queries": cache.stats.queries,
        "flushes": cache.stats.flushes,
        "ewma_hit_ratio": health.summary["ewma_hit_ratio"],
        "mean_flush_effect": health.summary["mean_flush_effect"],
        "min_hit_ratio": health.summary["min_hit_ratio"],
    }
    tolerances = {
        "queries": 0.0,
        "flushes": 0.0,
        "hit_ratio": 0.02,
        "ewma_hit_ratio": 0.02,
        "mean_flush_effect": 0.25,
        "min_hit_ratio": 0.05,
    }
    return BenchSnapshot(
        name="cache",
        config=config,
        metrics=metrics,
        monitors={"cache": health.summary},
        tolerances=tolerances)


def bench_faults() -> BenchSnapshot:
    """Recovery overhead + degraded-mode serving, gated.

    The training half reruns the ``fault_recovery`` sweep at bench
    scale and gates the recovery economics: the best checkpoint
    interval must keep goodput near the crash-free run, MTTR must stay
    put, and replayed steps must never diverge.  The serving half
    pushes a trace through replica crashes and gates the degraded-mode
    accounting (no outage: everything is either served or shed by
    admission control).
    """
    config = dict(steps=30, step_time_s=1.0, ckpt_write_s=0.02,
                  detect_s=0.05, restore_s=0.05, seed=0,
                  serve_requests=1_500, serve_rate_qps=20_000.0,
                  serve_replicas=3, serve_crash_rate=40.0,
                  serve_crash_downtime_s=0.02)
    rows = run_fault_recovery(
        steps=config["steps"], step_time_s=config["step_time_s"],
        ckpt_write_s=config["ckpt_write_s"],
        detect_s=config["detect_s"], restore_s=config["restore_s"],
        seed=config["seed"])
    cells = {(row["crash_rate"], row["ckpt_interval"]): row
             for row in rows}
    crash_free = float(cells[("0", 0)]["goodput"])
    crashed = [row for row in rows
               if row["crash_rate"] == "0.1" and row["ckpt_interval"]]
    best = max(crashed, key=lambda row: float(row["goodput"]))
    diverged = sum(1 for row in rows if row["trajectory"] != "exact")

    trace_s = config["serve_requests"] / config["serve_rate_qps"]
    plan = FaultPlan.periodic(
        crash_rate=config["serve_crash_rate"], duration_s=trace_s,
        crash_downtime_s=config["serve_crash_downtime_s"],
        workers=config["serve_replicas"])
    report = serve(ServeConfig(
        requests=config["serve_requests"],
        rate_qps=config["serve_rate_qps"],
        replicas=config["serve_replicas"], fault_plan=plan))
    degraded = report.degraded or {}
    metrics = {
        "crash_free_goodput": crash_free,
        "recovery_off_goodput": float(cells[("0.1", 0)]["goodput"]),
        "best_goodput": float(best["goodput"]),
        "best_recovery_ratio": float(best["goodput"]) / crash_free,
        "best_mttr_s": float(best["mttr_s"]),
        "best_ckpt_interval": best["ckpt_interval"],
        "replay_divergence": diverged,
        "crashes": int(cells[("0.1", 0)]["crashes"]),
        "degraded_served": report.served,
        "degraded_shed": report.shed,
        "degraded_seconds": degraded.get("degraded_seconds", 0.0),
        "degraded_batches": degraded.get("degraded_batches", 0),
        "tightened_shed": degraded.get("tightened_shed", 0),
        "min_live_replicas": degraded.get("min_live_replicas", 0),
    }
    tolerances = {
        "replay_divergence": 0.0,
        "crashes": 0.0,
        "best_ckpt_interval": 0.0,
        "degraded_served": 0.0,
        "degraded_shed": 0.0,
        "degraded_batches": 0.0,
        "tightened_shed": 0.0,
        "min_live_replicas": 0.0,
        "crash_free_goodput": 0.01,
        "recovery_off_goodput": 0.01,
        "best_goodput": 0.01,
        "best_recovery_ratio": 0.01,
        "best_mttr_s": 0.02,
        "degraded_seconds": 0.01,
    }
    return BenchSnapshot(
        name="faults",
        config=config,
        metrics=metrics,
        monitors={"degraded": degraded},
        tolerances=tolerances)


def bench_shards() -> BenchSnapshot:
    """Skew-aware placement vs hash sharding on the acceptance cell.

    Prices identical seeded Zipf(1.2) traffic through both policies on
    8 workers.  The gate holds the planner to its contract: the
    measured max/mean shard-bytes cut must stay >= 25% (the ISSUE 5
    acceptance bar), replication/dedication structure must stay put,
    and the hash baseline itself must stay reproducible.
    """
    config = dict(vocab_size=50_000, exponent=1.2, num_fields=4,
                  dim=16, per_worker_batch=4_096, workers=8, seed=0)
    specs = [FieldSpec(name=f"f{index}",
                       vocab_size=config["vocab_size"],
                       embedding_dim=config["dim"],
                       zipf_exponent=config["exponent"])
             for index in range(config["num_fields"])]
    workers = config["workers"]
    planner = ShardPlanner(workers)
    profiles = planner.profiles_for_fields(
        specs, config["per_worker_batch"])
    sampler = BoundedZipf(vocab_size=config["vocab_size"],
                          exponent=config["exponent"])
    rng = np.random.default_rng(config["seed"])
    batches = {
        spec.name: [sampler.sample(config["per_worker_batch"], rng)
                    for _worker in range(workers)]
        for spec in specs
    }
    result = compare_policies(profiles, batches, workers)
    hash_load, planned_load = result["hash"], result["planned"]
    planned_plan = result["plans"]["planned"]
    monitor = SkewMonitor(max_ratio=1.5)
    skew_hash = monitor.analyze(hash_load)
    skew_planned = monitor.analyze(planned_load)
    ratio_cut = (1.0 - planned_load.max_mean_ratio
                 / hash_load.max_mean_ratio)
    metrics = {
        "hash_ratio": hash_load.max_mean_ratio,
        "planned_ratio": planned_load.max_mean_ratio,
        "ratio_cut": ratio_cut,
        "hash_max_bytes": hash_load.max_bytes,
        "planned_max_bytes": planned_load.max_bytes,
        "max_bytes_cut": (1.0 - planned_load.max_bytes
                          / hash_load.max_bytes),
        "replicated_rows": planned_plan.replicated_rows,
        "dedicated_rows": sum(
            entry.dedicated_ids.size
            for entry in planned_plan.fields.values()),
        "replicated_bytes": planned_load.replicated_bytes,
        "predicted_ratio_planned": planned_plan.predicted_ratio(),
        "hash_skew_alerts": len(skew_hash.alerts),
        "planned_skew_alerts": len(skew_planned.alerts),
    }
    tolerances = {
        "replicated_rows": 0.0,
        "dedicated_rows": 0.0,
        "hash_skew_alerts": 0.0,
        "planned_skew_alerts": 0.0,
        "hash_ratio": 0.02,
        "planned_ratio": 0.02,
        "ratio_cut": 0.05,
        "hash_max_bytes": 0.02,
        "planned_max_bytes": 0.02,
        "max_bytes_cut": 0.02,
        "replicated_bytes": 0.02,
        "predicted_ratio_planned": 0.02,
    }
    return BenchSnapshot(
        name="shards",
        config=config,
        metrics=metrics,
        monitors={"skew_hash": skew_hash.summary,
                  "skew_planned": skew_planned.summary},
        tolerances=tolerances)


def bench_online() -> BenchSnapshot:
    """The continuous loop under a flash crowd, vs a no-swap replay.

    One trace, two runs: hot swaps on (the product) and hot swaps off
    (the control serving frozen initial weights).  The gate holds the
    loop to its contract: zero swap-attributed sheds, served p99
    within 10% of the no-swap run, and delta snapshots at least 5x
    smaller than a full checkpoint.
    """
    config = dict(requests=2_000, seed=0, rate_qps=20_000.0,
                  flash_start_s=0.02, flash_duration_s=0.03,
                  flash_multiplier=3.0, train_steps=120,
                  train_step_ms=1.0, train_batch=128,
                  publish_interval=10, drift_ids_per_step=8.0,
                  slo_ms=20.0, max_replicas=4)
    base = StreamConfig(
        requests=config["requests"], seed=config["seed"],
        rate_qps=config["rate_qps"],
        shape=FlashCrowdShape(start_s=config["flash_start_s"],
                              duration_s=config["flash_duration_s"],
                              multiplier=config["flash_multiplier"]),
        train_steps=config["train_steps"],
        train_step_s=config["train_step_ms"] * 1e-3,
        train_batch_size=config["train_batch"],
        publish_interval=config["publish_interval"],
        drift_ids_per_step=config["drift_ids_per_step"],
        slo_s=config["slo_ms"] * 1e-3,
        max_replicas=config["max_replicas"])
    swapped = stream(base)
    frozen = stream(base.with_overrides(hot_swaps=False))
    p99_ratio = (swapped.serving.p99_ms / frozen.serving.p99_ms
                 if frozen.serving.p99_ms > 0 else 1.0)
    metrics = {
        "served": swapped.serving.served,
        "shed": swapped.serving.shed,
        "goodput_qps": swapped.goodput_qps,
        "p99_ms": swapped.serving.p99_ms,
        "p99_ms_noswap": frozen.serving.p99_ms,
        "p99_swap_ratio": p99_ratio,
        "publishes": swapped.publishes,
        "swaps": swapped.swaps,
        "swap_pause_p99_ms": swapped.swap_pause_p99_ms,
        "swap_attributed_shed": swapped.swap_attributed_shed,
        "staleness_mean_s": swapped.staleness_mean_s,
        "staleness_max_s": swapped.staleness_max_s,
        "delta_compression": swapped.delta_compression,
        "full_snapshot_bytes": swapped.full_snapshot_bytes,
    }
    tolerances = {
        "served": 0.0,
        "shed": 0.0,
        "publishes": 0.0,
        "swaps": 0.0,
        "swap_attributed_shed": 0.0,
        "full_snapshot_bytes": 0.0,
        "goodput_qps": 0.05,
        "p99_ms": 0.05,
        "p99_ms_noswap": 0.05,
        "p99_swap_ratio": 0.05,
        "swap_pause_p99_ms": 0.05,
        "staleness_mean_s": 0.05,
        "staleness_max_s": 0.05,
        "delta_compression": 0.05,
    }
    return BenchSnapshot(
        name="online",
        config=config,
        metrics=metrics,
        monitors=dict(swapped.controls),
        tolerances=tolerances)


def bench_replay() -> BenchSnapshot:
    """What-if replay fidelity + auto-tuner quality, gated.

    Records the training workload once, then gates three layers of the
    what-if stack: unperturbed replay must be *exact* (the engine
    invariant the whole replayer rests on — tolerance 0), a
    launch-halved perturbation must reproduce its makespan cut, and
    :func:`repro.api.tune` with the default coordinate-descent
    strategy must keep clearing the acceptance bar (>= 10% measured
    gain, |prediction error| <= 15% on the validated winner).
    """
    from repro.replay import CostHooks, TraceReplayer

    config = dict(_TRAIN_CONFIG)
    base = RunConfig(**config)
    report = run(base.with_overrides(record_tasks=True))
    replayer = TraceReplayer(report.result.task_records)
    unperturbed = replayer.replay()
    halved = replayer.replay(CostHooks(launch=0.5))
    tuned = tune(TuneConfig(run=base))
    metrics = {
        "makespan_s": report.result.makespan,
        "replay_makespan_s": unperturbed.makespan,
        "replay_exact": float(
            unperturbed.makespan == report.result.makespan),
        "launch_half_makespan_s": halved.makespan,
        "launch_half_ratio": halved.makespan_ratio,
        "base_ips": tuned.base_ips,
        "tuned_ips": tuned.best_ips,
        "tuned_gain": tuned.gain,
        "tuned_fidelity_error": tuned.fidelity_error,
        "tuned_validations": len(tuned.validations),
        "tuned_candidates": tuned.candidates_evaluated,
        "tuned_improved": float(tuned.improved),
    }
    tolerances = {
        "replay_exact": 0.0,
        "tuned_validations": 0.0,
        "tuned_candidates": 0.0,
        "tuned_improved": 0.0,
        "makespan_s": 0.01,
        "replay_makespan_s": 0.01,
        "launch_half_makespan_s": 0.01,
        "launch_half_ratio": 0.01,
        "base_ips": 0.01,
        "tuned_ips": 0.02,
        "tuned_gain": 0.10,
        "tuned_fidelity_error": 0.25,
    }
    return BenchSnapshot(
        name="replay",
        config=config,
        metrics=metrics,
        monitors={"winner": {
            "assignment": {key: value for key, value
                           in sorted(tuned.best_assignment.items())},
            "strategy": tuned.strategy,
        }},
        tolerances=tolerances)


def bench_prefetch() -> BenchSnapshot:
    """Hot/cold lookahead pipeline vs FIFO on a skewed stream, gated.

    A bounded-Zipf(1.2) batch stream with a periodic cold scan (every
    4th batch reads uniform tail IDs) goes through
    :class:`~repro.prefetch.LookaheadPrefetcher` twice: once under the
    ``hotness`` policy with a counter-derived residency oracle, once
    under ``fifo``.  The gate holds the pipeline to its contract: the
    ``fifo`` arm must be the identity schedule, and hot-first
    reordering must cut exposed fetch seconds by >= 50% versus paying
    every cold batch's fetch in the foreground (the ISSUE 9
    acceptance bar).
    """
    from repro.embedding.counter import FrequencyCounter
    from repro.prefetch import (
        DEFAULT_FETCH_RATE,
        LookaheadPrefetcher,
        PrefetchConfig,
        batch_classifier,
        resident_from_counter,
    )

    config = dict(vocab_size=50_000, exponent=1.2, hot_rows=2_000,
                  batches=64, batch_size=512, cold_every=4,
                  lookahead_depth=4, hot_threshold=0.6,
                  row_bytes=64.0, step_ms=1.0, seed=0)
    hot_sampler = BoundedZipf(vocab_size=config["hot_rows"],
                              exponent=config["exponent"])
    rng = np.random.default_rng(config["seed"])
    stream = []
    for index in range(config["batches"]):
        if (index + 1) % config["cold_every"] == 0:
            # The cold scan: uniform over the tail the fast tier
            # cannot pin.
            stream.append(rng.integers(
                config["hot_rows"], config["vocab_size"],
                config["batch_size"], dtype=np.int64))
        else:
            stream.append(hot_sampler.sample(config["batch_size"], rng))
    counter = FrequencyCounter()
    for ids in stream:
        counter.observe(ids)
    resident = resident_from_counter(counter, config["hot_rows"])

    prefetch_config = PrefetchConfig(
        lookahead_depth=config["lookahead_depth"],
        hot_threshold=config["hot_threshold"])
    classifier = batch_classifier("hotness")(
        prefetch_config, resident=resident)
    fetch_s = [np.unique(ids).size * config["row_bytes"]
               / DEFAULT_FETCH_RATE for ids in stream]
    cold = [index for index, ids in enumerate(stream)
            if not classifier.classify(ids, index).hot]
    # FIFO has no lookahead to hide behind: every cold batch's fetch
    # is paid in the foreground, fully exposed.
    fifo_exposed = sum(fetch_s[index] for index in cold)

    hotness = LookaheadPrefetcher(
        prefetch_config, resident=resident,
        row_bytes=config["row_bytes"],
        step_seconds=config["step_ms"] * 1e-3)
    hot_plan = hotness.plan(stream)
    staged = {record.index for record in hotness.records}
    # Cold batches the window never got to stage still pay foreground.
    hot_exposed = (hotness.stats.exposed_fetch_seconds
                   + sum(fetch_s[index] for index in cold
                         if index not in staged))
    fifo = LookaheadPrefetcher(
        prefetch_config.with_overrides(policy="fifo"),
        resident=resident, row_bytes=config["row_bytes"],
        step_seconds=config["step_ms"] * 1e-3)
    fifo_plan = fifo.plan(stream)

    metrics = {
        "batches": hotness.stats.batches,
        "cold_class": len(cold),
        "staged": hotness.stats.staged,
        "reordered": hotness.stats.reordered,
        "max_displacement": max(
            position - index
            for position, index in enumerate(hot_plan)),
        "fifo_identity": float(
            fifo_plan == list(range(config["batches"]))),
        "fifo_staged": fifo.stats.staged,
        "exposed_fifo_s": fifo_exposed,
        "exposed_hotness_s": hot_exposed,
        "exposed_reduction": (1.0 - hot_exposed / fifo_exposed
                              if fifo_exposed > 0 else 0.0),
        "stream_overlap_ratio": hotness.stats.overlap_ratio,
        "staged_bytes": hotness.stats.staged_bytes,
    }
    tolerances = {
        "batches": 0.0,
        "cold_class": 0.0,
        "staged": 0.0,
        "reordered": 0.0,
        "max_displacement": 0.0,
        "fifo_identity": 0.0,
        "fifo_staged": 0.0,
        "exposed_fifo_s": 0.02,
        "exposed_hotness_s": 0.05,
        "exposed_reduction": 0.02,
        "stream_overlap_ratio": 0.02,
        "staged_bytes": 0.02,
    }
    return BenchSnapshot(
        name="prefetch",
        config=config,
        metrics=metrics,
        monitors={"hotness": hotness.stats.as_dict(),
                  "fifo": fifo.stats.as_dict()},
        tolerances=tolerances)


#: Name -> builder for every benchmark ``repro bench run`` knows.
BENCHES = {
    "training": bench_training,
    "interleaving": bench_interleaving,
    "serving": bench_serving,
    "cache": bench_cache,
    "faults": bench_faults,
    "shards": bench_shards,
    "online": bench_online,
    "replay": bench_replay,
    "prefetch": bench_prefetch,
}


def run_benches(names=None) -> list:
    """Build the selected (default: all) snapshots, in listed order.

    Every snapshot gets a ``kind="bench"`` provenance manifest (see
    :func:`repro.telemetry.provenance.build_manifest`) stamped on the
    way out, so committed baselines record the producing code.
    """
    from repro.telemetry.provenance import build_manifest

    selected = list(BENCHES) if names is None else list(names)
    unknown = [name for name in selected if name not in BENCHES]
    if unknown:
        raise ValueError(
            f"unknown bench(es) {unknown}; expected {list(BENCHES)}")
    snapshots = []
    for name in selected:
        snapshot = BENCHES[name]()
        manifest = build_manifest(kind="bench", config=snapshot.config,
                                  extra={"bench": snapshot.name})
        snapshots.append(_replace(snapshot,
                                  provenance=manifest.as_dict()))
    return snapshots
