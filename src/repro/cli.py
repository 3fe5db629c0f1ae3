"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``list`` — models, datasets, frameworks, experiments.
* ``simulate`` — run one workload under a framework and print metrics.
* ``ablation`` — the Tab. IV toggles for one model.
* ``train`` — real numpy training with AUC (Tab. III path).
* ``experiment`` — run one table/figure harness by id.
* ``gantt`` — ASCII utilization timeline of a simulated run.
* ``serve`` — online inference serving simulation with SLO metrics.
* ``stream`` — the continuous loop: streaming training publishes
  delta snapshots that hot-swap into serving under live traffic,
  with SLO-burn-rate autoscaling.
* ``profile`` — run one workload with telemetry on, write a
  Chrome-trace JSON (loads in Perfetto) and print the critical path
  plus run-health monitor verdicts.
* ``replay`` — record (or load) a frozen task trace and re-derive its
  timeline under perturbed per-class cost scales, without re-running
  the engine.
* ``tune`` — trace-driven what-if auto-tuning: search PICASSO's knob
  space by replay prediction, validate the top candidates with real
  runs, report the winner plus prediction fidelity.
* ``bench`` — run the regression benchmark suite (``bench run``) and
  gate candidate snapshots against baselines (``bench compare``);
  gate failures print the ranked metric-attribution table.  The
  simulator's own wall-clock time is measured by ``perfbench/run.py``,
  not here.
* ``diff`` — differential observability: align two frozen traces and
  attribute the makespan delta per op class / worker / resource
  (text, JSON, Chrome overlay), or rank bench-snapshot deltas
  against committed baselines with ``--bench``.
* ``plan-shards`` — build a skew-aware embedding shard placement,
  price seeded traffic under hash vs planned ownership, and
  optionally write the lossless plan JSON.

Workload commands are thin wrappers over the :mod:`repro.api` facade:
flags build a :class:`~repro.api.RunConfig`, :func:`repro.api.run`
executes it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from repro import api
from repro.api import RunConfig, ServeConfig, StreamConfig, TuneConfig
from repro.faults import FaultPlan
from repro.bench import (
    BENCHES,
    compare_snapshots,
    load_snapshot,
    run_benches,
    snapshot_filename,
    write_snapshot,
)
from repro.core import PicassoConfig
from repro.data import ALL_DATASETS, BoundedZipf
from repro.data.spec import FieldSpec
from repro.embedding.placement import (
    PlannerConfig,
    ShardPlanner,
    compare_policies,
)
from repro.experiments import runner as experiment_runner
from repro.experiments.common import format_table, mini_criteo
from repro.models import MODEL_BUILDERS
from repro.prefetch import PrefetchConfig
from repro.replay import WAIT_MODELS, CostHooks, TraceReplayer
from repro.serving import CACHE_KINDS, DiurnalShape, FlashCrowdShape
from repro.sim import FrozenTrace
from repro.sim.export import ascii_gantt
from repro.telemetry import (
    class_deltas,
    diff_bench_dirs,
    diff_snapshots,
    diff_traces,
    format_critical_path,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.training import train_and_evaluate
from repro.tuning import strategies as tuning_strategies


def _cluster(spec: str):
    """argparse type adapter for ``eflops:16`` / ``gn6e:1`` specs."""
    try:
        return api.parse_cluster(spec)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _prefetch_config(args) -> PrefetchConfig | None:
    """The optional hot/cold pipeline config from ``--prefetch-*``.

    ``None`` (prefetch off, byte-identical to the pre-pipeline
    behaviour) unless at least one prefetch flag was given; unset
    flags fall back to :class:`PrefetchConfig` defaults.
    """
    settings = {
        "policy": getattr(args, "prefetch_policy", None),
        "lookahead_depth": getattr(args, "prefetch_lookahead", None),
        "hot_threshold": getattr(args, "prefetch_hot_threshold", None),
    }
    inflight_mb = getattr(args, "prefetch_inflight_mb", None)
    if inflight_mb is not None:
        settings["max_inflight_bytes"] = inflight_mb * float(1 << 20)
    settings = {key: value for key, value in settings.items()
                if value is not None}
    if not settings:
        return None
    try:
        return PrefetchConfig(**settings)
    except ValueError as error:
        raise SystemExit(str(error))


def _run_config(args, **overrides) -> RunConfig:
    """A :class:`RunConfig` from the shared simulation flags."""
    settings = {
        "model": args.model,
        "dataset": args.dataset,
        "scale": args.scale,
        "cluster": args.cluster,
        "batch_size": args.batch,
        "iterations": args.iterations,
        "framework": getattr(args, "framework", "PICASSO"),
        "prefetch": _prefetch_config(args),
    }
    settings.update(overrides)
    return RunConfig(**settings)


def _facade_run(config: RunConfig):
    """Run via the facade, converting config errors to CLI exits."""
    try:
        return api.run(config)
    except ValueError as error:
        raise SystemExit(f"{error}; see `list`")


def _report_rows(report) -> list:
    return [{
        "ips": f"{report.ips:,.0f}",
        "ms/iter": f"{report.seconds_per_iteration * 1000:.1f}",
        "sm_util": f"{report.sm_utilization:.0%}",
        "pcie_GBps": f"{report.pcie_gbps:.2f}",
        "net_Gbps": f"{report.net_gbps:.2f}",
        "ops": report.op_count,
        "micro_ops": f"{report.micro_ops:,}",
    }]


def cmd_list(_args) -> int:
    print("models:     " + ", ".join(sorted(MODEL_BUILDERS)))
    print("datasets:   " + ", ".join(ALL_DATASETS))
    print("frameworks: " + ", ".join(api.frameworks()))
    print("experiments:")
    for title, _fn in experiment_runner.EXPERIMENTS:
        print(f"  - {title}")
    return 0


def cmd_simulate(args) -> int:
    config = _run_config(args)
    report = _facade_run(config)
    cluster = config.resolved_cluster()
    print(f"{args.framework} / {report.name.split('/', 1)[-1]} "
          f"on {args.dataset} ({cluster.name} x{cluster.num_nodes})")
    print(format_table(_report_rows(report), list(_report_rows(report)[0])))
    return 0


def cmd_ablation(args) -> int:
    rows = []
    variants = {
        "PICASSO": PicassoConfig(),
        "w/o packing": PicassoConfig().without("packing"),
        "w/o interleaving": PicassoConfig().without("interleaving"),
        "w/o caching": PicassoConfig().without("caching"),
    }
    model = None
    for name, picasso in variants.items():
        config = _run_config(args, framework="PICASSO", picasso=picasso)
        if model is None:
            model = config.build_model()
        report = api.run(config, model=model)
        rows.append({"variant": name, "ips": f"{report.ips:,.0f}",
                     "sm_util": f"{report.sm_utilization:.0%}"})
    print(format_table(rows, ["variant", "ips", "sm_util"]))
    return 0


def cmd_train(args) -> int:
    dataset = mini_criteo()
    result = train_and_evaluate(dataset, args.variant, mode=args.mode,
                                steps=args.steps,
                                batch_size=args.batch,
                                noise_scale=args.noise)
    print(f"{args.variant} ({args.mode}): AUC={result.auc:.4f} "
          f"logloss={result.logloss:.4f} "
          f"loss {result.losses[0]:.4f} -> {result.final_loss:.4f}")
    return 0


def cmd_experiment(args) -> int:
    for title, fn in experiment_runner.EXPERIMENTS:
        if args.name.lower() in title.lower():
            rows = fn()
            if rows and isinstance(rows, list):
                print(format_table(rows, list(rows[0].keys())))
            else:
                print(rows)
            return 0
    raise SystemExit(f"no experiment matches {args.name!r}; see `list`")


def _serve_config(args) -> ServeConfig:
    """A :class:`ServeConfig` from the ``serve`` flags."""
    fault_plan = None
    if args.crash_rate > 0:
        # Replica crashes over the (expected) span of the trace.
        fault_plan = FaultPlan.generate(
            seed=args.fault_seed,
            duration_s=args.requests / args.rate,
            crash_rate=args.crash_rate,
            workers=args.replicas)
    return ServeConfig(
        requests=args.requests, seed=args.seed, rate_qps=args.rate,
        cache=args.cache, hot_rows=args.hot_rows,
        warm_rows=args.warm_rows, max_batch_size=args.batch_max,
        max_wait_s=args.max_wait_ms / 1e3, slo_s=args.slo_ms / 1e3,
        micro_batch_rows=args.micro_rows, replicas=args.replicas,
        fault_plan=fault_plan, prefetch=_prefetch_config(args))


def cmd_serve(args) -> int:
    try:
        config = _serve_config(args)
    except ValueError as error:
        raise SystemExit(str(error))
    report = api.serve(config)
    print(f"serving {config.requests} requests @ "
          f"{config.rate_qps:,.0f} qps "
          f"(cache={config.cache}, slo={args.slo_ms}ms, "
          f"seed={config.seed})")
    print(format_table([report.row()], list(report.row())))
    stages = report.stage_seconds
    total = sum(stages.values()) or 1.0
    print("stage breakdown: " + "  ".join(
        f"{name}={seconds / total:.0%}"
        for name, seconds in stages.items()))
    if report.degraded is not None:
        degraded = report.degraded
        print(f"degraded mode: {degraded['replica_crashes']} replica "
              f"crash(es), {degraded['degraded_seconds']:.3f}s degraded, "
              f"min live {degraded['min_live_replicas']}/"
              f"{degraded['replicas']}, "
              f"{degraded['tightened_shed']} request(s) shed by "
              "tightened admission")
    return 0


def _stream_shape(args):
    """Build the optional rate shape from the ``stream`` flags."""
    if args.shape == "none":
        return None
    if args.shape == "diurnal":
        return DiurnalShape(period_s=args.shape_period_s,
                            amplitude=args.shape_amplitude)
    return FlashCrowdShape(start_s=args.flash_start_s,
                           duration_s=args.flash_duration_s,
                           multiplier=args.flash_multiplier)


def cmd_stream(args) -> int:
    try:
        config = StreamConfig(
            requests=args.requests, seed=args.seed, rate_qps=args.rate,
            shape=_stream_shape(args), train_steps=args.train_steps,
            train_step_s=args.train_step_ms / 1e3,
            train_batch_size=args.train_batch,
            publish_interval=args.publish_interval,
            drift_ids_per_step=args.drift, max_chain=args.max_chain,
            snapshot_dir=args.snapshot_dir, cache=args.cache,
            slo_s=args.slo_ms / 1e3,
            autoscale=not args.no_autoscale,
            max_replicas=args.max_replicas,
            hot_swaps=not args.no_swaps,
            prefetch=_prefetch_config(args))
    except ValueError as error:
        raise SystemExit(str(error))
    report = api.stream(config)
    print(f"streaming {config.train_steps}-step trainer "
          f"(publish every {config.publish_interval}) against "
          f"{config.requests} requests @ {config.rate_qps:,.0f} qps "
          f"(seed={config.seed})")
    print(format_table([report.row()], list(report.row())))
    print(f"publishes={report.publishes} swaps={report.swaps} "
          f"(skipped {report.skipped_versions} stale version(s)), "
          f"swap pause p99 {report.swap_pause_p99_ms:.3f} ms, "
          f"{report.swap_attributed_shed} swap-attributed shed(s)")
    if report.delta_compression > 0:
        print(f"snapshots: full {report.full_snapshot_bytes:,} B, "
              f"delta mean {report.delta_snapshot_bytes_mean:,.0f} B "
              f"({report.delta_compression:.1f}x smaller)")
    scaling = report.controls.get("ReplicaAutoscaler")
    if scaling is not None:
        print(f"autoscaler: {scaling['scale_ups']} up / "
              f"{scaling['scale_downs']} down, peak "
              f"{scaling['max_replicas_seen']} replica(s)")
    return 0


def cmd_gantt(args) -> int:
    report = _facade_run(_run_config(args))
    print(ascii_gantt(report.result, width=args.width))
    return 0


def cmd_profile(args) -> int:
    config = _run_config(args, record_tasks=True)
    try:
        profiled = api.profile(config, top_k=args.top)
    except ValueError as error:
        raise SystemExit(f"{error}; see `list`")
    validate_chrome_trace(profiled.trace)
    path = write_chrome_trace(args.output, profiled.trace)
    report = profiled.report
    print(f"{args.framework} / {report.name.split('/', 1)[-1]}: "
          f"{report.ips:,.0f} ips, "
          f"{report.seconds_per_iteration * 1e3:.1f} ms/iter, "
          f"{len(report.result.task_records)} tasks")
    print(format_critical_path(profiled.critical_path))
    for name, monitor in sorted(profiled.monitors.items()):
        verdict = "healthy" if monitor.healthy else "UNHEALTHY"
        if name == "pulse":
            detail = (f"{monitor.summary['num_phases']} phases "
                      f"({monitor.summary['alternations']} mem<->compute "
                      "alternations), "
                      f"{monitor.summary['idle_fraction']:.1%} idle")
        elif name == "overlap":
            detail = ("comm/compute overlap "
                      f"{monitor.summary['overlap_ratio']:.1%} "
                      f"({monitor.summary['exposed_seconds'] * 1e3:.1f} ms "
                      "exposed)")
        else:
            detail = ""
        print(f"monitor {name}: {verdict} — {detail}")
        for alert in monitor.alerts:
            print(f"  [{alert.severity}] t={alert.time_s:.3f}s "
                  f"{alert.message}")
    print(f"chrome trace: {path} "
          "(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _load_or_record_trace(args) -> FrozenTrace:
    """The frozen trace ``replay``/``tune`` operate on."""
    if args.trace:
        try:
            return FrozenTrace.load(args.trace)
        except (OSError, ValueError) as error:
            raise SystemExit(f"cannot load trace {args.trace}: {error}")
    config = _run_config(args, record_tasks=True)
    report = _facade_run(config)
    return FrozenTrace(records=tuple(report.result.task_records),
                       makespan=report.result.makespan,
                       metadata={"workload": config.as_dict(),
                                 "report_name": report.name,
                                 "provenance": api.run_manifest(
                                     config, report.name,
                                     kind="trace")})


def cmd_replay(args) -> int:
    trace = _load_or_record_trace(args)
    if args.save:
        path = trace.save(args.save)
        print(f"trace saved to {path} ({len(trace)} tasks)")
    try:
        hooks = CostHooks(compute=args.compute, memory=args.memory,
                          communication=args.communication,
                          launch=args.launch,
                          wait_model=args.wait_model)
        replayer = TraceReplayer.from_trace(trace)
    except ValueError as error:
        raise SystemExit(str(error))
    base = replayer.replay()
    replayed = replayer.replay(hooks)
    print(f"replayed {len(trace)} tasks under scales "
          f"compute={args.compute:g} memory={args.memory:g} "
          f"communication={args.communication:g} "
          f"launch={args.launch:g} (waits: {args.wait_model})")
    print(f"makespan: {base.makespan * 1e3:.3f} ms -> "
          f"{replayed.makespan * 1e3:.3f} ms "
          f"({replayed.makespan_ratio:.3f}x)")
    deltas = class_deltas(base.critical_path(),
                          replayed.critical_path())
    rows = [{"class": name,
             "delta_ms": f"{seconds * 1e3:+.3f}"}
            for name, seconds in sorted(deltas.items())
            if name != "makespan"]
    rows.append({"class": "makespan",
                 "delta_ms": f"{deltas['makespan'] * 1e3:+.3f}"})
    print(format_table(rows, ["class", "delta_ms"]))
    return 0


def cmd_tune(args) -> int:
    base = _run_config(args)
    try:
        config = TuneConfig(run=base, strategy=args.strategy,
                            top_k=args.top_k, trace_path=args.trace,
                            wait_model=args.wait_model)
        result = api.tune(config)
    except ValueError as error:
        raise SystemExit(str(error))
    cluster = base.resolved_cluster()
    print(f"tuning PICASSO/{base.model} on {base.dataset} "
          f"({cluster.name} x{cluster.num_nodes}) via {args.strategy}: "
          f"{result.candidates_evaluated} candidates, "
          f"{len(result.validations)} validated")
    rows = [{
        "assignment": ", ".join(
            f"{key}={value:g}" if isinstance(value, float)
            else f"{key}={value}"
            for key, value in sorted(entry.assignment.items()))
        or "(baseline)",
        "predicted_ips": f"{entry.predicted_ips:,.0f}",
        "measured_ips": f"{entry.measured_ips:,.0f}",
        "error": f"{entry.error:+.1%}",
    } for entry in result.validations]
    print(format_table(rows, ["assignment", "predicted_ips",
                              "measured_ips", "error"]))
    if result.improved:
        assignment = ", ".join(
            f"{key}={value:g}" if isinstance(value, float)
            else f"{key}={value}"
            for key, value in sorted(result.best_assignment.items()))
        print(f"winner: {assignment} — {result.best_ips:,.0f} ips "
              f"({result.gain:+.1%} vs baseline "
              f"{result.base_ips:,.0f}), prediction error "
              f"{result.fidelity_error:+.1%}")
    else:
        print(f"no validated candidate beat the baseline "
              f"({result.base_ips:,.0f} ips); keeping it")
    return 0


def cmd_bench_run(args) -> int:
    out_dir = args.baseline_dir if args.update_baseline else args.out
    names = args.only.split(",") if args.only else None
    try:
        snapshots = run_benches(names)
    except ValueError as error:
        raise SystemExit(str(error))
    for snapshot in snapshots:
        path = write_snapshot(snapshot, out_dir)
        print(f"bench {snapshot.name}: wrote {path} "
              f"({len(snapshot.metrics)} metrics, "
              f"fingerprint {snapshot.fingerprint})")
    if args.update_baseline:
        print(f"baselines updated in {args.baseline_dir}")
    return 0


def cmd_bench_compare(args) -> int:
    names = args.only.split(",") if args.only else sorted(BENCHES)
    failures = 0
    for name in names:
        baseline_path = os.path.join(args.baseline,
                                     snapshot_filename(name))
        candidate_path = os.path.join(args.candidate,
                                      snapshot_filename(name))
        if not os.path.exists(baseline_path):
            print(f"bench {name}: no baseline at {baseline_path} "
                  "(skipping; run with --update-baseline to create)")
            continue
        if not os.path.exists(candidate_path):
            print(f"bench {name}: FAIL — candidate snapshot missing "
                  f"at {candidate_path}")
            failures += 1
            continue
        try:
            baseline = load_snapshot(baseline_path)
            candidate = load_snapshot(candidate_path)
        except ValueError as error:
            print(f"bench {name}: FAIL — {error}")
            failures += 1
            continue
        report = compare_snapshots(baseline, candidate)
        print(report.format())
        if not report.passed:
            # A failed gate says *that* a metric moved; the ranked
            # attribution table says which moves matter most.
            print(diff_snapshots(baseline, candidate).format())
            failures += 1
    if failures:
        print(f"{failures} bench gate(s) FAILED")
        return 1
    print("all bench gates passed")
    return 0


def cmd_diff(args) -> int:
    if args.bench:
        base_dir = args.base or "benchmarks/baselines"
        candidate_dir = args.candidate or "bench_out"
        try:
            diffs, base_only, candidate_only = diff_bench_dirs(
                base_dir, candidate_dir)
        except ValueError as error:
            raise SystemExit(str(error))
        if not diffs and not base_only and not candidate_only:
            raise SystemExit(
                f"no BENCH_*.json snapshots under {base_dir} "
                f"or {candidate_dir}")
        for diff in diffs:
            print(diff.format(args.top))
        for name in base_only:
            print(f"baseline-only snapshot (no candidate): {name}")
        for name in candidate_only:
            print(f"candidate-only snapshot (no baseline): {name}")
        if args.output:
            payload = {"mode": "bench",
                       "diffs": [diff.as_dict() for diff in diffs],
                       "base_only": base_only,
                       "candidate_only": candidate_only}
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True, indent=1,
                          separators=(",", ": "))
                handle.write("\n")
            print(f"bench diff JSON written to {args.output}")
        return 0

    if not args.base or not args.candidate:
        raise SystemExit("diff needs BASE and CANDIDATE trace files "
                         "(or --bench for snapshot directories)")
    try:
        base = FrozenTrace.load(args.base)
        candidate = FrozenTrace.load(args.candidate)
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot load trace: {error}")
    diff = diff_traces(base, candidate, top_k=args.top)
    print(diff.format(args.top))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(diff.dumps())
        print(f"diff JSON written to {args.output}")
    if args.overlay:
        payload = diff.overlay()
        validate_chrome_trace(payload)
        path = write_chrome_trace(args.overlay, payload)
        print(f"chrome overlay written to {path} "
              "(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def cmd_plan_shards(args) -> int:
    specs = [FieldSpec(name=f"f{index}", vocab_size=args.vocab,
                       embedding_dim=args.dim, zipf_exponent=args.skew)
             for index in range(args.fields)]
    config = PlannerConfig(
        partitions_per_worker=args.partitions_per_worker,
        hot_candidates=args.hot_candidates,
        replicate_threshold=args.replicate_threshold)
    planner = ShardPlanner(args.workers, config)
    profiles = planner.profiles_for_fields(specs, args.batch)
    sampler = BoundedZipf(vocab_size=args.vocab, exponent=args.skew)
    rng = np.random.default_rng(args.seed)
    batches = {
        spec.name: [sampler.sample(args.batch, rng)
                    for _worker in range(args.workers)]
        for spec in specs
    }
    result = compare_policies(profiles, batches, args.workers, config)
    print(f"workload: {args.fields} fields x vocab {args.vocab} "
          f"(Zipf {args.skew:g}), {args.workers} workers, "
          f"{args.batch} IDs/worker/step")
    for policy in ("hash", "planned"):
        plan = result["plans"][policy]
        load = result[policy]
        summary = plan.summary()
        print(f"{policy:>8}: measured max/mean "
              f"{load.max_mean_ratio:.3f} "
              f"(max {load.max_bytes:,.0f} B/step), predicted "
              f"{summary['predicted_ratio']:.3f}, replicated "
              f"{summary['replicated_rows']}, dedicated "
              f"{summary['dedicated_rows']}")
    hash_load, planned_load = result["hash"], result["planned"]
    cut = 1.0 - planned_load.max_mean_ratio / hash_load.max_mean_ratio
    print("planned placement cuts max/mean exchange ratio by "
          f"{cut:.1%} (max bytes by "
          f"{1.0 - planned_load.max_bytes / hash_load.max_bytes:.1%})")
    if args.output:
        plan = result["plans"][args.policy]
        with open(args.output, "w") as handle:
            json.dump(plan.as_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{args.policy} plan written to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="PICASSO reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list models/datasets/experiments") \
        .set_defaults(func=cmd_list)

    def add_prefetch_args(p):
        # Mirrors PrefetchConfig field-for-field; leaving all four
        # unset keeps prefetch off (and output byte-identical).
        p.add_argument("--prefetch-policy",
                       help="batch classifier enabling the hot/cold "
                            "lookahead pipeline (builtins: hotness, "
                            "fifo; plugins via "
                            "register_batch_classifier)")
        p.add_argument("--prefetch-lookahead", type=int,
                       help="lookahead window depth in batches "
                            "(1 = no reordering)")
        p.add_argument("--prefetch-hot-threshold", type=float,
                       help="fast-tier residency score in [0, 1] at "
                            "which a batch counts as hot")
        p.add_argument("--prefetch-inflight-mb", type=float,
                       help="background staging budget in MiB")

    def add_sim_args(p):
        p.add_argument("--model", default="W&D")
        p.add_argument("--dataset", default="Product-1")
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--cluster", type=_cluster,
                       default=api.parse_cluster("eflops:16"),
                       help="eflops:N or gn6e:N")
        p.add_argument("--batch", type=int, default=20_000)
        p.add_argument("--iterations", type=int, default=3)
        add_prefetch_args(p)

    sim = sub.add_parser("simulate", help="simulate one workload")
    add_sim_args(sim)
    sim.add_argument("--framework", default="PICASSO",
                     choices=api.frameworks())
    sim.set_defaults(func=cmd_simulate)

    ablation = sub.add_parser("ablation", help="Tab. IV toggles")
    add_sim_args(ablation)
    ablation.set_defaults(func=cmd_ablation)

    train = sub.add_parser("train", help="real training with AUC")
    train.add_argument("--variant", default="dlrm",
                       choices=["wdl", "dlrm", "deepfm", "din", "dien"])
    train.add_argument("--mode", default="sync",
                       choices=["sync", "async-ps"])
    train.add_argument("--steps", type=int, default=100)
    train.add_argument("--batch", type=int, default=1024)
    train.add_argument("--noise", type=float, default=0.6)
    train.set_defaults(func=cmd_train)

    experiment = sub.add_parser("experiment",
                                help="run one table/figure harness")
    experiment.add_argument("name", help="substring of the experiment id")
    experiment.set_defaults(func=cmd_experiment)

    serve = sub.add_parser("serve", help="online serving simulation")
    serve.add_argument("--requests", type=int, default=10_000)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--rate", type=float, default=20_000.0,
                       help="mean arrival rate in requests/second")
    serve.add_argument("--cache", default="hbm-dram",
                       choices=CACHE_KINDS)
    serve.add_argument("--hot-rows", type=int, default=4_000)
    serve.add_argument("--warm-rows", type=int, default=60_000)
    serve.add_argument("--batch-max", type=int, default=64)
    serve.add_argument("--max-wait-ms", type=float, default=2.0)
    serve.add_argument("--slo-ms", type=float, default=20.0)
    serve.add_argument("--micro-rows", type=int, default=16,
                       help="Eq. 2 activation budget in requests")
    serve.add_argument("--replicas", type=int, default=1,
                       help="model replicas behind the front-end")
    serve.add_argument("--crash-rate", type=float, default=0.0,
                       help="replica crashes per second (0 = none); "
                            "losses degrade admission, not uptime")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the generated fault plan")
    add_prefetch_args(serve)
    serve.set_defaults(func=cmd_serve)

    stream = sub.add_parser(
        "stream",
        help="continuous loop: stream-train, publish deltas, hot-swap")
    stream.add_argument("--requests", type=int, default=4_000)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--rate", type=float, default=20_000.0,
                        help="mean arrival rate in requests/second")
    stream.add_argument("--shape", default="none",
                        choices=["none", "diurnal", "flash"],
                        help="rate shape over the trace")
    stream.add_argument("--shape-period-s", type=float, default=0.2,
                        help="diurnal cycle length (modeled seconds)")
    stream.add_argument("--shape-amplitude", type=float, default=0.5)
    stream.add_argument("--flash-start-s", type=float, default=0.05)
    stream.add_argument("--flash-duration-s", type=float, default=0.05)
    stream.add_argument("--flash-multiplier", type=float, default=3.0)
    stream.add_argument("--train-steps", type=int, default=400)
    stream.add_argument("--train-step-ms", type=float, default=1.0,
                        help="modeled duration of one trainer step")
    stream.add_argument("--train-batch", type=int, default=256)
    stream.add_argument("--publish-interval", type=int, default=25,
                        help="trainer steps between snapshot publishes")
    stream.add_argument("--drift", type=float, default=8.0,
                        help="hot-ID window rotation per step")
    stream.add_argument("--max-chain", type=int, default=8,
                        help="deltas per full base before compaction")
    stream.add_argument("--snapshot-dir",
                        help="keep snapshots here (default: temp dir)")
    stream.add_argument("--cache", default="hbm-dram",
                        choices=CACHE_KINDS)
    stream.add_argument("--slo-ms", type=float, default=20.0)
    stream.add_argument("--max-replicas", type=int, default=4)
    stream.add_argument("--no-autoscale", action="store_true")
    stream.add_argument("--no-swaps", action="store_true",
                        help="freeze serving on the initial weights "
                             "(no-swap baseline)")
    add_prefetch_args(stream)
    stream.set_defaults(func=cmd_stream)

    gantt = sub.add_parser("gantt", help="ASCII utilization timeline")
    add_sim_args(gantt)
    gantt.add_argument("--framework", default="PICASSO",
                       choices=api.frameworks())
    gantt.add_argument("--width", type=int, default=72)
    gantt.set_defaults(func=cmd_gantt)

    prof = sub.add_parser(
        "profile",
        help="trace one workload: Chrome-trace JSON + critical path")
    add_sim_args(prof)
    prof.add_argument("--framework", default="PICASSO",
                      choices=api.frameworks())
    prof.add_argument("--output", default="repro_trace.json",
                      help="Chrome-trace JSON destination")
    prof.add_argument("--top", type=int, default=10,
                      help="entries in the critical-path ranking")
    prof.set_defaults(func=cmd_profile)

    replay = sub.add_parser(
        "replay",
        help="what-if replay of a frozen task trace under "
             "perturbed cost scales")
    add_sim_args(replay)
    replay.add_argument("--trace",
                        help="replay a saved trace JSON instead of "
                             "recording a fresh run")
    replay.add_argument("--save",
                        help="save the recorded trace JSON here")
    replay.add_argument("--compute", type=float, default=1.0,
                        help="duration scale for compute segments")
    replay.add_argument("--memory", type=float, default=1.0,
                        help="duration scale for memory segments")
    replay.add_argument("--communication", type=float, default=1.0,
                        help="duration scale for communication segments")
    replay.add_argument("--launch", type=float, default=1.0,
                        help="duration scale for launch segments")
    replay.add_argument("--wait-model", default="congestion",
                        choices=WAIT_MODELS,
                        help="how queue waits track segment scales")
    replay.set_defaults(func=cmd_replay)

    tune = sub.add_parser(
        "tune",
        help="trace-driven auto-tuning of PICASSO knobs with "
             "real-run validation")
    add_sim_args(tune)
    tune.add_argument("--strategy", default="coordinate-descent",
                      choices=tuning_strategies())
    tune.add_argument("--top-k", type=int, default=3,
                      help="distinct top candidates validated with "
                           "real runs")
    tune.add_argument("--trace",
                      help="reuse a saved baseline trace JSON")
    tune.add_argument("--wait-model", default="congestion",
                      choices=WAIT_MODELS,
                      help="how queue waits track segment scales")
    tune.set_defaults(func=cmd_tune)

    bench = sub.add_parser(
        "bench",
        help="regression-gated benchmark snapshots (BENCH_*.json)")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_sub.add_parser(
        "run", help="run the suite and write BENCH_<name>.json files")
    bench_run.add_argument("--out", default="bench_out",
                           help="snapshot output directory")
    bench_run.add_argument("--only",
                           help="comma-separated bench names "
                                f"(default: all of {list(BENCHES)})")
    bench_run.add_argument("--update-baseline", action="store_true",
                           help="write snapshots to the baseline "
                                "directory instead of --out")
    bench_run.add_argument("--baseline-dir",
                           default="benchmarks/baselines",
                           help="committed baseline directory")
    bench_run.set_defaults(func=cmd_bench_run)

    bench_compare = bench_sub.add_parser(
        "compare",
        help="gate candidate snapshots against baselines "
             "(exit 1 on violation)")
    bench_compare.add_argument("--baseline",
                               default="benchmarks/baselines",
                               help="baseline snapshot directory")
    bench_compare.add_argument("--candidate", default="bench_out",
                               help="candidate snapshot directory")
    bench_compare.add_argument("--only",
                               help="comma-separated bench names")
    bench_compare.set_defaults(func=cmd_bench_compare)

    diff = sub.add_parser(
        "diff",
        help="differential observability: attribute a makespan or "
             "bench delta (trace-vs-trace or bench-vs-baseline)")
    diff.add_argument("base", nargs="?",
                      help="base frozen-trace JSON (or baseline "
                           "snapshot dir with --bench; default "
                           "benchmarks/baselines)")
    diff.add_argument("candidate", nargs="?",
                      help="candidate frozen-trace JSON (or candidate "
                           "snapshot dir with --bench; default "
                           "bench_out)")
    diff.add_argument("--bench", action="store_true",
                      help="diff BENCH_*.json snapshot directories "
                           "instead of traces")
    diff.add_argument("--top", type=int, default=10,
                      help="rows in the ranked attribution table")
    diff.add_argument("--output",
                      help="write the diff report as canonical JSON")
    diff.add_argument("--overlay",
                      help="write a Chrome-trace overlay (base and "
                           "candidate as separate processes; trace "
                           "mode only)")
    diff.set_defaults(func=cmd_diff)

    shards = sub.add_parser(
        "plan-shards",
        help="skew-aware shard placement: hash vs planned exchange")
    shards.add_argument("--workers", type=int, default=8)
    shards.add_argument("--fields", type=int, default=4,
                        help="number of embedding fields")
    shards.add_argument("--vocab", type=int, default=50_000,
                        help="vocabulary size per field")
    shards.add_argument("--dim", type=int, default=16,
                        help="embedding dimension")
    shards.add_argument("--skew", type=float, default=1.2,
                        help="bounded-Zipf exponent of the ID stream")
    shards.add_argument("--batch", type=int, default=4_096,
                        help="IDs per worker per step")
    shards.add_argument("--seed", type=int, default=0,
                        help="seed for the measured traffic")
    shards.add_argument("--partitions-per-worker", type=int, default=8)
    shards.add_argument("--hot-candidates", type=int, default=512)
    shards.add_argument("--replicate-threshold", type=float,
                        default=0.5)
    shards.add_argument("--policy", default="planned",
                        choices=["hash", "planned"],
                        help="which plan --output writes")
    shards.add_argument("--output",
                        help="write the plan as lossless JSON "
                             "(PlacementPlan.as_dict)")
    shards.set_defaults(func=cmd_plan_shards)
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
