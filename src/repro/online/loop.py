"""The continuous loop: train, publish, hot-swap, autoscale — one clock.

:func:`simulate_stream` closes the last gap between PICASSO's training
and serving halves: a :class:`~repro.online.streaming.StreamingTrainer`
advances on its own modeled cadence (``train_step_s`` per step) while a
:class:`~repro.serving.server.ModelServer` serves an open-loop request
trace, and the two meet only through the
:class:`~repro.online.registry.SnapshotRegistry` — the trainer
publishes embedding-delta snapshots, a
:class:`~repro.online.hotswap.HotSwapServer` picks them up, loads them
into the standby buffer in the background and flips at a batch
boundary.  A :class:`~repro.online.autoscale.ReplicaAutoscaler` watches
the same burn-rate windows the telemetry monitor alerts on and scales
serving capacity under the trace's rate shape (diurnal swing, flash
crowd).

Everything shares one modeled clock and one seed: the report —
goodput, swap pauses, model staleness, delta compression, the replica
timeline — is a deterministic function of the configuration.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.data.spec import DatasetSpec
from repro.embedding.hybrid_hash import HybridHash
from repro.embedding.multilevel import MultiLevelCache
from repro.embedding.table import EmbeddingTable
from repro.faults.degraded import CompositeServeController
from repro.hardware.topology import GN6E_NODE, NodeSpec
from repro.nn.network import WdlNetwork
from repro.online.autoscale import ReplicaAutoscaler
from repro.online.hotswap import HotSwapServer, clone_network
from repro.online.registry import SnapshotRegistry
from repro.online.stream import DriftingStream
from repro.online.streaming import StreamingTrainer
from repro.serving.batcher import MicroBatcher
from repro.serving.metrics import ServingMetrics, ServingReport
from repro.serving.server import (
    ModelServer,
    build_tiers,
    default_serving_dataset,
)
from repro.serving.slo import SloConfig, SloPolicy
from repro.serving.traffic import RateShape, TrafficGenerator
from repro.telemetry.monitor import SloBurnRateMonitor


@dataclass(frozen=True)
class StreamReport:
    """Headline metrics of one continuous train-and-serve run."""

    serving: ServingReport
    steps: int
    publishes: int
    swaps: int
    #: publishes superseded before their swap started (catch-up skips).
    skipped_versions: int
    swap_pause_p99_ms: float
    #: requests shed only because a flip pause delayed their batch.
    swap_attributed_shed: int
    staleness_mean_s: float
    staleness_max_s: float
    full_snapshot_bytes: int
    delta_snapshot_bytes_mean: float
    #: full checkpoint size over mean delta size (>= 1.0 when deltas
    #: exist; 0.0 when the run never published a delta).
    delta_compression: float
    final_loss: float
    controls: dict = field(default_factory=dict, compare=False)

    @property
    def goodput_qps(self) -> float:
        """Served requests per modeled second (the serving QPS)."""
        return self.serving.qps

    def as_dict(self) -> dict:
        """Plain-dict export (benchmarks, JSON)."""
        return {
            "serving": self.serving.as_dict(),
            "steps": self.steps,
            "publishes": self.publishes,
            "swaps": self.swaps,
            "skipped_versions": self.skipped_versions,
            "goodput_qps": self.goodput_qps,
            "swap_pause_p99_ms": self.swap_pause_p99_ms,
            "swap_attributed_shed": self.swap_attributed_shed,
            "staleness_mean_s": self.staleness_mean_s,
            "staleness_max_s": self.staleness_max_s,
            "full_snapshot_bytes": self.full_snapshot_bytes,
            "delta_snapshot_bytes_mean": self.delta_snapshot_bytes_mean,
            "delta_compression": self.delta_compression,
            "final_loss": self.final_loss,
            "controls": dict(self.controls),
        }

    def row(self) -> dict:
        """One formatted table row (for ``format_table``)."""
        return {
            "served": self.serving.served,
            "shed": self.serving.shed,
            "p99_ms": f"{self.serving.p99_ms:.3f}",
            "goodput": f"{self.goodput_qps:,.0f}",
            "swaps": self.swaps,
            "swap_shed": self.swap_attributed_shed,
            "staleness_s": f"{self.staleness_mean_s:.3f}",
            "delta_x": f"{self.delta_compression:.1f}",
        }


def simulate_stream(num_requests: int = 4_000, seed: int = 0,
                    rate_qps: float = 20_000.0,
                    shape: RateShape | None = None,
                    train_steps: int = 400,
                    train_step_s: float = 0.001,
                    train_batch_size: int = 256,
                    publish_interval: int = 25,
                    drift_ids_per_step: float = 8.0,
                    max_chain: int = 8,
                    load_share: float = 0.1,
                    snapshot_dir=None,
                    cache: str = "hbm-dram",
                    hot_rows: int = 4_000, warm_rows: int = 60_000,
                    max_batch_size: int = 64, max_wait_s: float = 0.002,
                    slo_s: float = 0.02, micro_batch_rows: int = 16,
                    warmup_iters: int = 10, flush_iters: int = 20,
                    autoscale: bool = True,
                    min_replicas: int = 1, max_replicas: int = 4,
                    burn_budget: float = 0.01,
                    burn_window_s: float = 0.05,
                    hot_swaps: bool = True,
                    node: NodeSpec = GN6E_NODE,
                    dataset: DatasetSpec | None = None,
                    variant: str = "wdl",
                    tracer=None, metrics=None, flight=None,
                    provenance=None, prefetch=None) -> StreamReport:
    """Run the continuous-training -> online-serving loop end to end.

    :param train_steps: cap on streaming-trainer steps (the trainer
        also stops advancing past the serving trace's end).
    :param train_step_s: modeled duration of one trainer step — sets
        the trainer's clock against the serving trace's.
    :param snapshot_dir: where snapshots land; ``None`` uses a
        temporary directory that is deleted with the run.
    :param hot_swaps: ``False`` freezes serving on the initial weights
        (the no-swap baseline the swap-pause acceptance bar compares
        against).
    :param shape: optional :class:`~repro.serving.traffic.RateShape`
        (diurnal / flash-crowd) modulating the arrival rate.
    :param tracer: optional :class:`repro.telemetry.Tracer`; swaps
        land as modeled-time spans on the ``alerts`` track, batches on
        the ``server`` track.
    :param flight: optional :class:`repro.telemetry.FlightRecorder`;
        trainer losses, hot-swap spans and shed alerts land in the
        ring (sheds trigger dump-on-alert when a dump dir is set).
    :param provenance: optional run-manifest dict stamped onto every
        publish, so serving versions trace back to this run.
    :param prefetch: optional :class:`~repro.prefetch.PrefetchConfig`;
        the streaming trainer buffers upcoming stream batches and
        trains hot (frequently-hit-row) batches first while cold
        batches' rows stage, using an
        :class:`~repro.prefetch.AdaptiveResidency` oracle sized to
        ``hot_rows``.  ``None`` keeps strict stream order.
    """
    if not 0 < train_step_s < math.inf:
        raise ValueError(
            f"train_step_s must be finite and > 0, got {train_step_s}")
    dataset = dataset or default_serving_dataset()
    trainer_network = WdlNetwork(dataset, variant=variant, seed=seed)
    serving_network = clone_network(trainer_network)

    table = EmbeddingTable(dim=serving_network.embedding_dim, seed=seed)
    row_bytes = serving_network.embedding_dim * 4
    if cache == "hybrid":
        store = HybridHash(table, hot_bytes=hot_rows * row_bytes,
                           warmup_iters=warmup_iters,
                           flush_iters=flush_iters)
    else:
        store = MultiLevelCache(
            table, tiers=build_tiers(cache, node, row_bytes,
                                     hot_rows, warm_rows),
            warmup_iters=warmup_iters, flush_iters=flush_iters)
    server = ModelServer(serving_network, store, node=node,
                         micro_batch_rows=micro_batch_rows)

    cleanup = None
    if snapshot_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-stream-")
        snapshot_dir = cleanup.name
    try:
        registry = SnapshotRegistry(snapshot_dir, max_chain=max_chain)
        stream = DriftingStream(dataset, train_batch_size,
                                drift_ids_per_step=drift_ids_per_step,
                                seed=seed)
        prefetcher = None
        if prefetch is not None:
            from repro.prefetch import (
                AdaptiveResidency,
                LookaheadPrefetcher,
            )
            adaptive = AdaptiveResidency(hot_k=max(1, int(hot_rows)))
            prefetcher = LookaheadPrefetcher(
                prefetch, resident=adaptive, observe=adaptive.observe,
                row_bytes=row_bytes, step_seconds=train_step_s)
        trainer = StreamingTrainer(trainer_network, stream, registry,
                                   publish_interval=publish_interval,
                                   flight=flight, provenance=provenance,
                                   prefetcher=prefetcher)
        swapper = HotSwapServer(server, registry, load_share=load_share)
        monitor = SloBurnRateMonitor(slo_ms=slo_s * 1e3,
                                     budget=burn_budget,
                                     window_s=burn_window_s)
        autoscaler = ReplicaAutoscaler(
            monitor, min_replicas=min_replicas,
            max_replicas=max_replicas) if autoscale else None
        controls = CompositeServeController(
            [hook for hook in (autoscaler, swapper) if hook is not None])

        generator = TrafficGenerator(dataset, rate_qps=rate_qps,
                                     seed=seed, shape=shape)
        requests = generator.generate(num_requests)
        batcher = MicroBatcher(max_batch_size=max_batch_size,
                               max_wait_s=max_wait_s)
        policy = SloPolicy(SloConfig(latency_budget_s=slo_s))
        metrics = metrics if metrics is not None else ServingMetrics()

        report = _run_loop(
            requests=requests, batcher=batcher, policy=policy,
            server=server, metrics=metrics, trainer=trainer,
            registry=registry, swapper=swapper, autoscaler=autoscaler,
            controls=controls, train_steps=train_steps,
            train_step_s=train_step_s, hot_swaps=hot_swaps,
            tracer=tracer, flight=flight)
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    return report


def _advance_trainer(trainer: StreamingTrainer, now_s: float,
                     train_steps: int, train_step_s: float) -> None:
    """Catch the trainer's modeled clock up to ``now_s``."""
    while (trainer.stats.steps < train_steps
           and (trainer.stats.steps + 1) * train_step_s <= now_s):
        trainer.step()


def _run_loop(requests, batcher, policy, server, metrics, trainer,
              registry, swapper, autoscaler, controls, train_steps,
              train_step_s, hot_swaps, tracer,
              flight=None) -> StreamReport:
    """The modeled-time interleave behind :func:`simulate_stream`."""
    server_free = 0.0
    last_target = -1
    skipped_versions = 0
    swap_attributed_shed = 0
    staleness_weighted = 0.0
    staleness_max = 0.0
    served_total = 0
    for index, batch in enumerate(batcher.form_batches(requests)):
        start = max(batch.close_s, server_free)
        _advance_trainer(trainer, start, train_steps, train_step_s)

        pause = 0.0
        if hot_swaps:
            latest = registry.latest()
            behind = (latest is not None
                      and swapper.pending() is None
                      and latest.version != swapper.active_version)
            if behind:
                # Catch-up semantics: always swap to the *newest*
                # publish; versions that came and went in between
                # (dense integers, so the gap is the count) are never
                # loaded.
                skipped_versions += max(
                    0, latest.version - last_target - 1)
                last_target = latest.version
                swapper.begin_swap(latest,
                                   now_s=latest.step * train_step_s)
            pause = swapper.maybe_flip(start)
            if pause > 0.0:
                record = swapper.swaps[-1]
                if tracer is not None:
                    tracer.add_span(
                        f"swap/v{record.version}", record.requested_s,
                        start + pause, category="serving",
                        track="alerts",
                        attrs={"version": record.version,
                               "step": record.step,
                               "bytes": record.bytes_loaded,
                               "pause_s": pause})
                if flight is not None:
                    flight.record_span(
                        f"swap/v{record.version}", record.requested_s,
                        start + pause, track="alerts",
                        attrs={"version": record.version,
                               "pause_s": pause})
                server_free += pause
                start = max(batch.close_s, server_free)

        if autoscaler is not None:
            autoscaler.settle(start)
        estimate = server.estimate_service_s(list(batch.requests))
        estimate *= controls.service_factor(start)
        admitted, shed = controls.admit(policy, batch, start, estimate)
        if pause > 0.0:
            # How many of this batch's sheds exist only because the
            # flip pushed the batch later?  The zero-drop bar for
            # hot swapping is on exactly this count.
            baseline_start = max(batch.close_s, server_free - pause)
            baseline, _ = controls.admit(policy, batch, baseline_start,
                                         estimate)
            swap_attributed_shed += max(0, len(baseline) - len(admitted))
        for request in shed:
            metrics.record_shed(request.arrival_s, start)
            if autoscaler is not None:
                autoscaler.observe(start, None)
            if tracer is not None:
                tracer.instant("shed", timestamp=start, track="slo",
                               arrival_s=request.arrival_s)
        if flight is not None and shed:
            from repro.telemetry.monitor import Alert
            flight.record_alert(Alert(
                time_s=start, monitor="slo", severity="warning",
                message=f"{len(shed)} request(s) shed at t={start:.4f}s",
                value=float(len(shed)), threshold=0.0, name="shed"))
        if not admitted:
            continue
        outcome = server.process(admitted)
        service_s = outcome.service_s * controls.service_factor(start)
        completion = start + service_s
        staleness = max(0.0, start - swapper.active_step * train_step_s)
        staleness_weighted += staleness * len(admitted)
        staleness_max = max(staleness_max, staleness)
        served_total += len(admitted)
        metrics.record_stage("batch_wait", sum(
            batch.close_s - request.arrival_s for request in admitted))
        metrics.record_stage("queue", start - batch.close_s)
        metrics.record_stage("lookup", outcome.fetch_s)
        metrics.record_stage("dense", outcome.compute_s)
        for request in admitted:
            metrics.record_served(request.arrival_s, completion)
            if autoscaler is not None:
                autoscaler.observe(completion,
                                   completion - request.arrival_s)
        if tracer is not None:
            tracer.add_span(f"batch{index}", start, completion,
                            category="serving", track="server",
                            attrs={"size": len(admitted),
                                   "fetch_s": outcome.fetch_s,
                                   "compute_s": outcome.compute_s})
        server_free = completion

    if autoscaler is not None:
        autoscaler.finalize()
    serving = metrics.report(cache_hit_ratio=server.cache_hit_ratio())

    pauses_ms = [record.pause_s * 1e3 for record in swapper.swaps]
    deltas = registry.delta_bytes()
    delta_mean = float(np.mean(deltas)) if deltas else 0.0
    full_bytes = registry.full_bytes()
    return StreamReport(
        serving=serving,
        steps=trainer.stats.steps,
        publishes=trainer.stats.publishes,
        swaps=len(swapper.swaps),
        skipped_versions=skipped_versions,
        swap_pause_p99_ms=(float(np.percentile(pauses_ms, 99))
                           if pauses_ms else 0.0),
        swap_attributed_shed=swap_attributed_shed,
        staleness_mean_s=(staleness_weighted / served_total
                          if served_total else 0.0),
        staleness_max_s=staleness_max,
        full_snapshot_bytes=full_bytes,
        delta_snapshot_bytes_mean=delta_mean,
        delta_compression=(full_bytes / delta_mean
                           if delta_mean > 0 else 0.0),
        final_loss=(trainer.stats.losses[-1]
                    if trainer.stats.losses else float("nan")),
        controls=controls.summary())
