"""The model server: cache-backed inference with modeled latency.

This closes PICASSO's train->serve loop.  A sealed micro-batch flows
through the same machinery the trainer exercises:

* **Embedding fetch** goes through Algorithm 1's caches —
  :class:`~repro.embedding.hybrid_hash.HybridHash` or its multi-level
  extension :class:`~repro.embedding.multilevel.MultiLevelCache` —
  keyed on the union ID space of all fields.  Fetch *cost* comes from
  the tier each row currently lives in, with per-tier latency and
  bandwidth derived from the :mod:`repro.hardware` node model (HBM vs
  DRAM-over-PCIe vs NVMe SSD), so cache placement visibly moves tail
  latency.
* **Dense compute** runs the real :class:`~repro.nn.network.WdlNetwork`
  forward pass for scores, while its modeled duration charges MLP FLOPs
  against the GPU plus per-kernel launch/dispatch overhead — the same
  constants that make fragmentary WDL graphs launch-bound in training
  (paper SS II-D).
* The two stages **pipeline across micro-batch slices**
  (D-Interleaving, Eq. 2): slice ``k`` fetches row block ``k+1`` while
  block ``k`` computes.

Wall-clock time never enters the model: service times are pure
functions of the trace and the hardware constants, so a seed fully
determines every reported metric.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.data.loader import Batch
from repro.data.spec import DatasetSpec, FieldSpec
from repro.embedding.hybrid_hash import HybridHash
from repro.embedding.multilevel import CacheTier, MultiLevelCache
from repro.embedding.table import EmbeddingTable
from repro.hardware.specs import NVME_SSD, MemorySpec
from repro.hardware.topology import GN6E_NODE, NodeSpec
from repro.nn.network import WdlNetwork
from repro.serving.batcher import MicroBatcher, plan_micro_batches
from repro.serving.metrics import ServingMetrics, ServingReport
from repro.serving.slo import SloConfig, SloPolicy
from repro.serving.traffic import TrafficGenerator

#: Device-memory row fetch latency (an HBM round trip from an SM);
#: GpuSpec models only bandwidth, so this constant supplies the fixed
#: term that the DRAM/SSD tiers take from their MemorySpec/LinkSpec.
HBM_ACCESS_LATENCY = 3.0e-7

#: Cache hierarchies the server knows how to build from a node spec.
CACHE_KINDS = ("hbm", "hbm-dram", "dram", "hbm-dram-ssd", "hybrid")


def default_serving_dataset(fields: int = 8, vocab: int = 30_000,
                            embedding_dim: int = 16) -> DatasetSpec:
    """A laptop-scale schema for serving demos and benchmarks."""
    return DatasetSpec(
        name="ServeMini", num_numeric=4,
        fields=tuple(
            FieldSpec(name=f"cat_{index}", vocab_size=vocab,
                      embedding_dim=embedding_dim, zipf_exponent=1.15)
            for index in range(fields)))


def build_tiers(kind: str, node: NodeSpec, row_bytes: int,
                hot_rows: int, warm_rows: int,
                ssd: MemorySpec = NVME_SSD) -> tuple:
    """Derive a :class:`CacheTier` hierarchy from hardware specs.

    Tier costs come straight from the node model: HBM uses the GPU's
    memory bandwidth; DRAM is reached from the GPU over PCIe (latency
    adds up, bandwidth is the weaker of the two); SSD pays its random
    read latency.  ``hot_rows``/``warm_rows`` bound the non-bottom
    tiers; the bottom tier is always unbounded (authoritative).
    """
    hbm = CacheTier(
        "hbm", capacity_bytes=hot_rows * row_bytes,
        access_seconds_per_byte=1.0 / node.gpu.hbm_bandwidth,
        access_latency=HBM_ACCESS_LATENCY)
    dram = CacheTier(
        "dram", capacity_bytes=warm_rows * row_bytes,
        access_seconds_per_byte=1.0 / min(node.dram.bandwidth,
                                          node.pcie.bandwidth),
        access_latency=node.pcie.latency + node.dram.access_latency)
    ssd_tier = CacheTier(
        "ssd", capacity_bytes=float("inf"),
        access_seconds_per_byte=1.0 / ssd.bandwidth,
        access_latency=node.pcie.latency + ssd.access_latency)
    unbounded = lambda tier: CacheTier(
        tier.name, float("inf"), tier.access_seconds_per_byte,
        tier.access_latency)
    if kind == "hbm":
        return (unbounded(hbm),)
    if kind == "dram":
        return (unbounded(dram),)
    if kind == "hbm-dram":
        return (hbm, unbounded(dram))
    if kind == "hbm-dram-ssd":
        return (hbm, dram, ssd_tier)
    raise ValueError(f"unknown cache kind {kind!r}; "
                     f"expected one of {CACHE_KINDS}")


@dataclass(frozen=True)
class BatchService:
    """Outcome of serving one admitted batch."""

    scores: np.ndarray
    fetch_s: float
    compute_s: float
    service_s: float
    micro_batches: int


class ModelServer:
    """Runs admitted batches through cache + network with modeled time.

    :param network: scoring model (its forward pass really runs).
    :param cache: a :class:`MultiLevelCache` (tier-cost model) or a
        :class:`HybridHash` (hot/cold model priced as HBM vs DRAM).
    :param node: hardware the latency model reads its constants from.
    :param micro_batch_rows: Eq. 2 activation budget in requests; a
        sealed batch is sliced into ``ceil(size / micro_batch_rows)``
        micro-batches (clamped like training-side D-Interleaving).
    """

    def __init__(self, network: WdlNetwork, cache, node: NodeSpec = GN6E_NODE,
                 micro_batch_rows: int = 16):
        if micro_batch_rows < 1:
            raise ValueError("micro_batch_rows must be >= 1")
        self.network = network
        self.cache = cache
        self.node = node
        self.micro_batch_rows = int(micro_batch_rows)
        dataset = network.dataset
        self._row_bytes = network.embedding_dim * 4
        # Disambiguate per-field ID spaces into one cache key space.
        offsets, cursor = {}, 0
        for spec in dataset.fields:
            offsets[spec.name] = cursor
            cursor += spec.vocab_size
        self._key_offsets = offsets
        # 2 * sum(in*out) MACs per instance through the MLP trunk.
        self._flops_per_row = 2.0 * sum(
            layer.weight.shape[0] * layer.weight.shape[1]
            for layer in network.mlp)
        # Kernels per micro-batch: one lookup per field, the MLP
        # layers, plus concat/interaction glue.
        self._kernels_per_slice = dataset.num_fields + len(network.mlp) + 2
        if isinstance(cache, MultiLevelCache):
            self._hybrid_tiers = None
        elif isinstance(cache, HybridHash):
            # Price HybridHash's two levels as HBM over DRAM.
            hot, cold = build_tiers("hbm-dram", node, self._row_bytes,
                                    hot_rows=1, warm_rows=1)
            self._hybrid_tiers = (hot, cold)
        else:
            raise TypeError(
                f"unsupported cache type {type(cache).__name__}")

    # -- latency model -------------------------------------------------------

    def _field_ids(self, requests: list) -> dict:
        """Field name -> the batch's IDs for that field, request order."""
        if not requests:
            return {}
        return {
            name: np.concatenate([request.sparse[name]
                                  for request in requests])
            for name in self._key_offsets
        }

    def _cache_keys(self, field_ids: dict) -> np.ndarray:
        """Union-ID-space cache keys for a batch's :meth:`_field_ids`.

        Field-major: the first field's IDs shifted by its offset, then
        the next field's.
        """
        if not field_ids:
            return np.zeros(0, np.int64)
        return np.concatenate([ids + self._key_offsets[name]
                               for name, ids in field_ids.items()])

    def batch_keys(self, requests: list) -> np.ndarray:
        """Public view of a batch's cache keys (prefetch classifiers
        score residency in the same union ID space the cache is keyed
        on)."""
        return self._cache_keys(self._field_ids(requests))

    def _fetch_seconds(self, keys: np.ndarray) -> float:
        """Modeled embedding-fetch time under current placement."""
        if isinstance(self.cache, MultiLevelCache):
            return self.cache.expected_access_cost(keys)
        hot, cold = self._hybrid_tiers
        unique = np.unique(keys).size
        hit = self.cache.batch_hit_ratio(keys)
        per_hot = hot.access_latency \
            + self._row_bytes * hot.access_seconds_per_byte
        per_cold = cold.access_latency \
            + self._row_bytes * cold.access_seconds_per_byte
        return unique * (hit * per_hot + (1.0 - hit) * per_cold)

    def _compute_seconds(self, rows: float) -> float:
        """Modeled dense-compute time for one micro-batch of ``rows``."""
        flops = self._flops_per_row * rows
        launch = self._kernels_per_slice \
            * (self.node.gpu.kernel_launch_latency
               + self.node.cpu.op_dispatch_latency)
        return flops / self.node.gpu.fp32_flops + launch

    def _service_seconds(self, fetch_s: float, size: int) -> tuple:
        """Two-stage pipeline over micro-batch slices (Eq. 2 spirit).

        Slice 1 must fetch before anything computes; afterwards each
        slice's fetch overlaps the previous slice's compute.
        """
        slices = plan_micro_batches(size, self.micro_batch_rows)
        fetch_mb = fetch_s / slices
        compute_mb = self._compute_seconds(size / slices)
        service = fetch_mb + compute_mb \
            + (slices - 1) * max(fetch_mb, compute_mb)
        return service, slices, compute_mb * slices

    def estimate_service_s(self, requests: list) -> float:
        """Service-time estimate for admission control (no side effects)."""
        if not requests:
            return 0.0
        fetch_s = self._fetch_seconds(self.batch_keys(requests))
        service, _slices, _compute = self._service_seconds(
            fetch_s, len(requests))
        return service

    # -- serving -------------------------------------------------------------

    def process(self, requests: list) -> BatchService:
        """Serve one admitted batch: cache lookup + real forward pass."""
        if not requests:
            raise ValueError("cannot process an empty batch")
        field_ids = self._field_ids(requests)
        keys = self._cache_keys(field_ids)
        fetch_s = self._fetch_seconds(keys)
        self.cache.lookup(keys)  # records hits, advances flush clock
        service, slices, compute_s = self._service_seconds(
            fetch_s, len(requests))
        batch = Batch(
            batch_size=len(requests), sparse=field_ids,
            numeric=np.stack([request.numeric for request in requests]))
        scores = self.network.predict(batch)
        return BatchService(scores=scores, fetch_s=fetch_s,
                            compute_s=compute_s, service_s=service,
                            micro_batches=slices)

    def cache_hit_ratio(self) -> float:
        """Fraction of lookups served by the fastest storage level."""
        if isinstance(self.cache, MultiLevelCache):
            return self.cache.stats_as_dict()["hit_ratio"]
        return self.cache.stats.hit_ratio


def _deadline_aware_order(sealed: list, prefetcher, server: ModelServer,
                          policy: SloPolicy, server_free):
    """Yield ``(seal_index, batch)`` in hot-first, deadline-safe order.

    The serving mirror of the trainer's lookahead window: up to
    ``lookahead_depth`` *already-sealed* batches are candidates, a
    tier-resident (hot) batch may jump ahead of colder older ones, and
    :func:`~repro.prefetch.pipeline.choose_deadline_aware` guarantees
    the jump never pushes a deferred batch past its SLO deadline — a
    batch at its starvation bound or deadline edge is served next
    regardless of temperature.  Batches that have not sealed yet by
    the time the server frees are never candidates (no time travel).

    :param server_free: zero-arg callable returning the server's
        current free time (advances as the caller serves batches).
    """
    from repro.prefetch.pipeline import choose_deadline_aware

    depth = prefetcher.config.lookahead_depth
    budget = policy.config.latency_budget_s
    pending = list(sealed)
    pending.reverse()  # pop() from the tail = seal order
    window: list = []  # [seal_index, batch, deferred]
    while pending or window:
        while pending and len(window) < depth:
            window.append(list(pending.pop()) + [0])
        now = max(server_free(),
                  min(entry[1].close_s for entry in window))
        eligible = [entry for entry in window
                    if entry[1].close_s <= now]
        if len(eligible) <= 1 or not prefetcher.config.reorders:
            choice = 0
            eligible = window[:1]
        else:
            classes = [prefetcher.classifier.classify(
                server.batch_keys(list(entry[1].requests)), entry[0])
                for entry in eligible]
            estimates = [server.estimate_service_s(
                list(entry[1].requests)) for entry in eligible]
            deadlines = [min(request.arrival_s
                             for request in entry[1].requests) + budget
                         for entry in eligible]
            choice = choose_deadline_aware(
                classes, estimates, deadlines, now, depth,
                [entry[2] for entry in eligible])
        if choice != 0:
            prefetcher.stats.reordered += 1
            for entry in eligible[:choice]:
                entry[2] += 1
        # ``eligible`` is a seal-order prefix of ``window``, so the
        # eligible position is also the window position.
        chosen = window.pop(choice)
        prefetcher.stats.batches += 1
        yield chosen[0], chosen[1]


def serve_trace(requests: list, server: ModelServer,
                batcher: MicroBatcher, policy: SloPolicy,
                tracer=None, metrics=None, faults=None,
                flight=None, prefetcher=None) -> ServingReport:
    """Run a request trace through batcher -> SLO gate -> server.

    A single-server queue in modeled time: batch ``i`` starts at
    ``max(seal time, previous completion)``; admission control sheds
    requests that can no longer meet the SLO before capacity is spent
    on them.  Deterministic for a fixed trace and server state.

    :param tracer: optional :class:`repro.telemetry.Tracer`; every
        admitted batch becomes a modeled-time span on the ``server``
        track (batching wait on ``batcher``), every shed request an
        instant event — so serving runs export to the same
        Chrome-trace timeline as training runs.
    :param metrics: optional :class:`ServingMetrics` to populate; pass
        one in to keep the raw per-request events (e.g. for the SLO
        burn-rate monitor) after the report is reduced.
    :param faults: optional degraded-mode controller (duck-typed, see
        :class:`~repro.faults.degraded.DegradedModeController`): its
        ``service_factor(t)`` inflates service time while replicas are
        down and its ``admit`` hook tightens the deadline, so replica
        loss surfaces as shed rate, never as an unserved outage.  Its
        ``summary()`` lands on the report's ``degraded`` field.
    :param flight: optional :class:`repro.telemetry.FlightRecorder`;
        batch spans and shed alerts land in its ring (a shed triggers
        a dump-on-alert with the last retention window of context).
    :param prefetcher: optional
        :class:`~repro.prefetch.LookaheadPrefetcher`; sealed batches
        are served in its deadline-aware hot-first order (see
        :func:`_deadline_aware_order`) instead of strict seal order.
    """
    metrics = metrics if metrics is not None else ServingMetrics()
    server_free = 0.0
    sealed = list(enumerate(batcher.form_batches(requests)))
    if prefetcher is None:
        ordered = iter(sealed)
    else:
        ordered = _deadline_aware_order(
            [pair for pair in sealed], prefetcher, server, policy,
            lambda: server_free)
    for index, batch in ordered:
        start = max(batch.close_s, server_free)
        estimate = server.estimate_service_s(list(batch.requests))
        if faults is not None:
            estimate *= faults.service_factor(start)
            admitted, shed = faults.admit(policy, batch, start, estimate)
        else:
            admitted, shed = policy.admit(batch, start, estimate)
        for request in shed:
            metrics.record_shed(request.arrival_s, start)
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
        service_s = outcome.service_s
        if faults is not None:
            service_s *= faults.service_factor(start)
        completion = start + service_s
        metrics.record_stage("batch_wait", sum(
            batch.close_s - request.arrival_s for request in admitted))
        metrics.record_stage("queue", start - batch.close_s)
        metrics.record_stage("lookup", outcome.fetch_s)
        metrics.record_stage("dense", outcome.compute_s)
        for request in admitted:
            metrics.record_served(request.arrival_s, completion)
        if tracer is not None:
            first_arrival = min(request.arrival_s
                                for request in admitted)
            tracer.add_span(f"batch{index}/wait", first_arrival,
                            batch.close_s, category="serving",
                            track="batcher",
                            attrs={"size": len(admitted)})
            tracer.add_span(f"batch{index}", start, completion,
                            category="serving", track="server",
                            attrs={"size": len(admitted),
                                   "micro_batches": outcome.micro_batches,
                                   "fetch_s": outcome.fetch_s,
                                   "compute_s": outcome.compute_s})
        if flight is not None:
            flight.record_span(f"batch{index}", start, completion,
                               track="server",
                               attrs={"size": len(admitted)})
        server_free = completion
    report = metrics.report(cache_hit_ratio=server.cache_hit_ratio())
    if faults is not None:
        report = dataclasses.replace(report, degraded=faults.summary())
    return report


def simulate_serving(num_requests: int = 10_000, seed: int = 0,
                     rate_qps: float = 20_000.0,
                     cache: str = "hbm-dram",
                     hot_rows: int = 4_000, warm_rows: int = 60_000,
                     max_batch_size: int = 64, max_wait_s: float = 0.002,
                     slo_s: float = 0.02,
                     micro_batch_rows: int = 16,
                     warmup_iters: int = 10, flush_iters: int = 20,
                     node: NodeSpec = GN6E_NODE,
                     dataset: DatasetSpec | None = None,
                     variant: str = "wdl",
                     replicas: int = 1, fault_plan=None,
                     tracer=None, metrics=None,
                     flight=None, prefetch=None) -> ServingReport:
    """End-to-end serving simulation; the facade's entry point.

    Builds traffic, cache hierarchy (``cache`` in :data:`CACHE_KINDS`),
    network and SLO policy from one seed and returns the final report.
    ``tracer`` (a :class:`repro.telemetry.Tracer`) captures the run as
    modeled-time spans; see :func:`serve_trace`.

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`) marks
    replica-loss windows across ``replicas`` replicas: the run enters
    degraded mode (service inflation + admission tightening) instead
    of dropping traffic on the floor, and the report's ``degraded``
    field accounts for it.

    ``prefetch`` (a :class:`~repro.prefetch.PrefetchConfig`) turns on
    deadline-aware hot-first batch ordering: sealed batches whose rows
    are resident in the fast cache tier may run ahead of colder ones,
    but never past any deferred batch's SLO deadline.
    """
    dataset = dataset or default_serving_dataset()
    network = WdlNetwork(dataset, variant=variant, seed=seed)
    table = EmbeddingTable(dim=network.embedding_dim, seed=seed)
    row_bytes = network.embedding_dim * 4
    if cache == "hybrid":
        store = HybridHash(table, hot_bytes=hot_rows * row_bytes,
                           warmup_iters=warmup_iters,
                           flush_iters=flush_iters)
    else:
        store = MultiLevelCache(
            table, tiers=build_tiers(cache, node, row_bytes,
                                     hot_rows, warm_rows),
            warmup_iters=warmup_iters, flush_iters=flush_iters)
    server = ModelServer(network, store, node=node,
                         micro_batch_rows=micro_batch_rows)
    generator = TrafficGenerator(dataset, rate_qps=rate_qps, seed=seed)
    requests = generator.generate(num_requests)
    batcher = MicroBatcher(max_batch_size=max_batch_size,
                           max_wait_s=max_wait_s)
    policy = SloPolicy(SloConfig(latency_budget_s=slo_s))
    faults = None
    if fault_plan is not None and len(fault_plan):
        # Imported lazily: repro.faults depends on repro.serving for
        # the SLO types, so the reverse edge must stay runtime-only.
        from repro.faults.degraded import DegradedModeController
        faults = DegradedModeController(fault_plan, replicas=replicas)
    prefetcher = None
    if prefetch is not None:
        from repro.prefetch import LookaheadPrefetcher, resident_from_cache
        prefetcher = LookaheadPrefetcher(
            prefetch, resident=resident_from_cache(store),
            row_bytes=row_bytes)
    return serve_trace(requests, server, batcher, policy, tracer=tracer,
                       metrics=metrics, faults=faults, flight=flight,
                       prefetcher=prefetcher)
