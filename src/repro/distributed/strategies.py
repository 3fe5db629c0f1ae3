"""Executable multi-worker training strategies.

:class:`DataParallelTrainer` coordinates ``W`` replica networks with
mean-Allreduce on dense gradients and a shared embedding store — the
semantics PICASSO's hybrid strategy and the Horovod/PyTorch baselines
implement.  :class:`ParameterServer` + :class:`PsWorkerTrainer` realize
asynchronous PS training with real update lag.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.data.loader import Batch
from repro.distributed.collectives import allreduce_mean
from repro.embedding.placement import ExchangeLoad, measure_exchange
from repro.nn.network import WdlNetwork
from repro.nn.optim import Adagrad, Optimizer


def _shard_batch(batch: Batch, workers: int) -> list:
    """Split one global batch into per-worker shards (row-wise)."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if batch.batch_size % workers:
        raise ValueError(
            f"batch size {batch.batch_size} not divisible by {workers}")
    per = batch.batch_size // workers
    shards = []
    for rank in range(workers):
        rows = slice(rank * per, (rank + 1) * per)
        sparse = {}
        for name, ids in batch.sparse.items():
            seq = ids.size // batch.batch_size
            sparse[name] = ids.reshape(batch.batch_size, seq)[rows] \
                .reshape(-1)
        shards.append(Batch(
            batch_size=per, sparse=sparse,
            numeric=batch.numeric[rows],
            labels=None if batch.labels is None else batch.labels[rows]))
    return shards


class DataParallelTrainer:
    """Synchronous data parallelism over real replica networks.

    Every worker holds a replica; each step shards the global batch,
    runs forward/backward per replica, Allreduces the dense gradients,
    and applies identical updates.  Embedding tables are shared (the
    model-parallel half of the hybrid strategy: one logical table,
    sharded ownership is a placement detail).
    """

    def __init__(self, template: WdlNetwork, workers: int,
                 optimizer: Optimizer | None = None, allreduce=None,
                 placement_plan=None):
        """:param allreduce: reduction hook ``(arrays) -> mean array``;
        defaults to :func:`~repro.distributed.collectives.allreduce_mean`.
        Pass a bound
        :class:`~repro.distributed.collectives.FaultAwareAllreduce`
        adapter to train through injected worker failures.

        :param placement_plan: optional
            :class:`~repro.embedding.placement.PlacementPlan`; when
            set, every step's sparse lookups are priced through the
            plan and the accumulated per-worker AllToAllv bytes are
            available via :meth:`exchange_stats` (feed them to
            :class:`~repro.telemetry.monitor.SkewMonitor`)."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.network = template
        self.optimizer = optimizer or Adagrad(lr=0.05)
        self._allreduce = allreduce or allreduce_mean
        if placement_plan is not None \
                and placement_plan.num_workers != workers:
            raise ValueError(
                "placement plan built for "
                f"{placement_plan.num_workers} workers, trainer has "
                f"{workers}")
        self.placement_plan = placement_plan
        self._exchange = ExchangeLoad(
            per_worker_bytes=np.zeros(workers))
        self._exchange_steps = 0

    def train_step(self, batch: Batch) -> float:
        """One synchronous step; returns the mean worker loss.

        Mathematically identical to a single step on the undivided
        batch: dense gradients are mean-Allreduced, sparse gradients
        carry the 1/W shard weight, so the update equals the full-batch
        gradient (the equivalence Tab. III relies on).
        """
        shards = _shard_batch(batch, self.workers)
        if self.placement_plan is not None:
            self._record_exchange(shards)
        losses = []
        dense_grads = []
        sparse_grads = []
        for shard in shards:
            # Replicas stay in exact sync through the Allreduce, so one
            # network evaluates every shard.
            loss = self.network.compute_gradients(shard)
            losses.append(loss)
            dense_grads.append({
                name: grad.copy()
                for name, (_value, grad)
                in self.network.parameters().items()})
            sparse_grads.append({
                table.name: [(rows.copy(), grads / self.workers)
                             for rows, grads in table.sparse_grads()]
                for table in self.network.sparse_tables()})

        reduced = {
            name: self._allreduce([grads[name] for grads in dense_grads])
            for name in dense_grads[0]
        }
        self.network.zero_grad()
        for name, (_value, grad) in self.network.parameters().items():
            grad[:] = reduced[name]
        for table in self.network.sparse_tables():
            for shard_grads in sparse_grads:
                for rows, grads in shard_grads[table.name]:
                    table.add_sparse_grad(rows, grads)
        self.optimizer.step(self.network.parameters(),
                            self.network.sparse_tables())
        self.network.zero_grad()
        return float(np.mean(losses))

    def train(self, batches, prefetcher=None) -> list:
        """Run a batch sequence; returns per-step mean losses.

        :param prefetcher: optional
            :class:`~repro.prefetch.LookaheadPrefetcher`; global
            batches are consumed in its hot-first window order, so
            cold batches' embedding rows stage while resident batches
            train.  ``None`` keeps strict arrival order.
        """
        if prefetcher is None:
            return [self.train_step(batch) for batch in batches]
        return [self.train_step(batch)
                for _index, batch in prefetcher.schedule(batches)]

    def _record_exchange(self, shards) -> None:
        """Price this step's lookups through the placement plan."""
        plan = self.placement_plan
        for name in shards[0].sparse:
            if name not in plan.fields:
                continue
            load = measure_exchange(
                plan, name, [shard.sparse[name] for shard in shards])
            self._exchange = self._exchange.merge(load)
        self._exchange_steps += 1

    def exchange_stats(self) -> dict:
        """Accumulated plan-priced AllToAllv load over trained steps.

        Empty when no plan is attached or no step has run yet;
        otherwise the :class:`~repro.embedding.placement.ExchangeLoad`
        dict plus the step count and plan policy.
        """
        if self.placement_plan is None or self._exchange_steps == 0:
            return {}
        stats = self._exchange.as_dict()
        stats["steps"] = self._exchange_steps
        stats["policy"] = self.placement_plan.policy
        return stats


class ParameterServer:
    """A real parameter server holding the authoritative dense state.

    Workers pull snapshots and push gradients; pushes are applied in
    arrival order with the server's optimizer.  The server exposes a
    version counter so tests can observe staleness directly.
    """

    def __init__(self, template: WdlNetwork,
                 optimizer: Optimizer | None = None):
        self.network = template
        self.optimizer = optimizer or Adagrad(lr=0.05)
        self.version = 0

    def pull(self) -> tuple:
        """(version, dense parameter snapshot)."""
        return self.version, self.network.dense_state()

    def push(self, dense_grads: dict, sparse_grads: dict) -> None:
        """Apply one worker's gradients (async, arrival order)."""
        for name, (_value, grad) in self.network.parameters().items():
            grad[:] = dense_grads[name]
        for table in self.network.sparse_tables():
            table.zero_grad()
            for rows, grads in sparse_grads.get(table.name, []):
                table.add_sparse_grad(rows, grads)
        self.optimizer.step(self.network.parameters(),
                            self.network.sparse_tables())
        self.network.zero_grad()
        self.version += 1


class PsWorkerTrainer:
    """Asynchronous PS training with an explicit in-flight window.

    ``inflight`` pushes may be outstanding before a worker refreshes
    its snapshot — the knob controlling gradient staleness (TF-PS
    behaviour in Tab. III).
    """

    def __init__(self, server: ParameterServer, inflight: int = 2):
        if inflight < 0:
            raise ValueError("inflight must be >= 0")
        self.server = server
        self.inflight = inflight
        self._queue: deque = deque()
        self.observed_staleness: list = []

    def train_step(self, batch: Batch) -> float:
        """Compute on a possibly stale snapshot; push asynchronously."""
        network = self.server.network
        pulled_version, snapshot = self.server.pull()
        live_state = network.dense_state()
        network.load_dense_state(snapshot)
        loss = network.compute_gradients(batch)
        dense = {name: grad.copy()
                 for name, (_value, grad) in network.parameters().items()}
        sparse = {table.name: [(rows.copy(), grads.copy())
                               for rows, grads in table.sparse_grads()]
                  for table in network.sparse_tables()}
        network.zero_grad()
        network.load_dense_state(live_state)

        self._queue.append((pulled_version, dense, sparse))
        while len(self._queue) > self.inflight:
            version, dense_grads, sparse_grads = self._queue.popleft()
            self.observed_staleness.append(self.server.version - version)
            self.server.push(dense_grads, sparse_grads)
        return loss

    def drain(self) -> None:
        """Flush every outstanding push (end of training)."""
        while self._queue:
            version, dense_grads, sparse_grads = self._queue.popleft()
            self.observed_staleness.append(self.server.version - version)
            self.server.push(dense_grads, sparse_grads)
