"""Training loops and the Tab. III accuracy harness."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.data.labeled import LabeledBatchIterator
from repro.data.spec import DatasetSpec
from repro.nn.metrics import auc_score, log_loss
from repro.nn.network import WdlNetwork
from repro.nn.optim import Adagrad
from repro.telemetry.span import maybe_span
from repro.telemetry.timeseries import Ewma


@dataclass
class TrainResult:
    """Outcome of one training run (a ``Stats`` object)."""

    auc: float
    logloss: float
    steps: int
    losses: list = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        """Loss of the last training step."""
        return self.losses[-1] if self.losses else float("nan")

    def as_dict(self) -> dict:
        """Plain-dict snapshot for telemetry export and benchmarks."""
        return {
            "auc": self.auc,
            "logloss": self.logloss,
            "steps": self.steps,
            "final_loss": self.final_loss,
        }

    def merge(self, other: "TrainResult") -> "TrainResult":
        """Combine two runs: losses concatenate, quality averages.

        AUC and log-loss are weighted by each run's step count — the
        aggregation used when the same trajectory is split across
        evaluation windows.
        """
        total = self.steps + other.steps
        if total == 0:
            return TrainResult(auc=self.auc, logloss=self.logloss,
                               steps=0, losses=[])
        weight = self.steps / total
        return TrainResult(
            auc=self.auc * weight + other.auc * (1.0 - weight),
            logloss=self.logloss * weight + other.logloss * (1.0 - weight),
            steps=total,
            losses=list(self.losses) + list(other.losses))


class SyncTrainer:
    """Synchronous training: gradients applied immediately.

    One step on the global batch is exactly what PICASSO's hybrid
    strategy (and Allreduce/AllToAll baselines) computes across
    workers, so a single-process loop reproduces its optimization
    trajectory.
    """

    def __init__(self, network: WdlNetwork, optimizer=None, tracer=None,
                 registry=None, loss_alpha: float = 0.1, flight=None,
                 anomaly=None):
        """:param tracer: optional :class:`repro.telemetry.Tracer`;
        each step becomes a wall-clock span on the ``train`` track.
        :param registry: optional
            :class:`repro.telemetry.MetricsRegistry`; the trainer keeps
            its ``train/steps`` counter and ``train/loss_ewma`` gauge
            (EWMA-smoothed with ``loss_alpha``) current, so a long run
            is monitorable mid-flight.
        :param flight: optional
            :class:`repro.telemetry.FlightRecorder`; every step's loss
            lands in the ring as a sample (step index as modeled
            time), a step that raises dumps the ring before the
            exception propagates, and loss anomalies from ``anomaly``
            dump as alerts.
        :param anomaly: optional
            :class:`repro.telemetry.AnomalyDetector` over the loss
            stream; defaults to a z>4 detector when ``flight`` is set.
        """
        self.network = network
        self.optimizer = optimizer or Adagrad(lr=0.05)
        self.tracer = tracer
        self.registry = registry
        self.loss_ewma = Ewma(alpha=loss_alpha)
        self.flight = flight
        if anomaly is None and flight is not None:
            from repro.telemetry.recorder import AnomalyDetector
            anomaly = AnomalyDetector("train/loss", z_threshold=4.0)
        self.anomaly = anomaly

    def step(self, batch, index: int = 0) -> float:
        """One optimizer step on ``batch``; returns its loss.

        The single-step entry point :meth:`train` loops over — exposed
        so wrappers that own the step loop (the fault-injecting
        :class:`~repro.faults.resilient.ResilientTrainer` replaying
        work after a restore) drive the same telemetry path.
        """
        with maybe_span(self.tracer, "train/step", category="training",
                        track="train", step=index) as span:
            if self.flight is not None:
                with self.flight.watch(time_s=float(index),
                                       label="train/step"):
                    loss = self.network.train_step(batch,
                                                   self.optimizer)
            else:
                loss = self.network.train_step(batch, self.optimizer)
            if span is not None:
                span.attrs["loss"] = loss
        smoothed = self.loss_ewma.update(loss)
        if self.registry is not None:
            self.registry.counter("train/steps").inc()
            self.registry.gauge("train/loss_ewma").set(smoothed)
        if self.flight is not None:
            self.flight.record_sample("train/loss", float(index), loss,
                                      track="train")
        if self.anomaly is not None:
            alert = self.anomaly.observe(float(index), loss)
            if alert is not None and self.flight is not None:
                self.flight.record_alert(alert)
        return loss

    def train(self, iterator, steps: int, prefetcher=None) -> list:
        """Run ``steps`` updates; returns per-step losses.

        :param prefetcher: optional
            :class:`~repro.prefetch.LookaheadPrefetcher`; batches are
            emitted in its hot-first window order (each step keeps its
            *original* stream index for telemetry attribution).  With
            ``None`` — or a FIFO/depth-1 pipeline — the loop is
            bit-for-bit the legacy arrival-order path.
        """
        if steps < 0:
            raise ValueError("steps must be >= 0")
        losses = []
        with maybe_span(self.tracer, "train", category="training",
                        track="train", steps=steps):
            if prefetcher is None:
                for index, batch in enumerate(iterator.batches(steps)):
                    losses.append(self.step(batch, index))
            else:
                for index, batch in prefetcher.schedule(
                        iterator.batches(steps)):
                    losses.append(self.step(batch, index))
        return losses


class AsyncPsTrainer:
    """Asynchronous PS training: gradients land ``staleness`` steps late.

    Each step computes gradients against the *current* parameters, but
    the update actually applied is the one computed ``staleness`` steps
    ago — the canonical model of async PS lag, whose accuracy cost the
    paper's Tab. III attributes to TF-PS.
    """

    def __init__(self, network: WdlNetwork, optimizer=None,
                 staleness: int = 2):
        if staleness < 0:
            raise ValueError("staleness must be >= 0")
        self.network = network
        self.optimizer = optimizer or Adagrad(lr=0.05)
        self.staleness = staleness
        self._pending: deque = deque()

    def train(self, iterator, steps: int) -> list:
        """Run ``steps`` stale-gradient updates; returns losses."""
        losses = []
        for batch in iterator.batches(steps):
            loss = self.network.compute_gradients(batch)
            losses.append(loss)
            self._pending.append(self._snapshot_gradients())
            if len(self._pending) > self.staleness:
                self._apply(self._pending.popleft())
        while self._pending:
            self._apply(self._pending.popleft())
        return losses

    def _snapshot_gradients(self) -> tuple:
        dense = {name: grad.copy()
                 for name, (_value, grad) in
                 self.network.parameters().items()}
        sparse = {table.name: [(rows.copy(), grads.copy())
                               for rows, grads in table.sparse_grads()]
                  for table in self.network.sparse_tables()}
        return dense, sparse

    def _apply(self, snapshot: tuple) -> None:
        dense, sparse = snapshot
        # Re-stage the stale gradients into the live network and step.
        for name, (_value, grad) in self.network.parameters().items():
            grad[:] = dense[name]
        for table in self.network.sparse_tables():
            table.zero_grad()
            for rows, grads in sparse[table.name]:
                table.add_sparse_grad(rows, grads)
        self.optimizer.step(self.network.parameters(),
                            self.network.sparse_tables())
        for _name, (_value, grad) in self.network.parameters().items():
            grad[:] = 0.0
        for table in self.network.sparse_tables():
            table.zero_grad()


def evaluate(network: WdlNetwork, iterator, batches: int) -> tuple:
    """(AUC, log-loss) over ``batches`` held-out batches."""
    if batches < 1:
        raise ValueError("batches must be >= 1")
    all_labels = []
    all_scores = []
    for batch in iterator.batches(batches):
        all_scores.append(network.predict(batch))
        all_labels.append(batch.labels)
    labels = np.concatenate(all_labels)
    scores = np.concatenate(all_scores)
    return auc_score(labels, scores), log_loss(labels, scores)


def train_and_evaluate(dataset: DatasetSpec, variant: str,
                       mode: str = "sync", steps: int = 120,
                       batch_size: int = 2048, eval_batches: int = 20,
                       embedding_dim: int = 16, noise_scale: float = 1.0,
                       signal_scale: float = 1.0, staleness: int = 2,
                       seed: int = 0, tracer=None) -> TrainResult:
    """The Tab. III harness: train one model, report held-out AUC.

    :param mode: ``"sync"`` (PICASSO / PyTorch / Horovod trajectory) or
        ``"async-ps"`` (TF-PS with gradient staleness).
    :param tracer: optional telemetry tracer forwarded to the trainer.
    """
    if mode not in ("sync", "async-ps"):
        raise ValueError(f"unknown mode {mode!r}")
    network = WdlNetwork(dataset, variant=variant,
                         embedding_dim=embedding_dim, seed=seed)
    train_iter = LabeledBatchIterator(dataset, batch_size,
                                      noise_scale=noise_scale,
                                      signal_scale=signal_scale, seed=seed)
    if mode == "sync":
        trainer = SyncTrainer(network, tracer=tracer)
    else:
        trainer = AsyncPsTrainer(network, staleness=staleness)
    losses = trainer.train(train_iter, steps)
    eval_iter = LabeledBatchIterator(dataset, batch_size,
                                     noise_scale=noise_scale,
                                     signal_scale=signal_scale,
                                     seed=seed + 10_000)
    auc, ll = evaluate(network, eval_iter, eval_batches)
    return TrainResult(auc=auc, logloss=ll, steps=steps, losses=losses)
