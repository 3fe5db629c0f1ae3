"""Runnable WDL networks for the accuracy experiments.

:class:`WdlNetwork` instantiates a trainable numpy network for the four
Tab. III models: ``wdl`` (plain concat+MLP), ``dlrm`` (pairwise dot
interaction), ``deepfm`` (FM second-order term), ``din`` (target
attention over behaviour sequences) and ``dien`` (GRU interest
evolution).  All fields share one embedding dimension, as DLRM's
interaction requires and Tab. II's per-dataset dims reflect.
"""

from __future__ import annotations

import numpy as np

from repro.data.loader import Batch
from repro.data.spec import DatasetSpec
from repro.nn.interactions import (
    AttentionPooling,
    GruPooling,
    dot_interaction,
    dot_interaction_grad,
    fm_interaction,
    fm_interaction_grad,
)
from repro.nn.layers import Dense, DenseEmbedding, relu, relu_grad, sigmoid
from repro.nn.loss import bce_loss, bce_loss_grad

_VARIANTS = ("wdl", "dlrm", "deepfm", "din", "dien")


class WdlNetwork:
    """A trainable wide-and-deep network over a dataset spec.

    :param variant: one of ``wdl``, ``dlrm``, ``deepfm``, ``din``,
        ``dien`` — selects the feature-interaction structure.
    :param vocab_rows: hash-trick rows per embedding table (folds the
        full-scale ID space into trainable tables).
    """

    def __init__(self, dataset: DatasetSpec, variant: str = "wdl",
                 embedding_dim: int = 16, vocab_rows: int = 100_000,
                 mlp_layers: tuple = (128, 64), seed: int = 0):
        if variant not in _VARIANTS:
            raise ValueError(
                f"unknown variant {variant!r}; expected one of {_VARIANTS}")
        self.dataset = dataset
        self.variant = variant
        self.embedding_dim = embedding_dim
        rng = np.random.default_rng(seed)
        self._rng = rng

        self.embeddings = {
            spec.name: DenseEmbedding(
                min(spec.vocab_size, vocab_rows), embedding_dim,
                name=f"emb.{spec.name}", rng=rng)
            for spec in dataset.fields
        }
        self.poolers: dict = {}
        for spec in dataset.fields:
            if spec.seq_length <= 1:
                continue
            if variant == "din":
                self.poolers[spec.name] = AttentionPooling(
                    embedding_dim, name=f"att.{spec.name}", rng=rng)
            elif variant == "dien":
                self.poolers[spec.name] = GruPooling(
                    embedding_dim, name=f"gru.{spec.name}", rng=rng)

        num_fields = dataset.num_fields
        base_dim = num_fields * embedding_dim + dataset.num_numeric
        if variant == "dlrm":
            base_dim += num_fields * (num_fields - 1) // 2
        elif variant == "deepfm":
            base_dim += 1
        widths = [base_dim, *mlp_layers, 1]
        self.mlp = [
            Dense(w_in, w_out, name=f"mlp.{index}", rng=rng)
            for index, (w_in, w_out) in enumerate(
                zip(widths[:-1], widths[1:]))
        ]
        self._cache = None

    # -- forward / backward --------------------------------------------------

    def forward(self, batch: Batch) -> np.ndarray:
        """Compute logits for a batch; caches activations."""
        pooled = []
        pool_caches = {}
        for spec in self.dataset.fields:
            table = self.embeddings[spec.name]
            vectors = table.forward(batch.sparse[spec.name])
            if spec.seq_length > 1:
                sequence = vectors.reshape(
                    batch.batch_size, spec.seq_length, self.embedding_dim)
                pooler = self.poolers.get(spec.name)
                if pooler is not None:
                    out = pooler.forward(sequence)
                    pool_caches[spec.name] = ("module", sequence.shape)
                else:
                    out = sequence.mean(axis=1)
                    pool_caches[spec.name] = ("mean", sequence.shape)
                pooled.append(out)
            else:
                pool_caches[spec.name] = ("scalar", vectors.shape)
                pooled.append(vectors)

        stack = np.stack(pooled, axis=1)  # (batch, fields, dim)
        segments = [stack.reshape(batch.batch_size, -1)]
        extra = None
        if self.variant == "dlrm":
            extra = dot_interaction(stack)
            segments.append(extra)
        elif self.variant == "deepfm":
            extra = fm_interaction(stack)
            segments.append(extra)
        if self.dataset.num_numeric:
            segments.append(batch.numeric.astype(np.float64))
        features = np.concatenate(segments, axis=1)

        activations = [features]
        hidden = features
        for layer in self.mlp[:-1]:
            hidden = relu(layer.forward(hidden))
            activations.append(hidden)
        logits = self.mlp[-1].forward(hidden).ravel()
        self._cache = (batch, stack, pool_caches, activations)
        return logits

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backpropagate from d(loss)/d(logits) through the network."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        batch, stack, pool_caches, activations = self._cache
        grad = grad_logits.reshape(-1, 1)
        grad = self.mlp[-1].backward(grad)
        for index in range(len(self.mlp) - 2, -1, -1):
            # activations[index + 1] is relu(pre) of layer `index`,
            # positive exactly where pre is: it gates the gradient.
            grad = relu_grad(activations[index + 1], grad)
            grad = self.mlp[index].backward(grad)

        # Split the concatenated feature gradient back into segments.
        fields_dim = stack.shape[1] * stack.shape[2]
        grad_stack = grad[:, :fields_dim].reshape(stack.shape)
        cursor = fields_dim
        if self.variant == "dlrm":
            width = stack.shape[1] * (stack.shape[1] - 1) // 2
            grad_stack += dot_interaction_grad(
                stack, grad[:, cursor:cursor + width])
            cursor += width
        elif self.variant == "deepfm":
            grad_stack += fm_interaction_grad(
                stack, grad[:, cursor:cursor + 1].ravel())
            cursor += 1

        for index, spec in enumerate(self.dataset.fields):
            grad_field = grad_stack[:, index, :]
            table = self.embeddings[spec.name]
            kind, shape = pool_caches[spec.name]
            if kind == "scalar":
                table.backward(grad_field)
            elif kind == "mean":
                steps = shape[1]
                grad_seq = np.repeat(grad_field[:, None, :] / steps,
                                     steps, axis=1)
                table.backward(grad_seq.reshape(-1, self.embedding_dim))
            else:
                pooler = self.poolers[spec.name]
                grad_seq = pooler.backward(grad_field)
                table.backward(grad_seq.reshape(-1, self.embedding_dim))
        self._cache = None

    # -- training helpers ----------------------------------------------------

    def train_step(self, batch: Batch, optimizer) -> float:
        """One forward/backward/update step; returns the batch loss."""
        if batch.labels is None:
            raise ValueError("training batch has no labels")
        self.zero_grad()
        logits = self.forward(batch)
        loss = bce_loss(logits, batch.labels)
        self.backward(bce_loss_grad(logits, batch.labels))
        optimizer.step(self.parameters(), self.sparse_tables())
        return loss

    def compute_gradients(self, batch: Batch) -> float:
        """Forward + backward without applying updates (PS workers)."""
        if batch.labels is None:
            raise ValueError("training batch has no labels")
        self.zero_grad()
        logits = self.forward(batch)
        loss = bce_loss(logits, batch.labels)
        self.backward(bce_loss_grad(logits, batch.labels))
        return loss

    def predict(self, batch: Batch) -> np.ndarray:
        """Click probabilities for a batch."""
        logits = self.forward(batch)
        self._cache = None
        return sigmoid(logits)

    def parameters(self) -> dict:
        """All dense parameters as name -> (value, grad)."""
        params = {}
        for layer in self.mlp:
            params.update(layer.parameters())
        for pooler in self.poolers.values():
            params.update(pooler.parameters())
        return params

    def sparse_tables(self) -> list:
        """Embedding tables with pending sparse gradients."""
        return list(self.embeddings.values())

    def zero_grad(self) -> None:
        """Clear all dense and sparse gradients."""
        for layer in self.mlp:
            layer.zero_grad()
        for pooler in self.poolers.values():
            pooler.zero_grad()
        for table in self.embeddings.values():
            table.zero_grad()

    def dense_state(self) -> dict:
        """Snapshot of dense parameter values (copied)."""
        return {name: value.copy()
                for name, (value, _grad) in self.parameters().items()}

    def load_dense_state(self, state: dict) -> None:
        """Restore dense parameters from :meth:`dense_state`."""
        for name, (value, _grad) in self.parameters().items():
            value[:] = state[name]
