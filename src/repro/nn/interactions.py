"""Feature-interaction computations with manual gradients.

Implements the interaction math the Tab. III models need: DLRM's
pairwise dot interaction, DeepFM's FM second-order term, DIN's target
attention, and DIEN's GRU over behaviour sequences (truncated BPTT).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import sigmoid


def dot_interaction(fields: np.ndarray) -> np.ndarray:
    """DLRM pairwise dots.

    :param fields: ``(batch, num_fields, dim)`` stacked embeddings.
    :returns: ``(batch, num_fields*(num_fields-1)//2)`` upper-triangle
        pairwise inner products.
    """
    grams = np.einsum("bfd,bgd->bfg", fields, fields)
    count = fields.shape[1]
    iu = np.triu_indices(count, k=1)
    return grams[:, iu[0], iu[1]]


def dot_interaction_grad(fields: np.ndarray,
                         grad: np.ndarray) -> np.ndarray:
    """Gradient of :func:`dot_interaction` w.r.t. the field stack."""
    batch, count, _dim = fields.shape
    iu = np.triu_indices(count, k=1)
    grad_gram = np.zeros((batch, count, count))
    grad_gram[:, iu[0], iu[1]] = grad
    grad_gram = grad_gram + grad_gram.transpose(0, 2, 1)
    return np.einsum("bfg,bgd->bfd", grad_gram, fields)


def fm_interaction(fields: np.ndarray) -> np.ndarray:
    """Factorization-machine second-order term.

    ``0.5 * ((sum_f v_f)^2 - sum_f v_f^2)`` summed over the embedding
    dimension; shape ``(batch, 1)``.
    """
    sum_v = fields.sum(axis=1)
    sum_sq = (fields ** 2).sum(axis=1)
    term = 0.5 * (sum_v ** 2 - sum_sq)
    return term.sum(axis=1, keepdims=True)


def fm_interaction_grad(fields: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient of :func:`fm_interaction` w.r.t. the field stack.

    :param grad: upstream gradient of shape ``(batch,)`` (the FM term
        is a scalar per instance).
    """
    grad = np.asarray(grad).reshape(-1, 1, 1)
    sum_v = fields.sum(axis=1, keepdims=True)
    return grad * (sum_v - fields)


class AttentionPooling:
    """DIN-style target attention over a behaviour sequence.

    Scores each sequence step by its inner product with a learned query
    vector, softmaxes, and returns the weighted sum.  (The full DIN
    conditions the query on the candidate item; a learned global query
    preserves the trainability characteristics at laptop scale.)
    """

    def __init__(self, dim: int, name: str, rng: np.random.Generator):
        self.name = name
        self.query = (rng.standard_normal(dim) * 0.1).astype(np.float64)
        self.grad_query = np.zeros_like(self.query)
        self._cache = None

    def forward(self, sequence: np.ndarray) -> np.ndarray:
        """:param sequence: ``(batch, steps, dim)``; returns ``(batch, dim)``."""
        scores = sequence @ self.query
        scores -= scores.max(axis=1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=1, keepdims=True)
        pooled = np.einsum("bs,bsd->bd", weights, sequence)
        self._cache = (sequence, weights)
        return pooled

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. the sequence; accumulates the query grad."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        sequence, weights = self._cache
        grad_weights = np.einsum("bd,bsd->bs", grad, sequence)
        grad_seq = weights[:, :, None] * grad[:, None, :]
        # Softmax backward.
        dot = (grad_weights * weights).sum(axis=1, keepdims=True)
        grad_scores = weights * (grad_weights - dot)
        grad_seq += grad_scores[:, :, None] * self.query[None, None, :]
        self.grad_query += np.einsum("bs,bsd->d", grad_scores, sequence)
        return grad_seq

    def parameters(self) -> dict:
        """Trainable parameters of the pooling module."""
        return {f"{self.name}.query": (self.query, self.grad_query)}

    def zero_grad(self) -> None:
        """Reset the query gradient."""
        self.grad_query[:] = 0.0


class GruPooling:
    """A minimal GRU over a behaviour sequence, returning the last state.

    Implements the standard update/reset-gate recurrence with full
    backpropagation through time; used for DIEN's interest-evolution
    layer at laptop scale (short sequences).
    """

    def __init__(self, dim: int, name: str, rng: np.random.Generator):
        self.name = name
        scale = 1.0 / np.sqrt(dim)
        self.w_z = (rng.standard_normal((2 * dim, dim)) * scale)
        self.w_r = (rng.standard_normal((2 * dim, dim)) * scale)
        self.w_h = (rng.standard_normal((2 * dim, dim)) * scale)
        self.grad_w_z = np.zeros_like(self.w_z)
        self.grad_w_r = np.zeros_like(self.w_r)
        self.grad_w_h = np.zeros_like(self.w_h)
        self.dim = dim
        self._cache = None

    def forward(self, sequence: np.ndarray) -> np.ndarray:
        """:param sequence: ``(batch, steps, dim)``; returns ``(batch, dim)``."""
        batch, steps, dim = sequence.shape
        h = np.zeros((batch, dim))
        states = []
        for step in range(steps):
            x = sequence[:, step, :]
            xh = np.concatenate([x, h], axis=1)
            z = sigmoid(xh @ self.w_z)
            r = sigmoid(xh @ self.w_r)
            xrh = np.concatenate([x, r * h], axis=1)
            h_tilde = np.tanh(xrh @ self.w_h)
            new_h = (1 - z) * h + z * h_tilde
            # Backward reads x and h back out of xh, so it needs no
            # second concatenate.
            states.append((xh, z, r, h_tilde))
            h = new_h
        self._cache = (sequence.shape, states)
        return h

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """BPTT; returns gradient w.r.t. the input sequence."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        (batch, steps, dim), states = self._cache
        grad_seq = np.zeros((batch, steps, dim))
        grad_h = grad
        for step in reversed(range(steps)):
            xh, z, r, h_tilde = states[step]
            x, h_prev = xh[:, :dim], xh[:, dim:]
            grad_z = grad_h * (h_tilde - h_prev)
            grad_h_tilde = grad_h * z
            grad_h_prev = grad_h * (1 - z)

            pre_h = grad_h_tilde * (1 - h_tilde ** 2)
            xrh = np.concatenate([x, r * h_prev], axis=1)
            self.grad_w_h += xrh.T @ pre_h
            grad_xrh = pre_h @ self.w_h.T
            grad_x = grad_xrh[:, :dim]
            grad_rh = grad_xrh[:, dim:]
            grad_r = grad_rh * h_prev
            grad_h_prev += grad_rh * r

            pre_z = grad_z * z * (1 - z)
            pre_r = grad_r * r * (1 - r)
            self.grad_w_z += xh.T @ pre_z
            self.grad_w_r += xh.T @ pre_r
            grad_xh = pre_z @ self.w_z.T + pre_r @ self.w_r.T
            grad_x += grad_xh[:, :dim]
            grad_h_prev += grad_xh[:, dim:]

            grad_seq[:, step, :] = grad_x
            grad_h = grad_h_prev
        return grad_seq

    def parameters(self) -> dict:
        """Trainable GRU matrices."""
        return {
            f"{self.name}.w_z": (self.w_z, self.grad_w_z),
            f"{self.name}.w_r": (self.w_r, self.grad_w_r),
            f"{self.name}.w_h": (self.w_h, self.grad_w_h),
        }

    def zero_grad(self) -> None:
        """Reset gate gradients."""
        self.grad_w_z[:] = 0.0
        self.grad_w_r[:] = 0.0
        self.grad_w_h[:] = 0.0
