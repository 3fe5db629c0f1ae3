"""Optimizers over (dense dict + sparse embedding) parameters.

All optimizers share one interface: ``step(params, sparse_tables)``
where ``params`` maps name -> (value, grad) arrays updated in place,
and ``sparse_tables`` is a list of
:class:`~repro.nn.layers.DenseEmbedding` with pending sparse grads.

The paper trains embeddings with Adagrad-style sparse updates (the
industry default) and mentions LAMB as the large-batch auxiliary
optimizer PICASSO can enable.
"""

from __future__ import annotations

import math

import numpy as np


def _check_positive(name: str, value: float) -> float:
    """``value`` if it is a finite number > 0, else ``ValueError``."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return value


def _check_beta(name: str, value: float) -> float:
    """``value`` if it lies in ``[0, 1)``, else ``ValueError``."""
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {value}")
    return value


def _ordered_add(current: np.ndarray, inverse: np.ndarray,
                 index: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """``current`` with each ``deltas[i]`` added to row ``inverse[i]``.

    ``index`` (from :func:`_bincount_index`) sends every cell of
    ``current`` to its own bin first, then every delta cell to its
    row's bin in occurrence order.  ``np.bincount`` sums strictly in
    input order, so each cell folds ``current + d_0 + d_1 + ...`` left
    to right: bit for bit what unbuffered ``np.add.at`` computes.

    A bin starts at +0.0, so a ``-0.0`` cell that receives only
    ``-0.0`` deltas would come out ``+0.0``.  Training never makes a
    ``-0.0`` cell (a sum of floats is ``-0.0`` only if every term is),
    so when one is present the ``np.add.at`` fold runs instead.
    """
    if not current.all() and np.signbit(current[current == 0]).any():
        out = current.copy()
        np.add.at(out, inverse, deltas)
        return out
    weights = np.concatenate([current.ravel(), deltas.ravel()])
    return np.bincount(index, weights,
                       minlength=current.size).reshape(current.shape)


def _bincount_index(inverse: np.ndarray, rows: int,
                    dim: int) -> np.ndarray:
    """Flat bins for :func:`_ordered_add` over ``rows`` unique rows:
    the ``rows*dim`` cells in order, then one ``dim``-wide run per
    occurrence at its row ``inverse[i]``."""
    cells = rows * dim
    return np.concatenate([
        np.arange(cells),
        ((inverse * dim)[:, None] + np.arange(dim)).ravel()])


class Optimizer:
    """Base optimizer: handles sparse embedding updates via Adagrad.

    Dense parameter handling is delegated to ``_dense_update``;
    subclasses implement their own rule.  Sparse rows always use
    Adagrad (value + accumulator slots), matching production WDL
    training where embedding optimizers must be memory-lean.
    """

    def __init__(self, lr: float = 0.01, sparse_lr: float | None = None):
        self.lr = _check_positive("lr", lr)
        self.sparse_lr = (lr if sparse_lr is None
                          else _check_positive("sparse_lr", sparse_lr))
        self._sparse_state: dict = {}

    def step(self, params: dict, sparse_tables: list) -> None:
        """Apply one update to dense params and embedding tables."""
        for name, (value, grad) in params.items():
            self._dense_update(name, value, grad)
        for table in sparse_tables:
            self._sparse_update(table)

    def _dense_update(self, name: str, value: np.ndarray,
                      grad: np.ndarray) -> None:
        raise NotImplementedError

    def state_arrays(self) -> dict:
        """Every optimizer slot as ``{key: array}`` (checkpointing).

        Keys are namespaced (``sparse/<table>``, subclass slots under
        their own prefix); :meth:`load_state_arrays` inverts the
        mapping exactly, so a restored optimizer continues the same
        trajectory bit for bit.
        """
        state = {f"sparse/{name}": value
                 for name, value in self._sparse_state.items()}
        state.update(self._extra_state_arrays())
        return state

    def load_state_arrays(self, arrays: dict) -> None:
        """Restore slots saved by :meth:`state_arrays`."""
        self._sparse_state = {
            key[len("sparse/"):]: np.array(value, copy=True)
            for key, value in arrays.items()
            if key.startswith("sparse/")
        }
        self._load_extra_state(arrays)

    def _extra_state_arrays(self) -> dict:
        """Subclass hook: additional slots to checkpoint."""
        return {}

    def _load_extra_state(self, arrays: dict) -> None:
        """Subclass hook: restore :meth:`_extra_state_arrays` slots."""

    def _sparse_update(self, table) -> None:
        """Adagrad on the touched rows, one ``(rows, grads)`` pair at a
        time: accumulate squared grads into the row state, then step
        every occurrence by the row's *final* state.

        Duplicate rows are coalesced with one ordered bincount per
        slot (:func:`_ordered_add`), bit-identical to unbuffered
        ``np.add.at``.
        """
        state = self._sparse_state.setdefault(
            table.name, np.zeros(table.table.shape, dtype=np.float64))
        for rows, grads in table.sparse_grads():
            unique, inverse = np.unique(rows, return_inverse=True)
            index = _bincount_index(inverse, unique.size, table.dim)
            new_state = _ordered_add(state[unique], inverse, index,
                                     grads ** 2)
            state[unique] = new_state
            denom = (np.sqrt(new_state) + 1e-8)[inverse]
            table.table[unique] = _ordered_add(
                table.table[unique], inverse, index,
                -self.sparse_lr * grads / denom)


class SGD(Optimizer):
    """Plain (optionally momentum) stochastic gradient descent."""

    def __init__(self, lr: float = 0.01, momentum: float = 0.0,
                 sparse_lr: float | None = None):
        super().__init__(lr, sparse_lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity: dict = {}

    def _dense_update(self, name, value, grad):
        if self.momentum:
            velocity = self._velocity.setdefault(name,
                                                 np.zeros_like(value))
            velocity *= self.momentum
            velocity += grad
            value -= self.lr * velocity
        else:
            value -= self.lr * grad

    def _extra_state_arrays(self):
        return {f"velocity/{name}": value
                for name, value in self._velocity.items()}

    def _load_extra_state(self, arrays):
        self._velocity = {
            key[len("velocity/"):]: np.array(value, copy=True)
            for key, value in arrays.items()
            if key.startswith("velocity/")
        }


class Adagrad(Optimizer):
    """Adagrad: per-coordinate adaptive learning rates."""

    def __init__(self, lr: float = 0.05, sparse_lr: float | None = None,
                 epsilon: float = 1e-8):
        super().__init__(lr, sparse_lr)
        self.epsilon = _check_positive("epsilon", epsilon)
        self._accumulator: dict = {}

    def _dense_update(self, name, value, grad):
        acc = self._accumulator.setdefault(name, np.zeros_like(value))
        acc += grad ** 2
        value -= self.lr * grad / (np.sqrt(acc) + self.epsilon)

    def _extra_state_arrays(self):
        return {f"accumulator/{name}": value
                for name, value in self._accumulator.items()}

    def _load_extra_state(self, arrays):
        self._accumulator = {
            key[len("accumulator/"):]: np.array(value, copy=True)
            for key, value in arrays.items()
            if key.startswith("accumulator/")
        }


class Adam(Optimizer):
    """Adam with bias correction."""

    def __init__(self, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8,
                 sparse_lr: float | None = None):
        super().__init__(lr, sparse_lr)
        self.beta1 = _check_beta("beta1", beta1)
        self.beta2 = _check_beta("beta2", beta2)
        self.epsilon = _check_positive("epsilon", epsilon)
        self._m: dict = {}
        self._v: dict = {}
        self._t = 0

    def step(self, params: dict, sparse_tables: list) -> None:
        self._t += 1
        super().step(params, sparse_tables)

    def _dense_update(self, name, value, grad):
        m = self._m.setdefault(name, np.zeros_like(value))
        v = self._v.setdefault(name, np.zeros_like(value))
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad ** 2
        m_hat = m / (1 - self.beta1 ** self._t)
        v_hat = v / (1 - self.beta2 ** self._t)
        value -= self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def _extra_state_arrays(self):
        state = {f"adam_m/{name}": value
                 for name, value in self._m.items()}
        state.update({f"adam_v/{name}": value
                      for name, value in self._v.items()})
        state["adam_t"] = np.array(self._t, dtype=np.int64)
        return state

    def _load_extra_state(self, arrays):
        self._m = {key[len("adam_m/"):]: np.array(value, copy=True)
                   for key, value in arrays.items()
                   if key.startswith("adam_m/")}
        self._v = {key[len("adam_v/"):]: np.array(value, copy=True)
                   for key, value in arrays.items()
                   if key.startswith("adam_v/")}
        if "adam_t" in arrays:
            self._t = int(arrays["adam_t"])


class Lamb(Adam):
    """LAMB: layer-wise trust-ratio scaling on top of Adam.

    The auxiliary optimizer the paper cites for super-large batch
    training (You et al., ICLR'19).
    """

    def _dense_update(self, name, value, grad):
        m = self._m.setdefault(name, np.zeros_like(value))
        v = self._v.setdefault(name, np.zeros_like(value))
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad ** 2
        m_hat = m / (1 - self.beta1 ** self._t)
        v_hat = v / (1 - self.beta2 ** self._t)
        update = m_hat / (np.sqrt(v_hat) + self.epsilon)
        weight_norm = np.linalg.norm(value)
        update_norm = np.linalg.norm(update)
        trust = 1.0
        if weight_norm > 0 and update_norm > 0:
            trust = weight_norm / update_norm
        value -= self.lr * trust * update
