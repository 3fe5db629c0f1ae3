"""The original NN training hot path: the NN equivalence suite's oracle.

:func:`sparse_update_reference` is the original body of
:meth:`repro.nn.optim.Optimizer._sparse_update`: two unbuffered
``np.add.at`` scatters per ``(rows, grads)`` pair.
:func:`sigmoid_reference` is the original mask-indexed
:func:`repro.nn.layers.sigmoid`.  :func:`backward_reference` is the
original :meth:`repro.nn.network.WdlNetwork.backward`, which recomputes
each hidden layer's pre-activation to gate its ReLU, and
:func:`gru_forward_reference` / :func:`gru_backward_reference` are the
original :class:`repro.nn.interactions.GruPooling` passes, which
re-concatenate ``[x, h]`` in backward.  They are slow and obviously
faithful, which is why they live here: ``test_nn_equivalence.py``
holds the fast path to them byte for byte, and
:func:`reference_path` swaps all of them in at once so a whole
training run can be replayed on the old code.
"""

import contextlib
from unittest import mock

import numpy as np

from repro.nn import interactions, layers, loss, network, optim
from repro.nn.layers import relu_grad
from repro.nn.interactions import dot_interaction_grad, fm_interaction_grad


def sparse_update_reference(optimizer, table) -> None:
    """Adagrad on ``table``'s pending rows via ``np.add.at``."""
    state = optimizer._sparse_state.setdefault(
        table.name, np.zeros(table.table.shape, dtype=np.float64))
    for rows, grads in table.sparse_grads():
        np.add.at(state, rows, grads ** 2)
        denom = np.sqrt(state[rows]) + 1e-8
        np.add.at(table.table, rows,
                  -optimizer.sparse_lr * grads / denom)


def sigmoid_reference(x: np.ndarray) -> np.ndarray:
    """Stable logistic function, one masked pass per sign."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def backward_reference(net, grad_logits: np.ndarray) -> None:
    """``WdlNetwork.backward``, re-deriving every ReLU's input."""
    if net._cache is None:
        raise RuntimeError("backward called before forward")
    batch, stack, pool_caches, activations = net._cache
    grad = grad_logits.reshape(-1, 1)
    grad = net.mlp[-1].backward(grad)
    for index in range(len(net.mlp) - 2, -1, -1):
        layer = net.mlp[index]
        pre = activations[index] @ layer.weight + layer.bias
        grad = relu_grad(pre, grad)
        grad = layer.backward(grad)

    fields_dim = stack.shape[1] * stack.shape[2]
    grad_stack = grad[:, :fields_dim].reshape(stack.shape)
    cursor = fields_dim
    if net.variant == "dlrm":
        width = stack.shape[1] * (stack.shape[1] - 1) // 2
        grad_stack += dot_interaction_grad(
            stack, grad[:, cursor:cursor + width])
        cursor += width
    elif net.variant == "deepfm":
        grad_stack += fm_interaction_grad(
            stack, grad[:, cursor:cursor + 1].ravel())
        cursor += 1

    for index, spec in enumerate(net.dataset.fields):
        grad_field = grad_stack[:, index, :]
        table = net.embeddings[spec.name]
        kind, shape = pool_caches[spec.name]
        if kind == "scalar":
            table.backward(grad_field)
        elif kind == "mean":
            steps = shape[1]
            grad_seq = np.repeat(grad_field[:, None, :] / steps,
                                 steps, axis=1)
            table.backward(grad_seq.reshape(-1, net.embedding_dim))
        else:
            pooler = net.poolers[spec.name]
            grad_seq = pooler.backward(grad_field)
            table.backward(grad_seq.reshape(-1, net.embedding_dim))
    net._cache = None


def gru_forward_reference(gru, sequence: np.ndarray) -> np.ndarray:
    """``GruPooling.forward`` caching ``(x, h, z, r, h_tilde)``."""
    batch, steps, dim = sequence.shape
    h = np.zeros((batch, dim))
    states = []
    for step in range(steps):
        x = sequence[:, step, :]
        xh = np.concatenate([x, h], axis=1)
        z = sigmoid_reference(xh @ gru.w_z)
        r = sigmoid_reference(xh @ gru.w_r)
        xrh = np.concatenate([x, r * h], axis=1)
        h_tilde = np.tanh(xrh @ gru.w_h)
        new_h = (1 - z) * h + z * h_tilde
        states.append((x, h, z, r, h_tilde))
        h = new_h
    gru._cache = (sequence.shape, states)
    return h


def gru_backward_reference(gru, grad: np.ndarray) -> np.ndarray:
    """``GruPooling.backward`` rebuilding ``[x, h]`` every step."""
    if gru._cache is None:
        raise RuntimeError("backward called before forward")
    (batch, steps, dim), states = gru._cache
    grad_seq = np.zeros((batch, steps, dim))
    grad_h = grad
    for step in reversed(range(steps)):
        x, h_prev, z, r, h_tilde = states[step]
        grad_z = grad_h * (h_tilde - h_prev)
        grad_h_tilde = grad_h * z
        grad_h_prev = grad_h * (1 - z)

        pre_h = grad_h_tilde * (1 - h_tilde ** 2)
        xrh = np.concatenate([x, r * h_prev], axis=1)
        gru.grad_w_h += xrh.T @ pre_h
        grad_xrh = pre_h @ gru.w_h.T
        grad_x = grad_xrh[:, :dim]
        grad_rh = grad_xrh[:, dim:]
        grad_r = grad_rh * h_prev
        grad_h_prev += grad_rh * r

        pre_z = grad_z * z * (1 - z)
        pre_r = grad_r * r * (1 - r)
        xh = np.concatenate([x, h_prev], axis=1)
        gru.grad_w_z += xh.T @ pre_z
        gru.grad_w_r += xh.T @ pre_r
        grad_xh = pre_z @ gru.w_z.T + pre_r @ gru.w_r.T
        grad_x += grad_xh[:, :dim]
        grad_h_prev += grad_xh[:, dim:]

        grad_seq[:, step, :] = grad_x
        grad_h = grad_h_prev
    return grad_seq


@contextlib.contextmanager
def reference_path():
    """Run the NN stack on the oracles above for the ``with`` body."""
    patches = [
        mock.patch.object(optim.Optimizer, "_sparse_update",
                          sparse_update_reference),
        mock.patch.object(network.WdlNetwork, "backward",
                          backward_reference),
        mock.patch.object(interactions.GruPooling, "forward",
                          gru_forward_reference),
        mock.patch.object(interactions.GruPooling, "backward",
                          gru_backward_reference),
    ]
    patches += [mock.patch.object(module, "sigmoid", sigmoid_reference)
                for module in (layers, loss, network, interactions)]
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        yield
