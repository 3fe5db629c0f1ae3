"""Unit tests (incl. numerical gradient checks) for nn layers."""

import numpy as np
import pytest

from repro.nn.layers import Dense, DenseEmbedding, relu, relu_grad, sigmoid


def numerical_grad(func, array, epsilon=1e-6):
    """Central-difference gradient of scalar ``func`` w.r.t. ``array``."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    grad_flat = grad.ravel()
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = func()
        flat[index] = original - epsilon
        minus = func()
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * epsilon)
    return grad


class TestActivations:
    def test_sigmoid_range_and_midpoint(self):
        x = np.array([-100.0, 0.0, 100.0])
        out = sigmoid(x)
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(0.5)
        assert out[2] == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_no_overflow(self):
        out = sigmoid(np.array([-1e9, 1e9]))
        assert np.all(np.isfinite(out))

    def test_relu(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])),
                              np.array([0.0, 0.0, 2.0]))

    def test_relu_grad(self):
        x = np.array([-1.0, 0.5])
        grad = relu_grad(x, np.array([3.0, 3.0]))
        assert np.array_equal(grad, np.array([0.0, 3.0]))


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3, "l", np.random.default_rng(0))
        out = layer.forward(np.ones((8, 4)))
        assert out.shape == (8, 3)

    def test_backward_before_forward_errors(self):
        layer = Dense(2, 2, "l", np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_weight_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, "l", rng)
        x = rng.standard_normal((5, 3))
        upstream = rng.standard_normal((5, 2))

        def loss():
            return float((layer.forward(x) * upstream).sum())

        expected = numerical_grad(loss, layer.weight)
        layer.zero_grad()
        layer.forward(x)
        layer.backward(upstream)
        assert np.allclose(layer.grad_weight, expected, atol=1e-5)

    def test_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(2)
        layer = Dense(3, 2, "l", rng)
        x = rng.standard_normal((4, 3))
        upstream = rng.standard_normal((4, 2))

        def loss():
            return float((layer.forward(x) * upstream).sum())

        expected = numerical_grad(loss, x)
        grad_x = layer.backward(upstream)
        assert np.allclose(grad_x, expected, atol=1e-5)

    def test_gradients_accumulate(self):
        rng = np.random.default_rng(3)
        layer = Dense(2, 2, "l", rng)
        x = np.ones((1, 2))
        layer.forward(x)
        layer.backward(np.ones((1, 2)))
        first = layer.grad_weight.copy()
        layer.forward(x)
        layer.backward(np.ones((1, 2)))
        assert np.allclose(layer.grad_weight, 2 * first)

    def test_zero_grad(self):
        rng = np.random.default_rng(4)
        layer = Dense(2, 2, "l", rng)
        layer.forward(np.ones((1, 2)))
        layer.backward(np.ones((1, 2)))
        layer.zero_grad()
        assert np.all(layer.grad_weight == 0)

    def test_parameters_naming(self):
        layer = Dense(2, 2, "mlp.0", np.random.default_rng(0))
        assert set(layer.parameters()) == {"mlp.0.weight", "mlp.0.bias"}

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            Dense(0, 2, "l", np.random.default_rng(0))


class TestDenseEmbedding:
    def test_fold_wraps_ids(self):
        table = DenseEmbedding(10, 4, "e", np.random.default_rng(0))
        assert np.array_equal(table.fold(np.array([3, 13, 23])),
                              np.array([3, 3, 3]))

    def test_forward_shape(self):
        table = DenseEmbedding(10, 4, "e", np.random.default_rng(0))
        out = table.forward(np.array([1, 2, 1]))
        assert out.shape == (3, 4)

    def test_duplicate_ids_share_rows(self):
        table = DenseEmbedding(10, 4, "e", np.random.default_rng(0))
        out = table.forward(np.array([5, 5]))
        assert np.array_equal(out[0], out[1])

    def test_backward_records_sparse_grads(self):
        table = DenseEmbedding(10, 4, "e", np.random.default_rng(0))
        table.forward(np.array([1, 2]))
        table.backward(np.ones((2, 4)))
        grads = table.sparse_grads()
        assert len(grads) == 1
        rows, deltas = grads[0]
        assert np.array_equal(rows, np.array([1, 2]))
        assert deltas.shape == (2, 4)

    def test_add_sparse_grad_stages_after_backward(self):
        table = DenseEmbedding(10, 4, "e", np.random.default_rng(0))
        table.forward(np.array([1, 2]))
        table.backward(np.ones((2, 4)))
        rows, grads = np.array([7]), np.full((1, 4), 2.0)
        table.add_sparse_grad(rows, grads)
        staged = table.sparse_grads()
        assert len(staged) == 2
        assert staged[1][0] is rows and staged[1][1] is grads
        table.zero_grad()
        assert table.sparse_grads() == []

    def test_backward_before_forward_errors(self):
        table = DenseEmbedding(10, 4, "e", np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            table.backward(np.ones((1, 4)))

    def test_zero_grad_clears(self):
        table = DenseEmbedding(10, 4, "e", np.random.default_rng(0))
        table.forward(np.array([1]))
        table.backward(np.ones((1, 4)))
        table.zero_grad()
        assert table.sparse_grads() == []

    def test_memory_bytes(self):
        table = DenseEmbedding(10, 4, "e", np.random.default_rng(0))
        assert table.memory_bytes() == 10 * 4 * 8  # float64

    def test_validation(self):
        with pytest.raises(ValueError):
            DenseEmbedding(0, 4, "e", np.random.default_rng(0))
