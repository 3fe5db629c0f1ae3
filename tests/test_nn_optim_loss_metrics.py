"""Unit tests for optimizers, loss and metrics."""

import numpy as np
import pytest

from repro.nn.layers import DenseEmbedding
from repro.nn.loss import bce_loss, bce_loss_grad
from repro.nn.metrics import auc_score, log_loss
from repro.nn.optim import SGD, Adagrad, Adam, Lamb


def _quadratic_params(start=5.0):
    value = np.array([start])
    grad = np.zeros(1)
    return {"x": (value, grad)}


def _descend(optimizer, steps=200):
    """Minimize f(x) = x^2 and return the final |x|."""
    params = _quadratic_params()
    value, grad = params["x"]
    for _step in range(steps):
        grad[:] = 2 * value
        optimizer.step(params, [])
        grad[:] = 0.0
    return abs(float(value[0]))


class TestOptimizersConverge:
    @pytest.mark.parametrize("optimizer", [
        SGD(lr=0.1), SGD(lr=0.05, momentum=0.9), Adagrad(lr=0.5),
        Adam(lr=0.1), Lamb(lr=0.05),
    ])
    def test_minimizes_quadratic(self, optimizer):
        assert _descend(optimizer) < 0.5

    def test_lr_validation(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)

    def test_momentum_validation(self):
        with pytest.raises(ValueError):
            SGD(lr=0.1, momentum=1.0)

    @pytest.mark.parametrize("optimizer", [SGD, Adagrad, Adam, Lamb])
    @pytest.mark.parametrize("field,value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", -0.1),
        ("sparse_lr", -1.0), ("sparse_lr", float("nan")),
        ("sparse_lr", float("inf")), ("sparse_lr", 0.0),
    ])
    def test_rates_must_be_finite_and_positive(self, optimizer, field,
                                               value):
        with pytest.raises(ValueError, match=field):
            optimizer(**{field: value})

    @pytest.mark.parametrize("optimizer", [Adagrad, Adam, Lamb])
    @pytest.mark.parametrize("value", [0.0, -1e-8, float("nan"),
                                       float("inf")])
    def test_epsilon_must_be_finite_and_positive(self, optimizer, value):
        with pytest.raises(ValueError, match="epsilon"):
            optimizer(epsilon=value)

    @pytest.mark.parametrize("optimizer", [Adam, Lamb])
    @pytest.mark.parametrize("field", ["beta1", "beta2"])
    @pytest.mark.parametrize("value", [1.0, -0.1, 1.5, float("nan")])
    def test_betas_must_lie_in_unit_interval(self, optimizer, field,
                                             value):
        with pytest.raises(ValueError, match=field):
            optimizer(**{field: value})

    def test_valid_settings_kept(self):
        adam = Adam(lr=0.01, beta1=0.0, beta2=0.5, epsilon=1e-6,
                    sparse_lr=0.2)
        assert (adam.lr, adam.sparse_lr, adam.beta1, adam.beta2,
                adam.epsilon) == (0.01, 0.2, 0.0, 0.5, 1e-6)
        assert Adagrad(lr=0.3).sparse_lr == 0.3


class TestSparseUpdates:
    def test_adagrad_sparse_rows_move(self):
        table = DenseEmbedding(10, 2, "e", np.random.default_rng(0))
        before = table.table[3].copy()
        table.forward(np.array([3]))
        table.backward(np.ones((1, 2)))
        SGD(lr=0.1).step({}, [table])
        assert not np.allclose(table.table[3], before)

    def test_untouched_rows_stay(self):
        table = DenseEmbedding(10, 2, "e", np.random.default_rng(0))
        before = table.table[7].copy()
        table.forward(np.array([3]))
        table.backward(np.ones((1, 2)))
        SGD(lr=0.1).step({}, [table])
        assert np.allclose(table.table[7], before)

    def test_duplicate_rows_accumulate(self):
        table = DenseEmbedding(10, 1, "e", np.random.default_rng(0))
        table.table[:] = 0.0
        table.forward(np.array([3, 3]))
        table.backward(np.ones((2, 1)))
        SGD(lr=1.0, sparse_lr=1.0).step({}, [table])
        # Adagrad-normalized but both contributions must land.
        assert table.table[3, 0] < -0.5


class TestBceLoss:
    def test_perfect_predictions_low_loss(self):
        logits = np.array([10.0, -10.0])
        labels = np.array([1.0, 0.0])
        assert bce_loss(logits, labels) < 1e-3

    def test_chance_loss(self):
        logits = np.zeros(4)
        labels = np.array([0.0, 1.0, 0.0, 1.0])
        assert bce_loss(logits, labels) == pytest.approx(np.log(2.0))

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal(6)
        labels = (rng.random(6) > 0.5).astype(float)
        grad = bce_loss_grad(logits, labels)
        eps = 1e-6
        for index in range(6):
            bumped = logits.copy()
            bumped[index] += eps
            expected = (bce_loss(bumped, labels)
                        - bce_loss(logits, labels)) / eps
            assert grad[index] == pytest.approx(expected, abs=1e-4)

    def test_no_overflow_on_extreme_logits(self):
        assert np.isfinite(bce_loss(np.array([1e4, -1e4]),
                                    np.array([0.0, 1.0])))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bce_loss(np.zeros(3), np.zeros(4))


class TestAuc:
    def test_perfect_ranking(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert auc_score(labels, scores) == 1.0

    def test_inverted_ranking(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert auc_score(labels, scores) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(10_000) > 0.5).astype(float)
        scores = rng.random(10_000)
        assert auc_score(labels, scores) == pytest.approx(0.5, abs=0.02)

    def test_ties_average(self):
        labels = np.array([0, 1])
        scores = np.array([0.5, 0.5])
        assert auc_score(labels, scores) == pytest.approx(0.5)

    def test_single_class_returns_half(self):
        assert auc_score(np.ones(5), np.random.rand(5)) == 0.5

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        labels = (rng.random(200) > 0.6).astype(float)
        scores = rng.standard_normal(200)
        positives = scores[labels > 0.5]
        negatives = scores[labels < 0.5]
        wins = sum((positives > n).sum() + 0.5 * (positives == n).sum()
                   for n in negatives)
        expected = wins / (len(positives) * len(negatives))
        assert auc_score(labels, scores) == pytest.approx(expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            auc_score(np.zeros(3), np.zeros(4))


class TestLogLoss:
    def test_perfect(self):
        assert log_loss(np.array([1.0, 0.0]),
                        np.array([1.0, 0.0])) < 1e-6

    def test_clipping_prevents_inf(self):
        assert np.isfinite(log_loss(np.array([1.0]), np.array([0.0])))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            log_loss(np.zeros(2), np.zeros(3))
