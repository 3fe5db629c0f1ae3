"""Byte-exact equivalence of the NN training hot path with its oracles.

Sparse Adagrad coalesces duplicate rows with an ordered bincount,
``sigmoid`` runs in one pass, the MLP backward gates each ReLU with
its stored output and the GRU keeps ``[x, h]`` from its forward pass.
Every test here holds one of those to the code it replaced
(``tests/nn_oracle.py``) with ``tobytes()``: the same bits, not a
tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.labeled import LabeledBatchIterator
from repro.data.spec import DatasetSpec, FieldSpec
from repro.distributed.strategies import (
    DataParallelTrainer,
    ParameterServer,
    PsWorkerTrainer,
)
from repro.nn.layers import DenseEmbedding, sigmoid
from repro.nn.network import WdlNetwork
from repro.nn.optim import SGD, Adagrad
from repro.training import AsyncPsTrainer, SyncTrainer, train_and_evaluate
from tests.nn_oracle import (
    reference_path,
    sigmoid_reference,
    sparse_update_reference,
)

VARIANTS = ("wdl", "dlrm", "deepfm", "din", "dien")


def _same_bytes(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _table(vocab: int, dim: int, seed: int) -> DenseEmbedding:
    return DenseEmbedding(vocab, dim, "emb", np.random.default_rng(seed))


def _zipf_pairs(vocab: int, dim: int, sizes, seed: int) -> list:
    """Duplicate-heavy ``(rows, grads)`` pairs, hot rows first."""
    rng = np.random.default_rng(seed)
    return [((rng.zipf(1.2, size) - 1) % vocab,
             rng.standard_normal((size, dim)))
            for size in sizes]


def _step_both(vocab, dim, pairs, steps=2, seed=0, lr=0.05):
    """Run the fast and the oracle sparse update on twin tables."""
    results = []
    for update in (None, sparse_update_reference):
        table = _table(vocab, dim, seed)
        optimizer = SGD(lr=lr)
        for _step in range(steps):
            table.zero_grad()
            for rows, grads in pairs:
                table.add_sparse_grad(rows, grads)
            if update is None:
                optimizer.step({}, [table])
            else:
                update(optimizer, table)
        results.append((table.table, optimizer.state_arrays()))
    return results


def _assert_same_update(fast, slow) -> None:
    (fast_table, fast_state), (slow_table, slow_state) = fast, slow
    _same_bytes(fast_table, slow_table)
    assert list(fast_state) == list(slow_state)
    for key in slow_state:
        _same_bytes(fast_state[key], slow_state[key])


class TestSparseAdagrad:
    @pytest.mark.parametrize("vocab,dim,size", [
        (8_000, 16, 4096), (100, 16, 4096), (7, 3, 500), (100_000, 8, 64),
    ])
    def test_zipf_duplicates_match_add_at(self, vocab, dim, size):
        pairs = _zipf_pairs(vocab, dim, [size], seed=vocab)
        _assert_same_update(*_step_both(vocab, dim, pairs, steps=3))

    def test_several_pairs_per_step(self):
        # DataParallelTrainer and ParameterServer.push stage one pair
        # per worker shard on the same table before a single step.
        pairs = _zipf_pairs(500, 8, [300, 1, 300, 77], seed=4)
        _assert_same_update(*_step_both(500, 8, pairs, steps=3))

    def test_empty_rows(self):
        empty = (np.zeros(0, dtype=np.int64), np.zeros((0, 4)))
        pairs = [empty, *_zipf_pairs(50, 4, [20], seed=1), empty]
        fast, slow = _step_both(50, 4, pairs)
        _assert_same_update(fast, slow)
        only_empty = _step_both(50, 4, [empty])
        _assert_same_update(*only_empty)
        _same_bytes(only_empty[0][0], _table(50, 4, 0).table)

    def test_negative_zero_cells_keep_their_sign(self):
        # A -0.0 cell hit only by -0.0 deltas (zero grads) stays -0.0
        # under np.add.at; a +0.0-seeded bin would flip it.
        rows = np.array([1, 1, 2, 3, 3])
        grads = np.zeros((5, 2))
        grads[3:, 1] = 0.5
        results = []
        for update in (None, sparse_update_reference):
            table = _table(4, 2, 0)
            table.table[:] = -0.0
            optimizer = SGD(lr=0.1)
            table.add_sparse_grad(rows, grads)
            if update is None:
                optimizer.step({}, [table])
            else:
                update(optimizer, table)
            results.append((table.table, optimizer.state_arrays()))
        _assert_same_update(*results)
        assert np.signbit(results[0][0][1]).all()

    @settings(max_examples=60, deadline=None)
    @given(vocab=st.integers(1, 40), dim=st.integers(1, 5),
           sizes=st.lists(st.integers(0, 60), min_size=1, max_size=4),
           seed=st.integers(0, 2**16),
           lr=st.floats(1e-4, 10.0))
    def test_random_pairs_match_add_at(self, vocab, dim, sizes, seed, lr):
        pairs = _zipf_pairs(vocab, dim, sizes, seed)
        _assert_same_update(*_step_both(vocab, dim, pairs, seed=seed,
                                        lr=lr))


class TestSigmoid:
    def test_special_values(self):
        x = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0,
                      745.0, -745.0, 746.0, -746.0, 709.0, -709.0,
                      36.7, -36.7, 1e-300, -1e-300, 5e-324, -5e-324])
        _same_bytes(sigmoid(x), sigmoid_reference(x))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 800.0])
    def test_random_values(self, scale):
        x = np.random.default_rng(7).standard_normal((64, 33)) * scale
        _same_bytes(sigmoid(x), sigmoid_reference(x))

    def test_float32_input_returns_float64(self):
        x = np.linspace(-20, 20, 101, dtype=np.float32)
        _same_bytes(sigmoid(x), sigmoid_reference(x))


def _dataset() -> DatasetSpec:
    """Skewed scalar fields, one behaviour sequence, numeric features."""
    return DatasetSpec(name="EquivMini", num_numeric=2, fields=(
        FieldSpec(name="user", vocab_size=3_000, embedding_dim=8,
                  zipf_exponent=1.2),
        FieldSpec(name="item", vocab_size=500, embedding_dim=8,
                  zipf_exponent=1.05),
        FieldSpec(name="clicks", vocab_size=2_000, embedding_dim=8,
                  seq_length=4, zipf_exponent=1.1),
    ))


def _run_both(run):
    fast = run()
    with reference_path():
        slow = run()
    return fast, slow


class TestTraining:
    @pytest.mark.parametrize("mode", ["sync", "async-ps"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_train_and_evaluate(self, variant, mode):
        fast, slow = _run_both(lambda: train_and_evaluate(
            _dataset(), variant, mode=mode, steps=6, batch_size=256,
            eval_batches=2, embedding_dim=8, seed=3))
        _same_bytes(fast.losses, slow.losses)
        _same_bytes(fast.auc, slow.auc)
        _same_bytes(fast.logloss, slow.logloss)

    @pytest.mark.parametrize("trainer", ["sync", "async", "allreduce",
                                         "ps-worker"])
    @pytest.mark.parametrize("variant", ["dlrm", "dien"])
    def test_final_tables_and_state(self, variant, trainer):
        dataset = _dataset()

        def run():
            network = WdlNetwork(dataset, variant=variant,
                                 embedding_dim=8, seed=5)
            optimizer = Adagrad(lr=0.05)
            batches = LabeledBatchIterator(dataset, 192, seed=5).batches(5)
            if trainer == "sync":
                losses = SyncTrainer(network, optimizer).train(
                    LabeledBatchIterator(dataset, 192, seed=5), 5)
            elif trainer == "async":
                losses = AsyncPsTrainer(network, optimizer).train(
                    LabeledBatchIterator(dataset, 192, seed=5), 5)
            elif trainer == "allreduce":
                losses = DataParallelTrainer(
                    network, workers=3, optimizer=optimizer).train(batches)
            else:
                worker = PsWorkerTrainer(
                    ParameterServer(network, optimizer), inflight=2)
                losses = [worker.train_step(batch) for batch in batches]
                worker.drain()
            tables = {name: table.table.copy()
                      for name, table in network.embeddings.items()}
            return losses, tables, optimizer.state_arrays()

        (fast_losses, fast_tables, fast_state), \
            (slow_losses, slow_tables, slow_state) = _run_both(run)
        _same_bytes(fast_losses, slow_losses)
        assert list(fast_tables) == list(slow_tables)
        for name in slow_tables:
            _same_bytes(fast_tables[name], slow_tables[name])
        assert list(fast_state) == list(slow_state)
        for key in slow_state:
            _same_bytes(fast_state[key], slow_state[key])
