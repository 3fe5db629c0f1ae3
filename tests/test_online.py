"""Tests for the continuous-training -> online-serving loop."""

import json

import numpy as np
import pytest

from repro.api import StreamConfig, stream
from repro.cli import main
from repro.data.spec import DatasetSpec, FieldSpec
from repro.faults import CompositeServeController
from repro.nn.network import WdlNetwork
from repro.online import (
    DriftingStream,
    ReplicaAutoscaler,
    SnapshotRegistry,
    StreamingTrainer,
    apply_delta,
    capture_delta,
    clone_network,
    load_delta,
    save_delta,
)
from repro.serving.traffic import (
    DiurnalShape,
    FlashCrowdShape,
    shape_from_dict,
)
from repro.telemetry.monitor import SloBurnRateMonitor


def _dataset(fields=2, vocab=400):
    return DatasetSpec(name="online", num_numeric=2, fields=tuple(
        FieldSpec(name=f"cat_{index}", vocab_size=vocab,
                  embedding_dim=8, zipf_exponent=1.15)
        for index in range(fields)))


def _network(seed=0):
    return WdlNetwork(_dataset(), variant="wdl", embedding_dim=8,
                      vocab_rows=400, mlp_layers=(16,), seed=seed)


def _trainer(tmp_path, publish_interval=5, max_chain=8, seed=0):
    network = _network(seed=seed)
    registry = SnapshotRegistry(tmp_path, max_chain=max_chain)
    events = DriftingStream(_dataset(), 32, drift_ids_per_step=4.0,
                            seed=seed)
    return StreamingTrainer(network, events, registry,
                            publish_interval=publish_interval)


def _assert_same_weights(one, other):
    for name, table in one.embeddings.items():
        assert np.array_equal(table.table,
                              other.embeddings[name].table), name
    for name, (value, _grad) in one.parameters().items():
        assert np.array_equal(value,
                              dict(other.parameters())[name][0]), name


class TestDriftingStream:
    def test_random_access_is_deterministic(self):
        events = DriftingStream(_dataset(), 16, seed=0)
        first, second = events.batch(7), events.batch(7)
        for name in first.sparse:
            assert np.array_equal(first.sparse[name],
                                  second.sparse[name])
        assert np.array_equal(first.labels, second.labels)

    def test_drift_moves_the_hot_window(self):
        events = DriftingStream(_dataset(vocab=5_000), 256,
                                drift_ids_per_step=16.0, seed=0)
        early = set(events.batch(0).sparse["cat_0"].ravel().tolist())
        late = set(events.batch(200).sparse["cat_0"].ravel().tolist())
        assert events.drift_offset(200) > events.drift_offset(0)
        assert early != late


class TestDeltaRoundTrip:
    def test_base_plus_deltas_bitwise(self, tmp_path):
        """The acceptance bar: full base + N deltas == live weights."""
        trainer = _trainer(tmp_path, publish_interval=5)
        trainer.run_steps(15)  # publishes v0 (full), v1, v2 (deltas)
        registry = trainer.registry
        kinds = [entry.kind for entry in registry.versions()]
        assert kinds == ["full", "delta", "delta"]
        replica = clone_network(trainer.network)
        landed = registry.materialize(replica)
        assert landed.version == 2
        _assert_same_weights(trainer.network, replica)

    def test_materialize_any_live_version(self, tmp_path):
        trainer = _trainer(tmp_path, publish_interval=5)
        trainer.run_steps(10)
        snapshot_at_v0 = clone_network(trainer.network)
        trainer.registry.materialize(snapshot_at_v0, version=0)
        trainer.run_steps(5)
        replica = clone_network(trainer.network)
        trainer.registry.materialize(replica, version=0)
        _assert_same_weights(snapshot_at_v0, replica)

    def test_deltas_much_smaller_than_full(self, tmp_path):
        # Needs a realistic vocab-to-batch ratio: the compression win
        # comes from most rows staying untouched between publishes.
        dataset = _dataset(vocab=5_000)
        network = WdlNetwork(dataset, variant="wdl", embedding_dim=8,
                             vocab_rows=5_000, mlp_layers=(16,), seed=0)
        registry = SnapshotRegistry(tmp_path)
        events = DriftingStream(dataset, 32, drift_ids_per_step=4.0,
                                seed=0)
        trainer = StreamingTrainer(network, events, registry,
                                   publish_interval=5)
        trainer.run_steps(15)
        full = registry.full_bytes()
        for nbytes in registry.delta_bytes():
            assert nbytes * 5 <= full

    def test_delta_file_round_trip(self, tmp_path):
        # A seed-0 source so the (seed-0) clone starts bitwise equal.
        fresh = _network(seed=0)
        stale = clone_network(fresh)
        _assert_same_weights(fresh, stale)
        rows = np.array([3, 7, 11], dtype=np.int64)
        field = next(iter(fresh.embeddings))
        fresh.embeddings[field].table[rows] += 1.0
        delta = capture_delta(fresh, {field: rows}, version=1,
                              base_version=0, step=1)
        loaded = load_delta(save_delta(delta, tmp_path / "d1"))
        apply_delta(stale, loaded)
        _assert_same_weights(fresh, stale)


class TestRegistry:
    def test_first_publish_is_full(self, tmp_path):
        trainer = _trainer(tmp_path, publish_interval=5)
        trainer.run_steps(5)
        latest = trainer.registry.latest()
        assert latest.version == 0
        assert latest.kind == "full"

    def test_compaction_and_gc(self, tmp_path):
        trainer = _trainer(tmp_path, publish_interval=5, max_chain=2)
        trainer.run_steps(30)  # six publishes with a chain cap of two
        registry = trainer.registry
        assert registry.chain_length() <= registry.max_chain
        assert registry.gc_removed > 0
        # GC'd payloads are really gone; every live one is on disk.
        live = {entry.filename for entry in registry.versions()}
        on_disk = {path.name for path in tmp_path.iterdir()
                   if path.name != "registry.json"}
        assert on_disk == live

    def test_chain_starts_at_a_full_base(self, tmp_path):
        trainer = _trainer(tmp_path, publish_interval=5)
        trainer.run_steps(15)
        chain = trainer.registry.chain()
        assert chain[0].kind == "full"
        assert all(entry.kind == "delta" for entry in chain[1:])
        versions = [entry.version for entry in chain]
        assert versions == sorted(versions)

    def test_manifest_survives_reopen(self, tmp_path):
        trainer = _trainer(tmp_path, publish_interval=5)
        trainer.run_steps(15)
        reopened = SnapshotRegistry(tmp_path)
        assert [entry.as_dict() for entry in reopened.versions()] \
            == [entry.as_dict() for entry in trainer.registry.versions()]
        replica = clone_network(trainer.network)
        reopened.materialize(replica)
        _assert_same_weights(trainer.network, replica)

    def test_rejects_unknown_version(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotRegistry(tmp_path).chain(99)
        with pytest.raises(ValueError):
            SnapshotRegistry(tmp_path, max_chain=0)


class TestCloneNetwork:
    def test_same_architecture_fresh_buffers(self):
        network = _network()
        copy = clone_network(network)
        assert copy.variant == network.variant
        assert copy.embedding_dim == network.embedding_dim
        field = next(iter(network.embeddings))
        assert (copy.embeddings[field].table.shape
                == network.embeddings[field].table.shape)
        copy.embeddings[field].table[:] += 1.0
        assert not np.array_equal(copy.embeddings[field].table,
                                  network.embeddings[field].table)


class TestReplicaAutoscaler:
    def _scaler(self, **overrides):
        monitor = SloBurnRateMonitor(slo_ms=10.0, budget=0.01,
                                     window_s=0.05)
        settings = dict(min_replicas=1, max_replicas=4,
                        cooldown_windows=1)
        settings.update(overrides)
        return ReplicaAutoscaler(monitor, **settings)

    def test_scales_up_on_burn(self):
        scaler = self._scaler()
        for _ in range(10):
            scaler.observe(0.01, None)  # sheds burn the budget
        assert scaler.settle(0.10) == 2
        assert scaler.scale_ups == 1

    def test_cooldown_holds_the_next_decision(self):
        scaler = self._scaler(cooldown_windows=2)
        for window in range(4):
            for _ in range(10):
                scaler.observe(window * 0.05 + 0.01, None)
        scaler.finalize()
        # Four violating windows, but each scale-up pays two cooldown
        # windows before the next may fire: ups land at windows 0 and
        # 3 only (without cooldown all four would).
        assert scaler.replicas == 3
        assert scaler.scale_ups == 2

    def test_scales_down_when_quiet(self):
        scaler = self._scaler(cooldown_windows=0)
        for _ in range(10):
            scaler.observe(0.01, None)
        assert scaler.settle(0.10) == 2
        for window in range(2, 5):
            for _ in range(10):
                scaler.observe(window * 0.05 + 0.01, 0.001)
        scaler.finalize()
        assert scaler.replicas == 1
        assert scaler.scale_downs == 1

    def test_respects_max_replicas(self):
        scaler = self._scaler(max_replicas=2, cooldown_windows=0)
        for window in range(6):
            for _ in range(10):
                scaler.observe(window * 0.05 + 0.01, None)
        scaler.finalize()
        assert scaler.replicas == 2
        assert scaler.service_factor(0.0) == pytest.approx(0.5)

    def test_empty_windows_never_scale(self):
        scaler = self._scaler()
        assert scaler.settle(1.0) == 1
        assert scaler.scale_ups == scaler.scale_downs == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            self._scaler(min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError):
            self._scaler(scale_up_burn=0.2, scale_down_burn=0.5)
        with pytest.raises(ValueError):
            self._scaler(cooldown_windows=-1)


class TestCompositeController:
    def test_service_factors_multiply(self):
        class Half:
            def service_factor(self, t):
                return 0.5

        class Double:
            def service_factor(self, t):
                return 2.0

        composite = CompositeServeController([Half(), Double()])
        assert composite.service_factor(0.0) == pytest.approx(1.0)

    def test_summary_maps_member_types(self):
        class Half:
            def service_factor(self, t):
                return 0.5

            def summary(self):
                return {"factor": 0.5}

        composite = CompositeServeController([Half()])
        assert composite.summary() == {"Half": {"factor": 0.5}}


class TestSimulateStream:
    @pytest.fixture(scope="class")
    def swapped(self):
        return stream(self.config())

    @pytest.fixture(scope="class")
    def frozen(self):
        return stream(self.config().with_overrides(hot_swaps=False))

    @staticmethod
    def config():
        return StreamConfig(requests=1_200, rate_qps=20_000.0,
                            shape=FlashCrowdShape(start_s=0.01,
                                                  duration_s=0.02,
                                                  multiplier=3.0),
                            train_steps=50, publish_interval=8,
                            train_batch_size=64)

    def test_swaps_happen_and_drop_nothing(self, swapped):
        assert swapped.publishes >= 2
        assert swapped.swaps >= 1
        assert swapped.swap_attributed_shed == 0
        assert (swapped.serving.served + swapped.serving.shed
                == self.config().requests)

    def test_p99_within_ten_percent_of_no_swap(self, swapped, frozen):
        assert swapped.serving.p99_ms \
            <= 1.10 * frozen.serving.p99_ms

    def test_delta_compression_bar(self, swapped):
        assert swapped.delta_compression >= 5.0

    def test_staleness_bounded_by_publish_cadence(self, swapped):
        config = self.config()
        assert swapped.staleness_mean_s > 0.0
        # Served staleness can never exceed the whole trainer window
        # plus the trace tail after the last publish.
        horizon = config.train_steps * config.train_step_s \
            + swapped.serving.p99_ms * 1e-3
        assert swapped.staleness_max_s <= horizon + 1.0

    def test_no_swap_run_never_swaps(self, frozen):
        assert frozen.swaps == 0
        assert frozen.swap_pause_p99_ms == 0.0

    def test_deterministic_and_json_ready(self, swapped):
        again = stream(self.config())
        assert json.dumps(swapped.as_dict(), sort_keys=True) \
            == json.dumps(again.as_dict(), sort_keys=True)


class TestStreamConfig:
    def test_round_trip_with_shape(self):
        config = StreamConfig(
            requests=100, shape=DiurnalShape(period_s=2.0,
                                             amplitude=0.4))
        rebuilt = StreamConfig.from_dict(config.as_dict())
        assert rebuilt == config
        assert shape_from_dict(config.as_dict()["shape"]) == config.shape

    def test_round_trip_without_shape(self):
        config = StreamConfig(requests=100)
        assert StreamConfig.from_dict(config.as_dict()) == config

    def test_with_overrides(self):
        config = StreamConfig().with_overrides(publish_interval=7)
        assert config.publish_interval == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(requests=0)
        with pytest.raises(ValueError):
            StreamConfig(publish_interval=0)
        with pytest.raises(ValueError):
            StreamConfig(cache="no-such-cache")
        with pytest.raises(ValueError, match="train_step_s"):
            StreamConfig(train_step_s=float("nan"))
        with pytest.raises(ValueError, match="train_step_s"):
            StreamConfig(train_step_s=0.0)
        with pytest.raises(ValueError, match="rate_qps"):
            StreamConfig(rate_qps=float("nan"))
        with pytest.raises(ValueError, match="slo_s"):
            StreamConfig(slo_s=float("inf"))
        with pytest.raises(ValueError, match="max_wait_s"):
            StreamConfig(max_wait_s=-0.001)


class TestStreamCli:
    def test_stream_command_prints_summary(self, capsys):
        assert main(["stream", "--requests", "200",
                     "--train-steps", "20",
                     "--publish-interval", "10"]) == 0
        out = capsys.readouterr().out
        assert "publishes=" in out
        assert "autoscaler:" in out

    def test_stream_shape_flags(self, capsys):
        assert main(["stream", "--requests", "200",
                     "--train-steps", "20",
                     "--publish-interval", "10",
                     "--shape", "flash",
                     "--flash-start-s", "0.002",
                     "--flash-duration-s", "0.004"]) == 0
        assert "swap" in capsys.readouterr().out
