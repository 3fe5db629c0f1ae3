"""Exact equivalence of the vectorized serving path with its oracles.

The traffic generator draws each field's IDs and the numeric features
as one block per call; the caches rank, count and price whole arrays.
Every test here holds one of those to the per-element loop it
replaced (``tests/serving_oracle.py``, or a ``sorted``/``np.isin``
reference) with ``==``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.spec import DatasetSpec, FieldSpec
from repro.data.synthetic import FieldSampler
from repro.embedding import EmbeddingTable, HybridHash
from repro.embedding.counter import FrequencyCounter
from repro.embedding.multilevel import CacheTier, MultiLevelCache
from repro.serving import TrafficGenerator, default_serving_dataset
from repro.serving.traffic import DiurnalShape, FlashCrowdShape
from tests.serving_oracle import (
    access_cost_reference,
    generate_reference,
    tier_hits_reference,
)

SHAPES = {
    "flat": None,
    "diurnal": DiurnalShape(period_s=0.05, amplitude=0.6, phase_s=0.01),
    "flash": FlashCrowdShape(start_s=0.01, duration_s=0.02, multiplier=5.0),
}


def _sequence_dataset() -> DatasetSpec:
    """Mixed schema: multi-ID fields, a one-ID vocab, no-skew exponent."""
    return DatasetSpec(
        name="SeqMini", num_numeric=3,
        fields=(
            FieldSpec(name="user", vocab_size=5_000, embedding_dim=8,
                      seq_length=3, zipf_exponent=1.2),
            FieldSpec(name="item", vocab_size=800, embedding_dim=8,
                      zipf_exponent=1.0),
            FieldSpec(name="const", vocab_size=1, embedding_dim=8),
        ))


def _assert_same_trace(got: list, want: list) -> None:
    assert len(got) == len(want)
    for fast, slow in zip(got, want):
        assert fast.request_id == slow.request_id
        assert fast.arrival_s == slow.arrival_s
        assert type(fast.arrival_s) is type(slow.arrival_s)
        assert list(fast.sparse) == list(slow.sparse)
        for name in slow.sparse:
            assert fast.sparse[name].dtype == slow.sparse[name].dtype
            assert fast.sparse[name].shape == slow.sparse[name].shape
            assert (fast.sparse[name] == slow.sparse[name]).all()
        assert fast.numeric.dtype == slow.numeric.dtype
        assert fast.numeric.shape == slow.numeric.shape
        assert (fast.numeric == slow.numeric).all()


def _generators(dataset, seed, shape):
    return [TrafficGenerator(dataset, rate_qps=2_000.0, seed=seed,
                             shape=shape) for _ in range(2)]


class TestTrafficBlocks:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_generate_matches_per_request_loop(self, seed, shape):
        fast, slow = _generators(default_serving_dataset(), seed,
                                 SHAPES[shape])
        _assert_same_trace(fast.generate(300),
                           generate_reference(slow, 300))

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_sequence_fields(self, seed):
        fast, slow = _generators(_sequence_dataset(), seed, None)
        got = fast.generate(200)
        _assert_same_trace(got, generate_reference(slow, 200))
        assert got[0].sparse["user"].shape == (3,)

    def test_generate_zero(self):
        fast, slow = _generators(_sequence_dataset(), 3, SHAPES["flash"])
        assert fast.generate(0) == generate_reference(slow, 0) == []
        # An empty call leaves every stream where it was.
        _assert_same_trace(fast.generate(50),
                           generate_reference(slow, 50))

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_consecutive_calls_continue_the_streams(self, shape):
        fast, slow = _generators(_sequence_dataset(), 7, SHAPES[shape])
        for count in (120, 1, 75):
            _assert_same_trace(fast.generate(count),
                               generate_reference(slow, count))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            TrafficGenerator(_sequence_dataset(), 100.0).generate(-1)


def _sorted_oracle(counts: dict, k: int) -> list:
    if k <= 0:
        return []
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


class TestCounterRanking:
    @settings(max_examples=80, deadline=None)
    @given(batches=st.lists(st.lists(st.integers(-50, 60), max_size=40),
                            max_size=6),
           k=st.integers(-3, 120))
    def test_matches_sorted_oracle(self, batches, k):
        counter = FrequencyCounter()
        expected: dict = {}
        for batch in batches:
            counter.observe(np.array(batch, dtype=np.int64))
            for key in batch:
                expected[key] = expected.get(key, 0) + 1
        want = _sorted_oracle(expected, k)
        got = counter.most_common(k)
        assert got == want
        assert all(type(key) is int and type(count) is int
                   for key, count in got)
        assert counter.top_k(k) == [key for key, _count in want]

    def test_ties_and_bounds(self):
        counter = FrequencyCounter()
        counter.observe(np.array([9, 4, 4, 7, 7, 1, 3]))
        assert counter.most_common(10) == [(4, 2), (7, 2), (1, 1),
                                           (3, 1), (9, 1)]
        assert counter.top_k(3) == [4, 7, 1]
        assert counter.top_k(0) == counter.top_k(-2) == []
        assert FrequencyCounter().most_common(5) == []


def _tiers():
    return (
        CacheTier("hbm", capacity_bytes=6 * 16,
                  access_seconds_per_byte=1.0 / 900e9,
                  access_latency=3e-7),
        CacheTier("dram", capacity_bytes=20 * 16,
                  access_seconds_per_byte=1.0 / 16e9,
                  access_latency=1.7e-6),
        CacheTier("ssd", capacity_bytes=float("inf"),
                  access_seconds_per_byte=1.0 / 3e9,
                  access_latency=8.1e-5),
    )


def _batches(seed: int, count: int, size: int = 24) -> list:
    sampler = FieldSampler(FieldSpec(name="f", vocab_size=400,
                                     embedding_dim=4, zipf_exponent=1.1),
                           seed=seed)
    return [sampler.sample_batch(size) for _ in range(count)]


class TestMultiLevelBookkeeping:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_stats_history_and_cost_match_per_id_loop(self, seed):
        cache = MultiLevelCache(EmbeddingTable(dim=4, seed=seed),
                                tiers=_tiers(), warmup_iters=3,
                                flush_iters=4)
        expected_hits = {tier.name: 0 for tier in cache.tiers}
        expected_history = []
        for batch in _batches(seed, 40):
            assert (cache.expected_access_cost(batch)
                    == access_cost_reference(cache, batch))
            if cache.iteration >= cache.warmup_iters:
                hits, ratio = tier_hits_reference(cache, batch)
                for name, count in hits.items():
                    expected_hits[name] += count
                expected_history.append(ratio)
            cache.lookup(batch)
            assert {name: stats.hits for name, stats
                    in cache.stats.items()} == expected_hits
            assert cache.hit_history == expected_history
        assert cache.flush_history  # placement really moved
        assert cache.rows_per_tier()["hbm"] == 6

    @settings(max_examples=40, deadline=None)
    @given(history=st.lists(st.lists(st.integers(0, 300), max_size=30),
                            min_size=1, max_size=8),
           query=st.lists(st.integers(0, 320), max_size=50))
    def test_cost_is_the_sequential_sum(self, history, query):
        cache = MultiLevelCache(EmbeddingTable(dim=4), tiers=_tiers(),
                                warmup_iters=0, flush_iters=1)
        for batch in history:
            cache.lookup(np.array(batch, dtype=np.int64))
        query = np.array(query, dtype=np.int64)
        assert (cache.expected_access_cost(query)
                == access_cost_reference(cache, query))

    def test_empty_batch(self):
        cache = MultiLevelCache(EmbeddingTable(dim=4), tiers=_tiers(),
                                warmup_iters=0)
        empty = np.zeros(0, dtype=np.int64)
        assert cache.expected_access_cost(empty) == 0.0
        cache.lookup(empty)
        assert cache.hit_history == [0.0]


class TestHybridMembership:
    @settings(max_examples=60, deadline=None)
    @given(history=st.lists(st.lists(st.integers(-20, 200), max_size=30),
                            min_size=1, max_size=6),
           query=st.lists(st.integers(-30, 230), max_size=60),
           hot_rows=st.integers(0, 40))
    def test_hot_count_equals_isin(self, history, query, hot_rows):
        cache = HybridHash(EmbeddingTable(dim=4), hot_bytes=hot_rows * 16,
                           warmup_iters=0, flush_iters=1)
        for batch in history:
            cache.lookup(np.array(batch, dtype=np.int64))
        query = np.array(query, dtype=np.int64)
        assert cache._hot_count(query) == int(
            np.isin(query, cache._hot_arr).sum())

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_hot_hits_match_isin_oracle(self, seed):
        cache = HybridHash(EmbeddingTable(dim=4, seed=seed),
                           hot_bytes=25 * 16, warmup_iters=2,
                           flush_iters=3)
        hot_hits = cold_misses = 0
        for batch in _batches(seed, 30):
            ratio = cache.batch_hit_ratio(batch)
            unique = np.unique(batch)
            assert ratio == int(np.isin(unique, cache._hot_arr).sum()) \
                / unique.size
            if not cache.in_warmup:
                hits = int(np.isin(batch, cache._hot_arr).sum())
                hot_hits += hits
                cold_misses += batch.size - hits
            cache.lookup(batch)
            assert (cache.stats.hot_hits, cache.stats.cold_misses) \
                == (hot_hits, cold_misses)
        assert hot_hits > 0 and cold_misses > 0
