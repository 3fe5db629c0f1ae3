"""The per-element serving loops: the serving equivalence suite's oracles.

:func:`generate_reference` is the original body of
:meth:`repro.serving.traffic.TrafficGenerator.generate`: one
``sample_batch(1)`` per field and one ``standard_normal`` call per
request.  :func:`tier_hits_reference` and :func:`access_cost_reference`
are the original per-ID loops of
:class:`~repro.embedding.multilevel.MultiLevelCache`.  They are slow
and obviously faithful, which is why they live here:
``test_serving_equivalence.py`` holds the block-drawing ``generate``
and the vectorized cache bookkeeping to them with ``==``.
"""

import numpy as np

from repro.serving.traffic import Request


def generate_reference(generator, count: int) -> list:
    """``count`` requests drawn one request at a time.

    Advances ``generator``'s streams exactly like
    :meth:`~repro.serving.traffic.TrafficGenerator.generate`, so the
    two may be interleaved on one generator.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    arrivals = generator._arrival_times(count)
    requests = []
    for index in range(count):
        sparse = {
            name: sampler.sample_batch(1)
            for name, sampler in generator._samplers.items()
        }
        numeric = generator._numeric_rng.standard_normal(
            generator.dataset.num_numeric).astype(np.float32)
        requests.append(Request(request_id=index,
                                arrival_s=float(arrivals[index]),
                                sparse=sparse, numeric=numeric))
    return requests


def tier_hits_reference(cache, ids) -> tuple:
    """``(per-tier hits, fast-tier hit ratio)`` one lookup would add.

    The original per-unique-ID loop of
    :meth:`repro.embedding.multilevel.MultiLevelCache.lookup`, read
    against the cache's placement before the lookup runs.
    """
    unique = np.unique(np.asarray(ids).ravel())
    hits = {tier.name: 0 for tier in cache.tiers}
    fast_hits = 0
    for raw in unique:
        index = cache._placement.get(int(raw), len(cache.tiers) - 1)
        hits[cache.tiers[index].name] += 1
        if index == 0:
            fast_hits += 1
    return hits, (fast_hits / unique.size if unique.size else 0.0)


def access_cost_reference(cache, ids) -> float:
    """The original per-ID loop of ``expected_access_cost``."""
    ids = np.unique(np.asarray(ids).ravel())
    row_bytes = cache.table.dim * 4
    cost = 0.0
    for raw in ids:
        index = cache._placement.get(int(raw), len(cache.tiers) - 1)
        tier = cache.tiers[index]
        cost += tier.access_latency \
            + row_bytes * tier.access_seconds_per_byte
    return cost
