"""Host-side ID frequency counting (``FCounter`` in Algorithm 1)."""

from __future__ import annotations

from collections import Counter

import numpy as np


class FrequencyCounter:
    """Counts categorical-ID occurrences and reports the top-k set.

    This is the statistics component of ``HybridHash``: during warm-up
    (and after it) every queried ID increments its count; periodically
    the hottest ``k`` IDs are promoted to Hot-storage.
    """

    def __init__(self):
        self._counts: Counter = Counter()

    def observe(self, ids: np.ndarray) -> None:
        """Record one query batch."""
        values, counts = np.unique(
            np.asarray(ids).ravel().astype(np.int64, copy=False),
            return_counts=True)
        tally = self._counts
        for value, count in zip(values.tolist(), counts.tolist()):
            tally[value] += count

    def count(self, key: int) -> int:
        """Occurrences recorded for one ID."""
        return self._counts.get(int(key), 0)

    def _ranked(self, k: int) -> tuple:
        """``(ids, counts)`` int64 arrays of the ``k`` most frequent IDs.

        Ordered by count descending, count ties broken on the smaller
        ID: ``Counter.most_common`` falls back to insertion order,
        which depends on the batch arrival interleaving, so hot-set
        membership at the boundary would otherwise differ between runs
        that saw the same multiset of IDs in different orders.
        ``np.lexsort`` with the count as its primary key is that same
        total order (IDs are distinct).
        """
        if k <= 0:
            return (np.empty(0, dtype=np.int64),) * 2
        size = len(self._counts)
        ids = np.fromiter(self._counts.keys(), dtype=np.int64, count=size)
        counts = np.fromiter(self._counts.values(), dtype=np.int64,
                             count=size)
        order = np.lexsort((ids, -counts))[:k]
        return ids[order], counts[order]

    def top_k(self, k: int) -> list:
        """The ``k`` most frequent IDs (most frequent first)."""
        return self._ranked(k)[0].tolist()

    def most_common(self, k: int) -> list:
        """``[(id, count), ...]`` for the ``k`` most frequent IDs.

        The statistics surface the shard planner's observed
        :class:`~repro.embedding.placement.LoadProfile` and the
        delta-snapshot hot-row ordering consume; ordered as
        :meth:`_ranked`.
        """
        ids, counts = self._ranked(k)
        return list(zip(ids.tolist(), counts.tolist()))

    def merge(self, other: "FrequencyCounter") -> "FrequencyCounter":
        """Fold another counter's statistics into this one (in place).

        Lets per-worker counters combine into the global view the
        planner needs; returns ``self`` for chaining.
        """
        self._counts.update(other._counts)
        return self

    def distinct_ids(self) -> int:
        """How many distinct IDs have been observed."""
        return len(self._counts)

    def total_observations(self) -> int:
        """Total ID occurrences observed."""
        return sum(self._counts.values())

    def reset(self) -> None:
        """Forget all statistics."""
        self._counts.clear()
