"""Hashmap-backed dynamic embedding tables.

Industrial recommenders cannot pre-size embedding matrices: new
categorical IDs appear continuously, so tables are hashmaps from ID to
embedding vector (paper SS III-B).  This implementation is the
cold-storage backend ``HybridHash`` wraps, and also the parameter store
the numpy trainer updates.
"""

from __future__ import annotations

import numpy as np


class EmbeddingTable:
    """A dynamic (hashmap) embedding table.

    Rows are allocated lazily on first lookup and initialized from a
    seeded normal distribution, so two tables with the same seed agree
    on never-touched rows — which the cache-consistency property tests
    rely on.
    """

    def __init__(self, dim: int, initializer_scale: float = 0.01,
                 seed: int = 0, name: str = "table"):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.name = name
        self._scale = float(initializer_scale)
        self._seed = seed
        self._rows: dict = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: int) -> bool:
        return int(key) in self._rows

    def _initial_row(self, key: int) -> np.ndarray:
        # ``default_rng(seed)`` is exactly this stream, minus its
        # argument dispatch (paid once per lazily created row).
        rng = np.random.Generator(np.random.PCG64(
            (self._seed * 0x9E3779B9 + key) & 0x7FFFFFFF))
        return (rng.standard_normal(self.dim) * self._scale).astype(
            np.float32)

    @staticmethod
    def _unique_first_order(ids: np.ndarray) -> tuple:
        """``(unique, inverse)`` with uniques in first-occurrence order.

        ``np.unique`` sorts; reordering by first occurrence keeps the
        row-creation (dict insertion) order identical to the legacy
        per-element loop, so ``keys()`` and row values stay bitwise
        stable across the vectorization.
        """
        unique, first, inverse = np.unique(
            ids, return_index=True, return_inverse=True)
        order = np.argsort(first, kind="stable")
        rank = np.empty(order.size, dtype=inverse.dtype)
        rank[order] = np.arange(order.size, dtype=inverse.dtype)
        return unique[order], rank[inverse.ravel()]

    def _gather_unique(self, unique: np.ndarray) -> np.ndarray:
        """Rows for already-deduplicated IDs, creating missing ones."""
        rows = self._rows
        out = np.empty((unique.size, self.dim), dtype=np.float32)
        for index, raw in enumerate(unique.tolist()):
            key = int(raw)
            row = rows.get(key)
            if row is None:
                row = self._initial_row(key)
                rows[key] = row
            out[index] = row
        return out

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """Fetch rows for ``ids`` (shape ``(n, dim)``), creating them.

        Dict traffic is paid once per *unique* ID; the batch result is
        a vectorized gather through the inverse index, which matches
        the legacy per-element loop bit for bit (rows are copied into
        a fresh array either way).
        """
        ids = np.asarray(ids).ravel()
        if ids.size == 0:
            return np.empty((0, self.dim), dtype=np.float32)
        unique, inverse = self._unique_first_order(ids)
        return self._gather_unique(unique)[inverse]

    def scatter_update(self, ids: np.ndarray, values: np.ndarray) -> None:
        """Overwrite rows (last write wins for duplicate IDs)."""
        ids = np.asarray(ids).ravel()
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (ids.size, self.dim):
            raise ValueError(
                f"values shape {values.shape} != ({ids.size}, {self.dim})")
        if ids.size == 0:
            return
        # One dict store per unique ID, in first-occurrence order (the
        # legacy loop's insertion order), each taking its last write.
        unique, first = np.unique(ids, return_index=True)
        _, reversed_first = np.unique(ids[::-1], return_index=True)
        last = ids.size - 1 - reversed_first
        order = np.argsort(first, kind="stable")
        rows = self._rows
        for position in order.tolist():
            rows[int(unique[position])] = values[last[position]].copy()

    def scatter_add(self, ids: np.ndarray, deltas: np.ndarray) -> None:
        """Accumulate ``deltas`` into rows (duplicates accumulate).

        Duplicate IDs fold left-to-right in occurrence order
        (``np.add.at`` is unbuffered and applies updates in index
        order), reproducing the legacy loop's float32 rounding exactly.
        """
        ids = np.asarray(ids).ravel()
        deltas = np.asarray(deltas, dtype=np.float32)
        if deltas.shape != (ids.size, self.dim):
            raise ValueError(
                f"deltas shape {deltas.shape} != ({ids.size}, {self.dim})")
        if ids.size == 0:
            return
        unique, inverse = self._unique_first_order(ids)
        accumulated = self._gather_unique(unique)
        np.add.at(accumulated, inverse, deltas)
        rows = self._rows
        for index, raw in enumerate(unique.tolist()):
            # In-place writeback keeps existing row objects identical
            # to the legacy ``row += delta`` mutation.
            rows[int(raw)][...] = accumulated[index]

    def memory_bytes(self) -> int:
        """Approximate bytes held by materialized rows."""
        return len(self._rows) * self.dim * 4

    def keys(self) -> list:
        """Materialized IDs (unordered)."""
        return list(self._rows)
