"""The one memo the program's deterministic builders share.

Model specs, plans, compiled graphs and the planner's sampled
statistics are pure functions of frozen (hashable) inputs, and sweeps,
tuners and benches request the same ones over and over.  Each such
builder keeps a module-level :class:`Memo` keyed on its inputs.

A hit is the inherited C-level ``dict.get``: no Python frame, no
bookkeeping.  That matters on the hottest memo, which takes hundreds
of thousands of hits per sweep.  Inserts pay the bound: once a memo
holds ``maxsize`` entries, an insert of a new key first evicts the
oldest entry (insertion order).  :func:`clear_all` empties every memo,
so a test can run a workload cold.
"""

from __future__ import annotations

#: Every Memo built, for :func:`clear_all`.
_MEMOS: list = []


class Memo(dict):
    """A dict bounded to ``maxsize`` entries, oldest evicted first."""

    def __init__(self, maxsize: int):
        super().__init__()
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        _MEMOS.append(self)

    def __setitem__(self, key, value) -> None:
        if len(self) >= self.maxsize and key not in self:
            del self[next(iter(self))]
        dict.__setitem__(self, key, value)


def clear_all() -> None:
    """Empty every :class:`Memo` (cold-run tests)."""
    for memo in _MEMOS:
        memo.clear()
