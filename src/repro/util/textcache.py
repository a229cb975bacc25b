"""Bounded, content-keyed memo tables with hit/miss accounting.

The classification hot path keeps recomputing pure functions of message
text — lower-casing the subject+body for phrase scans, SHA-1 content
hashes, bag-of-words sets — and campaign spam repeats bodies verbatim
(~10x at study scale), so content-keyed tables convert most of that work
into dict hits.  The pattern already exists ad hoc in ``funnel.py`` and
``message.py``; this module centralises it and adds the accounting the
perf snapshot reports (``classify.text_cache_hits``), so the saved work
is measured rather than assumed.

Every memo here must cache a *pure* function of its key: staleness is
then impossible and process-wide sharing is safe (each worker process of
the parallel classify stage simply grows its own tables).  Tables are
size-bounded with clear-on-full semantics — the simplest policy that
cannot leak unboundedly, and the one the existing caches use.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["BoundedMemo", "memo_totals"]

#: default table bound, matching the existing _BODY_CACHE_MAX idiom
DEFAULT_MAX_ENTRIES = 1 << 15

#: every BoundedMemo registers itself here so perf reporting can walk
#: all tables without each call site threading references around
_MEMOS: Dict[str, "BoundedMemo"] = {}


class BoundedMemo:
    """One named, size-bounded memo table for a pure function of its key.

    The table itself is exposed as :attr:`table` so hot paths pay one
    dict lookup, not a method call::

        feats = MEMO.table.get(body)
        if feats is None:
            feats = _compute(body)
            MEMO.put(body, feats)      # counts the miss, bounds the table
        else:
            MEMO.hits += 1

    ``None`` is therefore not a cacheable value — wrap it if a memoised
    function can legitimately return it.
    """

    __slots__ = ("name", "max_entries", "hits", "misses", "table")

    def __init__(self, name: str,
                 max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if name in _MEMOS:
            raise ValueError(f"duplicate memo name {name!r}")
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.table: Dict = {}
        _MEMOS[name] = self

    def put(self, key, value) -> None:
        """Record a miss and store ``value``, clearing the table if full."""
        self.misses += 1
        if len(self.table) >= self.max_entries:
            self.table.clear()
        self.table[key] = value

    def clear(self) -> None:
        """Drop all entries (counters are preserved — they are totals)."""
        self.table.clear()

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self.table)}


def memo_totals() -> Tuple[int, int]:
    """Process-wide ``(hits, misses)`` across every registered memo.

    Callers that want per-run numbers (e.g. the classify phase's
    ``text_cache_hits`` counter) snapshot this before and after and
    report the delta.
    """
    hits = misses = 0
    for memo in _MEMOS.values():
        hits += memo.hits
        misses += memo.misses
    return hits, misses
