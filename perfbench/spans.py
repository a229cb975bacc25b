"""In-memory span tracer that wraps a program's functions from outside.

A span is ``[name, parent, start, end]``: the wrapped call's name, the
index of the span that was open when it began (``-1`` at top level) and
two ``perf_counter`` readings.  Spans stay in memory for the life of one
repetition and are written once, at its end, by :meth:`Tracer.write`.
A layer's self time is its spans' duration minus the time their direct
children cover.

Wrappers go on the binding the caller actually uses: a module that did
``from x import f`` calls its own ``f``, so it is that module's attribute
that gets wrapped, not ``x.f``.  :meth:`Tracer.restore` undoes every
wrapper so nothing outlives the traced region.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

_MISSING = object()


class Tracer:
    """Spans and call counts recorded by wrappers it installs."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: calls per wrapped name, plus anything ``after`` hooks add
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    # -- installing wrappers ------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, span: bool = True,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (class or module) by a traced wrapper."""
        saved = vars(owner).get(attr, _MISSING)
        self._undo.append((owner, attr, saved))
        setattr(owner, attr, self.traced(getattr(owner, attr), name,
                                         span=span, after=after))

    def traced(self, fn: Callable, name: str, *, span: bool = True,
               after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to count calls, and to record a span if ``span``.

        ``after(args, result)`` runs after each call, for counts that
        depend on what the call returned.  Count-only wrappers are for
        calls too frequent to give each a span.
        """
        counts = self.counts
        if not span:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[name] += 1
                if after is not None:
                    after(args, result)
                return result
            return functools.wraps(fn)(counted)

        spans = self.spans
        stack = self._stack

        def spanned(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            counts[name] += 1
            if after is not None:
                after(args, result)
            return result
        return functools.wraps(fn)(spanned)

    def restore(self) -> None:
        """Put back every binding :meth:`wrap` replaced, newest first."""
        while self._undo:
            owner, attr, saved = self._undo.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # -- reading the spans --------------------------------------------------

    def child_seconds(self) -> List[float]:
        """Per span, the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = self.child_seconds()
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, _, start, end) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[index]
        return out

    def write(self, path, extra: Optional[Dict] = None) -> None:
        """Write every span once, with a name table, as one JSON file."""
        names = sorted({span[0] for span in self.spans})
        code = {name: index for index, name in enumerate(names)}
        payload = {
            "format": "perfbench-spans@1",
            "fields": ["name", "parent", "start", "end"],
            "names": names,
            "spans": [[code[name], parent, start, end]
                      for name, parent, start, end in self.spans],
            "counts": dict(sorted(self.counts.items())),
        }
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
