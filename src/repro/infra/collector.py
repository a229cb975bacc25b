"""The main collection server (paper Fig. 1, right-hand side).

Every VPS forwards accepted mail here.  The collector never sends mail; it
counts, optionally processes (pipeline hook), and appends to an in-memory
corpus that the analyses consume.  A bounded-queue failure mode models the
paper's infrastructure being "overwhelmed with spam, and crashing".

Outages come in two flavours: the experiment runner drives the
window-level outage (the paper's lost months) through :meth:`begin_day`,
and fault plans can *schedule* additional down days with
:meth:`schedule_outage_days`.  Either way the collector keeps per-day
gap/coverage accounting so a degraded run can report exactly which days
it lost and how much mail each gap swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.smtpsim.message import EmailMessage

__all__ = ["MainCollectionServer", "CollectorStats"]

ProcessHook = Callable[[EmailMessage], None]


@dataclass
class CollectorStats:
    ingested: int = 0
    dropped_overload: int = 0
    dropped_outage: int = 0


class MainCollectionServer:
    """Central sink for all study mail.

    Parameters
    ----------
    daily_capacity:
        Messages the server can absorb per simulated day before it starts
        dropping (None = unlimited).  The experiment runner uses this to
        reproduce the paper's collection gaps.
    process_hook:
        Called for each ingested message (the processing pipeline); any
        exception from the hook is *not* swallowed — pipeline bugs should
        surface, not silently lose data.
    """

    def __init__(self, daily_capacity: Optional[int] = None,
                 process_hook: Optional[ProcessHook] = None) -> None:
        self.daily_capacity = daily_capacity
        self.process_hook = process_hook
        self.corpus: List[EmailMessage] = []
        self.stats = CollectorStats()
        self._outage = False
        self._current_day: Optional[int] = None
        self._today_count = 0
        self._scheduled_outage_days: Set[int] = set()
        # gap/coverage accounting (day index -> count)
        self._outage_days_seen: Set[int] = set()
        self._dropped_by_day: Dict[int, int] = {}
        # streaming hand-off (see enable_streaming)
        self._streaming = False
        self._retain_corpus = True
        self._pending: List[EmailMessage] = []

    # -- outage control (driven by the experiment runner) --------------------

    def set_outage(self, outage: bool) -> None:
        """Toggle the crashed-infrastructure state (drops all mail)."""
        self._outage = outage

    def schedule_outage_days(self, days) -> None:
        """Pre-schedule down days (fault plans); additive, idempotent."""
        self._scheduled_outage_days.update(int(day) for day in days)

    def begin_day(self, day: int, collecting: bool = True) -> None:
        """Advance the collector's day clock and apply scheduled outages.

        ``collecting=False`` is the window-level outage (the paper's lost
        months); a day in the scheduled set is down regardless.  Each down
        day is recorded for :meth:`coverage_report`.
        """
        outage = (not collecting) or (day in self._scheduled_outage_days)
        self.set_outage(outage)
        if outage:
            self._outage_days_seen.add(day)

    # -- ingestion -----------------------------------------------------------

    def ingest(self, message: EmailMessage) -> None:
        """Accept one forwarded message, subject to outage/capacity."""
        day = int(message.received_at // 86_400)
        if self._outage:
            self.stats.dropped_outage += 1
            self._outage_days_seen.add(day)
            self._dropped_by_day[day] = self._dropped_by_day.get(day, 0) + 1
            return
        if day != self._current_day:
            self._current_day = day
            self._today_count = 0
        if self.daily_capacity is not None and self._today_count >= self.daily_capacity:
            self.stats.dropped_overload += 1
            self._dropped_by_day[day] = self._dropped_by_day.get(day, 0) + 1
            return
        self._today_count += 1
        self.stats.ingested += 1
        if self.process_hook is not None:
            self.process_hook(message)
        if self._retain_corpus:
            self.corpus.append(message)
        if self._streaming:
            self._pending.append(message)

    # -- streaming hand-off ---------------------------------------------------

    def enable_streaming(self, retain_corpus: bool = True) -> None:
        """Queue accepted mail for in-window draining (streaming classify).

        With ``retain_corpus=False`` the collector stops growing
        :attr:`corpus` — ingested messages live only in the pending queue
        until :meth:`drain_pending` hands them to the classifier, which
        is what bounds a paper-scale run's memory.  Acceptance
        accounting (``stats.ingested``, outage/overload drops, coverage)
        is identical in every mode.
        """
        self._streaming = True
        self._retain_corpus = retain_corpus

    def drain_pending(self) -> List[EmailMessage]:
        """All mail accepted since the last drain, in ingest order."""
        pending = self._pending
        self._pending = []
        return pending

    # -- durable state (the study checkpoint's collector payload) ------------

    def state_dict(self) -> Dict:
        """The collector's mutable accounting, JSON-ready.

        The corpus itself is persisted (or not) by the caller per
        retention mode; this covers everything else a resumed run needs
        for :meth:`coverage_report` and capacity/outage bookkeeping to
        continue exactly.  Only valid at a day boundary, when the
        streaming pending queue has been drained.
        """
        if self._pending:
            raise RuntimeError(
                "collector state captured with undrained pending mail")
        return {
            "stats": {"ingested": self.stats.ingested,
                      "dropped_overload": self.stats.dropped_overload,
                      "dropped_outage": self.stats.dropped_outage},
            "current_day": self._current_day,
            "today_count": self._today_count,
            "scheduled_outage_days": sorted(self._scheduled_outage_days),
            "outage_days_seen": sorted(self._outage_days_seen),
            "dropped_by_day": {str(day): count for day, count
                               in sorted(self._dropped_by_day.items())},
        }

    def restore_state(self, data: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot (coverage included)."""
        self.stats = CollectorStats(**data["stats"])
        self._current_day = data["current_day"]
        self._today_count = data["today_count"]
        self._scheduled_outage_days = set(data["scheduled_outage_days"])
        self._outage_days_seen = set(data["outage_days_seen"])
        self._dropped_by_day = {int(day): count for day, count
                                in data["dropped_by_day"].items()}

    # -- gap/coverage accounting ---------------------------------------------

    def coverage_report(self, total_days: Optional[int] = None) -> Dict:
        """Which days this run lost, and how much mail each gap swallowed.

        ``gap_days`` are days the collector was down (window outage or
        scheduled); ``dropped_by_day`` maps each lossy day to its dropped
        message count (outage and overload drops combined).
        """
        gap_days = sorted(self._outage_days_seen)
        report = {
            "gap_days": gap_days,
            "gap_day_count": len(gap_days),
            "dropped_by_day": dict(sorted(self._dropped_by_day.items())),
            "ingested": self.stats.ingested,
            "dropped_outage": self.stats.dropped_outage,
            "dropped_overload": self.stats.dropped_overload,
        }
        if total_days is not None:
            report["total_days"] = total_days
            report["collecting_days"] = total_days - len(
                [d for d in gap_days if 0 <= d < total_days])
        return report

    def __len__(self) -> int:
        return len(self.corpus)
