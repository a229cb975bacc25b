"""Runtime fault injection driven by a :class:`~repro.faultsim.plan.FaultPlan`.

The injector is the bridge between a declarative plan and the live
simulation objects: the study runner advances it day by day
(:meth:`StudyFaultInjector.begin_day`), attaches its gates to the VPS
SMTP servers, and wraps the client's resolver with
:class:`FaultyResolver`.

Every probabilistic decision comes from :func:`unit_draw`, a pure hash
of ``(plan seed, stable context strings)`` — no shared RNG stream — so
decisions are independent of evaluation order, worker counts, and how
many other faults fired before them.  The only injector *state* is the
greylist's seen-envelope set, which the serial day loop drives in a
deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.dnssim.resolver import MailRoute, ResolutionStatus, Resolver
from repro.faultsim.plan import FaultPlan
from repro.smtpsim.protocol import SmtpReply
from repro.util.rand import derive_seed

__all__ = ["unit_draw", "FaultStats", "StudyFaultInjector", "FaultyResolver",
           "LookupFaults", "ServiceFaultStats", "ServiceFaultInjector",
           "NO_LOOKUP_FAULTS"]

_TWO_64 = float(2 ** 64)


def unit_draw(seed: int, *context: object) -> float:
    """A uniform in [0, 1) that is a pure function of (seed, context).

    Built on the same SHA-256 derivation as :func:`derive_seed`, so the
    draw is stable across Python versions and independent of every other
    draw — the property that makes fault decisions replayable no matter
    the order in which the simulation happens to evaluate them.
    """
    label = "/".join(str(part) for part in context)
    return derive_seed(seed, label) / _TWO_64


@dataclass
class FaultStats:
    """What the injector actually did to one run."""

    outage_tempfails: int = 0
    smtp_tempfails: int = 0
    smtp_drops: int = 0
    greylist_tempfails: int = 0
    dns_servfails: int = 0
    dns_timeouts: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "outage_tempfails": self.outage_tempfails,
            "smtp_tempfails": self.smtp_tempfails,
            "smtp_drops": self.smtp_drops,
            "greylist_tempfails": self.greylist_tempfails,
            "dns_servfails": self.dns_servfails,
            "dns_timeouts": self.dns_timeouts,
        }

    @property
    def total_injected(self) -> int:
        return (self.outage_tempfails + self.smtp_tempfails
                + self.smtp_drops + self.greylist_tempfails
                + self.dns_servfails + self.dns_timeouts)


# interned fault replies — every injection site returns one of these
_REPLY_OUTAGE = SmtpReply(
    451, "4.3.2 system not accepting network messages (collection outage)")
_REPLY_TEMPFAIL = SmtpReply(451, "4.7.1 please try again later")
_REPLY_GREYLIST = SmtpReply(451, "4.7.1 greylisted, retry later")
_REPLY_DROP = SmtpReply(421, "4.4.2 connection dropped mid-session")


class StudyFaultInjector:
    """Applies a plan's outage/DNS/SMTP spells to one study run."""

    def __init__(self, plan: FaultPlan, total_days: int) -> None:
        self.plan = plan
        self.total_days = total_days
        self.stats = FaultStats()
        self.current_day = 0
        self._greylist_seen: Set[Tuple[str, str, str]] = set()
        # per-day active-spell caches, refreshed by begin_day
        self._active_smtp = ()
        self._active_dns = ()
        self._vps_outage = False

    # -- the day clock (driven by the runner's serial loop) ------------------

    def begin_day(self, day: int) -> None:
        self.current_day = day
        self._active_smtp = tuple(spell for spell in self.plan.smtp_spells
                                  if spell.covers(day))
        self._active_dns = tuple(spell for spell in self.plan.dns_spells
                                 if spell.covers(day))
        self._vps_outage = any(span.covers(day) and span.mode == "tempfail"
                               for span in self.plan.collector_outages)

    # -- durable state (the study checkpoint's injector payload) -------------

    def state_dict(self) -> Dict:
        """The injector's only mutable state: stats + greylist envelopes.

        The per-day spell caches are recomputed by :meth:`begin_day` and
        need no persistence; the greylist set must survive a resume or
        already-seen envelopes would tempfail a second time.
        """
        return {
            "stats": self.stats.as_dict(),
            "greylist_seen": sorted(list(envelope)
                                    for envelope in self._greylist_seen),
        }

    def restore_state(self, data: Dict) -> None:
        self.stats = FaultStats(**data["stats"])
        self._greylist_seen = {tuple(envelope)
                               for envelope in data["greylist_seen"]}

    def drop_days(self) -> List[int]:
        """Every day on which a drop-mode outage is scheduled."""
        return sorted({day for span in self.plan.collector_outages
                       if span.mode == "drop"
                       for day in range(span.start_day,
                                        min(span.end_day, self.total_days))})

    # -- SMTP-side injection -------------------------------------------------

    def smtp_fault(self, hostname: str, sender: str, recipient: str,
                   timestamp: float) -> Optional[SmtpReply]:
        """The 4yz/421 reply this attempt suffers, or None to proceed."""
        if self._vps_outage:
            self.stats.outage_tempfails += 1
            return _REPLY_OUTAGE
        for index, spell in enumerate(self._active_smtp):
            if not spell.matches_host(hostname):
                continue
            if spell.greylist:
                envelope = (hostname, sender, recipient)
                if envelope not in self._greylist_seen:
                    self._greylist_seen.add(envelope)
                    self.stats.greylist_tempfails += 1
                    return _REPLY_GREYLIST
            if spell.drop_probability > 0.0 and unit_draw(
                    self.plan.seed, "smtp-drop", index, hostname,
                    repr(timestamp), sender, recipient
            ) < spell.drop_probability:
                self.stats.smtp_drops += 1
                return _REPLY_DROP
            if spell.tempfail_probability > 0.0 and unit_draw(
                    self.plan.seed, "smtp-tempfail", index, hostname,
                    repr(timestamp), sender, recipient
            ) < spell.tempfail_probability:
                self.stats.smtp_tempfails += 1
                return _REPLY_TEMPFAIL
        return None

    def make_gate(self, hostname: str):
        """A :data:`~repro.smtpsim.server.FaultGate` bound to ``hostname``."""

        def gate(session, message, timestamp: float) -> Optional[SmtpReply]:
            sender = session.envelope_from or ""
            recipient = session.envelope_to[0] if session.envelope_to else ""
            return self.smtp_fault(hostname, sender, recipient, timestamp)

        return gate

    # -- DNS-side injection --------------------------------------------------

    def dns_fault(self, domain: str) -> Optional[str]:
        """``"servfail"``/``"timeout"`` for this resolution, or None."""
        for index, spell in enumerate(self._active_dns):
            if not spell.matches_domain(domain):
                continue
            if unit_draw(self.plan.seed, "dns", index, self.current_day,
                         domain) < spell.probability:
                if spell.mode == "timeout":
                    self.stats.dns_timeouts += 1
                else:
                    self.stats.dns_servfails += 1
                return spell.mode
        return None


class FaultyResolver:
    """A resolver decorator that injects the plan's DNS fault spells.

    Duck-types the :class:`~repro.dnssim.resolver.Resolver` surface the
    SMTP client uses; with no spell active for the current day it defers
    verbatim to the wrapped resolver.
    """

    def __init__(self, inner: Resolver,
                 injector: StudyFaultInjector) -> None:
        self._inner = inner
        self._injector = injector

    def resolve_a(self, name: str):
        return self._inner.resolve_a(name)

    def resolve_mx(self, name: str):
        return self._inner.resolve_mx(name)

    def mail_route(self, domain: str) -> MailRoute:
        mode = self._injector.dns_fault(domain.lower())
        if mode == "servfail":
            return MailRoute(domain, ResolutionStatus.SERVFAIL)
        if mode == "timeout":
            return MailRoute(domain, ResolutionStatus.TIMEOUT)
        return self._inner.mail_route(domain)


# -- service-lane injection ---------------------------------------------------


@dataclass(frozen=True)
class LookupFaults:
    """Every fault the plan schedules against one served lookup.

    ``stall_ms`` is the virtual scorer stall for this lookup (0.0 when
    none), ``index_error`` marks an injected index-probe failure,
    ``memory_pressure`` forces a verdict-memo shrink, and ``churn_day``
    (when not ``None``) schedules a mid-traffic index hot-swap to that
    churn day at rate ``churn_rate`` before the lookup is answered.
    """

    stall_ms: float = 0.0
    index_error: bool = False
    memory_pressure: bool = False
    churn_day: Optional[int] = None
    churn_rate: float = 0.0

    @property
    def any(self) -> bool:
        return (self.stall_ms > 0.0 or self.index_error
                or self.memory_pressure or self.churn_day is not None)


#: the interned no-fault answer — the empty plan returns this for every
#: lookup, which is how the fault-free fast path stays allocation-free
NO_LOOKUP_FAULTS = LookupFaults()


@dataclass
class ServiceFaultStats:
    """What the service injector actually did to one serving run."""

    scorer_stalls: int = 0
    stall_ms_injected: float = 0.0
    index_errors: int = 0
    memory_pressure_events: int = 0
    churn_deltas: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "scorer_stalls": self.scorer_stalls,
            "stall_ms_injected": round(self.stall_ms_injected, 3),
            "index_errors": self.index_errors,
            "memory_pressure_events": self.memory_pressure_events,
            "churn_deltas": self.churn_deltas,
        }

    @property
    def total_injected(self) -> int:
        return (self.scorer_stalls + self.index_errors
                + self.memory_pressure_events + self.churn_deltas)


class ServiceFaultInjector:
    """Applies a plan's service spells to the resident query service.

    One :meth:`step` per served lookup, in stream order.  Every draw is
    a pure function of ``(plan seed, kind, spell index, sequence)`` —
    the injector carries no RNG stream — so a sharded batch worker can
    :meth:`fast_forward` to its global offset and see exactly the fault
    history the serial path saw, and the whole fault timeline replays
    byte-identically for any ``(seed, plan, workload)`` triple.  The
    only cross-lookup state is the once-per-spell churn latch.
    """

    def __init__(self, plan: Optional[FaultPlan]) -> None:
        self.plan = plan if plan is not None else FaultPlan.empty()
        self.stats = ServiceFaultStats()
        self.sequence = 0
        self._spells = tuple(enumerate(self.plan.service_spells))
        self._churn_fired: Set[int] = set()

    @property
    def is_empty(self) -> bool:
        return not self._spells

    def step(self) -> LookupFaults:
        """The faults for the current lookup; advances the sequence."""
        sequence = self.sequence
        self.sequence = sequence + 1
        if not self._spells:
            return NO_LOOKUP_FAULTS
        stall_ms = 0.0
        index_error = False
        memory_pressure = False
        churn_day: Optional[int] = None
        churn_rate = 0.0
        seed = self.plan.seed
        for spell_index, spell in self._spells:
            if not spell.covers(sequence):
                continue
            kind = spell.kind
            if kind == "churn_delta":
                # fires once, at the first served lookup in the window
                if spell_index not in self._churn_fired:
                    self._churn_fired.add(spell_index)
                    self.stats.churn_deltas += 1
                    churn_day = spell.churn_day
                    churn_rate = spell.churn_rate
                continue
            if spell.probability < 1.0 and unit_draw(
                    seed, "svc", kind, spell_index,
                    sequence) >= spell.probability:
                continue
            if kind == "scorer_stall":
                stall_ms += spell.stall_ms
                self.stats.scorer_stalls += 1
                self.stats.stall_ms_injected += spell.stall_ms
            elif kind == "index_error":
                index_error = True
                self.stats.index_errors += 1
            else:  # memory_pressure
                memory_pressure = True
                self.stats.memory_pressure_events += 1
        if not (stall_ms or index_error or memory_pressure
                or churn_day is not None):
            return NO_LOOKUP_FAULTS
        return LookupFaults(stall_ms=stall_ms, index_error=index_error,
                            memory_pressure=memory_pressure,
                            churn_day=churn_day, churn_rate=churn_rate)

    def fast_forward(self, sequence: int) -> None:
        """Advance to global lookup ``sequence`` without serving.

        A batch shard replays the timeline's draws (cheap hashes, no
        kernel work) so its churn latch — and every consumer fed from
        :meth:`step`, like the health monitor — reaches exactly the
        state the serial path holds at that position.
        """
        if sequence < self.sequence:
            raise ValueError(
                f"cannot rewind injector from {self.sequence} "
                f"to {sequence}")
        while self.sequence < sequence:
            self.step()
