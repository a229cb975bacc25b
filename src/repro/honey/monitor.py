"""Access monitoring for honey artifacts (paper §7.1's logging side).

The researchers logged: tracking-pixel fetches (email opened in an
image-loading client), document-share views, shell login attempts, and
email-account logins.  Every event carries a timestamp and a coarse
source location, because the paper leaned on both — multi-hour lags and
multi-city accesses — to argue the reads were human.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["AccessKind", "AccessEvent", "AccessMonitor"]


class AccessKind(enum.Enum):
    """The monitorable access channels of the honey artifacts."""
    PIXEL_FETCH = "pixel_fetch"           # email opened with images on
    DOCUMENT_VIEW = "document_view"       # doc-share link followed
    SHELL_LOGIN = "shell_login"           # ssh attempt on the honey box
    EMAIL_LOGIN = "email_login"           # login to the honey mail account
    TOKEN_PING = "token_ping"             # DOCX phoned home


@dataclass(frozen=True)
class AccessEvent:
    kind: AccessKind
    artifact_id: str       # pixel_id / token_id / credential_id
    timestamp: float       # seconds since the honey emails were sent
    source_location: str   # coarse geo, e.g. "Caracas, VE"
    domain: str            # the honey-mailed domain this artifact maps to


class AccessMonitor:
    """Collects and queries access events."""

    def __init__(self) -> None:
        self.events: List[AccessEvent] = []

    def record(self, event: AccessEvent) -> None:
        """Log one access event."""
        self.events.append(event)

    def domains_with_reads(self) -> List[str]:
        """Domains where the email was demonstrably opened."""
        return sorted({e.domain for e in self.events
                       if e.kind is AccessKind.PIXEL_FETCH})

    def domains_with_token_access(self) -> List[str]:
        """Domains where a bait credential/document was actually used."""
        bait_kinds = (AccessKind.DOCUMENT_VIEW, AccessKind.SHELL_LOGIN,
                      AccessKind.EMAIL_LOGIN, AccessKind.TOKEN_PING)
        return sorted({e.domain for e in self.events if e.kind in bait_kinds})

    def first_access_lag(self, domain: str) -> Optional[float]:
        """Seconds from send to the first access at ``domain``, or None."""
        lags = [e.timestamp for e in self.events if e.domain == domain]
        return min(lags) if lags else None

    def access_locations(self, domain: str) -> List[str]:
        """Coarse source locations of every access at ``domain``."""
        return [e.source_location for e in self.events if e.domain == domain]

    def __len__(self) -> int:
        return len(self.events)
