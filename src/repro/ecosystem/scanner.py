"""Scanning the wild typosquatting ecosystem (paper Section 5.1).

The paper's pipeline: generate all DL-1 variations of the Alexa top list,
keep the registered ones ("ctypos"), collect their MX and A records, and
probe the SMTP endpoint zmap-style to classify mail support (Table 4).
The scanner here runs the same pipeline against the simulated Internet,
discovering — not assuming — the support categories, the MX
concentration, and the candidate set the honey campaign later mails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.typogen import TypoCandidate, TypoGenerator, registrable_domain
from repro.dnssim import Resolver
from repro.ecosystem.aggregates import ScanAggregates
from repro.ecosystem.internet import SimulatedInternet, SmtpSupport
from repro.smtpsim.transport import ConnectOutcome

__all__ = ["ScanResult", "EcosystemScan", "EcosystemScanner"]


@dataclass(frozen=True)
class ScanResult:
    """Everything the scanner learned about one ctypo."""

    domain: str
    target: str
    candidate: TypoCandidate
    mx_hosts: Tuple[str, ...]
    addresses: Tuple[str, ...]
    used_implicit_mx: bool
    support: SmtpSupport
    nameserver: Optional[str]
    whois_private: bool

    @property
    def primary_mx_domain(self) -> Optional[str]:
        """The registrable domain of the best-priority MX (Table 6 key).

        Uses the same public-suffix handling as ``split_domain``, so an
        MX at ``mx1.foo.co.uk`` groups under ``foo.co.uk`` — a naive
        last-two-labels split would misgroup it under ``co.uk``.
        """
        if not self.mx_hosts:
            return None
        return registrable_domain(self.mx_hosts[0])


@dataclass
class EcosystemScan:
    """A completed scan over the candidate typo space.

    The Table 4 / Table 6 counts live in streaming :class:`ScanAggregates`
    so they exist whether or not per-domain :class:`ScanResult` objects
    were retained.  Retention (the default for the in-memory scanner) is
    what the clustering and honey-campaign stages consume; the paper-scale
    streaming path switches it off.
    """

    aggregates: ScanAggregates = field(default_factory=ScanAggregates)
    results: List[ScanResult] = field(default_factory=list)
    retained: bool = True

    @property
    def generated_count(self) -> int:
        """gtypos enumerated."""
        return self.aggregates.generated_count

    @property
    def registered_count(self) -> int:
        """ctypos found registered."""
        return self.aggregates.registered_count

    def support_table(self) -> Dict[SmtpSupport, int]:
        """Table 4: count of ctypos per SMTP support category."""
        return self.aggregates.support_table()

    def support_percentages(self) -> Dict[SmtpSupport, float]:
        """Table 4 as percentages of all scanned ctypos."""
        return self.aggregates.support_percentages()

    def mx_domain_counts(self) -> Dict[str, int]:
        """How many ctypos each MX operator domain serves."""
        return dict(self.aggregates.mx_domain_counts)

    def _require_results(self, caller: str) -> None:
        if not self.retained:
            raise RuntimeError(
                f"{caller} needs per-domain results; this scan ran with "
                "retain_results=False (streaming aggregates only)")

    def accepting_results(self) -> List[ScanResult]:
        """The ctypos whose support class can accept mail."""
        self._require_results("accepting_results")
        return [r for r in self.results if r.support.can_accept_mail]


class EcosystemScanner:
    """Runs the §5.1 methodology against a :class:`SimulatedInternet`.

    ``probe_attempts`` models zmap-style repeat probing: a single timeout
    does not condemn a host; only a host that never answers is "no info".
    """

    def __init__(self, internet: SimulatedInternet,
                 probe_attempts: int = 3) -> None:
        self._internet = internet
        self._resolver = Resolver(internet.registry)
        self._generator = TypoGenerator()
        self.probe_attempts = probe_attempts

    # -- the full pipeline ------------------------------------------------------

    def scan(self, targets: Optional[Sequence[str]] = None,
             exclude: Sequence[str] = (),
             retain_results: bool = True) -> EcosystemScan:
        """Enumerate gtypos of ``targets``, keep ctypos, classify support.

        ``targets`` defaults to the whole simulated Alexa list; ``exclude``
        removes e.g. the study's own domains from consideration.  With
        ``retain_results=False`` only the streaming aggregates are kept —
        no per-domain objects survive the loop.
        """
        if targets is None:
            targets = [entry.domain for entry in self._internet.alexa]
        excluded = {d.lower() for d in exclude}
        scan = EcosystemScan(retained=retain_results)

        for target in targets:
            for candidate in self._generator.generate(target):
                scan.aggregates.add_generated()
                domain = candidate.domain
                if domain in excluded:
                    continue
                if not self._internet.registry.is_registered(domain):
                    continue
                result = self._scan_domain(candidate)
                self._fold(scan.aggregates, result)
                if retain_results:
                    scan.results.append(result)
        return scan

    def _fold(self, aggregates: ScanAggregates, result: ScanResult) -> None:
        """Fold one probed ctypo into the streaming aggregates."""
        truth = self._internet.ground_truth(result.domain)
        aggregates.add_result(
            target=result.target,
            owner_id=truth.owner_id if truth else result.domain,
            owner_type=truth.owner_type if truth else None,
            truth_support=truth.support if truth else result.support,
            observed_support=result.support,
            mx_domain=result.primary_mx_domain,
            used_implicit_mx=result.used_implicit_mx,
            whois_private=result.whois_private,
            track_owner_id=bool(truth) and truth.owner_type.value in (
                "bulk_squatter", "medium_squatter"))

    # -- per-domain probing --------------------------------------------------------

    def _scan_domain(self, candidate: TypoCandidate) -> ScanResult:
        domain = candidate.domain
        mx_hosts = tuple(self._resolver.resolve_mx(domain))
        direct_a = tuple(self._resolver.resolve_a(domain))

        registration = self._internet.registry.get(domain)
        nameserver = registration.nameserver if registration else None
        whois_record = self._internet.whois.lookup(domain)
        whois_private = bool(whois_record and whois_record.is_private)

        # RFC 5321: use MX; in its absence fall back to the A record.
        if mx_hosts:
            addresses: Tuple[str, ...] = tuple(
                address for host in mx_hosts
                for address in self._resolver.resolve_a(host))
            used_implicit = False
        else:
            addresses = direct_a
            used_implicit = True

        support = self._classify_support(mx_hosts, direct_a, addresses)
        return ScanResult(domain=domain, target=candidate.target,
                          candidate=candidate, mx_hosts=mx_hosts,
                          addresses=addresses,
                          used_implicit_mx=used_implicit and bool(direct_a),
                          support=support, nameserver=nameserver,
                          whois_private=whois_private)

    def _classify_support(self, mx_hosts: Tuple[str, ...],
                          direct_a: Tuple[str, ...],
                          addresses: Tuple[str, ...]) -> SmtpSupport:
        if not mx_hosts and not direct_a:
            return SmtpSupport.NO_DNS
        if not addresses:
            # an MX that resolves to nothing cannot be scanned
            return SmtpSupport.NO_INFO
        return self._probe(addresses[0])

    def _probe(self, ip: str) -> SmtpSupport:
        """zmap-style SMTP probe with retries."""
        network = self._internet.network
        refused = False
        for _ in range(self.probe_attempts):
            connection = network.connect(ip, port=25)
            if connection.outcome is ConnectOutcome.REFUSED:
                refused = True
                continue
            if connection.outcome in (ConnectOutcome.TIMEOUT,
                                      ConnectOutcome.NETWORK_ERROR,
                                      ConnectOutcome.OTHER_ERROR):
                continue
            return self._starttls_check(connection.server)
        return SmtpSupport.NO_EMAIL if refused else SmtpSupport.NO_INFO

    def _starttls_check(self, server) -> SmtpSupport:
        session = server.open_session()
        session.banner()
        ehlo = session.command("EHLO scanner.study.example")
        if not ehlo.is_success:
            return SmtpSupport.STARTTLS_ERRORS
        if "STARTTLS" not in ehlo.text:
            return SmtpSupport.PLAIN
        reply = session.command("STARTTLS")
        session.command("QUIT")
        if reply.code == 220:
            return SmtpSupport.STARTTLS_OK
        return SmtpSupport.STARTTLS_ERRORS
