"""
Domain-takeover detection: recognize dangling domains through
service-discontinued fingerprints (DNS stage first, HTTP stage only on a
DNS miss), enumerate feasible takeover paths including the
misconnection (W1), shared-random-subdomain (W2) and Multi-CDN
shared-CNAME routes, and run the origin-IP-exposure check for
residual-resolution providers. ``judge_provider`` folds the checks of a
provider's records into its verdict.

DNS-stage fingerprints describe the assigned subdomain's behavior after
service termination, so they are evaluated against the terminal
observation: the A answer of the last CNAME chain element, made once per
record and kept on the finding. The crawl's answer followed the chain to
that name and holds its rcode (``DnsObservation.end_rcode``), so the
terminal is read from it; only an end the crawl could not see is
resolved again.
"""

from __future__ import annotations

import logging
from enum import Enum
from typing import Optional

from .checker import HostedDomainRecord
from .core import (
    DnsObservation,
    DomainSyntaxError,
    Evidence,
    Fqdn,
    HttpProbe,
    Rcode,
    Scheme,
    TransportFailure,
    Verdict,
    parse_fqdn,
    record,
)
from .providers import Fingerprint, ProviderDb, ProviderProfile, match_dns, match_http
from .simnet import ScenarioError, SimulatedInternet, VerificationFailed
from .transport import RRType

logger = logging.getLogger(__name__)


class DanglingStage(Enum):
    DNS_STAGE = "dns_stage"
    HTTP_STAGE = "http_stage"


class TakeoverKind(Enum):
    NO_VERIFICATION = "no_verification"
    FLAWED_W1 = "flawed_w1"  # misconnection: custom domain binds via the fixed subdomain
    FLAWED_W2 = "flawed_w2"  # domain-deterministic assigned subdomain
    MULTI_CDN_SHARED_CNAME = "multi_cdn_shared_cname"


class ExposurePrecondition(Exception):
    """The record does not qualify for the origin-exposure check."""


class DanglingProbeFailure(Exception):
    """A fingerprint could not be judged: the HTTP-stage probe failed or had
    no address to go to, or the terminal name is no host name to query or
    got no answer (a timeout or SERVFAIL) that some fingerprint matched. The
    record stays Inconclusive."""


@record
class TakeoverPath:
    """A takeover route. ``validated``: the simulated world's registration
    outcome; None in live mode, or when the world cannot attempt it (no
    attacker origin, or no such provider)."""

    kind: TakeoverKind
    via_provider: str
    rationale: str
    validated: Optional[bool] = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "via_provider": self.via_provider,
            "rationale": self.rationale,
            "validated": self.validated,
        }


@record
class DanglingFinding:
    fqdn: Fqdn
    provider: str
    fingerprint: Fingerprint  # the service-discontinued fingerprint that matched
    stage: DanglingStage
    matched_cname: str
    # the DNS stage's answer for the last chain element; None when no
    # fingerprint source has a DNS signal
    terminal: Optional[DnsObservation] = None
    evidence: tuple[Evidence, ...] = ()

    @property
    def matched_fp(self) -> str:
        return self.fingerprint.id


def _http_stage_probe(record: HostedDomainRecord, transport):
    """HTTPS with SNI = Host = fqdn, falling back to plain HTTP when the
    edge has no certificate to offer for the dead name. The fallback is
    the crawl recheck's question, so the recheck's answer is reused. A
    record whose chain ends without an address has no edge to ask."""
    ips = record.observation.a_records
    if not ips:
        raise DanglingProbeFailure(f"{record.fqdn}: no address for the HTTP-stage probe")
    probe = HttpProbe.request(ips[0], Scheme.HTTPS, record.fqdn)
    response = transport.probe(probe)
    if response.failure is TransportFailure.TLS_ERROR:
        probe = HttpProbe.request(ips[0], Scheme.HTTP, record.fqdn)
        response = next((ev.response for ev in record.evidence if ev.probe == probe), None)
        if response is None:
            response = transport.probe(probe)
    return probe, response


def terminal_answer(observation: DnsObservation, end: Fqdn, transport) -> DnsObservation:
    """The A answer for ``end``, the last name of ``observation``'s chain.
    The observation followed the chain to it, so when it knows that name's
    rcode the answer is read from it; only an unknown end is resolved."""
    rcode = observation.end_rcode
    if rcode is None:
        return transport.resolve(end, RRType.A)
    return DnsObservation(fqdn=end, a_records=observation.a_records, rcode=rcode)


def detect_dangling(
    record: HostedDomainRecord,
    transport,
    db: ProviderDb,
) -> Optional[DanglingFinding]:
    """Match the record against service-discontinued fingerprints.

    The hosting provider's own fingerprint applies first. When another
    provider's sharing edge regenerates this record's CNAME target (the
    Multi-CDN namespace case), that provider's fingerprint applies too;
    without it, a terminated Multi-CDN service hiding in the host
    provider's namespace would be invisible.

    Returns None for healthy records: every fingerprint was judged
    against an answer and none matched. Raises LookupError when no
    fingerprint source exists at all, and DanglingProbeFailure when some
    fingerprint could not be judged, so the caller reports Inconclusive
    rather than guessing.
    """
    profile = db.by_name[record.provider]
    sources: list[tuple[str, Fingerprint]] = []
    if profile.discontinued_fp is not None:
        sources.append((record.provider, profile.discontinued_fp))
    for other, edge in db.edges_into(record.provider):
        if other.discontinued_fp is None:
            continue
        if edge.expand(str(record.fqdn)) == record.matched_cname:
            sources.append((other.name, other.discontinued_fp))
    if not sources:
        raise LookupError(f"{record.provider}: no service-discontinued fingerprint")

    terminal: Optional[DnsObservation] = None

    def found(stage: DanglingStage, fp: Fingerprint, evidence: Evidence) -> DanglingFinding:
        return DanglingFinding(
            fqdn=record.fqdn,
            provider=record.provider,
            fingerprint=fp,
            stage=stage,
            matched_cname=record.matched_cname,
            terminal=terminal,
            evidence=(evidence,),
        )

    for owner, fp in sources:
        if fp.dns_signal is None:
            continue
        if terminal is None:
            # the records "behind" the assigned subdomain, where
            # discontinuation signals live
            last = record.observation.cname_chain[-1]
            try:
                end = parse_fqdn(last)
            except DomainSyntaxError as err:
                raise DanglingProbeFailure(f"{record.fqdn}: terminal {last} is not a host name ({err})") from None
            terminal = terminal_answer(record.observation, end, transport)
        if match_dns(fp, terminal):
            return found(DanglingStage.DNS_STAGE, fp, Evidence(
                "dns-stage",
                f"terminal resolution of {record.matched_cname} matches {fp.id} ({owner})",
                observation=terminal,
                fingerprint_id=fp.id,
            ))

    http_sources = [(owner, fp) for owner, fp in sources if fp.needs_http]
    if http_sources:
        probe, response = _http_stage_probe(record, transport)
        if response.failure is not None:
            raise DanglingProbeFailure(f"{record.fqdn}: HTTP-stage probe failed ({response.failure.value})")
        for owner, fp in http_sources:
            if match_http(fp, response):
                return found(DanglingStage.HTTP_STAGE, fp, Evidence(
                    "http-stage",
                    f"edge response matches {fp.id} ({owner})",
                    probe=probe,
                    response=response,
                    fingerprint_id=fp.id,
                ))
    if terminal is not None and terminal.rcode in (Rcode.SERVFAIL, Rcode.TIMEOUT):
        # no answer, so the DNS-stage fingerprints that missed were not judged
        raise DanglingProbeFailure(f"{record.fqdn}: terminal {terminal.fqdn} got no answer ({terminal.rcode.value})")
    return None


def judge_provider(profile: ProviderProfile, scanned: int, undecided: int, taken: list[str]) -> Verdict:
    """A provider's takeover verdict from the dangling checks of its
    ``scanned`` hosted records, ``undecided`` of which stayed Inconclusive,
    and ``taken``, the dangling domains with a validated (or, in live
    mode, unvalidated) takeover path through this provider. A Multi-CDN
    path credits the provider whose edge regenerates the CNAME, not the
    record's host. Vulnerable on any such domain; otherwise not
    vulnerable when the provider has a service-discontinued fingerprint
    and at least one record was decided, and inconclusive when not."""
    if taken:
        domains = ", ".join(sorted(set(taken)))
        return Verdict.vulnerable((Evidence("takeover", f"validated takeover path(s) for: {domains}"),))
    if profile.discontinued_fp is None:
        return Verdict.inconclusive((Evidence("takeover", "no service-discontinued fingerprint for this provider"),))
    if scanned == 0:
        return Verdict.inconclusive((Evidence("takeover", "no hosted domains observed"),))
    if undecided == scanned:
        return Verdict.inconclusive((Evidence("takeover", "every hosted record left the dangling check undecided"),))
    return Verdict.not_vulnerable((Evidence("takeover", "no dangling domain with a feasible takeover path"),))


# the path through the hosting provider itself, by its effective verification
_OWN_PATHS = {
    "none": (TakeoverKind.NO_VERIFICATION, "provider performs no effective domain verification"),
    "w1_misconnection": (
        TakeoverKind.FLAWED_W1,
        "misconnection: the custom domain binds via the fixed subdomain "
        "even though the attacker is assigned a fresh name",
    ),
    "w2_shared_random": (
        TakeoverKind.FLAWED_W2,
        "assigned subdomain is a deterministic function of the custom domain: "
        "any account regenerates the victim's name",
    ),
}


def enumerate_takeover_paths(
    finding: DanglingFinding, db: ProviderDb, simnet: Optional[SimulatedInternet] = None
) -> list[TakeoverPath]:
    """Assemble takeover paths from provider knowledge. Given the
    simulated world, each path is additionally validated end to end:
    register the domain as an attacker and confirm the edge serves it.
    Each validation runs in its own ``registration_scope`` and asks the
    world directly, never the scan's transport, so the world is left as
    it was found and the scan's counts hold only what a live scan sends.
    An empty list means dangling-only: the fingerprint matched but no
    automated path is known."""
    hosting = db.by_name[finding.provider]

    def path(kind: TakeoverKind, via_provider: str, rationale: str) -> TakeoverPath:
        validated = None if simnet is None else _validate_path(kind, via_provider, finding, simnet)
        return TakeoverPath(kind, via_provider, rationale, validated)

    paths: list[TakeoverPath] = []
    own = _OWN_PATHS.get(hosting.effective_verification)
    if own is not None:
        paths.append(path(own[0], hosting.name, own[1]))
    for other, edge in db.edges_into(finding.provider):
        expanded = edge.expand(str(finding.fqdn))
        if expanded is not None and expanded == finding.matched_cname:
            paths.append(path(TakeoverKind.MULTI_CDN_SHARED_CNAME, other.name, (
                f"{other.name} regenerates {expanded} for this custom domain, "
                f"bypassing {finding.provider}'s verification"
            )))
    return paths


def _validate_path(
    kind: TakeoverKind, via_provider: str, finding: DanglingFinding, simnet: SimulatedInternet
) -> Optional[bool]:
    domain = str(finding.fqdn)
    with simnet.registration_scope():
        try:
            assigned = simnet.attacker_register(via_provider, domain, "attacker-account-1")
        except VerificationFailed as blocked:
            logger.info("registration blocked: %s", blocked)
            return False
        except ScenarioError as unattempted:
            logger.info("registration not attempted: %s", unattempted)
            return None
        if kind is TakeoverKind.FLAWED_W2:
            second = simnet.attacker_register(via_provider, domain, "attacker-account-2")
            if second != assigned:
                return False
        if kind is TakeoverKind.MULTI_CDN_SHARED_CNAME and assigned != finding.matched_cname:
            return False
        obs = simnet.serve_dns(finding.fqdn)
        if not obs.a_records:
            return False
        response = simnet.serve_http(HttpProbe.request(obs.a_records[0], Scheme.HTTP, finding.fqdn))
        return response.failure is None and response.ok


def check_origin_exposure(
    fqdn: Fqdn, observation: DnsObservation, transport, known: tuple[Evidence, ...] = ()
) -> Verdict:
    """Residual-resolution check: probe the single A record once with the
    domain as Host and once with the bare IP literal. Equal bodies mean
    the address serves the site without its name: the origin is exposed.
    A probe that ``known`` (such as a hosted record's crawl recheck)
    already asked in the same world keeps that answer instead."""
    if len(observation.a_records) != 1 or observation.cname_chain:
        raise ExposurePrecondition(
            f"{fqdn}: needs exactly one A record and no CNAME chain "
            f"(has {len(observation.a_records)} records, chain of {len(observation.cname_chain)})"
        )
    ip = observation.a_records[0]
    probe = HttpProbe(target_ip=ip, scheme=Scheme.HTTP, host_header=fqdn)
    named = next((ev.response for ev in known if ev.probe == probe), None)
    if named is None:
        named = transport.probe(probe)
    literal = transport.probe(HttpProbe(target_ip=ip, scheme=Scheme.HTTP, host_header=parse_fqdn(ip)))
    named_ev = Evidence("host-named", f"host={fqdn} at {ip}", response=named)
    literal_ev = Evidence("host-literal", f"host={ip} at {ip}", response=literal)
    if named.failure is not None or literal.failure is not None:
        return Verdict.inconclusive((named_ev, literal_ev))
    if named.ok and literal.ok and named.body_hash == literal.body_hash:
        return Verdict.vulnerable((named_ev, literal_ev, Evidence("exposure", "identical bodies with and without the hostname")))
    return Verdict.not_vulnerable((named_ev, literal_ev))
