"""
Domain-borrowing detection: a domain whose DNS never delegated to a CDN
but which that CDN's ingress nevertheless serves. The oracle is the
provider's non-hosted fingerprint: first a freshly generated random host
must reproduce it (the live baseline), then every candidate that does
NOT reproduce it is being served, i.e. borrowed.
"""

from __future__ import annotations

import logging
import string
from dataclasses import dataclass
from enum import Enum

from .core import (
    Evidence,
    Fqdn,
    HttpProbe,
    HttpResponseSummary,
    Scheme,
    Verdict,
    VerdictKind,
    derive_rng,
    parse_fqdn,
)
from .providers import ProviderProfile, match_fingerprint

logger = logging.getLogger(__name__)

BASELINE_HOST_LENGTH = 32


class BaselineMismatch(Exception):
    """The live edge no longer answers unknown hosts the way the DB says;
    the provider is excluded from the borrowing scan."""


class BorrowingTls(Enum):
    SHARED_CERTIFICATE = "shared_certificate"
    WILDCARD_CERTIFICATE = "wildcard_certificate"
    HTTP_ONLY = "http_only"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, slots=True)
class BorrowingCandidate:
    """One candidate probed at one provider's ingress: the answer, the
    outcome ``kind`` and the fingerprint it was judged by.

    ``probe`` and ``verdict`` are built from these on each access, so a
    scan that reads only ``kind`` never builds them."""

    domain: Fqdn
    provider: str
    ingress_ip: str
    response: HttpResponseSummary
    kind: VerdictKind
    fingerprint_id: str

    @property
    def probe(self) -> HttpProbe:
        """The plain-http probe that got ``response``: Host = the domain."""
        return HttpProbe(target_ip=self.ingress_ip, scheme=Scheme.HTTP, host_header=self.domain)

    @property
    def verdict(self) -> Verdict:
        evidence = Evidence(
            "borrowing-probe",
            f"host={self.domain} at {self.provider} ingress {self.ingress_ip}",
            probe=self.probe,
            response=self.response,
            fingerprint_id=self.fingerprint_id,
        )
        return Verdict(self.kind, (evidence,))


def random_baseline_host(seed: int, provider: str) -> Fqdn:
    """32 random characters under the reserved .invalid TLD, so a
    live-mode accident can never land on a real domain."""
    rng = derive_rng(seed, "baseline", provider)
    alphabet = string.ascii_lowercase + string.digits
    label = "".join(rng.choice(alphabet) for _ in range(BASELINE_HOST_LENGTH))
    return parse_fqdn(f"{label}.invalid")


def probe_baseline(profile: ProviderProfile, ingress_ip: str, transport, seed: int = 0) -> HttpResponseSummary:
    """Probe a random non-existent host at a representative ingress and
    require the answer to match the DB's non-hosted fingerprint."""
    if profile.nonhosted_fp is None:
        raise ValueError(f"{profile.name}: no non-hosted fingerprint to verify against")
    host = random_baseline_host(seed, profile.name)
    response = transport.probe(HttpProbe(target_ip=ingress_ip, scheme=Scheme.HTTP, host_header=host))
    if not match_fingerprint(profile.nonhosted_fp, http=response):
        raise BaselineMismatch(
            f"{profile.name}: random host {host} answered "
            f"{response.failure.value if response.failure else response.status}, "
            f"which does not match fingerprint {profile.nonhosted_fp.id}"
        )
    return response


def find_borrowing(
    domains: list[Fqdn],
    profile: ProviderProfile,
    ingress_ip: str,
    transport,
) -> list[BorrowingCandidate]:
    """Probe each domain as the Host header at one representative ingress.
    A concrete response that does not match the non-hosted fingerprint
    means the edge serves the domain: borrowing.

    The domains go to the transport as one batch, ``probe_hosts``, which
    counts one probe per domain. The mock answers every domain the edge
    does not serve with one shared response object, so each response is
    judged only when it is not the object judged just before.

    Returns one candidate per domain, in order, each carrying its outcome
    ``kind``; its probe and evidence are built only when a caller reads
    ``probe`` or ``verdict``. The domains must be non-hosted, and are not
    checked here: the scan's crawl admits only names whose DNS attributes
    to no provider."""
    fp = profile.nonhosted_fp
    if fp is None:
        raise ValueError(f"{profile.name}: baseline-first ordering violated (no fingerprint)")
    responses = transport.probe_hosts(ingress_ip, domains)
    out = []
    judged = None
    for domain, response in zip(domains, responses):
        if response is not judged:
            judged = response
            if response.failure is not None and not fp.no_response:
                kind = VerdictKind.INCONCLUSIVE
            elif match_fingerprint(fp, http=response):
                kind = VerdictKind.NOT_VULNERABLE
            elif response.status is not None:
                kind = VerdictKind.VULNERABLE
            else:
                kind = VerdictKind.INCONCLUSIVE
        out.append(BorrowingCandidate(domain, profile.name, ingress_ip, response, kind, fp.id))
    return out


def classify_borrowing_tls(candidate: BorrowingCandidate, transport) -> BorrowingTls:
    """For a borrowing-vulnerable candidate, classify how the edge serves
    it over TLS: another tenant's wildcard certificate covering the name,
    the provider's default shared certificate, or plain HTTP only."""
    probe = HttpProbe(
        target_ip=candidate.ingress_ip,
        scheme=Scheme.HTTPS,
        host_header=candidate.domain,
        sni=candidate.domain,
    )
    response = transport.probe(probe)
    if response.failure is None and response.status is not None:
        cert = response.tls_cert_name or ""
        if cert.startswith("*.") and _wildcard_covers(cert, str(candidate.domain)):
            return BorrowingTls.WILDCARD_CERTIFICATE
        return BorrowingTls.SHARED_CERTIFICATE
    http_side = candidate.response
    if http_side.failure is None and http_side.status is not None:
        return BorrowingTls.HTTP_ONLY
    retry = transport.probe(
        HttpProbe(target_ip=candidate.ingress_ip, scheme=Scheme.HTTP, host_header=candidate.domain)
    )
    if retry.failure is None:
        return BorrowingTls.HTTP_ONLY
    return BorrowingTls.INCONCLUSIVE


def _wildcard_covers(pattern: str, name: str) -> bool:
    base = pattern[1:]  # "*.x.y" -> ".x.y"
    return name.endswith(base) and "." not in name[: -len(base)]
