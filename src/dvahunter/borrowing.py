"""
Domain-borrowing detection: a domain whose DNS never delegated to a CDN
but which that CDN's ingress nevertheless serves. The oracle is the
provider's non-hosted fingerprint: first a freshly generated random host
must reproduce it (the live baseline), then every candidate that does
NOT reproduce it is being served, i.e. borrowed.
"""

from __future__ import annotations

from enum import Enum

from .core import (
    Evidence,
    Fqdn,
    HttpProbe,
    HttpResponseSummary,
    Scheme,
    Verdict,
    derive_rng,
    parse_fqdn,
    random_label,
)
from .providers import ProviderProfile, match_fingerprint

BASELINE_HOST_LENGTH = 32


class BaselineMismatch(Exception):
    """The live edge no longer answers unknown hosts the way the DB says;
    the provider is excluded from the borrowing scan."""


class BorrowingTls(Enum):
    SHARED_CERTIFICATE = "shared_certificate"
    WILDCARD_CERTIFICATE = "wildcard_certificate"
    HTTP_ONLY = "http_only"


def random_baseline_host(seed: int, provider: str) -> Fqdn:
    """32 random characters under the reserved .invalid TLD, so a
    live-mode accident can never land on a real domain."""
    rng = derive_rng(seed, "baseline", provider)
    return parse_fqdn(f"{random_label(rng, BASELINE_HOST_LENGTH)}.invalid")


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
) -> Verdict:
    """The provider's borrowing verdict: probe each domain as the Host
    header at one representative ingress. A concrete response that does
    not match the non-hosted fingerprint means the edge serves the
    domain: borrowing.

    The domains go to the transport as one plain-http ``probe_batch`` of
    (domain, "/") requests. The mock answers every domain the edge does
    not serve with one shared response object, so each response is
    judged only when it is not the object judged just before.

    Vulnerable carries one ``borrowing-probe`` evidence per hit, in domain
    order; Not vulnerable needs at least one answer that matched the
    fingerprint; anything else is Inconclusive. The domains must be
    non-hosted, and are not checked here: the scan's crawl admits only
    names whose DNS attributes to no provider."""
    fp = profile.nonhosted_fp
    if fp is None:
        raise ValueError(f"{profile.name}: baseline-first ordering violated (no fingerprint)")
    responses = transport.probe_batch(ingress_ip, Scheme.HTTP, [(domain, "/") for domain in domains])
    hits = []
    matched = False
    judged = None
    for domain, response in zip(domains, responses):
        if response is not judged:
            judged = response
            served = False
            if response.failure is None or fp.no_response:
                if match_fingerprint(fp, http=response):
                    matched = True
                else:
                    served = response.status is not None
        if served:
            hits.append(Evidence(
                "borrowing-probe",
                f"host={domain} at {profile.name} ingress {ingress_ip}",
                probe=HttpProbe(target_ip=ingress_ip, scheme=Scheme.HTTP, host_header=domain),
                response=response,
                fingerprint_id=fp.id,
            ))
    if hits:
        return Verdict.vulnerable(hits)
    if matched:
        return Verdict.not_vulnerable(
            (Evidence("borrowing", f"{len(domains)} candidate(s) all matched the non-hosted fingerprint"),)
        )
    return Verdict.inconclusive((Evidence("borrowing", "no candidate produced a definitive answer"),))


def classify_borrowing_tls(hit: Evidence, transport) -> BorrowingTls:
    """For one ``borrowing-probe`` evidence of a Vulnerable verdict, classify
    how the edge serves the domain over TLS: another tenant's wildcard
    certificate covering the name, the provider's default shared
    certificate, or plain HTTP only. The hit's plain-http probe got a
    status, so a TLS probe that gets none means plain HTTP only."""
    domain = hit.probe.host_header
    response = transport.probe(HttpProbe.request(hit.probe.target_ip, Scheme.HTTPS, domain))
    if response.status is None:
        return BorrowingTls.HTTP_ONLY
    cert = response.tls_cert_name or ""
    if cert.startswith("*.") and _wildcard_covers(cert, str(domain)):
        return BorrowingTls.WILDCARD_CERTIFICATE
    return BorrowingTls.SHARED_CERTIFICATE


def _wildcard_covers(pattern: str, name: str) -> bool:
    base = pattern[1:].lower()  # "*.X.y" -> ".x.y": names compare without case (RFC 4343 §3)
    return name.endswith(base) and "." not in name[: -len(base)]
