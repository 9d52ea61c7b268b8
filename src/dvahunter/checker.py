"""
CDN checking: crawls DNS records for confirmed FQDNs, identifies the
CDN-hosted ones (with an HTTP recheck against non-hosted fingerprints),
and harvests deduplicated ingress node IPs per provider with per-city
representatives.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .core import DnsObservation, Evidence, Fqdn, HttpProbe, Scheme, derive_rng, record
from .providers import CdnMatch, ProviderDb, identify_cdn, match_fingerprint
from .transport import RRType

logger = logging.getLogger(__name__)


class Recheck(Enum):
    CONFIRMED = "confirmed"
    REFUTED_BY_FINGERPRINT = "refuted_by_fingerprint"
    UNCHECKED = "unchecked"


class Liveness(Enum):
    ALIVE = "alive"
    DEAD = "dead"
    DEGRADED = "degraded"


@record
class HostedDomainRecord:
    fqdn: Fqdn
    provider: str
    matched_suffix: str
    matched_cname: str
    observation: DnsObservation
    recheck: Recheck
    evidence: tuple[Evidence, ...] = ()


@dataclass
class IngressNodeSet:
    provider: str
    nodes: list[tuple[str, Optional[str], Liveness]] = field(default_factory=list)  # (ip, city, liveness)
    representatives: list[str] = field(default_factory=list)  # one alive IP per city
    liveness_is_weak: bool = False  # no provider-identifying header known


def crawl_records(targets: list[Fqdn], transport) -> list[DnsObservation]:
    """One ``RRType.ALL`` observation per target, in input order."""
    return [transport.resolve(name, RRType.ALL) for name in targets]


def discover_hosted(
    observations: list[DnsObservation],
    db: ProviderDb,
    transport,
) -> list[HostedDomainRecord]:
    """Match observations against assigned-subdomain suffixes, then
    recheck each hit over HTTP: a response matching the provider's
    non-hosted fingerprint refutes the record."""
    records = []
    for obs in observations:
        match = identify_cdn(obs, db)
        if match is None:
            continue
        records.append(_recheck(obs, match, db, transport))
    return records


def _recheck(obs: DnsObservation, match: CdnMatch, db: ProviderDb, transport) -> HostedDomainRecord:
    fp = db.by_name[match.provider].nonhosted_fp
    state, probe, response, fp_id = Recheck.UNCHECKED, None, None, None
    if fp is None:
        detail = "provider has no non-hosted fingerprint"
    elif not obs.a_records:
        detail = "no address to probe"
    else:
        probe = HttpProbe(target_ip=obs.a_records[0], scheme=Scheme.HTTP, host_header=obs.fqdn)
        response = transport.probe(probe)
        if response.failure is not None:
            detail = f"recheck probe failed: {response.failure.value}"
        elif fp.no_response:
            # a concrete answer from a silent-by-default edge cannot refute
            state, detail = Recheck.CONFIRMED, "edge answered; silent-edge fingerprint not matched"
        elif match_fingerprint(fp, http=response):
            state, detail, fp_id = Recheck.REFUTED_BY_FINGERPRINT, "response matches the non-hosted fingerprint", fp.id
        else:
            state, detail = Recheck.CONFIRMED, "response does not match the non-hosted fingerprint"
    return HostedDomainRecord(
        fqdn=obs.fqdn,
        provider=match.provider,
        matched_suffix=match.matched_suffix,
        matched_cname=match.matched_cname,
        observation=obs,
        recheck=state,
        evidence=(Evidence("recheck", detail, probe=probe, response=response, fingerprint_id=fp_id),),
    )


def collect_ingress(
    hosted: list[HostedDomainRecord],
    geo: Callable[[str], Optional[str]],
    transport,
    db: ProviderDb,
    seed: int = 0,
) -> dict[str, IngressNodeSet]:
    """Union the A records of each provider's hosted domains, filter by a
    liveness probe (which must carry the provider-identifying header when
    the DB knows one), group by city, and pick one seeded-random
    representative per city. A provider with no live, placeable node
    keeps its probed nodes and gets no representatives. A node whose
    liveness question the crawl recheck already asked (same IP, same
    Host) keeps that answer instead of a second probe."""
    rechecked = {e.probe: e.response for record in hosted for e in record.evidence if e.probe is not None}
    by_provider: dict[str, dict[str, Fqdn]] = {}
    for record in hosted:
        if record.recheck is Recheck.REFUTED_BY_FINGERPRINT:
            continue
        bucket = by_provider.setdefault(record.provider, {})
        for ip in record.observation.a_records:
            bucket.setdefault(ip, record.fqdn)

    out: dict[str, IngressNodeSet] = {}
    for provider in sorted(by_provider):
        profile = db.by_name[provider]
        nodes = IngressNodeSet(provider=provider, liveness_is_weak=profile.liveness_header is None)
        for ip in sorted(by_provider[provider]):
            contributor = by_provider[provider][ip]
            probe = HttpProbe(target_ip=ip, scheme=Scheme.HTTP, host_header=contributor)
            response = rechecked.get(probe)
            if response is None:
                response = transport.probe(probe)
            if response.failure is not None:
                state = Liveness.DEAD
            elif profile.liveness_header is not None:
                name, needle = profile.liveness_header
                value = response.header(name)
                state = Liveness.ALIVE if value is not None and needle in value else Liveness.DEGRADED
            else:
                state = Liveness.ALIVE
            nodes.nodes.append((ip, geo(ip), state))
        alive_by_city: dict[str, list[str]] = {}
        for ip, city, state in nodes.nodes:
            # a node the geo source cannot place has no city bucket to
            # represent (typical for stray customer-origin addresses)
            if state is Liveness.ALIVE and city is not None:
                alive_by_city.setdefault(city, []).append(ip)
        if not alive_by_city:
            logger.warning("%s: no live ingress nodes; provider left without representatives", provider)
            out[provider] = nodes
            continue
        rng = derive_rng(seed, "ingress-representative", provider)
        for city in sorted(alive_by_city):
            nodes.representatives.append(rng.choice(sorted(alive_by_city[city])))
        out[provider] = nodes
    return out
