"""
Per-provider detection knowledge: assigned-subdomain suffixes,
non-hosted and service-discontinued fingerprints, Multi-CDN sharing
edges, and registration/verification metadata.

The knowledge base is data, not code: the repository ships a default
JSON file covering 45 providers, and researchers can extend coverage by
editing that file. See data/providers.json for the reference instance of
the schema documented in load_provider_db.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Optional

from .core import DnsObservation, HttpResponseSummary, Rcode, read_text, record


class ProviderDbError(ValueError):
    """Base class for provider-DB load failures."""


class SchemaError(ProviderDbError):
    pass


class DuplicateSuffixError(ProviderDbError):
    pass


class DanglingShareEdgeError(ProviderDbError):
    pass


class MissingEvidenceError(ValueError):
    """A fingerprint needs HTTP or DNS evidence that was not supplied."""


# what registration experiments established about a provider's domain
# verification: metadata.verification_effective takes one of these
EFFECTIVE_VERIFICATIONS = ("none", "checked", "unknown", "w1_misconnection", "w2_shared_random")


class DnsSignalKind(Enum):
    NXDOMAIN = "nxdomain"
    SERVFAIL = "servfail"
    RESOLVES_TO = "resolves_to"
    SINGLE_A_RECORD = "single_a_record"


@record
class DnsSignal:
    kind: DnsSignalKind
    ip: Optional[str] = None  # RESOLVES_TO only


@record
class Fingerprint:
    """A matchable signature over HTTP status/header/body and/or DNS
    response signals. All present fields must match (conjunction).

    ``no_response`` marks providers that answer unknown hosts with
    silence: the expected "response" is a transport failure. It cannot be
    combined with the other HTTP fields. A body phrase may not be empty:
    every answer, a failed one included, contains the empty phrase.
    """

    id: str
    status: Optional[int] = None
    header: Optional[tuple[str, str]] = None  # (name, contains)
    body_contains: Optional[bytes] = None
    dns_signal: Optional[DnsSignal] = None
    no_response: bool = False
    # which evidence side a match needs; derived from the fields above
    needs_http: bool = field(init=False, compare=False, repr=False)
    needs_dns: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        http_fields = any(f is not None for f in (self.status, self.header, self.body_contains))
        if not self.no_response and not http_fields and self.dns_signal is None:
            raise SchemaError(f"fingerprint {self.id}: no matchable field")
        if self.no_response and http_fields:
            raise SchemaError(f"fingerprint {self.id}: no_response excludes other HTTP fields")
        if self.body_contains == b"":
            raise SchemaError(f"fingerprint {self.id}: an empty body_contains matches every answer")
        object.__setattr__(self, "needs_http", self.no_response or http_fields)
        object.__setattr__(self, "needs_dns", self.dns_signal is not None)


@record
class ShareEdge:
    """Infrastructure-sharing edge: this provider fulfils service over
    ``provider``'s network. ``template`` regenerates the assigned
    subdomain from a custom domain when that generation is
    domain-deterministic (the takeover-relevant case); None for edges
    that only matter as annotations (e.g. shared-certificate reuse)."""

    provider: str
    template: Optional[str] = None
    note: str = ""

    def expand(self, domain: str) -> Optional[str]:
        if self.template is None:
            return None
        return self.template.replace("{domain}", domain)


@dataclass(frozen=True)
class ProviderProfile:
    name: str
    assigned_suffixes: tuple[str, ...]
    nonhosted_fp: Optional[Fingerprint] = None
    discontinued_fp: Optional[Fingerprint] = None
    shares_infra_of: tuple[ShareEdge, ...] = ()
    liveness_header: Optional[tuple[str, str]] = None  # (name, contains)
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.assigned_suffixes and not self.shares_infra_of:
            raise SchemaError(f"{self.name}: needs assigned suffixes or sharing edges")
        for suffix in self.assigned_suffixes:
            if not suffix.startswith(".") or suffix != suffix.lower():
                raise SchemaError(f"{self.name}: bad suffix {suffix!r} (must be lowercase, dot-prefixed)")

    @property
    def effective_verification(self) -> str:
        """What registration experiments established about this provider's
        domain verification: one of EFFECTIVE_VERIFICATIONS."""
        return str(self.metadata.get("verification_effective", "unknown"))


class ProviderDb:
    """Loaded, validated provider knowledge with a longest-suffix index."""

    def __init__(self, providers: list[ProviderProfile]):
        self.providers: tuple[ProviderProfile, ...] = tuple(sorted(providers, key=lambda p: p.name))
        self.by_name: dict[str, ProviderProfile] = {}
        self.suffix_index: dict[str, str] = {}
        edges_into: dict[str, list[tuple[ProviderProfile, ShareEdge]]] = {}
        for profile in self.providers:
            if profile.name in self.by_name:
                raise SchemaError(f"duplicate provider name {profile.name}")
            self.by_name[profile.name] = profile
        for profile in self.providers:
            for suffix in profile.assigned_suffixes:
                if suffix in self.suffix_index:
                    raise DuplicateSuffixError(
                        f"suffix {suffix} claimed by both {self.suffix_index[suffix]} and {profile.name}"
                    )
                self.suffix_index[suffix] = profile.name
            for edge in profile.shares_infra_of:
                if edge.provider not in self.by_name:
                    raise DanglingShareEdgeError(f"{profile.name}: sharing edge to unknown provider {edge.provider}")
                if edge.provider != profile.name:
                    edges_into.setdefault(edge.provider, []).append((profile, edge))
        self._edges_into = {name: tuple(edges) for name, edges in edges_into.items()}

    def __len__(self) -> int:
        return len(self.providers)

    def edges_into(self, provider: str) -> tuple[tuple[ProviderProfile, ShareEdge], ...]:
        """All (other provider, edge) pairs whose edge targets ``provider``,
        in provider-name order: the stored tuple, not a copy."""
        return self._edges_into.get(provider, ())


@record
class CdnMatch:
    provider: str
    matched_suffix: str
    matched_cname: str


def _parse_fingerprint(raw: Any, fp_id: str) -> Fingerprint:
    if not isinstance(raw, dict):
        raise SchemaError(f"fingerprint {fp_id}: expected object, got {type(raw).__name__}")
    header = None
    if raw.get("header") is not None:
        h = raw["header"]
        if not isinstance(h, dict) or "name" not in h or "contains" not in h:
            raise SchemaError(f"fingerprint {fp_id}: header needs name/contains")
        header = (str(h["name"]), str(h["contains"]))
    dns_signal = None
    if raw.get("dns_signal") is not None:
        sig = raw["dns_signal"]
        if isinstance(sig, str):
            try:
                dns_signal = DnsSignal(DnsSignalKind(sig))
            except ValueError:
                raise SchemaError(f"fingerprint {fp_id}: unknown dns_signal {sig!r}")
        elif isinstance(sig, dict) and "resolves_to" in sig:
            dns_signal = DnsSignal(DnsSignalKind.RESOLVES_TO, str(sig["resolves_to"]))
        else:
            raise SchemaError(f"fingerprint {fp_id}: bad dns_signal {sig!r}")
    body = raw.get("body_contains")
    if body is not None and not isinstance(body, str):
        raise SchemaError(f"fingerprint {fp_id}: body_contains must be a string")
    status = raw.get("status")
    if status is not None and not isinstance(status, int):
        raise SchemaError(f"fingerprint {fp_id}: status must be an integer")
    return Fingerprint(
        id=fp_id,
        status=status,
        header=header,
        body_contains=body.encode("utf-8") if body is not None else None,
        dns_signal=dns_signal,
        no_response=bool(raw.get("no_response", False)),
    )


def _parse_provider(raw: Any) -> ProviderProfile:
    if not isinstance(raw, dict):
        raise SchemaError(f"provider entry must be an object, got {type(raw).__name__}")
    try:
        name = raw["name"]
        suffixes = raw["assigned_suffixes"]
    except KeyError as missing:
        raise SchemaError(f"provider entry missing {missing}")
    if not isinstance(name, str):
        raise SchemaError(f"provider name must be a string, got {name!r}")
    if not isinstance(suffixes, list) or not all(isinstance(suffix, str) for suffix in suffixes):
        raise SchemaError(f"{name}: assigned_suffixes must be a list of strings")
    nonhosted = raw.get("nonhosted_fp")
    discontinued = raw.get("discontinued_fp")
    raw_edges = raw.get("shares_infra_of", [])
    if not isinstance(raw_edges, list):
        raise SchemaError(f"{name}: shares_infra_of must be a list")
    edges = []
    for edge in raw_edges:
        if not isinstance(edge, dict) or not isinstance(edge.get("provider"), str):
            raise SchemaError(f"{name}: a sharing edge must be an object with a provider name, got {edge!r}")
        template, note = edge.get("template"), edge.get("note", "")
        if not isinstance(template, (str, type(None))) or not isinstance(note, str):
            raise SchemaError(f"{name}: sharing edge to {edge['provider']}: template and note must be strings")
        edges.append(ShareEdge(provider=edge["provider"], template=template, note=note))
    liveness = None
    if raw.get("liveness_header") is not None:
        lh = raw["liveness_header"]
        if not isinstance(lh, dict) or "name" not in lh or "contains" not in lh:
            raise SchemaError(f"{name}: liveness_header needs name/contains")
        liveness = (str(lh["name"]), str(lh["contains"]))
    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError(f"{name}: metadata must be an object")
    if metadata.get("verification_effective", "unknown") not in EFFECTIVE_VERIFICATIONS:
        raise SchemaError(f"{name}: verification_effective {metadata['verification_effective']!r} is not one of "
                          f"{', '.join(EFFECTIVE_VERIFICATIONS)}")
    nonhosted_fp = _parse_fingerprint(nonhosted, f"{name}:nonhosted") if nonhosted else None
    if nonhosted_fp is not None and nonhosted_fp.dns_signal is not None:
        raise SchemaError(f"{name}: nonhosted_fp cannot carry a dns_signal")
    gone = _parse_fingerprint(discontinued, f"{name}:discontinued") if discontinued else None
    if gone is not None and gone.needs_dns and gone.needs_http and not gone.no_response:
        # the DNS stage decides the signal alone, and a DNS miss would let
        # the HTTP stage decide the HTTP fields alone
        raise SchemaError(f"{name}: discontinued_fp cannot carry both a dns_signal and status, header or body_contains")
    if gone is not None and gone.no_response and not gone.needs_dns:
        # the HTTP stage reads a failed answer as inconclusive before it
        # matches any fingerprint, so silence alone could never match
        raise SchemaError(f"{name}: discontinued_fp with no_response needs a dns_signal")
    return ProviderProfile(
        name=name,
        assigned_suffixes=tuple(suffixes),
        nonhosted_fp=nonhosted_fp,
        discontinued_fp=gone,
        shares_infra_of=tuple(edges),
        liveness_header=liveness,
        metadata=dict(metadata),
    )


def load_provider_db(path: str | Path, on_bytes: Optional[Callable[[bytes], Any]] = None) -> ProviderDb:
    """Load and validate the provider DB.

    File schema: a JSON array of provider objects with keys name,
    assigned_suffixes, nonhosted_fp, discontinued_fp, shares_infra_of,
    liveness_header, metadata. Fingerprint keys: status, header
    {name, contains}, body_contains, dns_signal ("nxdomain" | "servfail" |
    {"resolves_to": ip} | "single_a_record"), no_response. A nonhosted_fp
    is matched against HTTP answers only, so it may not carry dns_signal;
    a discontinued_fp with a dns_signal is decided by DNS alone, so it may
    not carry status, header or body_contains, and one with no_response
    needs a dns_signal, since a silent edge leaves the HTTP stage
    inconclusive. metadata's
    verification_effective is one of EFFECTIVE_VERIFICATIONS.
    ``on_bytes`` gets the file's bytes as read (see ``read_text``).
    """
    try:
        data = json.loads(read_text(path, on_bytes))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise SchemaError(f"{path}: not valid UTF-8 JSON: {err}")
    if not isinstance(data, list):
        raise SchemaError(f"{path}: top level must be an array of providers")
    return ProviderDb([_parse_provider(entry) for entry in data])


def identify_cdn(obs: DnsObservation, db: ProviderDb) -> Optional[CdnMatch]:
    """Attribute an observation to a provider by its CNAME chain.

    The first chain element carrying any assigned suffix wins; among
    several suffixes matching that element the longest wins. Returns None
    when no element matches.

    Every suffix starts with a dot and no two are equal, so the suffixes
    an element can carry are its tails from each dot on; trying them left
    to right finds the longest one first.
    """
    index = db.suffix_index
    for name in obs.cname_chain:
        dot = name.find(".")
        while dot != -1:
            suffix = name[dot:]
            provider = index.get(suffix)
            if provider is not None:
                return CdnMatch(provider=provider, matched_suffix=suffix, matched_cname=name)
            dot = name.find(".", dot + 1)
    return None


def match_fingerprint(
    fp: Fingerprint,
    http: Optional[HttpResponseSummary] = None,
    dns: Optional[DnsObservation] = None,
) -> bool:
    """Conjunctive fingerprint match: every present field must hold, the
    HTTP half by ``match_http`` and the DNS half by ``match_dns``.

    Raises MissingEvidenceError when the required evidence side was not
    supplied.
    """
    if http is None and dns is None:
        raise MissingEvidenceError(f"{fp.id}: neither HTTP nor DNS evidence supplied")
    if fp.needs_http and http is None:
        raise MissingEvidenceError(f"{fp.id}: requires an HTTP response")
    if fp.needs_dns and dns is None:
        raise MissingEvidenceError(f"{fp.id}: requires a DNS observation")
    return (not fp.needs_http or match_http(fp, http)) and (not fp.needs_dns or match_dns(fp, dns))


def match_http(fp: Fingerprint, http: HttpResponseSummary) -> bool:
    """The HTTP half of ``fp``: ``no_response``, status, header and body.
    Header names compare case-insensitively, header values and body
    phrases are substring matches; body matching is byte-exact against
    the response excerpt. True when ``fp`` has no HTTP field."""
    if fp.no_response and http.failure is None:
        return False
    if fp.status is not None and http.status != fp.status:
        return False
    if fp.header is not None:
        value = http.header(fp.header[0])
        if value is None or fp.header[1] not in value:
            return False
    return fp.body_contains is None or fp.body_contains in http.body_excerpt


def match_dns(fp: Fingerprint, dns: DnsObservation) -> bool:
    """The DNS half of ``fp``: its ``dns_signal``. True when it has none."""
    signal = fp.dns_signal
    if signal is None:
        return True
    if signal.kind is DnsSignalKind.NXDOMAIN:
        return dns.rcode is Rcode.NXDOMAIN
    if signal.kind is DnsSignalKind.SERVFAIL:
        return dns.rcode is Rcode.SERVFAIL
    if signal.kind is DnsSignalKind.RESOLVES_TO:
        return signal.ip in dns.a_records
    # SINGLE_A_RECORD
    return not dns.cname_chain and len(dns.a_records) == 1
