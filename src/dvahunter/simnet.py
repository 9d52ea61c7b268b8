"""
A scenario-driven simulated internet: DNS zones, CDN providers with
configurable verification/fronting/borrowing/takeover behaviors, and
origin servers. It backs the mock transport and serves as the ground
truth oracle for the acceptance suite.

Design notes:
  * A session exists only over a scenario that passes
    ``validate_scenario``: ``SimulatedInternet`` runs it on construction
    and refuses the scenario on any problem. Serving therefore never
    meets a provider missing from the DB, a host without an origin or an
    ingress IP held twice, and never raises ScenarioError.
  * TLS is modeled as metadata: the SNI travels with the probe and
    certificate names are declared fields, so no real handshake happens
    and the whole world stays deterministic and fast.
  * Non-hosted and service-discontinued responses are synthesized from
    the provider DB fingerprints, so detector and simulator share one
    source of truth and cannot drift apart.
  * serve_dns/serve_http are pure functions of (scenario, query) except
    for two explicitly stateful features: per-URL fetch counters behind
    "dynamic" origins, and attacker registrations. Replaying the same
    call sequence on a fresh session reproduces identical responses.
    Registrations made inside ``registration_scope()`` are undone when it
    exits, so a scan's takeover validation leaves the world as it found it.
    The scope journals each write it sees and replays its own journal
    backwards on exit, so it costs O(writes), not O(world).
  * Which names exist has one rule, ``NameTable``, built with the
    session: ``serve_dns`` answers from it and ``validate_scenario``
    builds the same table to check CNAME targets against. It lays the
    scenario's zones over the records that terminated services left at
    their dangling targets, and answers empty non-terminals and wildcards
    as RFC 4592 defines them.
  * What every call would build alike is built once per session: each
    provider's edge record ``ZoneRecord(a=ips)``, which attacker
    registrations and HTTP-typed dangling targets share; each fingerprint
    answer; and the edge's answer for an attacker-registered host with a
    static origin, per (origin IP, edge IP, certificate). Answers that
    depend on the Host (``per_host``) or on the fetch count (``dynamic``),
    and a legitimate host's, which a scan mostly asks for once, are not.
  * A scenario's names (zones, discontinued hosts, host-table hosts) and
    its CNAME and NS text are normalized once at load as a resolver's
    answer is (lowercase, no trailing dot). DNS answers carry that text,
    never parsed: a CNAME target need not be a host name.
  * Enumeration asks a whole prefix dictionary under one parent at once
    (``serve_dns_existing``). Without a wildcard zone only a name the
    world holds can exist with records, so the session intersects the
    dictionary with an index of the held names under each parent, built
    on the first such call; a world with a wildcard zone answers every
    name in turn.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence, Union

from .core import (
    MAX_NAME_LENGTH,
    DnsObservation,
    Fqdn,
    HttpProbe,
    HttpResponseSummary,
    Rcode,
    Scheme,
    TransportFailure,
    parse_fqdn,
    read_text,
    record,
)
from .providers import DnsSignalKind, Fingerprint, ProviderDb

if TYPE_CHECKING:
    from .crawler import PrefixDictionary

MAX_CHAIN = 16
MISMATCH_STATUS = 421  # Misdirected Request: the standards-defined SNI/Host mismatch answer


class ScenarioError(ValueError):
    pass


class VerificationFailed(Exception):
    """Registration blocked by the provider's verification mode."""

    def __init__(self, provider: str, mode: "VerificationMode", reason: str):
        super().__init__(f"{provider}: {reason} (mode={mode.value})")
        self.provider = provider
        self.mode = mode


class RegisteredBy(Enum):
    LEGIT_OWNER = "legit"
    ATTACKER = "attacker"


class FrontingPolicy(Enum):
    ROUTE_BY_HOST_IGNORING_SNI = "route_by_host_ignoring_sni"
    REJECT_ON_MISMATCH = "reject_on_mismatch"


class BorrowingPolicy(Enum):
    SERVE_ANY_REGISTERED_HOST = "serve_any_registered_host"
    REQUIRE_DNS_PROOF = "require_dns_proof"


class VerificationMode(Enum):
    NONE = "none"
    DNS_TOKEN_CHECKED = "dns_token_checked"
    FLAWED_MISCONNECTION = "flawed_misconnection"  # W1: custom domain binds via the fixed subdomain
    FLAWED_SHARED_RANDOM = "flawed_shared_random"  # W2: assigned name is a pure function of the domain


@record
class HostEntry:
    host: str
    origin_ip: str
    registered_by: RegisteredBy = RegisteredBy.LEGIT_OWNER
    dns_points_here: bool = True


@dataclass(frozen=True)
class ScenarioProvider:
    name: str
    ingress_ips: tuple[tuple[str, str], ...]  # (ip, city)
    fronting_policy: FrontingPolicy = FrontingPolicy.REJECT_ON_MISMATCH
    borrowing_policy: BorrowingPolicy = BorrowingPolicy.REQUIRE_DNS_PROOF
    verification_mode: VerificationMode = VerificationMode.DNS_TOKEN_CHECKED
    host_table: tuple[HostEntry, ...] = ()
    assigned_subdomain_rule: str = "random"  # "random" or a template containing {domain}
    shared_cert_name: Optional[str] = None
    wildcard_certs: tuple[str, ...] = ()
    server_header: Optional[str] = None
    degraded_ips: frozenset[str] = frozenset()
    nonhosted_override: Optional[tuple[int, str]] = None  # mis-configured world knob

    def __post_init__(self) -> None:
        if not self.ingress_ips:
            raise ScenarioError(f"{self.name}: needs at least one ingress IP")
        if self.verification_mode is VerificationMode.FLAWED_SHARED_RANDOM and "{domain}" in self.assigned_subdomain_rule:
            # the W2 flaw is domain-determinism of the *random* label;
            # template rules model Multi-CDN namespaces instead
            raise ScenarioError(f"{self.name}: flawed_shared_random uses the random rule")

    @cached_property
    def ips(self) -> tuple[str, ...]:
        return tuple(ip for ip, _ in self.ingress_ips)


@record
class ZoneRecord:
    cname: Optional[str] = None
    a: tuple[str, ...] = ()
    ns: tuple[str, ...] = ()
    servfail: bool = False
    # the cname target is meant to lie outside the world: validation then
    # does not ask the name table for it, and DNS answers it NXDOMAIN
    external: bool = False


@record
class Origin:
    """A static content server. ``per_host`` makes it virtual-host bound:
    unknown Host values get a 404 instead of the default body. ``dynamic``
    appends a per-fetch counter so repeated fetches differ."""

    body: bytes
    per_host: Optional[dict[str, bytes]] = None
    dynamic: bool = False
    content_type: str = "text/html"


@record
class DiscontinuedService:
    provider: str
    origin_ip: Optional[str] = None  # residual-resolution target, where applicable


@dataclass
class Scenario:
    providers: list[ScenarioProvider]
    zones: dict[str, ZoneRecord] = field(default_factory=dict)
    origins: dict[str, Origin] = field(default_factory=dict)
    discontinued: dict[str, DiscontinuedService] = field(default_factory=dict)
    seed: int = 0
    attacker_origin_ip: Optional[str] = None

    def provider(self, name: str) -> ScenarioProvider:
        for prov in self.providers:
            if prov.name == name:
                return prov
        raise KeyError(name)


def derive_label(seed: int, *parts: object) -> str:
    material = "|".join([str(seed)] + [str(p) for p in parts])
    return hashlib.sha1(material.encode("utf-8")).hexdigest()[:10]


def _suffix_base(prov: ScenarioProvider, db: ProviderDb) -> str:
    profile = db.by_name.get(prov.name)
    if profile is not None and profile.assigned_suffixes:
        return profile.assigned_suffixes[0]
    return f".{_slug(prov.name)}.example"


def _slug(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


def assigned_subdomain_for(
    prov: ScenarioProvider, db: ProviderDb, seed: int, domain: str, account: str
) -> str:
    """The name a provider hands out when ``account`` deploys ``domain``.

    Template rules expand the domain (Multi-CDN namespaces). The
    flawed-shared-random mode derives the label from the domain alone,
    which is exactly the W2 weakness: every account gets the same name.
    """
    if "{domain}" in prov.assigned_subdomain_rule:
        return prov.assigned_subdomain_rule.replace("{domain}", domain)
    base = _suffix_base(prov, db)
    if prov.verification_mode is VerificationMode.FLAWED_SHARED_RANDOM:
        label = derive_label(seed, prov.name, domain)
    else:
        label = derive_label(seed, prov.name, domain, account)
    return f"cdn-{label}{base}"


def verification_record_name(domain: str) -> str:
    return f"cdnverify.{domain}"


_GENERIC_404 = b"<html><body>no such site here</body></html>"

_ABSENT = object()  # a journaled key that had no value before the write

_NO_RECORDS = ZoneRecord()  # an empty non-terminal's answer: NOERROR, nothing held


class NameTable:
    """Which names a scenario's world holds and what each answers: the one
    rule that ``serve_dns`` answers by and ``validate_scenario`` checks CNAME
    targets against. Each dangling target (the CNAME of a discontinued host;
    the last host sharing one wins) holds the record its terminated service
    left, built once per service from the provider DB, and the scenario's
    zones lie over them. Attacker registrations write ``overrides``, which a
    lookup reads first. A name neither holds, but with held names below it,
    is an empty non-terminal: it answers NOERROR with no records. A name
    that does not exist is answered only by the wildcard ``*.<closest
    encloser>`` (RFC 4592 §3.3.1), else NXDOMAIN."""

    def __init__(self, scenario: Scenario, db: ProviderDb):
        # provider -> its edge as a DNS record: where an attacker registration
        # points its names, and what an HTTP-typed terminated service left
        self.edge_records = {prov.name: ZoneRecord(a=prov.ips) for prov in scenario.providers}
        zones = scenario.zones
        # dangling target -> the discontinued service that left it
        self.dangling = {zones[host].cname: service for host, service in scenario.discontinued.items() if host in zones}
        left = {service: self._left_behind(service, db) for service in set(self.dangling.values())}
        # name -> record
        self.names = {target: left[svc] for target, svc in self.dangling.items() if target and left[svc] is not None}
        self.names.update(zones)
        # every proper ancestor of a held name: those holding nothing
        # themselves are empty non-terminals (RFC 4592 §2.2.2)
        self.ancestors: set[str] = set()
        for name in self.names:
            parent = name.partition(".")[2]
            while parent and parent not in self.ancestors:  # its own ancestors are in already
                self.ancestors.add(parent)
                parent = parent.partition(".")[2]
        # only the scenario's zones hold wildcards, and none are added later
        self.has_wildcards = any(name.startswith("*.") for name in zones)
        self.overrides: dict[str, ZoneRecord] = {}
        # parent -> the prefixes of the held names under it, built by the
        # first held_under call
        self._held_under: Optional[dict[str, list[str]]] = None

    def _left_behind(self, service: DiscontinuedService, db: ProviderDb) -> Optional[ZoneRecord]:
        """What the assigned subdomain of a terminated service resolves to,
        synthesized from the behavior provider's discontinued fingerprint;
        None when it holds nothing, or when the provider is missing from the
        DB or the world (a world ``validate_scenario`` refuses)."""
        profile = db.by_name.get(service.provider)
        fp = profile.discontinued_fp if profile is not None else None
        if fp is not None and fp.dns_signal is not None:
            kind = fp.dns_signal.kind.value
            if kind == "nxdomain":
                return None
            if kind == "servfail":
                return ZoneRecord(servfail=True)
            if kind == "resolves_to":
                return ZoneRecord(a=(fp.dns_signal.ip,))
            if kind == "single_a_record":
                return ZoneRecord(a=(service.origin_ip,))
        # HTTP-typed fingerprint (or none): DNS keeps pointing at the edge
        return self.edge_records.get(service.provider)

    def exists(self, name: str) -> bool:
        """Whether ``name`` is held or is an empty non-terminal. Overrides
        come and go with registrations, so they are read on every call."""
        if name in self.names or name in self.ancestors or name in self.overrides:
            return True
        suffix = "." + name
        return any(held.endswith(suffix) for held in self.overrides)

    def lookup(self, name: str) -> Optional[ZoneRecord]:
        """The record ``name`` answers with, None for NXDOMAIN: an override,
        else the table's record, else no records for an empty non-terminal.
        A name that does not exist gets the wildcard ``*.<closest
        encloser>``, if held (RFC 4592 §3.3.1)."""
        record = self.overrides.get(name)
        if record is None:
            record = self.names.get(name)
        if record is not None:
            return record
        if self.exists(name):
            return _NO_RECORDS
        if self.has_wildcards:
            encloser = name.partition(".")[2]
            while encloser:
                if self.exists(encloser):
                    return self.names.get("*." + encloser)
                encloser = encloser.partition(".")[2]
        return None

    def held_under(self, parent: str, dictionary: PrefixDictionary) -> list[str]:
        """The names ``prefix.parent`` of ``dictionary`` that fit in 253
        characters and that the table or an override holds, in dictionary
        order. Without wildcard zones no other name exists with records.
        Overrides come and go with registrations, so they are read on every
        call."""
        if self._held_under is None:
            self._held_under = held = {}
            for name in self.names:
                dot = name.find(".")
                while dot != -1:
                    held.setdefault(name[dot + 1:], []).append(name[:dot])
                    dot = name.find(".", dot + 1)
        suffix = "." + parent
        prefixes = itertools.chain(
            self._held_under.get(parent, ()),
            (name[: -len(suffix)] for name in self.overrides if name.endswith(suffix)),
        )
        positions = dictionary.positions
        room = MAX_NAME_LENGTH - len(suffix)
        hits = {positions[prefix]: prefix for prefix in prefixes if prefix in positions and len(prefix) <= room}
        return [hits[position] + suffix for position in sorted(hits)]


class SimulatedInternet:
    """One session over a scenario: answers DNS and HTTP, accepts attacker
    registrations, and keeps the per-fetch counters for dynamic origins.
    A session exists only over a scenario that passes ``validate_scenario``:
    the constructor raises ScenarioError naming every problem it reports.
    A session holds no locks, so it must not be shared across threads."""

    def __init__(self, scenario: Scenario, db: ProviderDb):
        problems = validate_scenario(scenario, db)
        if problems:
            raise ScenarioError("scenario failed validation: " + "; ".join(problems))
        self.scenario = scenario
        self.db = db
        self._providers = {prov.name: prov for prov in scenario.providers}
        self._ip_owner = {ip: prov for prov in scenario.providers for ip in prov.ips}
        self._cities = {ip: city for prov in scenario.providers for ip, city in prov.ingress_ips}
        # provider -> host -> entry, the hosts each edge serves: with a duplicated
        # host the first entry wins; attacker registrations are journaled writes
        self._host_index: dict[str, dict[str, HostEntry]] = {}
        for prov in scenario.providers:
            index = self._host_index[prov.name] = {}
            for entry in prov.host_table:
                index.setdefault(entry.host, entry)
        # a fingerprint answer depends only on these four inputs and is frozen
        self._fp_responses: dict[tuple[Fingerprint, str, str, Optional[str]], HttpResponseSummary] = {}
        # (origin IP, edge IP, certificate) -> the edge's answer for an
        # attacker-registered host with a static origin; every registration
        # binds the one attacker origin, so one answer serves them all
        self._attacker_answers: dict[tuple[str, str, Optional[str]], HttpResponseSummary] = {}
        # one journal per open registration_scope, innermost last:
        # (table, key, value before the write or _ABSENT)
        self._journals: list[list[tuple[dict, str, Any]]] = []
        self._fetch_counts: dict[tuple[str, str, str], int] = {}
        self._table = NameTable(scenario, db)

    # -- DNS ----------------------------------------------------------------

    def serve_dns(self, name: Union[Fqdn, str]) -> DnsObservation:
        fqdn = name if isinstance(name, Fqdn) else parse_fqdn(str(name))
        text = fqdn.name
        lookup = self._table.lookup
        record = lookup(text)
        if record is None:
            return DnsObservation(fqdn=fqdn, rcode=Rcode.NXDOMAIN)
        if record.servfail:
            return DnsObservation(fqdn=fqdn, rcode=Rcode.SERVFAIL)
        chain: list[str] = []
        seen = {text}
        loop = False
        a_records: tuple[str, ...] = record.a
        end: Optional[Rcode] = None  # the chain's last name's rcode, when known
        cursor = record
        while cursor.cname is not None and len(chain) < MAX_CHAIN:
            target = cursor.cname
            if target in seen:
                loop = True
                break
            chain.append(target)
            seen.add(target)
            nxt = lookup(target)
            if nxt is None or nxt.servfail:
                a_records = ()
                end = Rcode.NXDOMAIN if nxt is None else Rcode.SERVFAIL
                break
            a_records = nxt.a
            cursor = nxt
        if chain and cursor.cname is None:
            # the chain ended normally (NODATA and empty non-terminals too),
            # not at a loop or a cut at MAX_CHAIN
            end = Rcode.NOERROR
        return DnsObservation(
            fqdn=fqdn,
            cname_chain=tuple(chain),
            ns=record.ns,
            a_records=a_records,
            rcode=Rcode.NOERROR,
            cname_loop=loop,
            end_rcode=end,
        )

    def serve_dns_existing(self, parent: str, dictionary: PrefixDictionary) -> dict[str, DnsObservation]:
        """The answers of the names ``prefix.parent`` of ``dictionary`` that
        fit in 253 characters and exist with records, keyed by the name's
        text, in dictionary order: what a ``serve_dns`` call per name would
        say of them. A name the zone lookup finds nothing for is NXDOMAIN,
        so it is skipped without building its answer."""
        table = self._table
        if table.has_wildcards:
            names = dictionary.names_under(parent)
        else:
            names = table.held_under(parent, dictionary)
        lookup = table.lookup
        found: dict[str, DnsObservation] = {}
        for name in names:
            if lookup(name) is None:
                continue
            obs = self.serve_dns(name)
            if obs.exists_with_records:
                found[name] = obs
        return found

    def city_of(self, ip: str) -> Optional[str]:
        return self._cities.get(ip)

    # -- HTTP ---------------------------------------------------------------

    def _select_cert(self, prov: ScenarioProvider, sni: str) -> Optional[str]:
        entry = self._host_index[prov.name].get(sni)
        if entry is not None and entry.registered_by is RegisteredBy.LEGIT_OWNER:
            return sni
        for pattern in prov.wildcard_certs:
            base = pattern[1:]  # "*.x.y" -> ".x.y"
            if sni.endswith(base) and "." not in sni[: -len(base)]:
                return pattern
        if prov.shared_cert_name:
            return prov.shared_cert_name
        return None

    @staticmethod
    def _proof_blocked(prov: ScenarioProvider, entry: HostEntry) -> bool:
        """An attacker entry whose DNS does not point here, at an edge that
        serves only hosts with DNS proof: the edge treats it as unknown."""
        return (
            entry.registered_by is RegisteredBy.ATTACKER
            and not entry.dns_points_here
            and prov.borrowing_policy is BorrowingPolicy.REQUIRE_DNS_PROOF
        )

    def _headers(self, prov: ScenarioProvider, ip: str, extra: tuple[tuple[str, str], ...] = ()) -> tuple:
        headers: list[tuple[str, str]] = []
        if prov.server_header and ip not in prov.degraded_ips:
            headers.append(("Server", prov.server_header))
        headers.extend(extra)
        return tuple(headers)

    def _fp_response(
        self, fp: Fingerprint, prov: ScenarioProvider, ip: str, cert: Optional[str]
    ) -> HttpResponseSummary:
        key = (fp, prov.name, ip, cert)
        response = self._fp_responses.get(key)
        if response is not None:
            return response
        if fp.no_response:
            response = HttpResponseSummary.failed(TransportFailure.TIMEOUT)
        else:
            phrase = fp.body_contains or b""
            body = b"<html><body>" + phrase + b"</body></html>"
            extra = (fp.header,) if fp.header is not None else ()
            response = HttpResponseSummary.from_body(
                fp.status or 503, body, self._headers(prov, ip, extra), tls_cert_name=cert
            )
        self._fp_responses[key] = response
        return response

    def _origin_body(self, origin: Origin, ip: str, host: str, path: str) -> Optional[bytes]:
        if origin.per_host is not None:
            body = origin.per_host.get(host)
            if body is None:
                return None
        else:
            body = origin.body
        if origin.dynamic:
            key = (ip, host, path)
            count = self._fetch_counts.get(key, 0) + 1
            self._fetch_counts[key] = count
            body = body + f"<!-- fetch {count} -->".encode("ascii")
        return body

    def serve_http(self, probe: HttpProbe) -> HttpResponseSummary:
        ip = probe.target_ip
        prov = self._ip_owner.get(ip)
        if prov is None:
            origin = self.scenario.origins.get(ip)
            if origin is None:
                return HttpResponseSummary.failed(TransportFailure.CONNECT_REFUSED)
            body = self._origin_body(origin, ip, str(probe.host_header), probe.path)
            if body is None:
                return HttpResponseSummary.from_body(404, b"<html><body>unknown virtual host</body></html>")
            return HttpResponseSummary.from_body(200, body, (("Content-Type", origin.content_type),))

        cert: Optional[str] = None
        if probe.scheme is Scheme.HTTPS:
            cert = self._select_cert(prov, str(probe.sni))
            if cert is None:
                return HttpResponseSummary.failed(TransportFailure.TLS_ERROR)

        host = str(probe.host_header)
        entry = self._host_index[prov.name].get(host)
        if entry is not None:
            if not self._proof_blocked(prov, entry):
                if (
                    probe.scheme is Scheme.HTTPS
                    and str(probe.sni) != host
                    and prov.fronting_policy is FrontingPolicy.REJECT_ON_MISMATCH
                ):
                    return HttpResponseSummary.from_body(
                        MISMATCH_STATUS,
                        b"<html><body>421 Misdirected Request</body></html>",
                        self._headers(prov, ip),
                        tls_cert_name=cert,
                    )
                origin = self.scenario.origins[entry.origin_ip]
                if entry.registered_by is RegisteredBy.ATTACKER and origin.per_host is None and not origin.dynamic:
                    key = (entry.origin_ip, ip, cert)
                    response = self._attacker_answers.get(key)
                    if response is None:
                        response = self._attacker_answers[key] = self._served(prov, ip, cert, origin, origin.body)
                    return response
                body = self._origin_body(origin, ip, host, probe.path)
                return self._served(prov, ip, cert, origin, origin.body if body is None else body)

        service = self.scenario.discontinued.get(host)
        if service is not None and service.provider == prov.name:
            fp = self.db.by_name[prov.name].discontinued_fp
            if fp is not None and fp.needs_http:
                return self._fp_response(fp, prov, ip, cert)
        return self._unknown_host(prov, ip, cert)

    def _served(
        self, prov: ScenarioProvider, ip: str, cert: Optional[str], origin: Origin, body: bytes
    ) -> HttpResponseSummary:
        """The edge's 200 answer carrying ``body`` from ``origin``."""
        return HttpResponseSummary.from_body(
            200, body, self._headers(prov, ip, (("Content-Type", origin.content_type),)), tls_cert_name=cert
        )

    def _unknown_host(self, prov: ScenarioProvider, ip: str, cert: Optional[str]) -> HttpResponseSummary:
        """What the edge answers for a host it does not serve: the world's
        override, else the DB's non-hosted fingerprint, else a plain 404."""
        if prov.nonhosted_override is not None:
            status, text = prov.nonhosted_override
            return HttpResponseSummary.from_body(
                status, text.encode("utf-8"), self._headers(prov, ip), tls_cert_name=cert
            )
        fp = self.db.by_name[prov.name].nonhosted_fp
        if fp is not None:
            return self._fp_response(fp, prov, ip, cert)
        return HttpResponseSummary.from_body(404, _GENERIC_404, self._headers(prov, ip), tls_cert_name=cert)

    def serve_http_batch(
        self, ip: str, scheme: Scheme, requests: Sequence[tuple[Fqdn, str]]
    ) -> list[HttpResponseSummary]:
        """``serve_http`` of one probe per (Host, path) request at ``ip``,
        SNI = Host over https, in order, asked once per sharing key. A host
        the edge knows (registered, in the host table or discontinued)
        shares its answer by its name, unless its active entry leads to a
        dynamic origin, whose answer depends on the path and the fetch
        count. Every other host at a provider's IP shares its certificate's
        unknown-host answer. At an IP no provider owns nothing is shared."""
        prov = self._ip_owner.get(ip)
        served = self._host_index[prov.name] if prov is not None else {}
        discontinued = self.scenario.discontinued
        https = scheme is Scheme.HTTPS
        shared: dict[Any, HttpResponseSummary] = {}
        out = []
        for host, path in requests:
            name = host.name
            entry = served.get(name)
            if prov is None or (entry is not None and self.scenario.origins[entry.origin_ip].dynamic):
                key = None
            elif entry is not None or name in discontinued:
                key = name
            else:  # a tuple, so it cannot collide with a name
                key = ("cert", self._select_cert(prov, name) if https else None)
            answer = shared.get(key)
            if answer is None:
                answer = self.serve_http(HttpProbe.request(ip, scheme, host, path))
                if key is not None:
                    shared[key] = answer
            out.append(answer)
        return out

    # -- registration -------------------------------------------------------

    @contextmanager
    def registration_scope(self) -> Iterator[None]:
        """Undo on exit every attacker registration made inside the block:
        the registered hosts and the zone overrides go back to what they
        were on entry. ``attacker_register`` outside a scope stays in force.
        Each scope journals its own writes and undoes them last first, so a
        nested scope undoes only what was written while it was innermost."""
        journal: list[tuple[dict, str, Any]] = []
        self._journals.append(journal)
        try:
            yield
        finally:
            self._journals.pop()
            for table, key, previous in reversed(journal):
                if previous is _ABSENT:
                    del table[key]
                else:
                    table[key] = previous

    def _write(self, table: dict, key: str, value: Any) -> None:
        if self._journals:
            self._journals[-1].append((table, key, table.get(key, _ABSENT)))
        table[key] = value

    def attacker_register(
        self,
        provider_name: str,
        custom_domain: str,
        account: str,
        origin_ip: Optional[str] = None,
    ) -> str:
        """Create a CDN service for ``custom_domain`` under ``account``.

        Returns the assigned subdomain, or raises VerificationFailed when
        the provider's verification mode blocks the registration, and
        ScenarioError when the world cannot attempt it: it has no such
        provider, or the origin to bind (``origin_ip``, else the attacker
        origin) is not one of its origins. On success the custom domain
        binds to that origin at this provider's ingresses, and a
        previously dangling assigned name resolves again.
        """
        prov = self._providers.get(provider_name)
        if prov is None:
            raise ScenarioError(f"scenario has no provider {provider_name}")
        mode = prov.verification_mode
        if mode is VerificationMode.DNS_TOKEN_CHECKED:
            record = self.scenario.zones.get(verification_record_name(custom_domain))
            expected = f".dv.{_slug(provider_name)}."
            if record is None or record.cname is None or expected not in record.cname:
                raise VerificationFailed(provider_name, mode, f"no DNS token for {custom_domain}")
        assigned = assigned_subdomain_for(prov, self.db, self.scenario.seed, custom_domain, account)
        target_origin = origin_ip or self.scenario.attacker_origin_ip
        if target_origin not in self.scenario.origins:
            raise ScenarioError("scenario has no attacker origin")
        self._write(self._host_index[provider_name], custom_domain, HostEntry(
            host=custom_domain,
            origin_ip=target_origin,
            registered_by=RegisteredBy.ATTACKER,
            dns_points_here=True,
        ))
        # the assigned name now serves traffic again
        table = self._table
        edge = table.edge_records[provider_name]
        self._write(table.overrides, assigned, edge)
        old = self.scenario.zones.get(custom_domain)
        if custom_domain in self.scenario.discontinued and old is not None and old.cname:
            # W1 misconnection: the victim's old assigned name routes to
            # the edge via the fixed subdomain even though the attacker
            # was handed a different name
            self._write(table.overrides, old.cname, edge)
        return assigned


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def scenario_to_json(scenario: Scenario) -> dict[str, Any]:
    return {
        "schema": "simnet-scenario/1",
        "seed": scenario.seed,
        "attacker_origin_ip": scenario.attacker_origin_ip,
        "providers": [
            {
                "name": p.name,
                "ingress_ips": [[ip, city] for ip, city in p.ingress_ips],
                "fronting_policy": p.fronting_policy.value,
                "borrowing_policy": p.borrowing_policy.value,
                "verification_mode": p.verification_mode.value,
                "assigned_subdomain_rule": p.assigned_subdomain_rule,
                "shared_cert_name": p.shared_cert_name,
                "wildcard_certs": list(p.wildcard_certs),
                "server_header": p.server_header,
                "degraded_ips": sorted(p.degraded_ips),
                "nonhosted_override": (
                    {"status": p.nonhosted_override[0], "body": p.nonhosted_override[1]}
                    if p.nonhosted_override
                    else None
                ),
                "host_table": [
                    {
                        "host": h.host,
                        "origin_ip": h.origin_ip,
                        "registered_by": h.registered_by.value,
                        "dns_points_here": h.dns_points_here,
                    }
                    for h in p.host_table
                ],
            }
            for p in scenario.providers
        ],
        "zones": {
            name: {
                "cname": rec.cname,
                "a": list(rec.a),
                "ns": list(rec.ns),
                "servfail": rec.servfail,
                "external": rec.external,
            }
            for name, rec in sorted(scenario.zones.items())
        },
        "origins": {
            ip: {
                "body": origin.body.decode("utf-8"),
                "per_host": (
                    {host: body.decode("utf-8") for host, body in sorted(origin.per_host.items())}
                    if origin.per_host is not None
                    else None
                ),
                "dynamic": origin.dynamic,
                "content_type": origin.content_type,
            }
            for ip, origin in sorted(scenario.origins.items())
        },
        "discontinued_hosts": {
            host: {"provider": svc.provider, "origin_ip": svc.origin_ip}
            for host, svc in sorted(scenario.discontinued.items())
        },
    }


def scenario_from_json(data: dict[str, Any]) -> Scenario:
    """The scenario in a parsed document; ScenarioError when a field is
    missing or of the wrong JSON type."""
    try:
        _object(data, "a scenario document")
        providers = []
        for raw in data["providers"]:
            name = _object(raw, "a provider")["name"]
            providers.append(
                ScenarioProvider(
                    name=name,
                    ingress_ips=tuple((ip, city) for ip, city in raw["ingress_ips"]),
                    fronting_policy=FrontingPolicy(raw.get("fronting_policy", "reject_on_mismatch")),
                    borrowing_policy=BorrowingPolicy(raw.get("borrowing_policy", "require_dns_proof")),
                    verification_mode=VerificationMode(raw.get("verification_mode", "dns_token_checked")),
                    host_table=tuple(
                        HostEntry(
                            host=_answer_name(h["host"]),
                            origin_ip=h["origin_ip"],
                            registered_by=RegisteredBy(h.get("registered_by", "legit")),
                            dns_points_here=bool(h.get("dns_points_here", True)),
                        )
                        for h in _objects(raw.get("host_table", []), "a host_table item of {!r}", name)
                    ),
                    assigned_subdomain_rule=raw.get("assigned_subdomain_rule", "random"),
                    shared_cert_name=raw.get("shared_cert_name"),
                    wildcard_certs=tuple(raw.get("wildcard_certs", [])),
                    server_header=raw.get("server_header"),
                    degraded_ips=frozenset(raw.get("degraded_ips", [])),
                    nonhosted_override=(
                        (raw["nonhosted_override"]["status"], raw["nonhosted_override"]["body"])
                        if raw.get("nonhosted_override")
                        else None
                    ),
                )
            )
        zones = {
            _answer_name(name): ZoneRecord(
                cname=None if rec.get("cname") is None else _answer_name(rec["cname"]),
                a=tuple(rec.get("a", [])),
                ns=tuple(map(_answer_name, rec.get("ns", ()))),
                servfail=bool(rec.get("servfail", False)),
                external=bool(rec.get("external", False)),
            )
            for name, rec in _entries(data, "zones", "zone")
        }
        origins = {
            ip: Origin(
                body=_utf8(raw["body"], "origin {!r} body", ip),
                per_host=(
                    {
                        host: _utf8(body, "origin {!r} per_host {!r}", ip, host)
                        for host, body in _object(raw["per_host"], "origin {!r} per_host", ip).items()
                    }
                    if raw.get("per_host") is not None
                    else None
                ),
                dynamic=bool(raw.get("dynamic", False)),
                content_type=raw.get("content_type", "text/html"),
            )
            for ip, raw in _entries(data, "origins", "origin")
        }
        discontinued = {
            _answer_name(host): DiscontinuedService(provider=raw["provider"], origin_ip=raw.get("origin_ip"))
            for host, raw in _entries(data, "discontinued_hosts", "discontinued host")
        }
        seed = int(data.get("seed", 0))
    except (KeyError, TypeError, ValueError) as err:
        raise ScenarioError(f"bad scenario document: {err}")
    return Scenario(
        providers=providers,
        zones=zones,
        origins=origins,
        discontinued=discontinued,
        seed=seed,
        attacker_origin_ip=data.get("attacker_origin_ip"),
    )


def _object(value: Any, label: str, *args: Any) -> dict[str, Any]:
    """``value``, when it is a JSON object. The label is formatted only
    for the error: a scenario holds thousands of entries."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{label.format(*args)} must be a JSON object, not {type(value).__name__}")
    return value


def _objects(values: Any, label: str, *args: Any) -> Any:
    for value in values:
        if not isinstance(value, dict):
            _object(value, label, *args)
    return values


def _entries(data: dict[str, Any], section: str, label: str) -> Any:
    """The (key, entry) pairs of an optional section whose entries are objects."""
    entries = _object(data.get(section, {}), "section {!r}", section)
    for key, entry in entries.items():
        if not isinstance(entry, dict):
            _object(entry, "{} {!r}", label, key)
    return entries.items()


def _utf8(value: Any, label: str, *args: Any) -> bytes:
    if not isinstance(value, str):
        raise ScenarioError(f"{label.format(*args)} must be a string, not {type(value).__name__}")
    return value.encode("utf-8")


def _answer_name(value: Any) -> str:
    """A name as an answer gives it: lowercase, no trailing dot. It is read
    this way from a zone's name, CNAME and NS values, a discontinued host
    and a host-table host."""
    if not isinstance(value, str):
        raise TypeError(f"a name must be a string, not {type(value).__name__}")
    return value.strip().rstrip(".").lower()


def load_scenario(path: str | Path, on_bytes: Optional[Callable[[bytes], Any]] = None) -> Scenario:
    """The scenario in a file; ``on_bytes`` gets the file's bytes as read
    (see ``read_text``). Only the parsed document is held while the
    scenario is built."""
    try:
        data = json.loads(read_text(path, on_bytes))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ScenarioError(f"{path}: not valid UTF-8 JSON: {err}")
    return scenario_from_json(data)


def validate_scenario(scenario: Scenario, db: ProviderDb) -> list[str]:
    """Cross-checks beyond what the dataclasses enforce; returns problems.
    ``SimulatedInternet`` refuses a scenario with any."""
    problems: list[str] = []
    seen_names = set()
    ip_owner: dict[str, str] = {}
    for prov in scenario.providers:
        if prov.name in seen_names:
            problems.append(f"duplicate scenario provider {prov.name}")
        seen_names.add(prov.name)
        for ip in prov.ips:
            if ip in ip_owner:
                problems.append(f"ingress IP {ip} held twice: by {ip_owner[ip]} and by {prov.name}")
            elif ip in scenario.origins:
                problems.append(f"ingress IP {ip} of {prov.name} is also an origin IP")
            ip_owner.setdefault(ip, prov.name)
        if prov.name not in db.by_name:
            problems.append(f"scenario provider {prov.name} missing from provider DB")
        for entry in prov.host_table:
            if entry.host in scenario.discontinued:
                problems.append(f"{prov.name}: {entry.host} is both active and discontinued")
            if entry.origin_ip not in scenario.origins:
                problems.append(f"{prov.name}: host {entry.host} origin {entry.origin_ip} not in origins")
    # a dangling name of these resolves to the host's residual origin_ip
    single_a = {
        profile.name for profile in db.providers
        if profile.discontinued_fp is not None and profile.discontinued_fp.dns_signal is not None
        and profile.discontinued_fp.dns_signal.kind is DnsSignalKind.SINGLE_A_RECORD
    }
    for host, svc in scenario.discontinued.items():
        if svc.provider not in seen_names:
            problems.append(f"discontinued host {host}: unknown provider {svc.provider}")
        if svc.origin_ip is None and svc.provider in single_a:
            problems.append(
                f"discontinued host {host}: {svc.provider}'s single_a_record fingerprint needs an origin_ip"
            )
    # a target resolves when the table that answers DNS holds it; a dangling
    # target counts even where its terminated service left nothing
    table = NameTable(scenario, db)
    for name, record in scenario.zones.items():
        target = record.cname
        if target is None or record.external or target in table.dangling or table.lookup(target) is not None:
            continue
        problems.append(f"zone {name}: cname target {target} is unresolvable and not marked external")
    if scenario.attacker_origin_ip is not None and scenario.attacker_origin_ip not in scenario.origins:
        problems.append(f"attacker origin {scenario.attacker_origin_ip} not in origins")
    return problems
