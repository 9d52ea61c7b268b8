"""
The single gateway for all network effects: DNS resolution and HTTP(S)
probes with independently controllable SNI and Host header.

Two interchangeable backends exist. Each offers ``resolve``,
``resolve_existing``, ``probe``, ``probe_batch`` and ``stats`` (the
counts of queries and probes sent). ``resolve_existing(parent,
dictionary)`` is enumeration's seam: it resolves ``prefix.parent`` for
each prefix of a ``PrefixDictionary`` whose name fits in 253 characters,
in dictionary order, and returns only the names that exist with records.
It counts one query per name that fits, as one ``resolve`` per name
would. The live backend builds and sends each of those names; the mock
asks its world which of the names it holds are in the dictionary, and
builds nothing for a name that does not exist, which is most of what
enumeration asks.

``probe_batch(ip, scheme, requests)`` sends one probe per (Host, path)
request to one IP, with SNI = Host over https, answers in the order
given and counts one probe per request: the borrowing sweep's many hosts
over plain http, and the fronting harvest's many paths of one host over
https. The mock looks at each distinct host once and shares every answer
that cannot depend on the path. The fronting attempt, whose SNI differs
from its Host, is a single ``probe``.

MockTransport answers from an in-process simulated internet and is fully
deterministic: identical scenario plus identical probe sequence yields
bit-identical responses. LiveTransport speaks real DNS (UDP/53 with TCP
fallback, stdlib sockets) and HTTP/1.1 over TCP/TLS; certificate
validation is off by default because borrowing detection must accept
shared and default certificates.

Each backend also holds answers, in ``held``: ``hold(probe, response)``
keeps the first answer given for a probe, and ``probe`` returns it
unsent, with no count, no ``probe_log`` entry and, on live, no socket
and no limiter slot. The scan holds the crawl recheck's answers and the
first fetch of each URL the fronting harvest keeps. Its transport never
sees a registration, so a held answer stands for the whole scan.
``probe_batch`` neither reads nor writes ``held``: the harvest's two
fetches of a URL must both go out.

The live backend paces every send through a sliding-window rate
limiter. The mock backend has no limiter: it never sleeps (determinism),
and its stats count every query and probe.

A scan runs on one thread, and the transports hold no locks: a transport
must not be shared across threads.
"""

from __future__ import annotations

import logging
import math
import re
import secrets
import socket
import struct
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .core import (
    MAX_CNAME_CHAIN,
    DnsObservation,
    Fqdn,
    HttpProbe,
    HttpResponseSummary,
    Rcode,
    Scheme,
    TransportFailure,
    parse_fqdn,
)

if TYPE_CHECKING:
    from .crawler import PrefixDictionary

    # ssl is imported where a live probe needs TLS: a mock scan never
    # does, and skipping the import shortens its set-up and lowers its
    # peak memory
    import ssl

logger = logging.getLogger(__name__)

CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]+")


class Backend(Enum):
    LIVE = "live"
    MOCK = "mock"


class RRType(Enum):
    A = "a"
    ALL = "all"


@dataclass
class TransportConfig:
    timeout: float = 5.0
    qps_limit: float = 20.0
    retries: int = 2
    verify_tls: bool = False
    resolver: Optional[str] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.qps_limit) and self.qps_limit > 0):
            raise ValueError(f"qps_limit must be a finite positive number, got {self.qps_limit}")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(f"timeout must be a finite positive number, got {self.timeout}")


class RateLimiter:
    """At most ``qps_limit`` sends in any one-second window; below 1 qps,
    sends at least ``1 / qps_limit`` seconds apart. Each send holds one of
    ``max(1, floor(qps_limit))`` slots for ``max(1, 1 / qps_limit)`` s.

    The window keeps the time at which each slot frees and compares clock
    readings with it: a difference compared with the span can stay a
    sub-ulp short of it, which a sleep cannot close."""

    def __init__(
        self,
        qps_limit: float,
        now: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.qps_limit = qps_limit
        self._slots = max(1, math.floor(qps_limit))
        self._span = max(1.0, 1.0 / qps_limit)
        self._now = now
        self._sleep = sleep
        self._window: deque[float] = deque()

    def acquire(self) -> None:
        while True:
            now = self._now()
            while self._window and now >= self._window[0]:
                self._window.popleft()
            if len(self._window) < self._slots:
                self._window.append(now + self._span)
                return
            self._sleep(self._window[0] - now)


@dataclass
class ProbeLogEntry:
    probe: HttpProbe
    response: HttpResponseSummary


@dataclass
class TransportStats:
    dns_queries: int = 0
    http_probes: int = 0


class MockTransport:
    """Transport over a SimulatedInternet session.

    ``record=True`` also keeps every probe sent in ``probe_log`` and every
    query in ``query_log`` as ``(name, rrtype)`` pairs, for call audits
    (budget and mode-isolation tests read them).
    """

    def __init__(self, simnet, record: bool = False):
        self.simnet = simnet
        self.stats = TransportStats()
        self.record = record
        self.probe_log: list[ProbeLogEntry] = []
        self.query_log: list[tuple[str, str]] = []
        self.held: dict[HttpProbe, HttpResponseSummary] = {}

    def resolve(self, name: Fqdn, rrtype: RRType = RRType.ALL) -> DnsObservation:
        self.stats.dns_queries += 1
        if self.record:
            self.query_log.append((str(name), rrtype.value))
        obs = self.simnet.serve_dns(name)
        if rrtype is RRType.A and obs.ns:  # an A view without NS is the answer itself
            return DnsObservation(
                fqdn=obs.fqdn,
                cname_chain=obs.cname_chain,
                a_records=obs.a_records,
                rcode=obs.rcode,
                cname_loop=obs.cname_loop,
                end_rcode=obs.end_rcode,
            )
        return obs

    def resolve_existing(self, parent: str, dictionary: PrefixDictionary) -> dict[str, DnsObservation]:
        """``resolve`` of each name of ``dictionary.names_under(parent)``
        (``parent`` is normalized text), kept only where the answer is
        NOERROR with records, keyed by the text, in dictionary order."""
        self.stats.dns_queries += dictionary.count_under(parent)
        if self.record:
            self.query_log.extend((name, RRType.ALL.value) for name in dictionary.names_under(parent))
        return self.simnet.serve_dns_existing(parent, dictionary)

    def hold(self, probe: HttpProbe, response: HttpResponseSummary) -> None:
        """Keep ``response`` as ``probe``'s answer, unless one is held already."""
        self.held.setdefault(probe, response)

    def probe(self, probe: HttpProbe) -> HttpResponseSummary:
        held = self.held.get(probe)
        if held is not None:
            return held
        self.stats.http_probes += 1
        response = self.simnet.serve_http(probe)
        if self.record:
            self.probe_log.append(ProbeLogEntry(probe, response))
        return response

    def probe_batch(
        self, target_ip: str, scheme: Scheme, requests: Sequence[tuple[Fqdn, str]]
    ) -> list[HttpResponseSummary]:
        """One request of each (Host, path) at ``target_ip`` (SNI = Host
        over https), answered in the order given."""
        self.stats.http_probes += len(requests)
        responses = self.simnet.serve_http_batch(target_ip, scheme, requests)
        if self.record:
            self.probe_log.extend(
                ProbeLogEntry(HttpProbe.request(target_ip, scheme, host, path), response)
                for (host, path), response in zip(requests, responses)
            )
        return responses


# ---------------------------------------------------------------------------
# Live backend: minimal DNS wire client plus raw HTTP/1.1 over TCP/TLS
# ---------------------------------------------------------------------------

_DNS_TYPE = {"a": 1, "ns": 2, "cname": 5}


def build_dns_query(name: str, qtype: int, qid: int) -> bytes:
    header = struct.pack(">HHHHHH", qid, 0x0100, 1, 0, 0, 0)  # RD=1
    body = b""
    for label in name.rstrip(".").split("."):
        raw = label.encode("ascii")
        body += bytes([len(raw)]) + raw
    body += b"\x00" + struct.pack(">HH", qtype, 1)
    return header + body


def _read_name(data: bytes, offset: int) -> tuple[str, int]:
    labels = []
    jumps = 0
    pos = offset
    end = offset
    jumped = False
    while True:
        if pos >= len(data):
            raise ValueError("truncated name")
        length = data[pos]
        if length & 0xC0 == 0xC0:
            if pos + 1 >= len(data):
                raise ValueError("truncated pointer")
            pointer = struct.unpack(">H", data[pos:pos + 2])[0] & 0x3FFF
            if not jumped:
                end = pos + 2
                jumped = True
            pos = pointer
            jumps += 1
            if jumps > 32:
                raise ValueError("compression loop")
            continue
        if length == 0:
            if not jumped:
                end = pos + 1
            return ".".join(labels), end
        pos += 1
        labels.append(data[pos:pos + length].decode("ascii", "replace"))
        pos += length


def parse_dns_response(data: bytes) -> tuple[int, list[tuple[str, int, str]]]:
    """Return (rcode, [(owner, type, rdata-as-text)]) from the answer
    section. ValueError on a truncated packet, and on an A record whose
    RDATA is not 4 bytes."""
    if len(data) < 12:
        raise ValueError("short DNS response")
    _qid, flags, qd, an, _ns, _ar = struct.unpack(">HHHHHH", data[:12])
    rcode = flags & 0x000F
    pos = 12
    for _ in range(qd):
        _, pos = _read_name(data, pos)
        pos += 4
        if pos > len(data):
            raise ValueError("truncated question")
    answers = []
    for _ in range(an):
        owner, pos = _read_name(data, pos)
        if pos + 10 > len(data):
            raise ValueError("truncated answer record")
        rtype, _rclass, _ttl, rdlength = struct.unpack(">HHIH", data[pos:pos + 10])
        pos += 10
        if pos + rdlength > len(data):
            raise ValueError("truncated rdata")
        rdata = data[pos:pos + rdlength]
        if rtype == 1:
            if rdlength != 4:
                raise ValueError(f"A record of {rdlength} bytes")
            text = ".".join(str(b) for b in rdata)
        elif rtype in (2, 5):
            text, _ = _read_name(data, pos)
        else:
            text = rdata.hex()
        pos += rdlength
        answers.append((owner.lower(), rtype, text.lower()))
    return rcode, answers


class LiveTransport:
    """Real-socket backend. Requires a resolver address in the config."""

    def __init__(self, config: TransportConfig):
        if config.resolver is None:
            raise ValueError("live backend needs --resolver")
        # replies are matched on their source address, so a resolver given
        # by name is turned into the address it will answer from, once
        try:
            self._resolver = (socket.gethostbyname(config.resolver), 53)
        except OSError:
            raise ValueError(f"cannot resolve --resolver {config.resolver!r}") from None
        self.config = config
        self.limiter = RateLimiter(config.qps_limit)
        self.stats = TransportStats()
        self.held: dict[HttpProbe, HttpResponseSummary] = {}
        self._tls: Optional[ssl.SSLContext] = None  # the https probes' client context, made by the first

    # -- DNS ---------------------------------------------------------------

    def _exchange(self, query: bytes) -> Optional[bytes]:
        """Send one query and return the resolver's reply, or None when
        every try timed out. A datagram counts as the reply only when it
        comes from the resolver's address and echoes the query's id
        (RFC 5452); any other datagram is dropped and reading goes on.
        Each try has one deadline, ``timeout`` after its start, shared by
        the UDP wait and any TCP fallback's connect, send and reads. The
        TCP fallback must echo the id too."""
        resolver = self._resolver
        qid = query[:2]
        for _ in range(self.config.retries + 1):
            self.limiter.acquire()
            deadline = time.monotonic() + self.config.timeout
            try:
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                    sock.sendto(query, resolver)
                    data = self._await_reply(sock, resolver, qid, deadline)
                if len(data) >= 4 and data[2] & 0x02:  # TC bit: retry over TCP
                    with socket.create_connection(resolver, timeout=_time_left(deadline)) as tcp:
                        _until(tcp, deadline).sendall(struct.pack(">H", len(query)) + query)
                        size = struct.unpack(">H", self._recv_exact(tcp, 2, deadline))[0]
                        data = self._recv_exact(tcp, size, deadline)
                    if data[:2] != qid:
                        continue
                return data
            except (socket.timeout, OSError):
                continue
        return None

    @staticmethod
    def _await_reply(sock: socket.socket, resolver: tuple[str, int], qid: bytes, deadline: float) -> bytes:
        while True:
            data, source = _until(sock, deadline).recvfrom(4096)
            if source[:2] == resolver and data[:2] == qid:
                return data

    @staticmethod
    def _recv_exact(sock: socket.socket, count: int, deadline: float) -> bytes:
        buf = b""
        while len(buf) < count:
            chunk = _until(sock, deadline).recv(count - len(buf))
            if not chunk:
                raise OSError("connection closed")
            buf += chunk
        return buf

    def _query(self, name: str, rrtype: str) -> Optional[tuple[int, list[tuple[str, int, str]]]]:
        # an unpredictable id (RFC 5452), kept across the retries
        data = self._exchange(build_dns_query(name, _DNS_TYPE[rrtype], secrets.randbits(16)))
        if data is None:
            return None
        try:
            return parse_dns_response(data)
        except ValueError:
            return None

    def resolve(self, name: Fqdn, rrtype: RRType = RRType.ALL) -> DnsObservation:
        """One counted query, as the mock counts it. On the wire a name
        costs up to three queries (A, CNAME, NS; A alone for ``RRType.A``),
        each tried ``retries + 1`` times."""
        self.stats.dns_queries += 1
        wanted = ["a"] if rrtype is RRType.A else ["a", "cname", "ns"]
        chain: list[str] = []
        a_records: list[str] = []
        ns: list[str] = []
        exists = False  # some reply was NOERROR (RFC 2308 §2.2: NODATA too) or held records
        rcode = Rcode.NXDOMAIN
        unanswered = True
        end: Optional[Rcode] = None  # the chain's last name's rcode, from the A reply
        end_seen = (0, 0)  # the chain's length and the addresses that reply held
        for kind in wanted:
            reply = self._query(str(name), kind)
            if reply is None or reply[0] not in (0, 2, 3):
                # lost, or refused, not implemented or malformed (REFUSED,
                # NOTIMP, FORMERR): no answer about the name
                continue
            unanswered = False
            wire_rcode, answers = reply
            if wire_rcode == 3 and not answers and not exists and rcode is Rcode.NXDOMAIN:
                # RFC 8020: nothing exists at or below the name, so the
                # remaining record types would get the same answer
                return DnsObservation(fqdn=name, rcode=Rcode.NXDOMAIN)
            if wire_rcode == 2 and not answers:
                rcode = Rcode.SERVFAIL
                continue
            exists = exists or wire_rcode == 0 or bool(answers)
            # follow the CNAME path the resolver included in the answer
            cursor = str(name)
            cnames = {owner: rdata for owner, rtype, rdata in answers if rtype == 5}
            remaining = dict(cnames)
            while cursor in remaining and len(chain) < MAX_CNAME_CHAIN:
                cursor = remaining.pop(cursor)
                if cursor not in chain:
                    chain.append(cursor)
            for owner, rtype, rdata in answers:
                if rtype == 1 and rdata not in a_records:
                    a_records.append(rdata)
                elif rtype == 2 and rdata not in ns:
                    ns.append(rdata)
            if kind == "a" and chain and cursor not in cnames:
                # the A reply (asked first) holds the whole chain, so its
                # rcode is the last name's (RFC 6604). A SERVFAIL may be the
                # target zone's own, and NXDOMAIN with addresses contradicts
                # itself: both unknown
                if wire_rcode == 0:
                    end = Rcode.NOERROR
                elif wire_rcode == 3 and not a_records:
                    end = Rcode.NXDOMAIN
                end_seen = (len(chain), len(a_records))
        if unanswered:
            return DnsObservation(fqdn=name, rcode=Rcode.TIMEOUT)
        if not exists:
            return DnsObservation(fqdn=name, rcode=rcode)
        return DnsObservation(
            fqdn=name,
            cname_chain=tuple(chain),
            ns=tuple(ns),
            a_records=tuple(a_records),
            rcode=Rcode.NOERROR,
            # unknown if a later reply added to the chain or the addresses
            end_rcode=end if end_seen == (len(chain), len(a_records)) else None,
        )

    def resolve_existing(self, parent: str, dictionary: PrefixDictionary) -> dict[str, DnsObservation]:
        """``resolve`` of each name of ``dictionary.names_under(parent)`` in
        turn, kept only where the answer is NOERROR with records: the same
        queries as one ``resolve`` call per name."""
        found: dict[str, DnsObservation] = {}
        for name in dictionary.names_under(parent):
            obs = self.resolve(parse_fqdn(name))
            if obs.exists_with_records:
                found[name] = obs
        return found

    # -- HTTP --------------------------------------------------------------

    def hold(self, probe: HttpProbe, response: HttpResponseSummary) -> None:
        """Keep ``response`` as ``probe``'s answer, unless one is held already."""
        self.held.setdefault(probe, response)

    def probe(self, probe: HttpProbe) -> HttpResponseSummary:
        held = self.held.get(probe)
        if held is not None:
            return held
        return self._send(probe)

    def _send(self, probe: HttpProbe) -> HttpResponseSummary:
        """One request with one deadline, ``timeout`` s after the start:
        the connect, the TLS handshake, the send and the response read
        each get only what is left of it."""
        self.limiter.acquire()
        self.stats.http_probes += 1
        deadline = time.monotonic() + self.config.timeout
        port = 443 if probe.scheme is Scheme.HTTPS else 80
        cert_name: Optional[str] = None
        try:
            sock = socket.create_connection((probe.target_ip, port), timeout=self.config.timeout)
        except socket.timeout:
            return HttpResponseSummary.failed(TransportFailure.TIMEOUT)
        except OSError:
            return HttpResponseSummary.failed(TransportFailure.CONNECT_REFUSED)
        try:
            if probe.scheme is Scheme.HTTPS:
                import ssl

                if self._tls is None:  # building it loads the CA store, even unverified
                    self._tls = ssl.create_default_context()
                    if not self.config.verify_tls:
                        self._tls.check_hostname = False
                        self._tls.verify_mode = ssl.CERT_NONE
                try:
                    sock = self._tls.wrap_socket(_until(sock, deadline), server_hostname=str(probe.sni))
                    cert_name = _peer_cert_name(sock)
                except ssl.SSLError:
                    return HttpResponseSummary.failed(TransportFailure.TLS_ERROR)
            request = (
                f"GET {probe.path} HTTP/1.1\r\n"
                f"Host: {probe.host_header}\r\n"
                "User-Agent: dvahunter/0.1\r\n"
                "Accept: */*\r\n"
                "Connection: close\r\n\r\n"
            )
            _until(sock, deadline).sendall(request.encode("ascii"))
            status, headers, body = _read_http_response(sock, deadline - time.monotonic())
            # a status outside 100-599 raises ValueError, like a non-numeric one
            return HttpResponseSummary.from_body(status, body, headers, tls_cert_name=cert_name)
        except socket.timeout:
            return HttpResponseSummary.failed(TransportFailure.TIMEOUT)
        except (OSError, ValueError):
            return HttpResponseSummary.failed(TransportFailure.CONNECT_REFUSED)
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def probe_batch(
        self, target_ip: str, scheme: Scheme, requests: Sequence[tuple[Fqdn, str]]
    ) -> list[HttpResponseSummary]:
        """One request of each (Host, path) at ``target_ip`` (SNI = Host
        over https), one after the other, in the order given."""
        return [self._send(HttpProbe.request(target_ip, scheme, host, path)) for host, path in requests]


def _peer_cert_name(sock: ssl.SSLSocket) -> Optional[str]:
    """Best-effort leaf certificate name, read from the DER bytes: the
    first SAN dNSName, else the subject CN."""
    import ssl

    try:
        der = sock.getpeercert(binary_form=True)
    except (ssl.SSLError, ValueError):
        return None
    return _der_cert_name(der) if der else None


_SAN_OID = bytes.fromhex("551d11")  # 2.5.29.17 subjectAltName
_CN_OID = bytes.fromhex("550403")  # 2.5.4.3 commonName
_DER_STRINGS = {0x0C: "utf-8", 0x13: "ascii", 0x16: "ascii"}  # UTF8, Printable, IA5


def _der_cert_name(der: bytes) -> Optional[str]:
    """The leaf name in a DER X.509 certificate (RFC 5280 §4.1): the first
    SAN dNSName, else the subject CN. The issuer's name comes before the
    subject's in the DER, so only the TLV structure tells them apart.
    None when there is neither, or the DER is malformed."""
    try:
        ((_, cert),) = _der_items(der)
        tbs = _der_items(cert)[0][1]
        fields = _der_items(tbs)
        if fields[0][0] == 0xA0:  # [0] version
            fields = fields[1:]
        # serial, signature, issuer, validity, subject, key, then [1] [2] [3]
        subject = fields[4][1]
        extensions = [content for tag, content in fields[6:] if tag == 0xA3]  # [3]
        for _, extension in _der_items(_der_items(extensions[0])[0][1]) if extensions else ():
            parts = _der_items(extension)
            if parts[0] == (0x06, _SAN_OID):
                for tag, value in _der_items(_der_items(parts[-1][1])[0][1]):
                    if tag == 0x82:  # [2] dNSName
                        return value.decode("ascii")
        for _, rdn in _der_items(subject):
            for _, attribute in _der_items(rdn):
                (_, oid), (tag, value) = _der_items(attribute)[:2]
                if oid == _CN_OID and tag in _DER_STRINGS:
                    return value.decode(_DER_STRINGS[tag])
    except (ValueError, IndexError):  # UnicodeDecodeError is a ValueError
        pass
    return None


def _der_items(der: bytes) -> list[tuple[int, bytes]]:
    """(tag, content) of each DER TLV in ``der``, in order. ValueError when
    a length runs past the end or a tag or length form is unsupported."""
    items = []
    pos = 0
    while pos < len(der):
        if pos + 2 > len(der) or der[pos] & 0x1F == 0x1F:
            raise ValueError("truncated DER or multi-byte tag")
        tag, length = der[pos], der[pos + 1]
        pos += 2
        if length & 0x80:
            size = length & 0x7F
            if not 0 < size <= 4 or pos + size > len(der):
                raise ValueError("unsupported DER length")
            length = int.from_bytes(der[pos:pos + size], "big")
            pos += size
        if pos + length > len(der):
            raise ValueError("truncated DER")
        items.append((tag, der[pos:pos + length]))
        pos += length
    return items


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline`` (``time.monotonic``); socket.timeout once
    it has passed."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise socket.timeout("deadline passed")
    return remaining


def _until(sock: socket.socket, deadline: float) -> socket.socket:
    """``sock``, with its timeout set to the time left until ``deadline``,
    so a peer that drips its bytes gets no fresh timeout per read."""
    sock.settimeout(_time_left(deadline))
    return sock


def _read_http_response(sock: socket.socket, timeout: float) -> tuple[int, list[tuple[str, str]], bytes]:
    """Read one response. The body ends where its framing says (RFC 9112
    §6.3): chunked coding wins, then Content-Length, else the peer's close;
    at most 4 MiB of it is read. Head and body share one deadline, in
    ``timeout`` s: an incomplete head then raises socket.timeout, and an
    incomplete body keeps what arrived."""
    deadline = time.monotonic() + timeout
    raw = bytearray()
    while b"\r\n\r\n" not in raw:
        chunk = _until(sock, deadline).recv(4096)
        if not chunk:
            break
        raw += chunk
        if len(raw) > 1 << 20:
            break
    head, _, rest = bytes(raw).partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    if not lines or not lines[0].startswith(b"HTTP/"):
        raise ValueError("not an HTTP response")
    parts = lines[0].split()
    if len(parts) < 2 or not parts[1].isdigit():
        raise ValueError("status line without a status code")
    status = int(parts[1])
    headers: list[tuple[str, str]] = []
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        headers.append((name.decode("latin-1").strip(), value.decode("latin-1").strip()))
    chunked = any(k.lower() == "transfer-encoding" and "chunked" in v.lower() for k, v in headers)
    length = None if chunked else _content_length(headers)
    limit = 1 << 22 if length is None else min(length, 1 << 22)
    body = bytearray(rest)
    while len(body) < limit:
        try:
            chunk = _until(sock, deadline).recv(8192)
        except socket.timeout:
            break
        if not chunk:
            break
        body += chunk
    if chunked:
        return status, headers, _dechunk(bytes(body))
    return status, headers, bytes(body[:limit])


def _content_length(headers: list[tuple[str, str]]) -> Optional[int]:
    """The declared body length, or None when there is none. Conflicting
    or non-numeric values make the framing invalid: ValueError."""
    values = {part.strip() for k, v in headers if k.lower() == "content-length" for part in v.split(",")}
    if not values:
        return None
    value = values.pop()
    if values or not (value.isascii() and value.isdigit()):
        raise ValueError("invalid Content-Length")
    return int(value)


def _dechunk(body: bytes) -> bytes:
    """Join the chunks of a chunked body; a truncated body keeps what
    arrived. A chunk size that is not 1*HEXDIG (RFC 9112 §7.1) raises
    ValueError: ``int(..., 16)`` alone would accept a sign and step back."""
    out = bytearray()
    pos = 0
    while pos < len(body):
        line_end = body.find(b"\r\n", pos)
        if line_end == -1:
            break
        size_text = body[pos:line_end].split(b";")[0].rstrip(b" \t")
        if not CHUNK_SIZE.fullmatch(size_text):
            raise ValueError("invalid chunk size")
        size = int(size_text, 16)
        if size == 0:
            break
        out += body[line_end + 2: line_end + 2 + size]
        pos = line_end + 2 + size + 2
    return bytes(out)
