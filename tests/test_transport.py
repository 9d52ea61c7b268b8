import math
import socket
import ssl
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Optional

import pytest

from dvahunter import transport as transport_mod
from dvahunter.checker import crawl_records, discover_hosted
from dvahunter.core import (
    MAX_CNAME_CHAIN, HttpProbe, HttpResponseSummary, Rcode, Scheme, TransportFailure, parse_fqdn, sha1_body,
)
from dvahunter.crawler import PrefixDictionary
from dvahunter.providers import DnsSignalKind
from dvahunter.scan import ConfigError, prepare, run_scan
from dvahunter.simnet import Origin, Scenario, SimulatedInternet, ZoneRecord, load_scenario
from dvahunter.takeover import DanglingProbeFailure, DanglingStage, detect_dangling
from dvahunter.transport import (
    Backend,
    LiveTransport,
    MockTransport,
    RateLimiter,
    RRType,
    TransportConfig,
    build_dns_query,
    parse_dns_response,
)
from tests.conftest import DATA, scan_config


@pytest.fixture()
def chain_world(db):
    zones = {
        "foo.site.com": ZoneRecord(cname="x.fastly.net"),
        "x.fastly.net": ZoneRecord(a=("10.0.0.5",)),
        "a.loop.com": ZoneRecord(cname="b.loop.com"),
        "b.loop.com": ZoneRecord(cname="a.loop.com"),
        "broken.site.com": ZoneRecord(servfail=True),
        "apex.site.com": ZoneRecord(a=("10.0.0.5",), ns=("ns1.dns.example", "ns2.dns.example")),
    }
    scenario = Scenario(providers=[], zones=zones, origins={"10.0.0.5": Origin(body=b"hi")})
    return SimulatedInternet(scenario, db)


class TestMockResolve:
    def test_chain_followed_to_terminal_records(self, chain_world):
        from dvahunter.transport import MockTransport
        transport = MockTransport(chain_world)
        obs = transport.resolve(parse_fqdn("foo.site.com"))
        assert [str(c) for c in obs.cname_chain] == ["x.fastly.net"]
        assert obs.a_records == ("10.0.0.5",)
        assert obs.rcode is Rcode.NOERROR

    def test_absent_name_is_nxdomain(self, chain_world):
        from dvahunter.transport import MockTransport
        obs = MockTransport(chain_world).resolve(parse_fqdn("missing.site.com"))
        assert obs.rcode is Rcode.NXDOMAIN
        assert not obs.has_records

    def test_cname_loop_truncated_and_flagged(self, chain_world):
        from dvahunter.transport import MockTransport
        obs = MockTransport(chain_world).resolve(parse_fqdn("a.loop.com"))
        assert obs.cname_loop is True
        assert [str(c) for c in obs.cname_chain] == ["b.loop.com"]
        assert obs.a_records == ()

    def test_servfail_surfaces_in_rcode(self, chain_world):
        from dvahunter.transport import MockTransport
        obs = MockTransport(chain_world).resolve(parse_fqdn("broken.site.com"))
        assert obs.rcode is Rcode.SERVFAIL

    def test_a_view_drops_the_ns_records_and_keeps_the_rest(self, chain_world):
        transport = MockTransport(chain_world)
        name = parse_fqdn("apex.site.com")
        answer = transport.resolve(name, RRType.ALL)
        view = transport.resolve(name, RRType.A)
        assert answer.ns == ("ns1.dns.example", "ns2.dns.example")
        assert view.ns == ()
        assert replace(view, ns=answer.ns) == answer

    @pytest.mark.parametrize("name", ["foo.site.com", "missing.site.com", "broken.site.com", "a.loop.com"])
    def test_a_view_of_a_name_without_ns_is_the_whole_answer(self, chain_world, name):
        transport = MockTransport(chain_world)
        assert transport.resolve(parse_fqdn(name), RRType.A) == transport.resolve(parse_fqdn(name), RRType.ALL)

    def test_https_probe_requires_sni(self, chain_world):
        from dvahunter.transport import MockTransport
        transport = MockTransport(chain_world)
        with pytest.raises(ValueError):
            transport.probe(HttpProbe(target_ip="10.0.0.5", scheme=Scheme.HTTPS,
                                      host_header=parse_fqdn("foo.site.com")))

    def test_sni_and_host_are_independent(self, chain_world):
        from dvahunter.transport import MockTransport
        transport = MockTransport(chain_world, record=True)
        transport.probe(HttpProbe(target_ip="10.0.0.5", scheme=Scheme.HTTPS,
                                  host_header=parse_fqdn("host.example.com"),
                                  sni=parse_fqdn("front.example.com")))
        sent = transport.probe_log[0].probe
        assert str(sent.sni) == "front.example.com"
        assert str(sent.host_header) == "host.example.com"

    def test_determinism_over_replay(self, chain_world, db):
        from dvahunter.transport import MockTransport
        def run():
            from dvahunter.simnet import SimulatedInternet
            transport = MockTransport(SimulatedInternet(chain_world.scenario, db))
            probes = [
                transport.resolve(parse_fqdn("foo.site.com")).to_json(),
                transport.probe(HttpProbe(target_ip="10.0.0.5", scheme=Scheme.HTTP,
                                          host_header=parse_fqdn("foo.site.com"))).to_json(),
            ]
            return probes
        assert run() == run()


class TestRateLimiter:
    def test_window_never_exceeds_qps(self):
        clock = [0.0]

        def sleep(seconds):
            clock[0] += seconds

        sent = []
        limiter = RateLimiter(5, now=lambda: clock[0], sleep=sleep)
        for _ in range(23):
            limiter.acquire()
            sent.append(clock[0])
        # over any sliding 1-second window at most 5 sends happened
        for i, start in enumerate(sent):
            in_window = [t for t in sent if start <= t < start + 1.0]
            assert len(in_window) <= 5
        assert clock[0] >= (23 - 5) / 5  # had to wait for capacity

    @pytest.mark.parametrize("qps", [0.5, 2.5, 0.3])
    def test_fractional_qps_is_a_ceiling(self, qps):
        # these once held ceil(qps) sends per second: 0.5 and 0.3 sent
        # once a second, 2.5 three times
        clock = [0.0]

        def sleep(seconds):
            assert seconds > 0
            clock[0] += seconds

        limiter = RateLimiter(qps, now=lambda: clock[0], sleep=sleep)
        sent = []
        for _ in range(30):
            limiter.acquire()
            sent.append(clock[0])
        for start in sent:  # one send is the least a window can hold
            assert len([t for t in sent if start <= t < start + 1.0]) <= max(qps, 1)
        if qps < 1:
            assert all(later >= earlier + 1 / qps for earlier, later in zip(sent, sent[1:]))
        # a ceiling, not a stall: the sends keep up floor(qps) a second, or qps below 1
        assert clock[0] < 30 / (math.floor(qps) if qps >= 1 else qps)

    @pytest.mark.parametrize("field", ["qps_limit", "timeout"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_config_needs_finite_positive_values(self, field, value):
        # an infinite qps_limit once passed here and then overflowed in
        # RateLimiter; a NaN or infinite timeout passed too
        with pytest.raises(ValueError, match=field):
            TransportConfig(resolver="192.0.2.53", **{field: value})


class TestDnsWire:
    def test_query_roundtrip_shape(self):
        query = build_dns_query("www.example.com", 1, 0x1234)
        assert query[:2] == b"\x12\x34"
        assert b"\x03www\x07example\x03com\x00" in query

    def test_parse_answer_with_compression(self):
        # header: qid=1 flags=0x8180 qd=1 an=2
        header = b"\x00\x01\x81\x80\x00\x01\x00\x02\x00\x00\x00\x00"
        question = b"\x03www\x07example\x03com\x00" + b"\x00\x01\x00\x01"
        # answer 1: www.example.com CNAME edge.example.com (via pointer to offset 12)
        cname_rdata = b"\x04edge" + b"\xc0\x10"  # edge + pointer to example.com
        answer1 = b"\xc0\x0c" + b"\x00\x05\x00\x01\x00\x00\x00\x3c" + len(cname_rdata).to_bytes(2, "big") + cname_rdata
        # answer 2: edge.example.com A 10.0.0.5 (name pointer into answer 1 rdata)
        answer2 = b"\xc0\x2d" + b"\x00\x01\x00\x01\x00\x00\x00\x3c\x00\x04" + bytes([10, 0, 0, 5])
        rcode, answers = parse_dns_response(header + question + answer1 + answer2)
        assert rcode == 0
        assert ("www.example.com", 5, "edge.example.com") in answers
        assert ("edge.example.com", 1, "10.0.0.5") in answers

    def test_parse_rejects_short_packet(self):
        with pytest.raises(ValueError):
            parse_dns_response(b"\x00\x01")

    def test_compression_loop_detected(self):
        header = b"\x00\x01\x81\x80\x00\x00\x00\x01\x00\x00\x00\x00"
        looping = b"\xc0\x0c" + b"\x00\x01\x00\x01\x00\x00\x00\x3c\x00\x04" + bytes([1, 2, 3, 4])
        with pytest.raises(ValueError):
            parse_dns_response(header + looping)

    @pytest.mark.parametrize(
        "packet",
        [
            # an=1, but the answer stops three bytes into its fixed header
            b"\x00\x01\x81\x80\x00\x00\x00\x01\x00\x00\x00\x00" + b"\x00" + b"\x00\x01\x00",
            # an A record announcing 4 bytes of rdata that carries only 2
            b"\x00\x01\x81\x80\x00\x00\x00\x01\x00\x00\x00\x00"
            + b"\x00" + b"\x00\x01\x00\x01\x00\x00\x00\x3c\x00\x04" + bytes([10, 0]),
            # qd=1, but the question stops two bytes into its type and class
            b"\x00\x01\x81\x80\x00\x01\x00\x00\x00\x00\x00\x00" + b"\x03www\x00\x00\x01",
        ],
        ids=["answer-header", "rdata", "question"],
    )
    def test_truncated_packet_rejected(self, packet):
        with pytest.raises(ValueError):
            parse_dns_response(packet)

    def test_other_record_types_keep_their_rdata_as_hex(self):
        # an AAAA record (type 28) beside the A record: resolve reads
        # neither its type nor its text
        aaaa = bytes.fromhex("20010db8000000000000000000000001")
        packet = (b"\x00\x01\x81\x80\x00\x00\x00\x02\x00\x00\x00\x00"
                  + b"\x00" + b"\x00\x1c\x00\x01\x00\x00\x00\x3c\x00\x10" + aaaa
                  + b"\x00" + b"\x00\x01\x00\x01\x00\x00\x00\x3c\x00\x04" + bytes([10, 0, 0, 5]))
        assert parse_dns_response(packet) == (0, [("", 28, aaaa.hex()), ("", 1, "10.0.0.5")])

    @pytest.mark.parametrize("rdata", [b"", bytes([10, 0, 0, 5, 1])], ids=["0-bytes", "5-bytes"])
    def test_a_record_that_is_not_four_bytes_rejected(self, rdata):
        # an A record's RDATA is one 32-bit address (RFC 1035 section
        # 3.4.1); any other length was once kept as its hex text, and a
        # 0-byte one as the address ""
        packet = (b"\x00\x01\x81\x80\x00\x00\x00\x01\x00\x00\x00\x00"
                  + b"\x00" + b"\x00\x01\x00\x01\x00\x00\x00\x3c" + len(rdata).to_bytes(2, "big") + rdata)
        with pytest.raises(ValueError, match="A record"):
            parse_dns_response(packet)


def live_transport() -> LiveTransport:
    return LiveTransport(TransportConfig(resolver="192.0.2.53", qps_limit=1e9))


RETIRED = "legacy.azure-retired.net"  # the reference world's retired Azure host


def live_retired_azure_record(db, monkeypatch, terminal_reply, crawl_a_rcode=None, ns_addresses=()):
    """``RETIRED``'s hosted record from a live crawl with ``_query`` stubbed,
    and the list of (name, type) queries sent, which goes on growing. The
    CNAME and NS queries show the chain to the reference world's target,
    the NS reply with ``ns_addresses`` as the target's A records; the A
    query gets that chain with ``crawl_a_rcode``, or by default no reply,
    so the chain's end stays unknown. Every query for another name gets
    ``terminal_reply``."""
    target = load_scenario(DATA["reference_world.json"]).zones[RETIRED].cname
    cname = [(RETIRED, 5, target)]
    replies = {
        "a": None if crawl_a_rcode is None else (crawl_a_rcode, cname),
        "cname": (0, cname),
        "ns": (0, cname + [(target, 1, address) for address in ns_addresses]),
    }
    sent: list[tuple[str, str]] = []

    def fake_query(self, name, kind):
        sent.append((name, kind))
        return replies[kind] if name == RETIRED else terminal_reply

    monkeypatch.setattr(LiveTransport, "_query", fake_query)
    transport = live_transport()
    [record] = discover_hosted(crawl_records([parse_fqdn(RETIRED)], transport), db, transport)
    assert record.observation.cname_chain == (target,)
    return record, sent


def wire_name(name: str) -> bytes:
    return b"".join(bytes([len(label)]) + label.encode() for label in name.split(".")) + b"\x00"


def wire_reply(query: bytes, rcode: int, answers) -> bytes:
    """A resolver's reply to ``query``: its id and question, ``rcode``, and
    ``answers`` as (owner, type, data) records of type A, NS or CNAME."""
    records = b""
    for owner, rtype, data in answers:
        rdata = bytes(int(part) for part in data.split(".")) if rtype == 1 else wire_name(data)
        records += wire_name(owner) + rtype.to_bytes(2, "big") + b"\x00\x01\x00\x00\x00\x3c"
        records += len(rdata).to_bytes(2, "big") + rdata
    header = query[:2] + bytes([0x81, 0x80 | rcode]) + b"\x00\x01" + len(answers).to_bytes(2, "big") + bytes(4)
    return header + query[12:] + records


CHAIN = [("www.example.com", 5, "a.cdn.example.net"), ("a.cdn.example.net", 5, "b.cdn.example.net"),
         ("b.cdn.example.net", 1, "192.0.2.10")]
GONE = [("www.example.com", 5, "gone.cdn.example.net")]

# what live sends today for www.example.com under each kind of reply: the
# reply to each query type (None: every try timed out), the query types
# RRType.ALL sends, in order (RRType.A sends A alone), and the answer's rcode
ALL_THREE = ["a", "cname", "ns"]
WIRE_SEQUENCES = [
    ("nxdomain", {"a": (3, []), "cname": (3, []), "ns": (3, [])}, ["a"], Rcode.NXDOMAIN),  # RFC 8020
    ("nodata", {"a": (0, []), "cname": (0, []), "ns": (0, [])}, ALL_THREE, Rcode.NOERROR),
    ("a-records", {"a": (0, [("www.example.com", 1, "192.0.2.10")]), "cname": (0, []), "ns": (0, [])},
     ALL_THREE, Rcode.NOERROR),
    ("cname-chain", {"a": (0, CHAIN), "cname": (0, CHAIN[:1]), "ns": (0, CHAIN[:1])}, ALL_THREE, Rcode.NOERROR),
    ("cname-to-nxdomain", {"a": (3, GONE), "cname": (0, GONE), "ns": (3, GONE)}, ALL_THREE, Rcode.NOERROR),
    ("servfail", {"a": (2, []), "cname": (2, []), "ns": (2, [])}, ALL_THREE, Rcode.SERVFAIL),
    ("timeout", {"a": None, "cname": None, "ns": None}, ALL_THREE, Rcode.TIMEOUT),
    ("refused", {"a": (5, []), "cname": (5, []), "ns": (5, [])}, ALL_THREE, Rcode.TIMEOUT),
]


class TestLiveQueries:
    """LiveTransport.resolve with the wire exchange stubbed out."""

    @pytest.fixture()
    def sent(self, monkeypatch):
        sent: list[tuple[str, str]] = []

        def fake_query(self, name, rrtype):
            sent.append((name, rrtype))
            if name.startswith("missing."):
                return 3, []
            if rrtype == "ns":
                return 0, []
            return 0, [(name, 1, "192.0.2.10")]

        monkeypatch.setattr(LiveTransport, "_query", fake_query)
        return sent

    def test_nxdomain_stops_after_first_query(self, sent):
        obs = live_transport().resolve(parse_fqdn("missing.example.com"), RRType.ALL)
        assert obs.rcode is Rcode.NXDOMAIN
        assert sent == [("missing.example.com", "a")]

    def test_existing_name_gets_all_three_queries(self, sent):
        obs = live_transport().resolve(parse_fqdn("www.example.com"), RRType.ALL)
        assert obs.rcode is Rcode.NOERROR
        assert obs.a_records == ("192.0.2.10",)
        assert [kind for _, kind in sent] == ["a", "cname", "ns"]

    def test_nxdomain_with_cname_answer_keeps_querying(self, monkeypatch):
        # a dangling CNAME: the resolver reports NXDOMAIN for the chain's
        # end, but the queried name itself exists
        sent = []

        def fake_query(self, name, rrtype):
            sent.append(rrtype)
            return 3, [(name, 5, "gone.cdn.example.net")]

        monkeypatch.setattr(LiveTransport, "_query", fake_query)
        obs = live_transport().resolve(parse_fqdn("old.example.com"), RRType.ALL)
        assert obs.rcode is Rcode.NOERROR
        assert [str(c) for c in obs.cname_chain] == ["gone.cdn.example.net"]
        assert sent == ["a", "cname", "ns"]

    @pytest.mark.parametrize("rrtype", [RRType.A, RRType.ALL])
    def test_nodata_is_noerror_without_records(self, monkeypatch, rrtype):
        # RFC 2308 §2.2: NOERROR with an empty answer section says the name
        # exists but holds no record of the type asked; it once read NXDOMAIN
        monkeypatch.setattr(LiveTransport, "_query", lambda self, name, kind: (0, []))
        obs = live_transport().resolve(parse_fqdn("v6only.example.com"), rrtype)
        assert obs.rcode is Rcode.NOERROR
        assert not obs.has_records

    def test_nodata_terminal_is_not_dangling_under_an_nxdomain_fingerprint(self, db, monkeypatch):
        # a CNAME target that holds only AAAA records answers the terminal
        # A query with NODATA: it exists, so the service is not discontinued
        assert db.by_name["Azure"].discontinued_fp.dns_signal.kind is DnsSignalKind.NXDOMAIN
        record, _ = live_retired_azure_record(db, monkeypatch, (0, []))
        assert record.provider == "Azure"

        def no_probe(self, probe):
            raise AssertionError(f"unexpected probe {probe}")

        monkeypatch.setattr(LiveTransport, "probe", no_probe)
        assert detect_dangling(record, live_transport(), db) is None

    @pytest.mark.parametrize("rrtype", [RRType.A, RRType.ALL])
    @pytest.mark.parametrize("wire_rcode", [5, 4, 1], ids=["refused", "notimp", "formerr"])
    def test_refused_reply_is_no_reply(self, monkeypatch, rrtype, wire_rcode):
        # a resolver that refuses the scanner says nothing about the name;
        # these once read NXDOMAIN, which an nxdomain fingerprint matches
        monkeypatch.setattr(LiveTransport, "_query", lambda self, name, kind: (wire_rcode, []))
        obs = live_transport().resolve(parse_fqdn("www.example.com"), rrtype)
        assert obs.rcode is Rcode.TIMEOUT

    @pytest.mark.parametrize("reply", [None, (2, []), (5, [])], ids=["timeout", "servfail", "refused"])
    def test_unanswered_terminal_leaves_the_dangling_check_undecided(self, db, monkeypatch, reply):
        # Azure's nxdomain fingerprint cannot be judged without an answer;
        # the record once read healthy (timeout, SERVFAIL) or dangling (REFUSED)
        record, _ = live_retired_azure_record(db, monkeypatch, reply)
        with pytest.raises(DanglingProbeFailure, match="got no answer"):
            detect_dangling(record, live_transport(), db)

    @pytest.mark.parametrize("crawl_a_rcode, end", [(3, Rcode.NXDOMAIN), (0, Rcode.NOERROR)], ids=["nxdomain", "nodata"])
    def test_crawl_answer_that_shows_the_chain_end_needs_no_terminal_query(self, db, monkeypatch, crawl_a_rcode, end):
        # RFC 6604: the A reply's rcode is the chain's last name's, so the
        # dangling check reads it there; a terminal query would be answered
        # the other way round
        terminal_reply = (0, []) if end is Rcode.NXDOMAIN else (3, [])
        record, sent = live_retired_azure_record(db, monkeypatch, terminal_reply, crawl_a_rcode)
        assert record.observation.end_rcode is end
        finding = detect_dangling(record, live_transport(), db)
        assert [name for name, _ in sent if name != RETIRED] == []
        if end is Rcode.NOERROR:
            assert finding is None
        else:
            assert finding.stage is DanglingStage.DNS_STAGE
            assert finding.terminal.fqdn == parse_fqdn(record.observation.cname_chain[-1])
            assert finding.terminal.rcode is Rcode.NXDOMAIN

    @pytest.mark.parametrize("crawl_a_rcode, ns_addresses", [
        pytest.param(2, (), id="servfail"),
        pytest.param(None, (), id="timeout"),
        pytest.param(3, ("192.0.2.10",), id="nxdomain-then-an-address-in-the-ns-reply"),
    ])
    def test_crawl_answer_without_the_chain_end_sends_one_terminal_query(
        self, db, monkeypatch, crawl_a_rcode, ns_addresses
    ):
        # a SERVFAIL may come from the target's own zone, so it says nothing
        # of the last name: the terminal is asked for, once. So is it when an
        # NXDOMAIN A reply meets an address from the NS reply: built from
        # that answer, the terminal raised ValueError and ended the scan
        record, sent = live_retired_azure_record(db, monkeypatch, (3, []), crawl_a_rcode, ns_addresses)
        assert record.observation.a_records == ns_addresses
        assert record.observation.end_rcode is None
        finding = detect_dangling(record, live_transport(), db)
        assert [query for query in sent if query[0] != RETIRED] == [(record.observation.cname_chain[-1], "a")]
        assert finding.terminal.rcode is Rcode.NXDOMAIN

    @pytest.mark.parametrize("replies, end", [
        pytest.param({"a": (3, GONE)}, Rcode.NXDOMAIN, id="nxdomain-carrying-the-chain"),
        pytest.param({"a": (0, CHAIN)}, Rcode.NOERROR, id="chain-to-addresses"),
        pytest.param({"a": (0, GONE)}, Rcode.NOERROR, id="nodata-at-the-end"),
        pytest.param({"a": (0, [])}, None, id="no-chain"),
        pytest.param({"a": (2, GONE)}, None, id="servfail-carrying-the-chain"),
        pytest.param({"a": (2, [])}, None, id="servfail"),
        pytest.param({"a": None}, None, id="timeout"),
        pytest.param({"a": (5, [])}, None, id="refused"),
        pytest.param({"a": (3, GONE + [("gone.cdn.example.net", 1, "192.0.2.10")])}, None, id="nxdomain-with-addresses"),
        pytest.param({"a": (3, GONE), "ns": (0, GONE + [("gone.cdn.example.net", 1, "192.0.2.10")])},
                     None, id="nxdomain-then-an-address-in-the-ns-reply"),
        pytest.param({"a": (0, GONE), "cname": (0, GONE + [("gone.cdn.example.net", 1, "192.0.2.10")])},
                     None, id="nodata-then-an-address-in-the-cname-reply"),
        pytest.param({"a": (0, [("www.example.com", 5, "a.example.net"), ("a.example.net", 5, "www.example.com")])},
                     None, id="loop"),
        pytest.param({"a": (0, [(f"c{hop}.example.net" if hop else "www.example.com", 5, f"c{hop + 1}.example.net")
                                for hop in range(MAX_CNAME_CHAIN + 1)])}, None, id="cut-short"),
        pytest.param({"a": (0, CHAIN[:1]), "cname": (0, CHAIN[:2])}, None, id="a-later-reply-goes-further"),
        pytest.param({"a": (0, GONE), "ns": (0, GONE + [("gone.cdn.example.net", 2, "ns1.example.net")])},
                     Rcode.NOERROR, id="ns-records-beside-the-chain"),
    ])
    def test_end_rcode_only_from_an_a_reply_that_shows_the_whole_chain(self, monkeypatch, replies, end):
        monkeypatch.setattr(LiveTransport, "_query", lambda self, name, kind: replies.get(kind, (0, [])))
        assert live_transport().resolve(parse_fqdn("www.example.com"), RRType.ALL).end_rcode is end

    def test_a_record_that_is_not_four_bytes_is_no_address(self, monkeypatch):
        # every reply holds a 0-byte A record, which resolve once kept as
        # the address "": the origin-exposure check then raised out of the
        # scan on it. A reply that cannot be parsed is no reply.
        def fake_exchange(self, query):
            header = query[:2] + b"\x81\x80\x00\x01\x00\x01\x00\x00\x00\x00"
            return header + query[12:] + b"\xc0\x0c\x00\x01\x00\x01\x00\x00\x00\x3c\x00\x00"

        monkeypatch.setattr(LiveTransport, "_exchange", fake_exchange)
        obs = live_transport().resolve(parse_fqdn("www.example.com"), RRType.ALL)
        assert obs.a_records == ()
        assert obs.rcode is Rcode.TIMEOUT

    def test_cname_target_that_is_no_host_name_is_kept_as_text(self, monkeypatch):
        # RFC 2181 §11: a CNAME target may be any name; this answer once
        # raised DomainSyntaxError out of resolve and ended the scan
        def fake_exchange(self, query):
            header = query[:2] + b"\x81\x80\x00\x01\x00\x02\x00\x00\x00\x00"
            target = wire_name("_CDN.edge.example.net")
            cname = b"\xc0\x0c\x00\x05\x00\x01\x00\x00\x00\x3c" + len(target).to_bytes(2, "big") + target
            a = wire_name("_cdn.edge.example.net") + b"\x00\x01\x00\x01\x00\x00\x00\x3c\x00\x04\xc0\x00\x02\x0a"
            return header + query[12:] + cname + a

        monkeypatch.setattr(LiveTransport, "_exchange", fake_exchange)
        obs = live_transport().resolve(parse_fqdn("www.example.com"), RRType.ALL)
        assert obs.rcode is Rcode.NOERROR
        assert obs.cname_chain == ("_cdn.edge.example.net",)
        assert obs.a_records == ("192.0.2.10",)

    def test_resolve_existing_sends_what_resolve_sends(self, monkeypatch):
        sent: list[tuple[str, str]] = []

        def fake_query(self, name, rrtype):
            sent.append((name, rrtype))
            label = name.split(".")[0]
            if label == "missing":
                return 3, []
            if label == "broken":
                return 2, []
            if label == "slow":
                return None  # every try timed out
            if rrtype == "ns":
                return 0, []
            return 0, [(name, 1, "192.0.2.10")]

        monkeypatch.setattr(LiveTransport, "_query", fake_query)
        labels = ("www", "missing", "broken", "slow", "api")
        overlong = ".".join(["x" * 63] * 4)  # a valid prefix, but no name under example.com
        names = [f"{label}.example.com" for label in labels]
        batch = live_transport()
        found = batch.resolve_existing("example.com", PrefixDictionary.from_lines([*labels[:2], overlong, *labels[2:]]))
        batch_sent = list(sent)
        sent.clear()
        single = live_transport()
        answers = {name: single.resolve(parse_fqdn(name), RRType.ALL) for name in names}
        assert batch_sent == sent  # the same queries in the same order, none for the overlong name
        assert batch.stats.dns_queries == single.stats.dns_queries == len(names)
        assert [answers[name].rcode for name in names[1:4]] == [Rcode.NXDOMAIN, Rcode.SERVFAIL, Rcode.TIMEOUT]
        assert found == {name: answers[name] for name in ("www.example.com", "api.example.com")}

    @pytest.mark.parametrize("rrtype", [RRType.ALL, RRType.A], ids=["all", "a"])
    @pytest.mark.parametrize("replies, sequence, rcode", [pytest.param(*case[1:], id=case[0]) for case in WIRE_SEQUENCES])
    def test_one_query_counted_per_name(self, monkeypatch, replies, sequence, rcode, rrtype):
        # one query per name, as the mock counts it, however many of the up
        # to three wire queries go out for it; the sequence is pinned so that
        # a change to it is made on purpose
        kinds = {number: kind for kind, number in transport_mod._DNS_TYPE.items()}
        sent = []

        def fake_exchange(self, query):
            end = query.index(0, 12)  # the question's name ends at the first zero byte
            kind = kinds[int.from_bytes(query[end + 1:end + 3], "big")]
            sent.append(kind)
            reply = replies[kind]
            return None if reply is None else wire_reply(query, *reply)

        monkeypatch.setattr(LiveTransport, "_exchange", fake_exchange)
        transport = live_transport()
        obs = transport.resolve(parse_fqdn("www.example.com"), rrtype)
        assert sent == (sequence if rrtype is RRType.ALL else ["a"])
        assert transport.stats.dns_queries == 1
        assert obs.rcode is rcode

    def test_record_probes_needs_the_mock_backend(self):
        # live keeps no probe_log or query_log, so asking for them is an
        # error before the scan, not an empty log after it
        config = replace(scan_config(DATA["reference_world_targets.txt"], None),
                         backend=Backend.LIVE, resolver="192.0.2.53", record_probes=True)
        with pytest.raises(ConfigError, match="record_probes"):
            prepare(config)

    def test_geoip_table_skips_comments_and_blank_lines(self, tmp_path):
        # prepare alone sends nothing: the resolver is given by address
        table = tmp_path / "geo.txt"
        table.write_text("# ip,city\n\n192.0.2.1, Paris  # edge\n192.0.2.2,\n", encoding="utf-8")
        config = replace(scan_config(DATA["reference_world_targets.txt"], None),
                         backend=Backend.LIVE, resolver="192.0.2.53", geoip=table)
        geo = prepare(config).geo
        assert [geo(ip) for ip in ("192.0.2.1", "192.0.2.2", "192.0.2.3", "# ip")] == ["Paris", None, None, None]

    def test_live_scan_neither_reads_nor_hashes_the_scenario(self, tmp_path):
        # a live scan never uses --scenario, as the mock never uses --geoip
        config = replace(scan_config(DATA["reference_world_targets.txt"], tmp_path / "missing.json"),
                         backend=Backend.LIVE, resolver="192.0.2.53")
        ctx = prepare(config)
        assert ctx.simnet is None
        assert ctx.report.meta["scenario_sha1"] is None


class TestLiveProbe:
    def test_out_of_range_status_is_connect_refused(self, monkeypatch):
        class FakeSocket:
            def settimeout(self, timeout):
                pass

            def sendall(self, data):
                pass

            def close(self):
                pass

        monkeypatch.setattr(socket, "create_connection", lambda *a, **kw: FakeSocket())
        monkeypatch.setattr(transport_mod, "_read_http_response", lambda sock, timeout: (999, [], b"x"))
        response = live_transport().probe(
            HttpProbe(target_ip="192.0.2.10", scheme=Scheme.HTTP, host_header=parse_fqdn("www.example.com"))
        )
        assert response.failure is TransportFailure.CONNECT_REFUSED

    def test_drip_fed_tls_handshake_ends_at_the_timeout(self, monkeypatch):
        # a TLS record header, then its body one byte every 50 ms: each recv
        # is quick, but the handshake keeps one deadline of ``timeout``
        record = b"\x16\x03\x03\x00\x40" + bytes(64)
        with dripping_peer(lambda hello: record, burst=5) as near:
            def connect(address, timeout):
                near.settimeout(timeout)
                return near

            monkeypatch.setattr(socket, "create_connection", connect)
            transport = LiveTransport(TransportConfig(resolver="192.0.2.53", qps_limit=1e9, timeout=0.3))
            start = time.monotonic()
            response = transport.probe(HttpProbe.request("192.0.2.10", Scheme.HTTPS, parse_fqdn("www.example.com")))
            assert response.failure is TransportFailure.TIMEOUT
            assert time.monotonic() - start < 0.3 + 0.2

    def test_slow_connect_leaves_the_read_only_the_rest_of_the_timeout(self, monkeypatch):
        # the connect takes most of the timeout, then the response drips:
        # one deadline for the whole probe ends it at ``timeout``, where a
        # fresh one for the read would let it run on for another
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n" + b"x" * 40
        with dripping_peer(lambda request: reply) as near:
            def connect(address, timeout):
                time.sleep(0.3)
                near.settimeout(timeout)
                return near

            monkeypatch.setattr(socket, "create_connection", connect)
            transport = LiveTransport(TransportConfig(resolver="192.0.2.53", qps_limit=1e9, timeout=0.4))
            start = time.monotonic()
            response = transport.probe(HttpProbe.request("192.0.2.10", Scheme.HTTP, parse_fqdn("www.example.com")))
            assert response.failure is TransportFailure.TIMEOUT
            assert time.monotonic() - start < 0.4 + 0.2

    def test_one_tls_context_per_transport(self, monkeypatch):
        # building a context loads the CA store (about 50 ms of CPU), even
        # with verification off: once per transport, not once per probe
        made = []

        class FakeSocket:
            def settimeout(self, timeout):
                pass

            def sendall(self, data):
                pass

            def close(self):
                pass

        class FakeContext:
            check_hostname = True
            verify_mode = None

            def __init__(self):
                made.append(self)

            def wrap_socket(self, sock, server_hostname):
                return sock

        monkeypatch.setattr(socket, "create_connection", lambda address, **kw: FakeSocket())
        monkeypatch.setattr(ssl, "create_default_context", FakeContext)
        monkeypatch.setattr(transport_mod, "_peer_cert_name", lambda sock: None)
        monkeypatch.setattr(transport_mod, "_read_http_response", lambda sock, timeout: (200, [], b"ok"))
        transport = live_transport()
        for host in ("a.example.com", "b.example.com"):
            assert transport.probe(HttpProbe.request("192.0.2.10", Scheme.HTTPS, parse_fqdn(host))).status == 200
        assert len(made) == 1
        assert made[0].check_hostname is False and made[0].verify_mode is ssl.CERT_NONE

    @pytest.mark.parametrize("scheme", [Scheme.HTTP, Scheme.HTTPS])
    def test_probe_batch_sends_what_probe_sends(self, monkeypatch, scheme):
        sent: list[tuple[tuple, Optional[str], bytes]] = []

        class FakeSocket:
            def __init__(self, address):
                self.address = address
                self.sni: Optional[str] = None

            def settimeout(self, timeout):
                pass

            def sendall(self, data):
                sent.append((self.address, self.sni, data))

            def close(self):
                pass

        class FakeContext:
            check_hostname = True
            verify_mode = None

            def wrap_socket(self, sock, server_hostname):
                sock.sni = server_hostname
                return sock

        def fake_read(sock, timeout):
            request = sent[-1][2]
            path = request.split(b" ")[1]
            host = request.split(b"Host: ")[1].split(b"\r\n")[0]
            missing = host.startswith(b"missing.") or path.startswith(b"/missing")
            return (404 if missing else 200), [], b"page of " + host + path

        monkeypatch.setattr(socket, "create_connection", lambda address, **kw: FakeSocket(address))
        monkeypatch.setattr(ssl, "create_default_context", FakeContext)
        monkeypatch.setattr(transport_mod, "_peer_cert_name", lambda sock: f"cert.{sock.sni}")
        monkeypatch.setattr(transport_mod, "_read_http_response", fake_read)
        requests = [(parse_fqdn(host), path) for host, path in (
            ("www.example.com", "/logo.png"),
            ("www.example.com", "/logo.png"),
            ("missing.example.com", "/"),
            ("www.example.com", "/missing.js"),
        )]
        batch = live_transport()
        answers = batch.probe_batch("192.0.2.10", scheme, requests)
        batch_sent = list(sent)
        sent.clear()
        single = live_transport()
        https = scheme is Scheme.HTTPS
        expected = [
            single.probe(HttpProbe(target_ip="192.0.2.10", scheme=scheme, host_header=host, path=path,
                                   sni=host if https else None))
            for host, path in requests
        ]
        assert batch_sent == sent
        port = 443 if https else 80
        assert [(address, sni) for address, sni, _ in sent] == [
            (("192.0.2.10", port), str(host) if https else None) for host, _ in requests
        ]
        assert [data.split(b"\r\n")[:2] for _, _, data in sent] == [
            [f"GET {path} HTTP/1.1".encode(), f"Host: {host}".encode()] for host, path in requests
        ]
        assert answers == expected
        assert [answer.status for answer in answers] == [200, 200, 404, 404]
        assert [answer.tls_cert_name for answer in answers] == [f"cert.{host}" if https else None for host, _ in requests]
        assert batch.stats.http_probes == single.stats.http_probes == 4


WWW = parse_fqdn("www.example.com")
HELD_PROBE = HttpProbe.request("192.0.2.10", Scheme.HTTPS, WWW, "/logo.png")


class TestHeldAnswers:
    """One rule on both backends for answers the scan already holds:
    ``probe`` returns a held answer unsent, ``probe_batch`` sends every
    request whatever is held, and the first answer held for a probe
    stands."""

    @pytest.fixture(params=["mock", "live"])
    def wire(self, request, monkeypatch, db):
        """A transport, and the list of what it puts on the wire: each
        ``serve_http`` call and batch request of the mock; each socket and
        limiter slot of live."""
        sent: list = []
        if request.param == "mock":
            net = SimulatedInternet(Scenario(providers=[], origins={"192.0.2.10": Origin(body=b"page")}), db)
            serve, serve_batch = net.serve_http, net.serve_http_batch
            monkeypatch.setattr(net, "serve_http", lambda probe: sent.append(probe) or serve(probe))
            monkeypatch.setattr(net, "serve_http_batch", lambda *args: sent.extend(args[2]) or serve_batch(*args))
            return MockTransport(net, record=True), sent

        class FakeSocket:
            def settimeout(self, timeout):
                pass

            def sendall(self, data):
                pass

            def close(self):
                pass

        class FakeContext:
            check_hostname = True
            verify_mode = None

            def wrap_socket(self, sock, server_hostname):
                return sock

        monkeypatch.setattr(socket, "create_connection", lambda address, **kw: sent.append(address) or FakeSocket())
        monkeypatch.setattr(ssl, "create_default_context", FakeContext)
        monkeypatch.setattr(transport_mod, "_peer_cert_name", lambda sock: None)
        monkeypatch.setattr(transport_mod, "_read_http_response", lambda sock, timeout: (200, [], b"page"))
        transport = live_transport()
        acquire = transport.limiter.acquire
        monkeypatch.setattr(transport.limiter, "acquire", lambda: sent.append("slot") or acquire())
        return transport, sent

    def test_a_held_answer_is_returned_unsent(self, wire):
        transport, sent = wire
        held = HttpResponseSummary.from_body(200, b"held")
        transport.hold(HELD_PROBE, held)
        assert transport.probe(HELD_PROBE) is held
        assert sent == []
        assert transport.stats.http_probes == 0
        assert getattr(transport, "probe_log", []) == []
        # any other question still goes out
        other = replace(HELD_PROBE, path="/other.png")
        assert transport.probe(other).body_hash == sha1_body(b"page")
        assert sent and transport.stats.http_probes == 1

    def test_probe_batch_sends_a_held_request_and_holds_nothing(self, wire):
        transport, sent = wire
        held = HttpResponseSummary.from_body(200, b"held")
        transport.hold(HELD_PROBE, held)
        answers = transport.probe_batch(HELD_PROBE.target_ip, Scheme.HTTPS, [(WWW, "/logo.png"), (WWW, "/a.js")])
        assert [answer.body_hash for answer in answers] == [sha1_body(b"page")] * 2
        assert sent and transport.stats.http_probes == 2
        assert transport.held == {HELD_PROBE: held}

    def test_the_first_held_answer_stands(self, wire):
        transport, sent = wire
        first, second = HttpResponseSummary.from_body(200, b"first"), HttpResponseSummary.from_body(404, b"second")
        transport.hold(HELD_PROBE, first)
        transport.hold(HELD_PROBE, second)
        assert transport.probe(HELD_PROBE) is first
        assert sent == []


def a_reply(qid: int, ip: str, flags: bytes = b"\x81\x80") -> bytes:
    """A resolver reply for www.example.com with one A record."""
    header = qid.to_bytes(2, "big") + flags + b"\x00\x01\x00\x01\x00\x00\x00\x00"
    question = b"\x03www\x07example\x03com\x00" + b"\x00\x01\x00\x01"
    answer = b"\xc0\x0c" + b"\x00\x01\x00\x01\x00\x00\x00\x3c\x00\x04" + bytes(int(p) for p in ip.split("."))
    return header + question + answer


def echo(ip: str, flags: bytes = b"\x81\x80", qid_offset: int = 0):
    """A reply built from the query it answers: ``a_reply`` with the
    query's id plus ``qid_offset`` (a non-zero offset makes a mismatch)."""
    return lambda query: a_reply((int.from_bytes(query[:2], "big") + qid_offset) & 0xFFFF, ip, flags)


class FakeUdpSocket:
    """Stands in for socket.socket: hands out queued (data, source)
    datagrams, each ``delay`` seconds after it is asked for, then times
    out. ``data`` may be a function of the query last sent, such as
    ``echo(...)``."""

    def __init__(self, datagrams, delay=0.0):
        self.datagrams = list(datagrams)
        self.delay = delay
        self.sent = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def settimeout(self, timeout):
        pass

    def sendto(self, data, address):
        self.sent.append((data, address))

    def recvfrom(self, size):
        if not self.datagrams:
            raise socket.timeout("timed out")
        time.sleep(self.delay)
        data, source = self.datagrams.pop(0)
        if callable(data):
            data = data(self.sent[-1][0])
        return data, source


class FakeTcpSocket:
    """Stands in for socket.create_connection: answers the query sent over
    it with ``reply(query)``, length-prefixed."""

    def __init__(self, reply):
        self.reply = reply
        self.data = b""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def settimeout(self, timeout):
        pass

    def sendall(self, data):
        body = self.reply(data[2:])
        self.data = len(body).to_bytes(2, "big") + body

    def recv(self, size):
        chunk, self.data = self.data[:size], self.data[size:]
        return chunk


class TestLiveExchange:
    """LiveTransport._exchange with the sockets faked."""

    RESOLVER = ("192.0.2.53", 53)

    def test_udp_reply_must_match_qid_and_source(self, monkeypatch):
        fake = FakeUdpSocket([
            (echo("203.0.113.1", qid_offset=1), self.RESOLVER),  # wrong qid
            (echo("203.0.113.2"), ("198.51.100.7", 53)),  # wrong source
            (echo("192.0.2.10"), self.RESOLVER),
        ])
        monkeypatch.setattr(socket, "socket", lambda *a, **kw: fake)
        transport = live_transport()
        reply = transport._query("www.example.com", "a")
        assert reply == (0, [("www.example.com", 1, "192.0.2.10")])
        assert len(fake.sent) == 1  # one send; the stray datagrams were skipped

    def test_only_stray_datagrams_time_out(self, monkeypatch):
        fakes = []

        def make(*a, **kw):
            fakes.append(FakeUdpSocket([(echo("203.0.113.1", qid_offset=1), self.RESOLVER)]))
            return fakes[-1]

        monkeypatch.setattr(socket, "socket", make)
        transport = LiveTransport(TransportConfig(resolver="192.0.2.53", qps_limit=1e9, retries=1))
        assert transport._query("www.example.com", "a") is None
        assert len(fakes) == 2  # the query was retried, and each try ran out

    def test_tcp_fallback_reply_must_match_qid(self, monkeypatch):
        truncated = echo("192.0.2.10", flags=b"\x83\x80")  # TC bit set
        monkeypatch.setattr(socket, "socket", lambda *a, **kw: FakeUdpSocket([(truncated, self.RESOLVER)]))
        wrong = echo("203.0.113.1", qid_offset=1)
        monkeypatch.setattr(socket, "create_connection", lambda *a, **kw: FakeTcpSocket(wrong))
        transport = LiveTransport(TransportConfig(resolver="192.0.2.53", qps_limit=1e9, retries=0))
        assert transport._query("www.example.com", "a") is None

    def test_tcp_fallback_reply_with_matching_qid_accepted(self, monkeypatch):
        truncated = echo("192.0.2.10", flags=b"\x83\x80")  # TC bit set
        monkeypatch.setattr(socket, "socket", lambda *a, **kw: FakeUdpSocket([(truncated, self.RESOLVER)]))
        monkeypatch.setattr(socket, "create_connection", lambda *a, **kw: FakeTcpSocket(echo("192.0.2.11")))
        transport = LiveTransport(TransportConfig(resolver="192.0.2.53", qps_limit=1e9, retries=0))
        assert transport._query("www.example.com", "a") == (0, [("www.example.com", 1, "192.0.2.11")])

    def test_query_id_is_drawn_at_random_and_kept_across_retries(self, monkeypatch):
        draws = []

        def randbits(bits):
            draws.append(bits)
            return 0xBEEF

        monkeypatch.setattr(transport_mod.secrets, "randbits", randbits)
        fakes = []

        def make(*a, **kw):
            # the first try times out; the retry is answered
            fakes.append(FakeUdpSocket([(echo("192.0.2.10"), self.RESOLVER)] if fakes else []))
            return fakes[-1]

        monkeypatch.setattr(socket, "socket", make)
        transport = LiveTransport(TransportConfig(resolver="192.0.2.53", qps_limit=1e9, retries=1))
        assert transport._query("www.example.com", "a") == (0, [("www.example.com", 1, "192.0.2.10")])
        assert draws == [16]  # one id per query, not per try
        assert [fake.sent[0][0][:2] for fake in fakes] == [b"\xbe\xef", b"\xbe\xef"]

    def test_drip_fed_tcp_fallback_ends_at_the_timeout(self, monkeypatch):
        # the length prefix and the reply, one byte every 50 ms: each recv
        # is quick, so only a deadline for the whole read ends it
        def length_prefixed(request):
            body = echo("192.0.2.11")(request[2:])
            return len(body).to_bytes(2, "big") + body

        with dripping_peer(length_prefixed) as near:
            truncated = echo("192.0.2.10", flags=b"\x83\x80")  # TC bit set
            monkeypatch.setattr(socket, "socket", lambda *a, **kw: FakeUdpSocket([(truncated, self.RESOLVER)]))

            def connect(address, timeout):
                near.settimeout(timeout)
                return near

            monkeypatch.setattr(socket, "create_connection", connect)
            transport = LiveTransport(TransportConfig(resolver="192.0.2.53", qps_limit=1e9, retries=0, timeout=0.3))
            start = time.monotonic()
            assert transport._query("www.example.com", "a") is None
            assert time.monotonic() - start < 0.3 + 0.2

    def test_tcp_fallback_gets_only_what_is_left_of_the_try(self, monkeypatch):
        # the truncated UDP reply comes after 0.2 s, then the TCP peer drips:
        # the connect and the reads get the rest of the try's one deadline,
        # not a fresh timeout each
        def length_prefixed(request):
            body = echo("192.0.2.11")(request[2:])
            return len(body).to_bytes(2, "big") + body

        with dripping_peer(length_prefixed) as near:
            truncated = echo("192.0.2.10", flags=b"\x83\x80")  # TC bit set
            monkeypatch.setattr(socket, "socket",
                                lambda *a, **kw: FakeUdpSocket([(truncated, self.RESOLVER)], delay=0.2))
            connect_timeouts = []

            def connect(address, timeout):
                connect_timeouts.append(timeout)
                near.settimeout(timeout)
                return near

            monkeypatch.setattr(socket, "create_connection", connect)
            transport = LiveTransport(TransportConfig(resolver="192.0.2.53", qps_limit=1e9, retries=0, timeout=0.4))
            start = time.monotonic()
            assert transport._query("www.example.com", "a") is None
            assert time.monotonic() - start < 0.4 + 0.2
            assert len(connect_timeouts) == 1 and connect_timeouts[0] <= 0.4 - 0.2

    def test_resolver_given_by_name_is_matched_by_address(self, monkeypatch):
        monkeypatch.setattr(socket, "gethostbyname", {"dns.example": "192.0.2.53"}.__getitem__)
        fake = FakeUdpSocket([(echo("192.0.2.10"), self.RESOLVER)])
        monkeypatch.setattr(socket, "socket", lambda *a, **kw: fake)
        transport = LiveTransport(TransportConfig(resolver="dns.example", qps_limit=1e9, retries=0))
        assert transport._query("www.example.com", "a") == (0, [("www.example.com", 1, "192.0.2.10")])
        assert fake.sent[0][1] == self.RESOLVER

    def test_unresolvable_resolver_rejected(self, monkeypatch):
        def fail(name):
            raise socket.gaierror("no such name")

        monkeypatch.setattr(socket, "gethostbyname", fail)
        with pytest.raises(ValueError):
            LiveTransport(TransportConfig(resolver="dns.invalid"))
        config = replace(scan_config(DATA["reference_world_targets.txt"], None),
                         backend=Backend.LIVE, resolver="dns.invalid")
        with pytest.raises(ConfigError, match="cannot resolve"):
            run_scan(config)


@contextmanager
def dripping_peer(reply, burst=0, gap=0.05):
    """A connected socket whose peer, on its own thread, reads one request
    and then sends ``reply(request)``: the first ``burst`` bytes at once,
    the rest one byte every ``gap`` seconds. Yields the near end."""
    near, far = socket.socketpair()
    stop = threading.Event()

    def drip():
        try:
            data = reply(far.recv(4096))
            far.sendall(data[:burst])
            for byte in data[burst:]:
                if stop.wait(gap):
                    return
                far.sendall(bytes([byte]))
        except OSError:
            pass

    thread = threading.Thread(target=drip, daemon=True)
    thread.start()
    try:
        yield near
    finally:
        stop.set()
        near.close()
        far.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


class FakeHttpSocket:
    """A peer that sends ``data`` and then keeps the connection open: any
    read past the end raises, the way a timeout would end it."""

    def __init__(self, data: bytes, chunk: int = 7):
        self.data = data
        self.chunk = chunk

    def settimeout(self, timeout):
        pass

    def recv(self, size):
        if not self.data:
            raise AssertionError("read past the end of the response")
        out, self.data = self.data[:min(size, self.chunk)], self.data[min(size, self.chunk):]
        return out


class ClosingHttpSocket(FakeHttpSocket):
    """A peer that sends ``data`` and then closes the connection."""

    def recv(self, size):
        return super().recv(size) if self.data else b""


class TestReadHttpResponse:
    def test_stops_at_content_length(self):
        sock = FakeHttpSocket(b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\nServer: edge\r\n\r\nhello world")
        status, headers, body = transport_mod._read_http_response(sock, 5.0)
        assert status == 200
        assert ("Server", "edge") in headers
        assert body == b"hello world"

    def test_body_already_read_with_the_head(self):
        sock = FakeHttpSocket(b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno", chunk=4096)
        assert transport_mod._read_http_response(sock, 5.0) == (404, [("Content-Length", "2")], b"no")

    def test_extra_bytes_past_content_length_are_dropped(self):
        sock = FakeHttpSocket(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcdef", chunk=4096)
        assert transport_mod._read_http_response(sock, 5.0)[2] == b"abc"

    def test_chunked_wins_over_content_length(self):
        raw = (b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n"
               b"5\r\nhello\r\n0\r\n\r\n")
        sock = ClosingHttpSocket(raw)
        assert transport_mod._read_http_response(sock, 5.0)[2] == b"hello"

    def test_without_length_reads_until_close(self):
        sock = ClosingHttpSocket(b"HTTP/1.0 200 OK\r\n\r\nuntil the end")
        assert transport_mod._read_http_response(sock, 5.0)[2] == b"until the end"

    @pytest.mark.parametrize("value", ["abc", "-1", "3, 4", ""])
    def test_invalid_content_length_rejected(self, value):
        sock = ClosingHttpSocket(f"HTTP/1.1 200 OK\r\nContent-Length: {value}\r\n\r\nabc".encode())
        with pytest.raises(ValueError):
            transport_mod._read_http_response(sock, 5.0)

    def test_declared_length_is_capped(self):
        # a peer that declares a huge body and keeps sending; it gives up
        # well past the cap, so a reader without one fails instead of
        # growing without bound
        class FloodingSocket(FakeHttpSocket):
            body_sent = 0

            def recv(self, size):
                if self.data:
                    return super().recv(size)
                if self.body_sent > 2 << 22:
                    raise AssertionError("read far past the cap")
                self.body_sent += size
                return b"x" * size

        sock = FloodingSocket(b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n")
        assert len(transport_mod._read_http_response(sock, 5.0)[2]) == 1 << 22

    def test_repeated_equal_content_length_accepted(self):
        sock = FakeHttpSocket(b"HTTP/1.1 200 OK\r\nContent-Length: 3, 3\r\n\r\nabc")
        assert transport_mod._read_http_response(sock, 5.0)[2] == b"abc"

    @pytest.mark.parametrize("size", [b"-a", b"+5", b"0x5", b"5_0", b""])
    def test_chunk_size_must_be_hex_digits(self, size):
        # a negative size used to move the parser backwards, forever
        raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + size + b"\r\nhello\r\n0\r\n\r\n"
        with pytest.raises(ValueError):
            transport_mod._read_http_response(ClosingHttpSocket(raw), 5.0)

    def test_chunk_extension_after_whitespace_accepted(self):
        raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5 ;x=1\r\nhello\r\n0\r\n\r\n"
        assert transport_mod._read_http_response(ClosingHttpSocket(raw), 5.0)[2] == b"hello"

    @pytest.mark.parametrize("line", [b"HTTP/1.1", b"HTTP/1.1 OK", b"HTTP/1.1 +200 OK"])
    def test_status_line_without_code_rejected(self, line):
        with pytest.raises(ValueError):
            transport_mod._read_http_response(ClosingHttpSocket(line + b"\r\n\r\n"), 5.0)

    @pytest.mark.parametrize("body", [False, True], ids=["head", "body"])
    def test_drip_fed_response_ends_at_the_timeout(self, body):
        # one byte every 50 ms: each recv is quick, so only a deadline for
        # the whole response ends it. An incomplete head is a timeout; an
        # incomplete body keeps what arrived. With ``body`` the head
        # arrives at once and only the body drips
        head = b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n"
        reply = head + b"x" * 40

        with dripping_peer(lambda request: reply, burst=len(head) if body else 0) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
            start = time.monotonic()
            if body:
                status, _, partial = transport_mod._read_http_response(sock, 0.3)
                assert status == 200 and 0 < len(partial) < 40
            else:
                with pytest.raises(socket.timeout):
                    transport_mod._read_http_response(sock, 0.3)
            assert time.monotonic() - start < 0.3 + 0.2

    @pytest.mark.parametrize("raw", [
        b"HTTP/1.1\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-a\r\n",
    ], ids=["no-status-code", "negative-chunk-size"])
    def test_malformed_response_is_connect_refused(self, monkeypatch, raw):
        class HostileEdge(ClosingHttpSocket):
            def sendall(self, data):
                pass

            def close(self):
                pass

        monkeypatch.setattr(socket, "create_connection", lambda *a, **kw: HostileEdge(raw))
        response = live_transport().probe(
            HttpProbe(target_ip="192.0.2.10", scheme=Scheme.HTTP, host_header=parse_fqdn("www.example.com"))
        )
        assert response.failure is TransportFailure.CONNECT_REFUSED


class TestCertNameFromDer:
    """With verification off the live certificate name is read from the
    DER. The issuer's CN comes before the subject's there, so a byte scan
    for the CN attribute once named the issuing CA."""

    @pytest.fixture(scope="class")
    def make_cert(self):
        x509 = pytest.importorskip("cryptography.x509")
        from datetime import datetime, timedelta, timezone

        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric import ec
        from cryptography.hazmat.primitives.serialization import Encoding
        from cryptography.x509.oid import NameOID

        def name(cn):
            return x509.Name([x509.NameAttribute(NameOID.ORGANIZATION_NAME, "Example")]
                             + ([x509.NameAttribute(NameOID.COMMON_NAME, cn)] if cn else []))

        ca_key = ec.generate_private_key(ec.SECP256R1())

        def make(subject_cn, san=(), self_signed=False):
            key = ec.generate_private_key(ec.SECP256R1())
            issuer, signer = (name(subject_cn), key) if self_signed else (name("Example Issuing CA"), ca_key)
            now = datetime(2024, 1, 1, tzinfo=timezone.utc)
            builder = (x509.CertificateBuilder().subject_name(name(subject_cn)).issuer_name(issuer)
                       .public_key(key.public_key()).serial_number(x509.random_serial_number())
                       .not_valid_before(now).not_valid_after(now + timedelta(days=30)))
            if san:
                builder = builder.add_extension(
                    x509.SubjectAlternativeName([x509.DNSName(n) for n in san]), critical=False)
            return builder.sign(signer, hashes.SHA256()).public_bytes(Encoding.DER)

        return make

    def test_ca_issued_leaf_names_its_subject(self, make_cert):
        der = make_cert("*.edge.example")
        assert transport_mod._der_cert_name(der) == "*.edge.example"

    def test_san_only_leaf_names_its_first_dns_name(self, make_cert):
        der = make_cert(None, san=("*.edge.example", "edge.example"))
        assert transport_mod._der_cert_name(der) == "*.edge.example"

    def test_san_wins_over_subject_cn(self, make_cert):
        der = make_cert("origin.edge.example", san=("*.edge.example",))
        assert transport_mod._der_cert_name(der) == "*.edge.example"

    def test_self_signed(self, make_cert):
        assert transport_mod._der_cert_name(make_cert("self.example", self_signed=True)) == "self.example"

    def test_malformed_der_gives_none(self, make_cert):
        der = make_cert("*.edge.example")
        for bad in (der[: len(der) // 2], der[:1], b"", b"\x30\x84\xff\xff\xff\xff", der + b"\x00"):
            assert transport_mod._der_cert_name(bad) is None
