import socket

import pytest

from dvahunter import transport as transport_mod
from dvahunter.core import HttpProbe, Rcode, Scheme, TransportFailure, parse_fqdn
from dvahunter.simnet import Origin, Scenario, SimulatedInternet, ZoneRecord
from dvahunter.transport import (
    LiveTransport,
    RateLimiter,
    RRType,
    TransportConfig,
    VirtualClock,
    build_dns_query,
    parse_dns_response,
)


@pytest.fixture()
def chain_world(db):
    zones = {
        "foo.site.com": ZoneRecord(cname="x.fastly.net"),
        "x.fastly.net": ZoneRecord(a=("10.0.0.5",)),
        "a.loop.com": ZoneRecord(cname="b.loop.com"),
        "b.loop.com": ZoneRecord(cname="a.loop.com"),
        "broken.site.com": ZoneRecord(servfail=True),
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

    def test_rrtype_filtering(self, chain_world):
        from dvahunter.transport import MockTransport
        transport = MockTransport(chain_world)
        cname_only = transport.resolve(parse_fqdn("foo.site.com"), RRType.CNAME)
        assert cname_only.cname_chain and not cname_only.a_records
        ns_only = transport.resolve(parse_fqdn("foo.site.com"), RRType.NS)
        assert not ns_only.cname_chain and not ns_only.a_records

    def test_servfail_surfaces_in_rcode(self, chain_world):
        from dvahunter.transport import MockTransport
        obs = MockTransport(chain_world).resolve(parse_fqdn("broken.site.com"))
        assert obs.rcode is Rcode.SERVFAIL

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
        clock = VirtualClock()
        sent = []

        limiter = RateLimiter(5, now=clock.now, sleep=clock.sleep)
        for _ in range(23):
            limiter.acquire()
            sent.append(clock.now())
        # over any sliding 1-second window at most 5 sends happened
        for i, start in enumerate(sent):
            in_window = [t for t in sent if start <= t < start + 1.0]
            assert len(in_window) <= 5
        assert clock.now() >= (23 - 5) / 5  # had to wait for capacity


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


def live_transport() -> LiveTransport:
    return LiveTransport(TransportConfig(resolver="192.0.2.53", qps_limit=1e9))


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


class TestLiveProbe:
    def test_out_of_range_status_is_connect_refused(self, monkeypatch):
        class FakeSocket:
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
