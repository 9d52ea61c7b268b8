import pytest

from dvahunter.checker import (
    Liveness,
    Recheck,
    collect_ingress,
    crawl_records,
    discover_hosted,
)
from dvahunter.core import parse_fqdn, Rcode
from dvahunter.simnet import (
    BorrowingPolicy,
    FrontingPolicy,
    HostEntry,
    Origin,
    Scenario,
    ScenarioProvider,
    SimulatedInternet,
    VerificationMode,
    ZoneRecord,
)
from dvahunter.transport import MockTransport
from dvahunter.worlds import build_reference_world


@pytest.fixture(scope="module")
def world(db):
    return build_reference_world(db)


@pytest.fixture()
def transport(world, db):
    return MockTransport(SimulatedInternet(world.scenario, db))


def fq(*names):
    return [parse_fqdn(n) for n in names]


class TestCrawlRecords:
    def test_order_preserved(self, transport):
        targets = fq("www.fastly-site-a.com", "missing.nowhere.net", "www.bunny-site-a.com")
        observations = crawl_records(targets, transport)
        assert [str(o.fqdn) for o in observations] == [str(t) for t in targets]
        assert observations[1].rcode is Rcode.NXDOMAIN


class TestDiscoverHosted:
    def test_confirmed_happy_path(self, transport, db):
        observations = crawl_records(fq("www.fastly-site-a.com"), transport)
        records = discover_hosted(observations, db, transport)
        assert len(records) == 1
        record = records[0]
        assert record.provider == "Fastly"
        assert record.matched_suffix == ".fastly.net"
        assert record.recheck is Recheck.CONFIRMED

    def test_dangling_fastly_refuted_by_fingerprint(self, transport, db):
        observations = crawl_records(fq("legacy.fastly-retired.net"), transport)
        records = discover_hosted(observations, db, transport)
        assert records[0].recheck is Recheck.REFUTED_BY_FINGERPRINT
        assert records[0].evidence[0].fingerprint_id == "Fastly:nonhosted"

    def test_non_cdn_domain_not_in_output(self, transport, db):
        observations = crawl_records(fq("pages.shared-press-kit.org"), transport)
        assert discover_hosted(observations, db, transport) == []

    def test_no_fingerprint_provider_unchecked(self, transport, db):
        observations = crawl_records(fq("www.akamai-site-a.com"), transport)
        records = discover_hosted(observations, db, transport)
        assert records[0].provider == "Akamai"
        assert records[0].recheck is Recheck.UNCHECKED

    def test_provider_always_agrees_with_identify(self, transport, db, world):
        from dvahunter.providers import identify_cdn
        targets = fq(*world.healthy_hosts)
        observations = crawl_records(targets, transport)
        for record in discover_hosted(observations, db, transport):
            match = identify_cdn(record.observation, db)
            assert match is not None
            assert (record.provider, record.matched_suffix) == (match.provider, match.matched_suffix)


def city_world(db):
    """One provider, six ingress node IPs across cities A, A, B, B, B, C."""
    ips = [
        ("198.18.5.1", "aarhus"), ("198.18.5.2", "aarhus"),
        ("198.18.5.3", "bergen"), ("198.18.5.4", "bergen"), ("198.18.5.5", "bergen"),
        ("198.18.5.6", "cork"),
    ]
    prov = ScenarioProvider(
        name="Fastly",
        ingress_ips=tuple(ips),
        fronting_policy=FrontingPolicy.ROUTE_BY_HOST_IGNORING_SNI,
        borrowing_policy=BorrowingPolicy.SERVE_ANY_REGISTERED_HOST,
        verification_mode=VerificationMode.NONE,
        host_table=(HostEntry(host="www.sixcity.com", origin_ip="198.18.5.100"),),
        server_header="fastly-edge",
    )
    zones = {
        "www.sixcity.com": ZoneRecord(cname="cdn-xyz.fastly.net"),
        "cdn-xyz.fastly.net": ZoneRecord(a=tuple(ip for ip, _ in ips)),
    }
    origins = {"198.18.5.100": Origin(body=b"<html>sixcity</html>")}
    scenario = Scenario(providers=[prov], zones=zones, origins=origins)
    return SimulatedInternet(scenario, db)


class TestCollectIngress:
    def test_one_representative_per_city(self, db):
        net = city_world(db)
        transport = MockTransport(net)
        observations = crawl_records(fq("www.sixcity.com"), transport)
        hosted = discover_hosted(observations, db, transport)
        sets = collect_ingress(hosted, net.city_of, transport, db, seed=3)
        nodes = sets["Fastly"]
        assert len(nodes.representatives) == 3
        cities = sorted(net.city_of(ip) for ip in nodes.representatives)
        assert cities == ["aarhus", "bergen", "cork"]

    def test_representatives_stable_under_seed(self, db):
        def run(seed):
            net = city_world(db)
            transport = MockTransport(net)
            hosted = discover_hosted(crawl_records(fq("www.sixcity.com"), transport), db, transport)
            return collect_ingress(hosted, net.city_of, transport, db, seed=seed)["Fastly"].representatives
        assert run(3) == run(3)
        assert run(3) != run(8) or True  # may coincide; stability is the contract

    def test_all_dead_nodes_leave_no_representatives(self, db):
        # the names resolve, but no node answers over HTTP: the recheck
        # and the liveness probes see the same dead edges
        net = city_world(db)

        class AllDead(MockTransport):
            def probe(self, probe):
                from dvahunter.core import HttpResponseSummary, TransportFailure
                return HttpResponseSummary.failed(TransportFailure.TIMEOUT)

        transport = AllDead(net)
        hosted = discover_hosted(crawl_records(fq("www.sixcity.com"), transport), db, transport)
        nodes = collect_ingress(hosted, net.city_of, transport, db)["Fastly"]
        assert nodes.nodes and all(state is Liveness.DEAD for _ip, _city, state in nodes.nodes)
        assert nodes.representatives == []

    def test_liveness_reuses_the_recheck_answer(self, db):
        # the recheck probed the first node with the same Host; only the
        # other five get a liveness probe of their own
        net = city_world(db)
        transport = MockTransport(net, record=True)
        hosted = discover_hosted(crawl_records(fq("www.sixcity.com"), transport), db, transport)
        assert len(transport.probe_log) == 1
        nodes = collect_ingress(hosted, net.city_of, transport, db)["Fastly"]
        assert len(nodes.nodes) == 6 and all(state is Liveness.ALIVE for _ip, _city, state in nodes.nodes)
        assert sorted(e.probe.target_ip for e in transport.probe_log[1:]) == [f"198.18.5.{i}" for i in range(2, 7)]

    def test_degraded_node_excluded_from_representatives(self, world, db, transport):
        observations = crawl_records(fq("www.cloudflare-site-a.com"), transport)
        hosted = discover_hosted(observations, db, transport)
        net = SimulatedInternet(world.scenario, db)
        sets = collect_ingress(hosted, net.city_of, transport, db)
        nodes = sets["Cloudflare"]
        degraded = {ip for ip, _city, state in nodes.nodes if state is Liveness.DEGRADED}
        assert degraded == set(world.scenario.provider("Cloudflare").degraded_ips)
        assert not degraded & set(nodes.representatives)
        assert len(nodes.representatives) == 2  # frankfurt + singapore

    def test_liveness_weak_flag(self, db):
        net = city_world(db)
        transport = MockTransport(net)
        hosted = discover_hosted(crawl_records(fq("www.sixcity.com"), transport), db, transport)
        sets = collect_ingress(hosted, net.city_of, transport, db)
        # Fastly carries no liveness header in the DB: weaker evidence
        assert sets["Fastly"].liveness_is_weak is True
