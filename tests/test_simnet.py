import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from dvahunter.core import HttpProbe, Rcode, Scheme, TransportFailure, parse_fqdn
from dvahunter.providers import identify_cdn
from dvahunter.simnet import (
    BorrowingPolicy,
    DiscontinuedService,
    FrontingPolicy,
    HostEntry,
    Origin,
    RegisteredBy,
    Scenario,
    ScenarioError,
    ScenarioProvider,
    SimulatedInternet,
    VerificationFailed,
    VerificationMode,
    ZoneRecord,
    load_scenario,
    scenario_to_json,
    scenario_from_json,
    validate_scenario,
)
from dvahunter.worlds import build_reference_world


def probe(ip, host, sni=None, scheme=Scheme.HTTPS, path="/"):
    return HttpProbe(
        target_ip=ip,
        scheme=scheme,
        host_header=parse_fqdn(host),
        sni=parse_fqdn(sni) if sni else None,
        path=path,
    )


@pytest.fixture(scope="module")
def world(db):
    return build_reference_world(db)


@pytest.fixture()
def net(world, db):
    return SimulatedInternet(world.scenario, db)


def ingress_of(world, name):
    return world.scenario.provider(name).ips[0]


class TestServeDns:
    def test_discontinued_gcore_servfails(self, net):
        obs = net.serve_dns("legacy.gcore-retired.net")
        target = obs.cname_chain[-1]
        assert net.serve_dns(target).rcode is Rcode.SERVFAIL

    def test_discontinued_kuaikuai_resolves_to_loopback(self, net):
        obs = net.serve_dns("promo.kkshift-shop.com")
        assert obs.a_records == ("127.0.0.1",)

    def test_live_host_resolves_through_chain(self, world, net):
        obs = net.serve_dns("www.fastly-site-a.com")
        assert obs.rcode is Rcode.NOERROR
        assert obs.a_records == world.scenario.provider("Fastly").ips

    def test_wildcard_zone_entries(self, db):
        zones = {
            "*.wild.com": ZoneRecord(a=("1.2.3.4",)),
            "www.wild.com": ZoneRecord(a=("5.6.7.8",)),
        }
        net = SimulatedInternet(Scenario(providers=[], zones=zones), db)
        assert net.serve_dns("anything.wild.com").a_records == ("1.2.3.4",)
        assert net.serve_dns("www.wild.com").a_records == ("5.6.7.8",)
        assert net.serve_dns("a.b.wild.com").a_records == ("1.2.3.4",)

    def test_closest_enclosing_wildcard_wins(self, db):
        zones = {
            "*.wild.com": ZoneRecord(a=("1.2.3.4",)),
            "*.b.wild.com": ZoneRecord(a=("9.9.9.9",)),
        }
        net = SimulatedInternet(Scenario(providers=[], zones=zones), db)
        assert net.serve_dns("a.b.wild.com").a_records == ("9.9.9.9",)
        # *.b.wild.com makes b.wild.com an empty non-terminal, which exists,
        # so *.wild.com does not stand for it (RFC 4592 §2.2.2): NODATA
        nodata = net.serve_dns("b.wild.com")
        assert (nodata.rcode, nodata.has_records) == (Rcode.NOERROR, False)
        assert net.serve_dns("x.tame.com").rcode is Rcode.NXDOMAIN

    def test_empty_non_terminal_is_nodata(self, db):
        # RFC 8020: an NXDOMAIN for tame.com would deny www.tame.com too
        net = SimulatedInternet(Scenario(providers=[], zones={"www.tame.com": ZoneRecord(a=("5.6.7.8",))}), db)
        obs = net.serve_dns("tame.com")
        assert (obs.rcode, obs.has_records) == (Rcode.NOERROR, False)
        assert net.serve_dns("www.tame.com").a_records == ("5.6.7.8",)
        assert net.serve_dns("mail.tame.com").rcode is Rcode.NXDOMAIN

    def test_wildcard_answers_only_below_the_closest_encloser(self, db):
        # x.b.wild.com makes b.wild.com an empty non-terminal: b.wild.com is
        # NODATA, and y.b.wild.com's closest encloser b.wild.com holds no
        # wildcard, so it is NXDOMAIN (RFC 4592 §2.2.2, §3.3.1)
        zones = {"*.wild.com": ZoneRecord(a=("1.2.3.4",)), "x.b.wild.com": ZoneRecord(a=("5.6.7.8",))}
        net = SimulatedInternet(Scenario(providers=[], zones=zones), db)
        nodata = net.serve_dns("b.wild.com")
        assert (nodata.rcode, nodata.has_records) == (Rcode.NOERROR, False)
        assert net.serve_dns("y.b.wild.com").rcode is Rcode.NXDOMAIN
        assert net.serve_dns("c.wild.com").a_records == ("1.2.3.4",)

    # RFC 4592 §2.2.1's example zone, kept to A, CNAME and NS records. The
    # wildcard *.example and sub.*.example hold TXT and MX there; here each
    # holds one A record in their place, so that a synthesized answer shows
    # where it came from. The SRV owners _ssh._tcp.host1/host2.example are
    # renamed ssh.tcp.host1/host2.example, since parse_fqdn refuses "_"
    # labels, and hold an empty record: they exist, with no A, CNAME or NS.
    # The RFC's queries of sub.*.example and ghost.*.example are left out,
    # since parse_fqdn refuses a "*" label inside a name.
    RFC4592_ZONE = {
        "example": ZoneRecord(ns=("ns.example.com", "ns.example.net")),
        "*.example": ZoneRecord(a=("192.0.2.99",)),
        "sub.*.example": ZoneRecord(a=("192.0.2.98",)),
        "host1.example": ZoneRecord(a=("192.0.2.1",)),
        "ssh.tcp.host1.example": ZoneRecord(),
        "ssh.tcp.host2.example": ZoneRecord(),
        "subdel.example": ZoneRecord(ns=("ns.example.com", "ns.example.net")),
    }

    # the RFC's query names, each with the rcode, A records and NS records
    # of the world's answer
    RFC4592_ANSWERS = [
        # synthesized from *.example: the names do not exist
        ("host3.example", Rcode.NOERROR, ("192.0.2.99",), ()),
        ("foo.bar.example", Rcode.NOERROR, ("192.0.2.99",), ()),
        # not synthesized: host1.example exists
        ("host1.example", Rcode.NOERROR, ("192.0.2.1",), ()),
        # tcp.host1.example exists without data: it is NODATA, and the
        # closest encloser of telnet.tcp.host1.example, which holds no wildcard
        ("tcp.host1.example", Rcode.NOERROR, (), ()),
        ("telnet.tcp.host1.example", Rcode.NXDOMAIN, (), ()),
        ("host2.example", Rcode.NOERROR, (), ()),
        ("ssh.tcp.host2.example", Rcode.NOERROR, (), ()),
        # subdel.example exists (a zone cut); the simulated world follows no
        # delegation, so nothing answers below it, and *.example does not
        ("subdel.example", Rcode.NOERROR, (), ("ns.example.com", "ns.example.net")),
        ("host.subdel.example", Rcode.NXDOMAIN, (), ()),
        ("example", Rcode.NOERROR, (), ("ns.example.com", "ns.example.net")),
    ]

    @pytest.mark.parametrize("qname, rcode, a_records, ns", RFC4592_ANSWERS, ids=[q[0] for q in RFC4592_ANSWERS])
    def test_rfc4592_example_zone(self, db, qname, rcode, a_records, ns):
        net = SimulatedInternet(Scenario(providers=[], zones=dict(self.RFC4592_ZONE)), db)
        obs = net.serve_dns(qname)
        assert (obs.rcode, obs.a_records, obs.ns, obs.cname_chain) == (rcode, a_records, ns, ())

    def test_dangling_target_under_a_wildcard_answers_for_itself(self, world, db):
        # a wildcard stands only for names that do not exist (RFC 4592 §2.1.1)
        target = world.scenario.zones["legacy.gcore-retired.net"].cname
        parent = target.split(".", 1)[1]
        zones = {**world.scenario.zones, f"*.{parent}": ZoneRecord(a=("198.51.100.77",))}
        net = SimulatedInternet(dataclasses.replace(world.scenario, zones=zones), db)
        assert net.serve_dns(target).rcode is Rcode.SERVFAIL
        assert net.serve_dns(f"other.{parent}").a_records == ("198.51.100.77",)

    def test_ancestors_of_a_registration_exist_while_it_holds(self, net):
        # the Multi-CDN template names custom.org.a.bdydns.com, whose
        # ancestor org.a.bdydns.com nothing else in the world holds
        assert net.serve_dns("org.a.bdydns.com").rcode is Rcode.NXDOMAIN
        with net.registration_scope():
            assert net.attacker_register("KuaikuaiCloud", "custom.org", "attacker") == "custom.org.a.bdydns.com"
            obs = net.serve_dns("org.a.bdydns.com")
            assert (obs.rcode, obs.has_records) == (Rcode.NOERROR, False)
        assert net.serve_dns("org.a.bdydns.com").rcode is Rcode.NXDOMAIN


class TestServeHttp:
    def test_unknown_host_gets_nonhosted_fingerprint(self, world, net):
        response = net.serve_http(probe(ingress_of(world, "Fastly"), "nosuch.example.org",
                                        sni="nosuch.example.org"))
        assert response.status == 500
        assert b"Fastly error: unknown domain" in response.body_excerpt

    def test_fronting_vulnerable_routes_by_host(self, world, net):
        ip = ingress_of(world, "Fastly")
        own = net.serve_http(probe(ip, "www.fastly-site-b.com", sni="www.fastly-site-b.com"))
        fronted = net.serve_http(probe(ip, "www.fastly-site-b.com", sni="www.fastly-site-a.com"))
        assert fronted.status == 200
        assert fronted.body_hash == own.body_hash

    def test_secure_provider_rejects_mismatch_with_421(self, world, net):
        ip = ingress_of(world, "Tencent")
        response = net.serve_http(probe(ip, "www.tencent-site-b.com", sni="www.tencent-site-a.com"))
        assert response.status == 421

    def test_plain_http_probe_without_sni_is_served(self, world, net):
        response = net.serve_http(probe(ingress_of(world, "Fastly"), "www.fastly-site-a.com",
                                        scheme=Scheme.HTTP))
        assert response.status == 200

    def test_silent_provider_times_out_unknown_hosts(self, world, net):
        response = net.serve_http(probe(ingress_of(world, "CDN77"), "nosuch.example.org",
                                        scheme=Scheme.HTTP))
        assert response.failure is TransportFailure.TIMEOUT

    def test_discontinued_host_emits_http_fingerprint(self, world, net):
        response = net.serve_http(probe(ingress_of(world, "Fastly"), "legacy.fastly-retired.net",
                                        scheme=Scheme.HTTP))
        assert response.status == 500
        assert b"Fastly error: unknown domain" in response.body_excerpt

    def test_unrouted_ip_refuses_connection(self, net):
        response = net.serve_http(probe("192.0.2.254", "www.fastly-site-a.com", scheme=Scheme.HTTP))
        assert response.failure is TransportFailure.CONNECT_REFUSED

    def test_borrowed_host_served_only_where_policy_allows(self, world, net):
        served = net.serve_http(probe(ingress_of(world, "Fastly"), "pages.shared-press-kit.org",
                                      scheme=Scheme.HTTP))
        assert served.status == 200
        # Baidu requires DNS proof: the same attacker entry is never served
        refused = net.serve_http(probe(ingress_of(world, "Baidu"), "pages.shared-press-kit.org",
                                       scheme=Scheme.HTTP))
        assert refused.status != 200

    def test_tls_cert_selection(self, world, net):
        # legit host: its own name
        own = net.serve_http(probe(ingress_of(world, "Fastly"), "www.fastly-site-a.com",
                                   sni="www.fastly-site-a.com"))
        assert own.tls_cert_name == "www.fastly-site-a.com"
        # borrowed host at a shared-cert provider: the default certificate
        shared = net.serve_http(probe(ingress_of(world, "Fastly"), "pages.shared-press-kit.org",
                                      sni="pages.shared-press-kit.org"))
        assert shared.tls_cert_name == "default.fastly.ssl.net"
        # wildcard-matching provider hands out the tenant wildcard
        wild = net.serve_http(probe(ingress_of(world, "Netlify"), "pages.shared-press-kit.org",
                                    sni="pages.shared-press-kit.org"))
        assert wild.tls_cert_name == "*.shared-press-kit.org"
        # no certificate available at all: TLS failure
        bare = net.serve_http(probe(ingress_of(world, "KuoCai"), "pages.shared-press-kit.org",
                                    sni="pages.shared-press-kit.org"))
        assert bare.failure is TransportFailure.TLS_ERROR

    def test_degraded_ingress_omits_server_header(self, world, net):
        cf = world.scenario.provider("Cloudflare")
        degraded_ip = next(iter(cf.degraded_ips))
        healthy_ip = next(ip for ip in cf.ips if ip not in cf.degraded_ips)
        good = net.serve_http(probe(healthy_ip, "www.cloudflare-site-a.com", scheme=Scheme.HTTP))
        bad = net.serve_http(probe(degraded_ip, "www.cloudflare-site-a.com", scheme=Scheme.HTTP))
        assert good.header("Server") == "cloudflare"
        assert bad.header("Server") is None

    def test_dynamic_origin_changes_between_fetches(self, db):
        scenario = Scenario(
            providers=[],
            zones={"churn.example.com": ZoneRecord(a=("198.18.0.1",))},
            origins={"198.18.0.1": Origin(body=b"<html>tick</html>", dynamic=True)},
        )
        net = SimulatedInternet(scenario, db)
        first = net.serve_http(probe("198.18.0.1", "churn.example.com", scheme=Scheme.HTTP))
        second = net.serve_http(probe("198.18.0.1", "churn.example.com", scheme=Scheme.HTTP))
        assert first.body_hash != second.body_hash


def two_origin_world(host_table):
    """One Fastly edge with no DNS proof checks, two origins with distinct
    bodies, and an attacker origin."""
    return Scenario(
        providers=[ScenarioProvider(
            name="Fastly", ingress_ips=(("198.18.0.1", "x"),),
            verification_mode=VerificationMode.NONE,
            host_table=host_table,
        )],
        origins={
            "198.18.0.8": Origin(body=b"<html>first</html>"),
            "198.18.0.9": Origin(body=b"<html>second</html>"),
            "198.18.0.66": Origin(body=b"<html>attacker</html>"),
        },
        attacker_origin_ip="198.18.0.66",
    )


def attacker_origin_world(origin):
    """two_origin_world with a legitimate host and ``origin`` as the
    attacker origin."""
    scenario = two_origin_world((HostEntry(host="site.example.com", origin_ip="198.18.0.8"),))
    scenario.origins["198.18.0.66"] = origin
    return scenario


class TestAttackerAnswer:
    """An attacker-registered host with a static origin shares one answer
    per edge IP; nothing else may share it."""

    def test_hosts_answer_as_before_once_the_scope_exits(self, db):
        net = SimulatedInternet(attacker_origin_world(Origin(body=b"<html>attacker</html>")), db)
        hosts = ("site.example.com", "fresh.example.com")

        def answers():
            return [net.serve_http(probe("198.18.0.1", host, scheme=Scheme.HTTP)) for host in hosts]

        before = answers()
        with net.registration_scope():
            for host in hosts:
                net.attacker_register("Fastly", host, "attacker")
            assert [a.body_excerpt for a in answers()] == [b"<html>attacker</html>"] * 2
        assert answers() == before
        assert before[0].body_excerpt == b"<html>first</html>"
        assert b"Fastly error: unknown domain" in before[1].body_excerpt

    def test_dynamic_origin_answers_each_fetch_anew(self, db):
        net = SimulatedInternet(attacker_origin_world(Origin(body=b"<html>tick</html>", dynamic=True)), db)
        net.attacker_register("Fastly", "fresh.example.com", "attacker")
        first, second = (net.serve_http(probe("198.18.0.1", "fresh.example.com", scheme=Scheme.HTTP))
                         for _ in range(2))
        assert first.status == second.status == 200
        assert first.body_hash != second.body_hash

    def test_per_host_origin_answers_each_host_with_its_own_body(self, db):
        bodies = {"a.example.com": b"<html>a</html>", "b.example.com": b"<html>b</html>"}
        net = SimulatedInternet(attacker_origin_world(Origin(body=b"<html>default</html>", per_host=bodies)), db)
        for host in bodies:
            net.attacker_register("Fastly", host, "attacker")
        served = {host: net.serve_http(probe("198.18.0.1", host, scheme=Scheme.HTTP)).body_excerpt for host in bodies}
        assert served == bodies


class TestHostIndex:
    def test_first_of_duplicated_hosts_is_served(self, db):
        net = SimulatedInternet(two_origin_world((
            HostEntry(host="dup.example.com", origin_ip="198.18.0.8"),
            HostEntry(host="dup.example.com", origin_ip="198.18.0.9"),
        )), db)
        response = net.serve_http(probe("198.18.0.1", "dup.example.com", scheme=Scheme.HTTP))
        assert response.body_excerpt == b"<html>first</html>"

    def test_registration_overrides_host_table(self, db):
        net = SimulatedInternet(two_origin_world((
            HostEntry(host="site.example.com", origin_ip="198.18.0.8"),
        )), db)
        before = net.serve_http(probe("198.18.0.1", "site.example.com", scheme=Scheme.HTTP))
        net.attacker_register("Fastly", "site.example.com", "acct-1")
        after = net.serve_http(probe("198.18.0.1", "site.example.com", scheme=Scheme.HTTP))
        assert before.body_excerpt == b"<html>first</html>"
        assert after.body_excerpt == b"<html>attacker</html>"

    def test_fingerprint_answer_keeps_per_ip_server_header(self, db):
        assert db.by_name["Fastly"].nonhosted_fp is not None
        scenario = Scenario(providers=[ScenarioProvider(
            name="Fastly", ingress_ips=(("198.18.0.1", "x"), ("198.18.0.2", "x")),
            server_header="edge-7", degraded_ips=frozenset({"198.18.0.2"}),
        )])
        net = SimulatedInternet(scenario, db)
        for _ in range(2):  # the second round is answered from the memo
            good = net.serve_http(probe("198.18.0.1", "nosuch.example.org", scheme=Scheme.HTTP))
            bad = net.serve_http(probe("198.18.0.2", "nosuch.example.org", scheme=Scheme.HTTP))
            assert good.status == bad.status == 500
            assert good.header("Server") == "edge-7"
            assert bad.header("Server") is None


class TestPolicyInvariants:
    def test_reject_on_mismatch_never_serves_foreign_body(self, world, net):
        # sweep every secure provider's hosts: sni != host never yields
        # another host's content
        for prov in world.scenario.providers:
            if prov.fronting_policy is not FrontingPolicy.REJECT_ON_MISMATCH:
                continue
            hosts = [h.host for h in prov.host_table if h.registered_by is RegisteredBy.LEGIT_OWNER]
            for host in hosts:
                for other in hosts:
                    if host == other:
                        continue
                    response = net.serve_http(probe(prov.ips[0], host, sni=other))
                    assert response.status == 421

    def test_require_dns_proof_never_serves_unproven_entries(self, world, net):
        for prov in world.scenario.providers:
            if prov.borrowing_policy is not BorrowingPolicy.REQUIRE_DNS_PROOF:
                continue
            for entry in prov.host_table:
                if entry.registered_by is RegisteredBy.ATTACKER and not entry.dns_points_here:
                    response = net.serve_http(probe(prov.ips[0], entry.host, scheme=Scheme.HTTP))
                    assert response.status != 200 or b"press kit" not in response.body_excerpt


class TestAttackerRegister:
    def test_w2_two_accounts_same_subdomain(self, net):
        first = net.attacker_register("KuoCai", "victim.domain.com", "acct-1")
        second = net.attacker_register("KuoCai", "victim.domain.com", "acct-2")
        assert first == second

    def test_account_dependence_is_exactly_the_w2_flaw(self, world, net):
        # account-independent assignment happens iff the provider runs the
        # flawed shared-random rule (template namespaces excluded: those are
        # domain-derived by design and flagged via sharing edges instead)
        for prov in world.scenario.providers:
            if prov.verification_mode in (VerificationMode.DNS_TOKEN_CHECKED,):
                continue
            if "{domain}" in prov.assigned_subdomain_rule:
                continue
            a = net.attacker_register(prov.name, "victim.domain.com", "acct-1")
            b = net.attacker_register(prov.name, "victim.domain.com", "acct-2")
            if prov.verification_mode is VerificationMode.FLAWED_SHARED_RANDOM:
                assert a == b, prov.name
            else:
                assert a != b, prov.name

    def test_dns_token_checked_rejects_without_token(self, net):
        with pytest.raises(VerificationFailed):
            net.attacker_register("Baidu", "victim.domain.com", "acct-1")

    @staticmethod
    def net_with_token(db, world, token_cname):
        # a copy of the zones: the world fixture is shared by the module
        zones = {**world.scenario.zones,
                 "cdnverify.tokened.example.com": ZoneRecord(cname=token_cname, external=True)}
        return SimulatedInternet(dataclasses.replace(world.scenario, zones=zones), db)

    def test_dns_token_checked_accepts_with_token(self, db, world):
        net = self.net_with_token(db, world, "token-abc.dv.baidu.example")
        assigned = net.attacker_register("Baidu", "tokened.example.com", "acct-1")
        assert assigned.endswith(".bdydns.com")
        served = net.serve_http(probe(ingress_of(world, "Baidu"), "tokened.example.com", scheme=Scheme.HTTP))
        assert served.status == 200

    def test_dns_token_checked_rejects_another_providers_token(self, db, world):
        net = self.net_with_token(db, world, "token-abc.dv.fastly.example")
        with pytest.raises(VerificationFailed):
            net.attacker_register("Baidu", "tokened.example.com", "acct-1")

    def test_multicdn_template_collides_with_namespace(self, net):
        assigned = net.attacker_register("KuaikuaiCloud", "custom.com", "attacker")
        assert assigned == "custom.com.a.bdydns.com"

    def test_registration_binds_and_resurrects_dangling_name(self, world, net):
        host = "legacy.fastly-retired.net"
        before = net.serve_http(probe(ingress_of(world, "Fastly"), host, scheme=Scheme.HTTP))
        assert before.status == 500
        net.attacker_register("Fastly", host, "attacker")
        obs = net.serve_dns(host)
        assert obs.a_records == world.scenario.provider("Fastly").ips
        after = net.serve_http(probe(obs.a_records[0], host, scheme=Scheme.HTTP))
        assert after.status == 200
        assert b"staging bucket" in after.body_excerpt

    def test_registration_scope_undoes_only_its_own_registrations(self, world, net):
        # a W1 registration (Cachefly) and a no-verification one (EdgeNext)
        # each point the victim's old CNAME target at the edge again
        cases = [("Cachefly", "legacy.cachefly-retired.net"), ("EdgeNext", "legacy.edgenext-retired.net")]

        def answers():
            out = []
            for provider, host in cases:
                ip = ingress_of(world, provider)
                for name in (host, world.scenario.zones[host].cname):
                    out.append((net.serve_dns(name), net.serve_http(probe(ip, name, scheme=Scheme.HTTP))))
            return out

        kept = "legacy.fastly-retired.net"
        net.attacker_register("Fastly", kept, "attacker")  # outside any scope: stays
        before = answers()
        with net.registration_scope():
            for provider, host in cases:
                net.attacker_register(provider, host, "attacker")
            assert answers() != before
        assert answers() == before
        served = net.serve_http(probe(ingress_of(world, "Fastly"), kept, scheme=Scheme.HTTP))
        assert b"staging bucket" in served.body_excerpt


class Boom(Exception):
    pass


# registrations the journal tests draw from: no-verification, W1 and W2
# providers, a token-checked one that refuses, a dangling host of each kind
# and fresh names; the zone cnames of the dangling hosts are W1 targets
SCOPE_PROVIDERS = ("Fastly", "EdgeNext", "Cachefly", "Edgio", "KuoCai", "Baidu")
SCOPE_DOMAINS = ("legacy.fastly-retired.net", "legacy.cachefly-retired.net", "legacy.edgenext-retired.net",
                 "legacy.kuocai-retired.net", "victim.domain.com", "other.domain.com")
SCOPE_ACCOUNTS = ("acct-1", "acct-2")
OTHER_ORIGIN = "172.16.19.9"  # an origin of the reference world that is not the attacker's


def scope_answers(world, net, extra_names=()):
    """Every DNS and HTTP answer a registration among SCOPE_* can change."""
    names = set(SCOPE_DOMAINS) | set(extra_names)
    names |= {world.scenario.zones[d].cname for d in SCOPE_DOMAINS if d in world.scenario.zones}
    dns = {name: net.serve_dns(name) for name in sorted(names)}
    http = {
        (provider, domain, sni): net.serve_http(probe(ingress_of(world, provider), domain, sni=sni,
                                                      scheme=Scheme.HTTPS if sni else Scheme.HTTP))
        for provider in SCOPE_PROVIDERS for domain in SCOPE_DOMAINS for sni in (None, domain)
    }
    return dns, http


def session_with(world, db, registrations):
    net = SimulatedInternet(world.scenario, db)
    for provider, domain, account, origin_ip in registrations:
        net.attacker_register(provider, domain, account, origin_ip)
    return net


class TestRegistrationScope:
    """The scope journals each write it sees and undoes its own journal,
    last write first, on exit."""

    def test_overwrite_of_an_outside_registration_restores_it(self, world, net):
        host = "legacy.fastly-retired.net"
        net.attacker_register("Fastly", host, "attacker")
        before = scope_answers(world, net)
        with net.registration_scope():
            # the same custom domain, bound to another origin
            net.attacker_register("Fastly", host, "attacker", origin_ip=OTHER_ORIGIN)
            assert scope_answers(world, net) != before
        assert scope_answers(world, net) == before

    def test_nested_scopes_each_undo_only_their_own_writes(self, world, net):
        initial = scope_answers(world, net)
        with net.registration_scope():
            net.attacker_register("EdgeNext", "legacy.edgenext-retired.net", "attacker")
            outer = scope_answers(world, net)
            with net.registration_scope():
                net.attacker_register("Fastly", "legacy.fastly-retired.net", "attacker")
                net.attacker_register("EdgeNext", "legacy.edgenext-retired.net", "attacker", origin_ip=OTHER_ORIGIN)
                assert scope_answers(world, net) != outer
            assert scope_answers(world, net) == outer
        assert scope_answers(world, net) == initial

    def test_an_exception_inside_the_scope_still_restores_the_world(self, world, net):
        before = scope_answers(world, net)
        with pytest.raises(Boom):
            with net.registration_scope():
                net.attacker_register("Cachefly", "legacy.cachefly-retired.net", "attacker")
                raise Boom
        assert scope_answers(world, net) == before

    def test_w1_overwrite_of_a_zone_override_restores_it(self, world, net):
        # a W1 registration points the victim's old cname at the registering
        # provider's edge: outside the scope Cachefly's, inside EdgeNext's
        host = "legacy.cachefly-retired.net"
        old_cname = world.scenario.zones[host].cname
        net.attacker_register("Cachefly", host, "attacker")
        assert net.serve_dns(old_cname).a_records == world.scenario.provider("Cachefly").ips
        with net.registration_scope():
            net.attacker_register("EdgeNext", host, "attacker")
            assert net.serve_dns(old_cname).a_records == world.scenario.provider("EdgeNext").ips
        assert net.serve_dns(old_cname).a_records == world.scenario.provider("Cachefly").ips

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_nesting_leaves_the_answers_of_a_fresh_session(self, world, db, data):
        # a program of registrations and nested scopes, some left by an
        # exception; after each scope the session answers as a fresh one
        # given only the registrations still in force
        registration = st.tuples(
            st.sampled_from(SCOPE_PROVIDERS), st.sampled_from(SCOPE_DOMAINS),
            st.sampled_from(SCOPE_ACCOUNTS), st.sampled_from((None, OTHER_ORIGIN)),
        )
        program = st.recursive(
            st.lists(registration, max_size=3).map(lambda regs: [("register", r) for r in regs]),
            lambda inner: st.lists(
                st.one_of(registration.map(lambda r: ("register", r)), st.tuples(st.just("scope"), inner, st.booleans())),
                max_size=3,
            ),
            max_leaves=8,
        )
        net = SimulatedInternet(world.scenario, db)
        assigned: set[str] = set()

        def run(steps, in_force):
            for kind, *rest in steps:
                if kind == "register":
                    try:
                        assigned.add(net.attacker_register(*rest[0]))
                    except VerificationFailed:
                        continue
                    in_force.append(rest[0])
                    continue
                inner, fail = rest
                kept = len(in_force)
                try:
                    with net.registration_scope():
                        run(inner, in_force)
                        if fail:
                            raise Boom
                except Boom:
                    pass
                del in_force[kept:]
                got = scope_answers(world, net, assigned)
                assert got == scope_answers(world, session_with(world, db, in_force), assigned)

        in_force: list = []
        run(data.draw(program), in_force)
        assert not net._journals


class TestScenarioIo:
    def test_roundtrip_through_json(self, world, db):
        doc = scenario_to_json(world.scenario)
        clone = scenario_from_json(json.loads(json.dumps(doc)))
        assert scenario_to_json(clone) == doc
        assert not validate_scenario(clone, db)

    def test_validate_catches_unknown_provider(self, db, world):
        broken = scenario_from_json(scenario_to_json(world.scenario))
        broken.providers[0] = ScenarioProvider(
            name="NotARealCdn", ingress_ips=(("198.18.99.1", "x"),)
        )
        problems = validate_scenario(broken, db)
        assert any("NotARealCdn" in p for p in problems)

    def test_validate_catches_active_and_discontinued_overlap(self, db):
        scenario = Scenario(
            providers=[ScenarioProvider(
                name="Fastly", ingress_ips=(("198.18.0.1", "x"),),
                host_table=(HostEntry(host="a.example.com", origin_ip="198.18.0.9"),),
            )],
            zones={},
            origins={"198.18.0.9": Origin(body=b"x")},
            discontinued={"a.example.com": DiscontinuedService(provider="Fastly")},
        )
        problems = validate_scenario(scenario, db)
        assert any("both active and discontinued" in p for p in problems)

    def test_committed_preset_loads_and_validates(self, db):
        from tests.conftest import DATA
        scenario = load_scenario(DATA["reference_world.json"])
        assert not validate_scenario(scenario, db)
        assert len(scenario.providers) == 45

    def test_answer_names_are_normalized_once_at_load(self, db):
        # a resolver answers in lowercase without the trailing dot; the
        # mock answers with the zone's text as loaded
        doc = {"providers": [], "zones": {
            "shop.example.com": {"cname": "X.Fastly.Net.", "external": True, "ns": ["NS1.Example.COM."]},
        }}
        scenario = scenario_from_json(doc)
        assert scenario.zones["shop.example.com"].cname == "x.fastly.net"
        obs = SimulatedInternet(scenario, db).serve_dns(parse_fqdn("shop.example.com"))
        assert list(obs.cname_chain) == ["x.fastly.net"] and list(obs.ns) == ["ns1.example.com"]
        match = identify_cdn(obs, db)
        assert (match.provider, match.matched_cname) == ("Fastly", "x.fastly.net")

    def test_a_cname_that_is_no_host_name_is_answered_as_text(self, db):
        # RFC 2181 §11: a CNAME target may be any name
        scenario = scenario_from_json({"providers": [], "zones": {
            "shop.example.com": {"cname": "cdn_x.fastly.net", "external": True},
        }})
        obs = SimulatedInternet(scenario, db).serve_dns(parse_fqdn("shop.example.com"))
        assert obs.rcode is Rcode.NOERROR and obs.cname_chain == ("cdn_x.fastly.net",)
        assert identify_cdn(obs, db).provider == "Fastly"

    @pytest.mark.parametrize("zone, message", [
        ({"cname": 5}, "a name must be a string, not int"),
        ({"ns": [None]}, "a name must be a string, not NoneType"),
    ])
    def test_a_cname_or_ns_that_is_no_string_is_a_scenario_error(self, zone, message):
        with pytest.raises(ScenarioError, match=message):
            scenario_from_json({"providers": [], "zones": {"a.example.com": zone}})


class TestOneNameRule:
    """``validate_scenario`` asks the name table that ``serve_dns`` answers
    from whether a CNAME target exists."""

    def test_a_world_written_in_capitals_answers_as_its_lowercase_twin(self, db):
        def doc(name):
            return {
                "providers": [{"name": "Fastly", "ingress_ips": [["198.18.0.1", "x"]],
                               "host_table": [{"host": name("www.shop.com"), "origin_ip": "198.18.0.9"}]}],
                "zones": {
                    name("www.shop.com"): {"cname": "www.shop.com.global.ssl.fastly.net"},
                    "www.shop.com.global.ssl.fastly.net": {"a": ["198.18.0.1"]},
                    name("old.shop.com"): {"cname": "old-shop.global.ssl.fastly.net"},
                },
                "origins": {"198.18.0.9": {"body": "shop"}},
                "discontinued_hosts": {name("old.shop.com"): {"provider": "Fastly"}},
            }

        lower = SimulatedInternet(scenario_from_json(doc(str)), db)
        upper = SimulatedInternet(scenario_from_json(doc(lambda name: name.title() + ".")), db)
        for host in ("www.shop.com", "old.shop.com", "old-shop.global.ssl.fastly.net"):
            assert upper.serve_dns(host) == lower.serve_dns(host)
            request = probe("198.18.0.1", host, scheme=Scheme.HTTP)
            assert upper.serve_http(request) == lower.serve_http(request)
        assert lower.serve_dns("www.shop.com").a_records == ("198.18.0.1",)
        assert lower.serve_http(probe("198.18.0.1", "www.shop.com", scheme=Scheme.HTTP)).status == 200

    @pytest.mark.parametrize("workload, seed", [("reference", None)] + [
        (workload, seed) for workload in ("detect-wide", "takeover-churn") for seed in (1, 3, 5)
    ])
    def test_validation_refuses_exactly_the_targets_dns_denies(self, db, world, worldgen, workload, seed):
        scenario = world.scenario if seed is None else worldgen.BUILDERS[workload](db, seed).scenario
        zones = scenario.zones
        net = SimulatedInternet(scenario, db)
        dangling = {zones[host].cname for host in scenario.discontinued if host in zones}
        # each target the world names, each name above a held name, and a
        # name beside and below each target, each pointed at by a zone of
        # its own under agreement.test
        targets = {rec.cname for rec in zones.values() if rec.cname is not None and not rec.external}
        candidates = set(targets)
        for name in itertools.chain(zones, targets):
            labels = name.split(".")
            candidates.update(".".join(labels[start:]) for start in range(1, len(labels) - 1))
        for target in targets:
            candidates.update((f"absent-{target}", f"absent.{target}"))
        probes = {f"c{index}.agreement.test": name for index, name in enumerate(sorted(candidates))}
        probed = dataclasses.replace(scenario, zones={**zones, **{
            name: ZoneRecord(cname=target) for name, target in probes.items()
        }})
        problems = set(validate_scenario(probed, db))
        refused = {
            target for name, target in probes.items()
            if f"zone {name}: cname target {target} is unresolvable and not marked external" in problems
        }
        denied = {
            target for target in candidates
            if target not in zones and target not in dangling and net.serve_dns(target).rcode is Rcode.NXDOMAIN
        }
        assert refused == denied
        assert len(problems) == len(refused)  # the world itself is valid
        assert refused and candidates - refused - set(zones) - dangling  # both sides are reached
