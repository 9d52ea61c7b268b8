"""
Property tests for the one HTTP batch call, which the borrowing sweep
(many hosts, one path, plain http) and the fronting harvest (one host,
many paths, https) both use: at any IP, over either scheme, for any list
of (Host, path) requests (repeats included), and for each caller's own
shape, ``MockTransport.probe_batch`` answers exactly what one ``probe``
per request (SNI = Host over https) would, and counts and logs one probe
per request.
"""

import dataclasses

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dvahunter.core import HttpProbe, Scheme, TransportFailure, parse_fqdn  # noqa: E402
from dvahunter.simnet import (  # noqa: E402
    BorrowingPolicy,
    HostEntry,
    Origin,
    SimulatedInternet,
    VerificationFailed,
    VerificationMode,
)
from dvahunter.transport import MockTransport  # noqa: E402
from dvahunter.worlds import BORROWED_VICTIM, build_reference_world  # noqa: E402

OVERRIDE_PROVIDER = "Fastly"
SILENT_PROVIDER = "CDN77"
PROOF_PROVIDER = "Bunny"
NO_CERT_PROVIDER = "Akamai"
WILDCARD_CERTS = ("*.shared-press-kit.org", "*.example.org")
DYNAMIC_HOST = "www.dynamic-site.org"
DYNAMIC_ORIGIN = "172.31.0.1"
VHOST_PRESENT = "www.vhost-present.org"
VHOST_ABSENT = "www.vhost-absent.org"
VHOST_ORIGIN = "172.31.0.2"
NOBODY_IP = "192.0.2.250"
FRESH_DOMAIN = "fresh-shop.example.org"
# the proof-requiring edge's two wildcard certificates cover the first two
UNKNOWN_HOSTS = ["assets.shared-press-kit.org", "nobody-here.example.org", "www.plain-directsite.net", "x.y.z.test"]
ADDED_HOSTS = [DYNAMIC_HOST, VHOST_PRESENT, VHOST_ABSENT, BORROWED_VICTIM]
PATHS = ["/", "/logo.png", "/app.js", "/site.css", "/logo.png?v=2"]


@pytest.fixture(scope="module")
def scenario(db):
    """The reference world plus, at a provider that requires DNS proof,
    serves a shared and two wildcard certificates and lets anyone register: a
    host behind a dynamic origin, whose body counts its fetches, and two
    hosts behind a virtual-host origin, one it knows and one it does not.
    The provider's edge must not serve the unproven attacker entry for the
    borrowed victim, which one of its wildcard certificates covers. Another
    provider's edge answers unknown hosts with an override, one is silent,
    and one has no certificate but the hosts' own (any other SNI is a TLS
    error)."""
    world = build_reference_world(db).scenario
    assert db.by_name[SILENT_PROVIDER].nonhosted_fp.no_response
    known = {entry.host for prov in world.providers for entry in prov.host_table} | set(world.zones)
    assert not known & set(UNKNOWN_HOSTS)
    providers = []
    for prov in world.providers:
        if prov.name == OVERRIDE_PROVIDER:
            prov = dataclasses.replace(prov, nonhosted_override=(200, "<html>all good</html>"))
        if prov.name == NO_CERT_PROVIDER:
            assert prov.shared_cert_name is None and not prov.wildcard_certs
        if prov.name == PROOF_PROVIDER:
            assert prov.verification_mode is VerificationMode.NONE and prov.shared_cert_name
            assert any(entry.host == BORROWED_VICTIM and not entry.dns_points_here for entry in prov.host_table)
            prov = dataclasses.replace(
                prov,
                borrowing_policy=BorrowingPolicy.REQUIRE_DNS_PROOF,
                wildcard_certs=WILDCARD_CERTS,
                host_table=prov.host_table + (
                    HostEntry(DYNAMIC_HOST, DYNAMIC_ORIGIN),
                    HostEntry(VHOST_PRESENT, VHOST_ORIGIN),
                    HostEntry(VHOST_ABSENT, VHOST_ORIGIN),
                ),
            )
        providers.append(prov)
    origins = {
        **world.origins,
        DYNAMIC_ORIGIN: Origin(body=b"<html>live</html>", dynamic=True),
        VHOST_ORIGIN: Origin(body=b"<html>default</html>", per_host={VHOST_PRESENT: b"<html>present</html>"}),
    }
    return dataclasses.replace(world, providers=providers, origins=origins)


@pytest.fixture(scope="module")
def pools(db, scenario):
    """(registrations, special IPs, every IP, owner per ingress IP, hosts
    per IP, every host).

    Registrations are (provider, domain) pairs at providers that let
    anyone register, some of which require DNS proof. The special IPs are
    the ones whose answers differ most: the override, the silent edge,
    the proof-requiring edge, the edge without a shared certificate, the
    edges that answer a discontinued host with its own fingerprint, the
    origins and an IP nobody owns."""
    open_providers = [p for p in scenario.providers if p.verification_mode is not VerificationMode.DNS_TOKEN_CHECKED]
    assert any(p.borrowing_policy is BorrowingPolicy.REQUIRE_DNS_PROOF for p in open_providers)
    discontinued_at: dict[str, list[str]] = {}
    for host, service in sorted(scenario.discontinued.items()):
        discontinued_at.setdefault(service.provider, []).append(host)
    registrations = sorted(
        (p.name, domain)
        for p in open_providers
        for domain in [FRESH_DOMAIN, BORROWED_VICTIM, DYNAMIC_HOST] + discontinued_at.get(p.name, [])
    )
    owner_at: dict[str, str] = {}
    hosts_at: dict[str, list[str]] = {}
    special = [NOBODY_IP, DYNAMIC_ORIGIN, VHOST_ORIGIN]
    for prov in scenario.providers:
        local = [entry.host for entry in prov.host_table] + discontinued_at.get(prov.name, [])
        for ip in prov.ips:
            owner_at[ip] = prov.name
            hosts_at[ip] = local
        fp = db.by_name[prov.name].discontinued_fp
        if prov.name in (OVERRIDE_PROVIDER, SILENT_PROVIDER, PROOF_PROVIDER, NO_CERT_PROVIDER) or (
            prov.name in discontinued_at and fp is not None and fp.needs_http
        ):
            special.append(prov.ips[0])
    for ip, origin in scenario.origins.items():
        hosts_at[ip] = sorted(origin.per_host or ())
    every_ip = sorted(hosts_at) + [NOBODY_IP]
    every_host = sorted({host for hosts in hosts_at.values() for host in hosts} | {FRESH_DOMAIN, *ADDED_HOSTS, *UNKNOWN_HOSTS})
    return registrations, special, every_ip, owner_at, hosts_at, every_host


def sessions(db, scenario, registered):
    """Two sessions with the same registrations: dynamic origins count
    fetches, so the batch and the single probes each need their own."""
    nets = SimulatedInternet(scenario, db), SimulatedInternet(scenario, db)
    for provider, domain in registered:
        for net in nets:
            try:
                net.attacker_register(provider, domain, "acct-x")
            except VerificationFailed:
                pass
    return nets


def one_probe(ip, scheme, host, path):
    sni = host if scheme is Scheme.HTTPS else None
    return HttpProbe(target_ip=ip, scheme=scheme, host_header=host, sni=sni, path=path)


def draw_case(scenario, pools, data):
    """An IP, the registrations made before probing, and a strategy for
    hosts in which the registrations at that IP, the hosts it knows, the
    hosts added to the world and the hosts nobody serves are drawn as
    often as all the others."""
    registrations, special, every_ip, owner_at, hosts_at, every_host = pools
    # the proof-requiring edge holds most of the cases, so it is drawn
    # about as often as every other IP
    proof_ip = scenario.provider(PROOF_PROVIDER).ips[0]
    ip = data.draw(st.one_of(st.just(proof_ip), st.sampled_from(special), st.sampled_from(every_ip)))
    at_ip = [pair for pair in registrations if pair[0] == owner_at.get(ip)]
    some_pair = st.sampled_from(registrations)
    registered = data.draw(st.lists(
        st.one_of(st.sampled_from(at_ip), some_pair) if at_ip else some_pair, max_size=4, unique=True,
    ))
    local = hosts_at.get(ip, []) + [domain for _, domain in at_ip]
    some_host = st.one_of(
        st.sampled_from(UNKNOWN_HOSTS), st.sampled_from(ADDED_HOSTS),
        st.sampled_from(local or every_host), st.sampled_from(every_host),
    )
    return ip, registered, some_host


def assert_batch_equals_single_probes(db, scenario, ip, scheme, registered, requests):
    batch_net, single_net = sessions(db, scenario, registered)
    batch = MockTransport(batch_net, record=True)
    responses = batch.probe_batch(ip, scheme, requests)
    single = MockTransport(single_net, record=True)
    expected = [single.probe(one_probe(ip, scheme, host, path)) for host, path in requests]
    assert responses == expected
    assert batch.stats.http_probes == len(requests)
    assert batch.probe_log == single.probe_log


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_batch_equals_one_probe_per_request(db, scenario, pools, data):
    ip, registered, some_host = draw_case(scenario, pools, data)
    scheme = data.draw(st.sampled_from([Scheme.HTTP, Scheme.HTTPS]))
    # a few hosts and a few paths, so that hosts, paths and requests repeat
    hosts = data.draw(st.lists(some_host, min_size=1, max_size=5))
    paths = data.draw(st.lists(st.sampled_from(PATHS), min_size=1, max_size=3))
    requests = [
        (parse_fqdn(host), path)
        for host, path in data.draw(st.lists(st.tuples(st.sampled_from(hosts), st.sampled_from(paths)), max_size=20))
    ]
    assert_batch_equals_single_probes(db, scenario, ip, scheme, registered, requests)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_batch_equals_one_probe_per_host(db, scenario, pools, data):
    """The borrowing sweep's shape: many hosts, one path, plain http."""
    ip, registered, some_host = draw_case(scenario, pools, data)
    requests = [(parse_fqdn(host), "/") for host in data.draw(st.lists(some_host, max_size=30))]
    assert_batch_equals_single_probes(db, scenario, ip, Scheme.HTTP, registered, requests)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_batch_equals_one_probe_per_path(db, scenario, pools, data):
    """The fronting harvest's shape: one host, many paths, https."""
    ip, registered, some_host = draw_case(scenario, pools, data)
    host = parse_fqdn(data.draw(some_host))
    requests = [(host, path) for path in data.draw(st.lists(st.sampled_from(PATHS), max_size=12))]
    assert_batch_equals_single_probes(db, scenario, ip, Scheme.HTTPS, registered, requests)


@pytest.mark.parametrize("host, answer", [
    (DYNAMIC_HOST, None),
    (VHOST_PRESENT, 200),
    (VHOST_ABSENT, 200),
    (BORROWED_VICTIM, None),
    (UNKNOWN_HOSTS[1], TransportFailure.TLS_ERROR),
])
def test_each_case_of_the_batch(db, scenario, host, answer):
    """The per-host cases the property relies on are reached: a dynamic
    origin counts each fetch of a path, and the batch shares the static
    and TLS-error answers."""
    ip = scenario.provider(NO_CERT_PROVIDER if answer is TransportFailure.TLS_ERROR else PROOF_PROVIDER).ips[0]
    requests = [(parse_fqdn(host), path) for path in ("/logo.png", "/logo.png", "/app.js")]
    batch_net, single_net = sessions(db, scenario, ())
    responses = MockTransport(batch_net).probe_batch(ip, Scheme.HTTPS, requests)
    single = MockTransport(single_net)
    assert responses == [single.probe(one_probe(ip, Scheme.HTTPS, *request)) for request in requests]
    if host == DYNAMIC_HOST:
        # the counter is per path: the second fetch of one path differs,
        # the first fetch of the next path does not
        first, second, other = (r.body_hash for r in responses)
        assert first != second and first == other
    elif host == BORROWED_VICTIM:
        assert responses[0].failure is None and not responses[0].ok  # the edge's unknown-host answer
    else:
        assert responses[0] is responses[1] is responses[2]
        assert (responses[0].failure or responses[0].status) == answer


def test_unknown_hosts_share_one_answer_per_certificate(db, scenario):
    """Over plain http every host the edge does not serve gets one shared
    object, which ``find_borrowing`` judges once. Over https the hosts
    share it only under one certificate."""
    prov = scenario.provider(PROOF_PROVIDER)
    ip = prov.ips[0]
    requests = [(parse_fqdn(host), path) for host in UNKNOWN_HOSTS[:3] for path in ("/", "/logo.png")]
    batch_net, single_net = sessions(db, scenario, ())
    plain = MockTransport(batch_net).probe_batch(ip, Scheme.HTTP, requests)
    assert all(response is plain[0] for response in plain)
    assert plain[0].status == 403 and plain[0].tls_cert_name is None
    secure = MockTransport(batch_net).probe_batch(ip, Scheme.HTTPS, requests)
    single = MockTransport(single_net)
    assert secure == [single.probe(one_probe(ip, Scheme.HTTPS, *request)) for request in requests]
    certs = [*WILDCARD_CERTS, prov.shared_cert_name]
    assert [response.tls_cert_name for response in secure] == [cert for cert in certs for _ in (1, 2)]
    assert secure[0] is secure[1] and secure[2] is secure[3] and secure[4] is secure[5]
