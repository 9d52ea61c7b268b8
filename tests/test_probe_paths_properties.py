"""
Property test for the batch probe that the fronting harvest uses: at any
IP, for any domain and any list of paths (repeats included),
``MockTransport.probe_paths`` answers exactly what one https ``probe``
per path (SNI = Host = the domain) would, and counts and logs one probe
per path.
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
PROOF_PROVIDER = "Bunny"
NO_CERT_PROVIDER = "Akamai"
DYNAMIC_HOST = "www.dynamic-site.org"
DYNAMIC_ORIGIN = "172.31.0.1"
VHOST_PRESENT = "www.vhost-present.org"
VHOST_ABSENT = "www.vhost-absent.org"
VHOST_ORIGIN = "172.31.0.2"
NO_ORIGIN_HOST = "www.no-origin.org"
NOBODY_IP = "192.0.2.250"
FRESH_DOMAIN = "fresh-shop.example.org"
UNKNOWN_HOSTS = ["nobody-here.example.org", "www.plain-directsite.net"]
ADDED_HOSTS = [DYNAMIC_HOST, VHOST_PRESENT, VHOST_ABSENT, NO_ORIGIN_HOST, BORROWED_VICTIM]
PATHS = ["/", "/logo.png", "/app.js", "/site.css", "/logo.png?v=2"]


@pytest.fixture(scope="module")
def scenario(db):
    """The reference world plus, at a provider that requires DNS proof,
    serves a shared certificate and lets anyone register: a host behind a
    dynamic origin, whose body counts its fetches; two hosts behind a
    virtual-host origin, one it knows and one it does not; and a host
    whose origin does not exist. The provider's edge must not serve the
    unproven attacker entry for the borrowed victim. Another provider's
    edge answers unknown hosts with an override, and a third has no
    certificate but the hosts' own (any other SNI is a TLS error)."""
    world = build_reference_world(db).scenario
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
                host_table=prov.host_table + (
                    HostEntry(DYNAMIC_HOST, DYNAMIC_ORIGIN),
                    HostEntry(VHOST_PRESENT, VHOST_ORIGIN),
                    HostEntry(VHOST_ABSENT, VHOST_ORIGIN),
                    HostEntry(NO_ORIGIN_HOST, "172.31.0.99"),
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
def pools(scenario):
    """(registrations, special IPs, every IP, owner per ingress IP, hosts
    per IP, every host).

    Registrations are (provider, domain) pairs at providers that let
    anyone register. The special IPs are the ones whose answers differ
    most: the proof-requiring edge, the override, the edge without a
    shared certificate, the origins and an IP nobody owns."""
    open_providers = [p for p in scenario.providers if p.verification_mode is not VerificationMode.DNS_TOKEN_CHECKED]
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
        if prov.name in (OVERRIDE_PROVIDER, PROOF_PROVIDER, NO_CERT_PROVIDER):
            special.append(prov.ips[0])
    for ip, origin in scenario.origins.items():
        hosts_at[ip] = sorted(origin.per_host or ())
    every_ip = sorted(hosts_at) + [NOBODY_IP]
    every_host = sorted(
        {host for hosts in hosts_at.values() for host in hosts}
        | {FRESH_DOMAIN, BORROWED_VICTIM, VHOST_ABSENT, *UNKNOWN_HOSTS}
    )
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


def https(ip, domain, path):
    return HttpProbe(target_ip=ip, scheme=Scheme.HTTPS, host_header=domain, sni=domain, path=path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_batch_equals_one_probe_per_path(db, scenario, pools, data):
    registrations, special, every_ip, owner_at, hosts_at, every_host = pools
    # the proof-requiring edge holds most of the cases, so it is drawn
    # about as often as every other IP
    proof_ip = scenario.provider(PROOF_PROVIDER).ips[0]
    ip = data.draw(st.one_of(st.just(proof_ip), st.sampled_from(special), st.sampled_from(every_ip)))
    # the registrations at the probed edge, the hosts it knows and the
    # hosts added to the world are drawn as often as all the others
    at_ip = [pair for pair in registrations if pair[0] == owner_at.get(ip)]
    some_pair = st.sampled_from(registrations)
    registered = data.draw(st.lists(
        st.one_of(st.sampled_from(at_ip), some_pair) if at_ip else some_pair, max_size=4, unique=True,
    ))
    local = hosts_at.get(ip, []) + [domain for _, domain in at_ip]
    some_host = st.sampled_from(every_host)
    domain = parse_fqdn(data.draw(st.one_of(st.sampled_from(ADDED_HOSTS), st.sampled_from(local or every_host), some_host)))
    paths = data.draw(st.lists(st.sampled_from(PATHS), max_size=12))
    batch_net, single_net = sessions(db, scenario, registered)

    batch = MockTransport(batch_net, record=True)
    responses = batch.probe_paths(ip, domain, paths)
    single = MockTransport(single_net, record=True)
    expected = [single.probe(https(ip, domain, path)) for path in paths]
    assert responses == expected
    assert batch.stats.http_probes == len(paths)
    assert batch.probe_log == single.probe_log


@pytest.mark.parametrize("host, answer", [
    (DYNAMIC_HOST, None),
    (VHOST_PRESENT, 200),
    (VHOST_ABSENT, 200),
    (NO_ORIGIN_HOST, TransportFailure.CONNECT_REFUSED),
    (BORROWED_VICTIM, None),
    (UNKNOWN_HOSTS[0], TransportFailure.TLS_ERROR),
])
def test_each_case_of_the_batch(db, scenario, host, answer):
    """The cases the property relies on are reached: a dynamic origin
    counts each fetch of a path, and the batch shares the static, missing
    origin and TLS-error answers."""
    ip = scenario.provider(NO_CERT_PROVIDER if answer is TransportFailure.TLS_ERROR else PROOF_PROVIDER).ips[0]
    domain = parse_fqdn(host)
    paths = ["/logo.png", "/logo.png", "/app.js"]
    batch_net, single_net = sessions(db, scenario, ())
    responses = MockTransport(batch_net).probe_paths(ip, domain, paths)
    assert responses == [MockTransport(single_net).probe(https(ip, domain, path)) for path in paths]
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
