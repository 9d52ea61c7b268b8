"""
Property test for the batch probe that the borrowing check uses: at any
IP, for any list of hosts, ``MockTransport.probe_hosts`` answers exactly
what one plain-http ``probe`` per host would, and counts and logs one
probe per host.
"""

import dataclasses

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dvahunter.core import HttpProbe, Scheme, parse_fqdn  # noqa: E402
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
DYNAMIC_HOST = "www.dynamic-site.org"
DYNAMIC_ORIGIN = "172.31.0.1"
NOBODY_IP = "192.0.2.250"
FRESH_DOMAIN = "fresh-shop.example.org"
UNKNOWN_HOSTS = ["nobody-here.example.org", "www.plain-directsite.net", "x.y.z.test"]


@pytest.fixture(scope="module")
def scenario(db):
    """The reference world plus: a provider whose edge answers unknown
    hosts with an override; a provider with a non-hosted fingerprint that
    requires DNS proof, so its edge must not serve the unproven attacker
    entry for the borrowed victim, and that lets anyone register; and a
    host behind a dynamic origin, whose body counts its fetches."""
    world = build_reference_world(db).scenario
    assert db.by_name[SILENT_PROVIDER].nonhosted_fp.no_response
    providers = []
    for prov in world.providers:
        if prov.name == OVERRIDE_PROVIDER:
            prov = dataclasses.replace(prov, nonhosted_override=(200, "<html>all good</html>"))
        if prov.name == PROOF_PROVIDER:
            assert prov.verification_mode is VerificationMode.NONE
            assert any(entry.host == BORROWED_VICTIM and not entry.dns_points_here for entry in prov.host_table)
            prov = dataclasses.replace(
                prov,
                borrowing_policy=BorrowingPolicy.REQUIRE_DNS_PROOF,
                host_table=prov.host_table + (HostEntry(DYNAMIC_HOST, DYNAMIC_ORIGIN),),
            )
        providers.append(prov)
    origins = {**world.origins, DYNAMIC_ORIGIN: Origin(body=b"<html>live</html>", dynamic=True)}
    return dataclasses.replace(world, providers=providers, origins=origins)


@pytest.fixture(scope="module")
def pools(db, scenario):
    """(registrations, special IPs, every IP, owner per ingress IP, hosts
    per IP, every host).

    Registrations are (provider, domain) pairs at providers that let
    anyone register, some of which require DNS proof. The special IPs are
    the ones whose answers differ most: the override, the silent edge,
    the proof-requiring edge, the edges that answer a discontinued host
    with its own fingerprint, an origin and an IP nobody owns."""
    open_providers = [p for p in scenario.providers if p.verification_mode is not VerificationMode.DNS_TOKEN_CHECKED]
    assert any(p.borrowing_policy is BorrowingPolicy.REQUIRE_DNS_PROOF for p in open_providers)
    discontinued_at: dict[str, list[str]] = {}
    for host, service in sorted(scenario.discontinued.items()):
        discontinued_at.setdefault(service.provider, []).append(host)
    registrations = sorted(
        (p.name, domain)
        for p in open_providers
        for domain in [FRESH_DOMAIN, BORROWED_VICTIM] + discontinued_at.get(p.name, [])
    )
    owner_at: dict[str, str] = {}
    hosts_at: dict[str, list[str]] = {}
    special = [NOBODY_IP, DYNAMIC_ORIGIN]
    for prov in scenario.providers:
        local = [entry.host for entry in prov.host_table] + discontinued_at.get(prov.name, [])
        for ip in prov.ips:
            owner_at[ip] = prov.name
            hosts_at[ip] = local
        fp = db.by_name[prov.name].discontinued_fp
        if prov.name in (OVERRIDE_PROVIDER, SILENT_PROVIDER, PROOF_PROVIDER) or (
            prov.name in discontinued_at and fp is not None and fp.needs_http
        ):
            special.append(prov.ips[0])
    for ip, origin in scenario.origins.items():
        hosts_at[ip] = sorted(origin.per_host or ())
    every_ip = sorted(hosts_at) + [NOBODY_IP]
    every_host = sorted(
        {host for hosts in hosts_at.values() for host in hosts} | {FRESH_DOMAIN, BORROWED_VICTIM, *UNKNOWN_HOSTS}
    )
    return registrations, special, every_ip, owner_at, hosts_at, every_host


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_batch_equals_one_probe_per_host(db, scenario, pools, data):
    registrations, special, every_ip, owner_at, hosts_at, every_host = pools
    ip = data.draw(st.one_of(st.sampled_from(special), st.sampled_from(every_ip)))
    # the registrations at the probed edge, and the hosts it knows, are
    # drawn as often as all the others
    at_ip = [pair for pair in registrations if pair[0] == owner_at.get(ip)]
    some_pair = st.sampled_from(registrations)
    registered = data.draw(st.lists(
        st.one_of(st.sampled_from(at_ip), some_pair) if at_ip else some_pair, max_size=4, unique=True,
    ))
    local = hosts_at.get(ip, []) + [domain for _, domain in at_ip]
    some_host = st.sampled_from(every_host)
    names = data.draw(st.lists(st.one_of(st.sampled_from(local), some_host) if local else some_host, max_size=30))
    hosts = [parse_fqdn(name) for name in names]
    # two sessions with the same registrations: dynamic origins count
    # fetches, so each side needs its own
    batch_net, single_net = SimulatedInternet(scenario, db), SimulatedInternet(scenario, db)
    for provider, domain in registered:
        for net in (batch_net, single_net):
            try:
                net.attacker_register(provider, domain, "acct-x")
            except VerificationFailed:
                pass

    batch = MockTransport(batch_net, record=True)
    responses = batch.probe_hosts(ip, hosts)
    single = MockTransport(single_net, record=True)
    expected = [single.probe(HttpProbe(target_ip=ip, scheme=Scheme.HTTP, host_header=host)) for host in hosts]
    assert responses == expected
    assert batch.stats.http_probes == len(hosts)
    assert batch.probe_log == single.probe_log
