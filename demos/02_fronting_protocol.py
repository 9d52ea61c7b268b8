"""
The three-request fronting protocol
===================================

A provider fronts when its edge routes by Host while the TLS SNI names a
different (innocent) domain. The test needs three responses:

    rt: SNI=target, Host=target   the reference object
    rv: SNI=front,  Host=target   the fronting attempt
    rf: SNI=front,  Host=front    control: the front must NOT serve it

Vulnerable means rv reproduces rt (same SHA1) while rf does not.
"""

from dvahunter.cli import default_data
from dvahunter.core import parse_fqdn
from dvahunter.fronting import generate_tuples, harvest_urls, judge_provider, judge_tuple, run_tuple
from dvahunter.providers import load_provider_db
from dvahunter.simnet import SimulatedInternet
from dvahunter.transport import MockTransport
from dvahunter.worlds import build_reference_world

db = load_provider_db(default_data("providers.json"))
world = build_reference_world(db)
transport = MockTransport(SimulatedInternet(world.scenario, db))


def test_provider(name: str) -> None:
    prov = world.scenario.provider(name)
    ingress = prov.ips[0]
    domains = [parse_fqdn(f"www.{name.lower()}-site-a.com"), parse_fqdn(f"www.{name.lower()}-site-b.com")]

    # the harvest on its own: stable static URLs of one site (capped at 10)
    found = harvest_urls(domains[0], ingress, transport, seed=1)
    print(f"  {domains[0]}: {len(found)} stable urls, e.g. {found[0].path}")

    # the tuples pick their (front, target) pairs first, then harvest
    # only the target domains, for as many URLs as the pairs use
    tuples = generate_tuples(name, domains, ingress, transport, seed=1)
    verdicts = []
    for item in tuples:
        executed = run_tuple(item, transport)
        verdict = judge_tuple(executed)
        verdicts.append(verdict)
        rv = executed.rv
        print(f"  {item.fd} fronts {item.td}{item.ut.path} -> rv={rv.status} "
              f"match={rv.body_hash == executed.rt.body_hash} verdict={verdict.kind.value}")
    print(f"  provider verdict: {judge_provider(verdicts).kind.value}")


print("Fastly (routes by Host, ignores the SNI):")
test_provider("Fastly")

print("\nTencent (rejects SNI/Host mismatches with 421):")
test_provider("Tencent")
