"""
Dangling domains and takeover paths
===================================

Takeover detection happens in two stages: first the DNS response of the
assigned subdomain is compared against service-discontinued fingerprints
(NXDOMAIN, SERVFAIL, a loopback marker, a lone residual A record); only
on a miss does an HTTP probe look for the provider's error page. For
each dangling finding, takeover paths are assembled from provider
knowledge and, in the simulated world, validated by actually registering
the domain from an attacker account.
"""

from dvahunter.checker import crawl_records, discover_hosted
from dvahunter.cli import default_data
from dvahunter.core import parse_fqdn
from dvahunter.providers import load_provider_db
from dvahunter.simnet import SimulatedInternet
from dvahunter.takeover import detect_dangling, enumerate_takeover_paths
from dvahunter.transport import MockTransport
from dvahunter.worlds import build_reference_world

db = load_provider_db(default_data("providers.json"))
world = build_reference_world(db)
net = SimulatedInternet(world.scenario, db)
transport = MockTransport(net)

CASES = [
    "legacy.fastly-retired.net",    # no verification at all
    "legacy.edgio-retired.net",     # W1: misconnection via the fixed subdomain
    "legacy.kuocai-retired.net",    # W2: domain-deterministic assigned name
    "promo.kkshift-shop.com",       # Multi-CDN shared-CNAME into a secure provider
]

records = discover_hosted(crawl_records([parse_fqdn(c) for c in CASES], transport), db, transport)
for record in records:
    finding = detect_dangling(record, transport, db)
    print(f"{record.fqdn}  (hosted by {record.provider})")
    print(f"  dangling: {finding.matched_fp} at {finding.stage.value}")
    paths = enumerate_takeover_paths(finding, db, simnet=net)
    for path in paths:
        print(f"  path: {path.kind.value} via {path.via_provider} validated={path.validated}")
        print(f"        {path.rationale}")
    print()

# The W2 weakness in one line: two different accounts, identical name.
one = net.attacker_register("KuoCai", "victim.example.com", "account-one")
two = net.attacker_register("KuoCai", "victim.example.com", "account-two")
print(f"W2 collision: {one} == {two} -> {one == two}")
