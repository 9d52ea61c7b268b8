"""
A tour of the simulated internet
================================

The scanner ships a deterministic in-process world: DNS zones, CDN edges
with per-provider policies, and origin servers. Every behavior below is
what the detectors later hunt for.
"""

from dvahunter.cli import default_data
from dvahunter.core import HttpProbe, Scheme, parse_fqdn
from dvahunter.providers import load_provider_db
from dvahunter.simnet import SimulatedInternet
from dvahunter.worlds import build_reference_world

db = load_provider_db(default_data("providers.json"))
world = build_reference_world(db)
net = SimulatedInternet(world.scenario, db)

# -- a healthy CDN customer ---------------------------------------------------
# www.fastly-site-a.com CNAMEs to its assigned subdomain, which resolves
# to the provider's ingress nodes.
obs = net.serve_dns(parse_fqdn("www.fastly-site-a.com"))
print("chain:", list(obs.cname_chain))
print("ingress:", obs.a_records)

ip = obs.a_records[0]
site = parse_fqdn("www.fastly-site-a.com")
page = net.serve_http(HttpProbe(target_ip=ip, scheme=Scheme.HTTPS, host_header=site, sni=site))
print("status:", page.status, "cert:", page.tls_cert_name)
print(page.body_excerpt.decode()[:80], "...")

# -- what an unknown Host gets ------------------------------------------------
# The edge answers hosts it does not serve with a characteristic page;
# that response is the provider's non-hosted fingerprint.
ghost = parse_fqdn("nobody-registered-this.example.org")
answer = net.serve_http(HttpProbe(target_ip=ip, scheme=Scheme.HTTP, host_header=ghost))
print("\nunknown host ->", answer.status, answer.body_excerpt.decode())

# -- a dangling domain ----------------------------------------------------------
# legacy.gcore-retired.net still CNAMEs to its old assigned subdomain, but
# the service behind it is gone: the name SERVFAILs.
dangling = net.serve_dns(parse_fqdn("legacy.gcore-retired.net"))
target = dangling.cname_chain[-1]
print("\ndangling chain:", list(dangling.cname_chain))
print("terminal resolution of", target, "->", net.serve_dns(target).rcode.value)

# -- the Multi-CDN namespace collision ------------------------------------------
# promo.kkshift-shop.com was deployed through a Multi-CDN that assigns
# names inside another provider's namespace; terminated, it resolves to
# the loopback marker the provider uses for dead services.
kk = net.serve_dns(parse_fqdn("promo.kkshift-shop.com"))
print("\nshared-namespace dangling:", list(kk.cname_chain), "->", kk.a_records)
