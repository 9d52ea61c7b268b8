"""
Seeded worlds for the benchmark, built from the public simnet/worlds API.

Each builder starts from ``worlds.build_reference_world`` and adds a
fixed amount of structure on top of it. The seed picks names, labels and
which sites or domains take which role; it never changes how many there
are. The same seed is the scan's ``--seed``, which picks the domains the
fronting check samples and each provider's ingress representative, so
the work done is exact for a fixed seed but not across seeds: on
detect-wide ``http_probes_per_target`` moves by about 0.3% between seeds.

Every builder returns the scenario, the targets (FQDNs only, so
enumeration stays idle) and the ground truth the report must reproduce
(the caller runs ``validate_scenario`` on the written scenario):
the verdict per provider and category, the dangling hosts, the
origin-exposed domains and the borrowed domains with their providers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from dvahunter.providers import ProviderDb
from dvahunter.simnet import (
    DiscontinuedService,
    HostEntry,
    Origin,
    RegisteredBy,
    Scenario,
    VerificationMode,
    ZoneRecord,
    assigned_subdomain_for,
    derive_label,
)
from dvahunter.worlds import (
    ATTACKER_ORIGIN_IP,
    BORROWED_VICTIM,
    BuiltWorld,
    build_reference_world,
    plain_page,
    reference_flags,
    slug,
)

CATEGORIES = ("fronting", "borrowing", "takeover")

# detect-wide
SITES_PER_PROVIDER = 40
ASSETS_PER_PAGE = 30
DIRECT_DOMAINS = 2000
EXPOSED_SHARE = 5  # one direct domain in five is origin-exposed
EXTRA_DANGLING_PER_PROVIDER = 3
BORROWED_PER_PROVIDER = 2

# takeover-churn
CHURN_DANGLING_PER_PROVIDER = 150
CHURN_HEALTHY_PER_PROVIDER = 10

_WORDS = (
    "alpha", "birch", "cobalt", "delta", "ember", "fjord", "garnet", "harbor",
    "indigo", "juniper", "kelp", "lumen", "maple", "nectar", "onyx", "pepper",
    "quartz", "raven", "sierra", "tundra", "umber", "violet", "willow", "yarrow",
)


@dataclass
class GeneratedWorld:
    scenario: Scenario
    targets: list[str]
    mode: str
    truth: dict = field(default_factory=dict)


def expected_verdicts(db: ProviderDb, categories=CATEGORIES) -> dict[str, dict[str, str]]:
    """The verdicts the reference-world acceptance test expects per
    provider: flagged means vulnerable; otherwise not_vulnerable when the
    provider has the fingerprint the check needs, else inconclusive."""
    flags = reference_flags(db)
    out: dict[str, dict[str, str]] = {}
    for profile in db.providers:
        f = flags[profile.name]
        want = {
            "fronting": "vulnerable" if f.fronting else "not_vulnerable",
            "borrowing": "vulnerable" if f.borrowing else (
                "not_vulnerable" if profile.nonhosted_fp else "inconclusive"
            ),
            "takeover": "vulnerable" if f.takeover else (
                "not_vulnerable" if profile.discontinued_fp else "inconclusive"
            ),
        }
        out[profile.name] = {c: want[c] for c in categories}
    return out


def _label(rng: random.Random) -> str:
    return f"{rng.choice(_WORDS)}{rng.randrange(10**6):06d}"


def _asset_page(host: str, assets: int) -> bytes:
    refs = "".join(f'<img src="/assets/img-{k:02d}.png">' for k in range(assets))
    return f"<html><head><title>{host}</title></head><body><h1>{host}</h1>{refs}</body></html>".encode("utf-8")


def _replace_provider(scenario: Scenario, name: str, **changes) -> None:
    for i, prov in enumerate(scenario.providers):
        if prov.name == name:
            scenario.providers[i] = replace(prov, **changes)
            return
    raise KeyError(name)


def _add_dangling(world: BuiltWorld, db: ProviderDb, seed: int, name: str, host: str, residual_ip: str) -> None:
    """A terminated service for ``host`` at ``name``, wired the way
    ``build_reference_world`` wires its one dangling host per provider."""
    scenario = world.scenario
    prov = scenario.provider(name)
    profile = db.by_name[name]
    if "{domain}" in prov.assigned_subdomain_rule:
        assigned = prov.assigned_subdomain_rule.replace("{domain}", host)
    elif prov.verification_mode is VerificationMode.FLAWED_SHARED_RANDOM:
        assigned = assigned_subdomain_for(prov, db, seed, host, account="victim")
    else:
        assigned = f"cdn-{derive_label(seed, name, host, 'victim-dangling')}{profile.assigned_suffixes[0]}"
    scenario.zones[host] = ZoneRecord(cname=assigned)
    residual = None
    fp = profile.discontinued_fp
    if fp is not None and fp.dns_signal is not None and fp.dns_signal.kind.value == "single_a_record":
        residual = residual_ip
        scenario.origins[residual] = Origin(body=b"", per_host={host: plain_page(f"legacy content of {host}")})
    scenario.discontinued[host] = DiscontinuedService(provider=name, origin_ip=residual)
    world.dangling_hosts.append(host)


def _add_hosted_sites(world: BuiltWorld, db: ProviderDb, seed: int, rng: random.Random,
                      per_provider: int, assets: int, octet_base: int) -> list[str]:
    """``per_provider`` live customer sites at every provider with an
    assigned suffix, each page referencing ``assets`` static assets."""
    scenario = world.scenario
    hosts = []
    for idx, profile in enumerate(db.providers, start=1):
        if not profile.assigned_suffixes:
            continue
        prov = scenario.provider(profile.name)
        suffix = profile.assigned_suffixes[0]
        extra = []
        for n in range(per_provider):
            host = f"www.{slug(profile.name)}-{_label(rng)}-{n:03d}.com"
            origin_ip = f"172.{octet_base + n // 200}.{idx}.{n % 200 + 20}"
            scenario.origins[origin_ip] = Origin(body=_asset_page(host, assets))
            assigned = f"cdn-{derive_label(seed, profile.name, host, 'victim')}{suffix}"
            scenario.zones[host] = ZoneRecord(cname=assigned)
            scenario.zones[assigned] = ZoneRecord(a=prov.ips)
            extra.append(HostEntry(host=host, origin_ip=origin_ip))
            hosts.append(host)
            world.healthy_hosts.append(host)
        _replace_provider(scenario, profile.name, host_table=prov.host_table + tuple(extra))
    return hosts


def _reference_fqdns(world: BuiltWorld) -> list[str]:
    """The reference world's own hosts as FQDN targets (its target file
    lists registrable domains, which would trigger enumeration)."""
    names = set(world.healthy_hosts) | set(world.dangling_hosts) | set(world.exposed_domains)
    names |= set(world.unexposed_domains) | {BORROWED_VICTIM}
    return sorted(names)


def build_detect_wide(db: ProviderDb, seed: int) -> GeneratedWorld:
    """The reference world plus, per provider, SITES_PER_PROVIDER hosted
    sites with ASSETS_PER_PAGE assets each; DIRECT_DOMAINS direct-to-origin
    domains, one in EXPOSED_SHARE origin-exposed, BORROWED_PER_PROVIDER of
    them borrowed at every borrowing-vulnerable provider; and
    EXTRA_DANGLING_PER_PROVIDER more dangling hosts per takeover-vulnerable
    provider."""
    rng = random.Random(f"detect-wide:{seed}")
    world = build_reference_world(db, seed=seed)
    scenario = world.scenario
    flags = reference_flags(db)
    targets = _reference_fqdns(world)
    targets += _add_hosted_sites(world, db, seed, rng, SITES_PER_PROVIDER, ASSETS_PER_PAGE, octet_base=24)

    direct = []
    for n in range(DIRECT_DOMAINS):
        host = f"app.{_label(rng)}-{n:04d}.net"
        ip = f"100.64.{n // 200}.{n % 200 + 10}"
        scenario.zones[host] = ZoneRecord(a=(ip,))
        direct.append(host)
    exposed = set(rng.sample(direct, DIRECT_DOMAINS // EXPOSED_SHARE))
    for n, host in enumerate(direct):
        ip = scenario.zones[host].a[0]
        if host in exposed:
            scenario.origins[ip] = Origin(body=plain_page(f"open origin {host}"))
            world.exposed_domains.append(host)
        else:
            scenario.origins[ip] = Origin(body=b"", per_host={host: plain_page(f"guarded origin {host}")})
            world.unexposed_domains.append(host)
    targets += direct

    lenders = sorted(name for name, f in flags.items() if f.borrowing)
    borrowed: dict[str, list[str]] = {BORROWED_VICTIM: list(lenders)}
    guarded = sorted(set(direct) - exposed)
    for name in lenders:
        prov = scenario.provider(name)
        picks = rng.sample(guarded, BORROWED_PER_PROVIDER)
        entries = tuple(
            HostEntry(host=host, origin_ip=ATTACKER_ORIGIN_IP,
                      registered_by=RegisteredBy.ATTACKER, dns_points_here=False)
            for host in picks
        )
        _replace_provider(scenario, name, host_table=prov.host_table + entries)
        for host in picks:
            borrowed.setdefault(host, []).append(name)

    residual_octet = 100
    for idx, profile in enumerate(db.providers, start=1):
        if not flags[profile.name].takeover:
            continue
        for k in range(EXTRA_DANGLING_PER_PROVIDER):
            host = f"old{k}.{slug(profile.name)}-{_label(rng)}-retired.net"
            _add_dangling(world, db, seed, profile.name, host, f"172.16.{idx}.{residual_octet + k}")
            targets.append(host)

    return GeneratedWorld(
        scenario=scenario,
        targets=sorted(set(targets)),
        mode="all",
        truth={
            "verdicts": expected_verdicts(db),
            "dangling": sorted(world.dangling_hosts),
            "exposed": sorted(world.exposed_domains),
            "borrowed": {host: sorted(names) for host, names in sorted(borrowed.items())},
        },
    )


def build_takeover_churn(db: ProviderDb, seed: int) -> GeneratedWorld:
    """The reference world plus CHURN_DANGLING_PER_PROVIDER dangling hosts
    and CHURN_HEALTHY_PER_PROVIDER live sites per takeover-vulnerable
    provider, scanned with ``--mode takeover``: every validated path
    registers at the simulated provider between reads."""
    rng = random.Random(f"takeover-churn:{seed}")
    world = build_reference_world(db, seed=seed)
    flags = reference_flags(db)
    targets = _reference_fqdns(world)
    vulnerable = [(idx, p) for idx, p in enumerate(db.providers, start=1) if flags[p.name].takeover]
    for idx, profile in vulnerable:
        for k in range(CHURN_DANGLING_PER_PROVIDER):
            host = f"shop{k:03d}.{slug(profile.name)}-{_label(rng)}.org"
            _add_dangling(world, db, seed, profile.name, host, f"172.{40 + k // 200}.{idx}.{k % 200 + 20}")
            targets.append(host)
    targets += _add_hosted_sites(
        world, db, seed, rng, CHURN_HEALTHY_PER_PROVIDER, assets=3, octet_base=48,
    )
    return GeneratedWorld(
        scenario=world.scenario,
        targets=sorted(set(targets)),
        mode="takeover",
        truth={
            "verdicts": expected_verdicts(db, categories=("takeover",)),
            "dangling": sorted(world.dangling_hosts),
            "exposed": [],
            "borrowed": {},
        },
    )


BUILDERS = {
    "detect-wide": build_detect_wide,
    "takeover-churn": build_takeover_churn,
}
