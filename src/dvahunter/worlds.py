"""
Scenario builders for the simulated internet.

``build_reference_world`` produces the committed 45-provider preset: per
provider, two live customer sites, vulnerability policies transcribed
from the provider knowledge base's observed flags (40 fronting / 24
borrowing / 19 takeover vulnerable), a dangling domain for every takeover-vulnerable provider, one
borrowed victim domain registered across the borrowing-vulnerable
providers, and a pair of direct-to-origin domains for the exposure
check. The other builders produce focused worlds for the dangling-recall,
budget and exposure test suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import record
from .providers import EFFECTIVE_VERIFICATIONS, ProviderDb
from .simnet import (
    BorrowingPolicy,
    DiscontinuedService,
    FrontingPolicy,
    HostEntry,
    Origin,
    RegisteredBy,
    Scenario,
    ScenarioProvider,
    VerificationMode,
    ZoneRecord,
    assigned_subdomain_for,
    derive_label,
)

ATTACKER_ORIGIN_IP = "198.51.100.66"
BORROWED_VICTIM = "pages.shared-press-kit.org"
BORROWED_VICTIM_ORIGIN = "198.51.100.10"

# Providers that do NOT route by Host when SNI disagrees (secure against
# fronting); every other provider in the knowledge base is vulnerable.
FRONTING_SECURE = frozenset({"Azure", "CDNvideo", "Cloudflare", "CloudFront", "Tencent"})

# Exactly the providers with a non-hosted fingerprint row (24).
BORROWING_VULNERABLE = frozenset({
    "Azion", "Bunny", "Cachefly", "CDN77", "CDNetworks", "CDNsun", "ChinaNetCenter",
    "CloudFront", "DogeCloud", "EdgeNext", "Edgio", "Fastly", "Goooood", "KeyCDN",
    "KuoCai", "Layun", "LightCDN", "Medianova", "Netlify", "StackPath", "Sudun",
    "UCloud", "Udomain", "Yundun",
})

# Exactly the providers with a service-discontinued fingerprint row (19).
TAKEOVER_VULNERABLE = frozenset({
    "Azure", "Bunny", "Cachefly", "CDNetworks", "ChinaNetCenter", "Cloudflare",
    "DogeCloud", "EdgeNext", "Edgio", "Fastly", "G-core", "KuaikuaiCloud", "KuoCai",
    "Layun", "LightCDN", "Netlify", "Sudun", "UCloud", "Yundun",
})

# Edge certificate inventory for the borrowing-type classification:
# providers handing out a default shared certificate, and providers whose
# certificate matching lets one tenant's wildcard cover another's name.
SHARED_CERT_PROVIDERS = frozenset({
    "Azion", "Bunny", "Cachefly", "CDN77", "CDNsun", "CloudFront", "DogeCloud",
    "EdgeNext", "Edgio", "Fastly", "KeyCDN", "LightCDN", "Medianova", "Netlify",
    "StackPath", "UCloud",
})
WILDCARD_CERT_PROVIDERS = frozenset({"Cachefly", "CDN77", "Netlify", "StackPath"})

# the simulated mode of each of EFFECTIVE_VERIFICATIONS, in its order
_VERIFICATION_FOR = dict(zip(EFFECTIVE_VERIFICATIONS, (
    VerificationMode.NONE, VerificationMode.DNS_TOKEN_CHECKED, VerificationMode.DNS_TOKEN_CHECKED,
    VerificationMode.FLAWED_MISCONNECTION, VerificationMode.FLAWED_SHARED_RANDOM,
), strict=True))


@record
class ProviderFlags:
    fronting: bool
    borrowing: bool
    takeover: bool


@dataclass
class BuiltWorld:
    scenario: Scenario
    targets: list[str] = field(default_factory=list)
    flags: dict[str, ProviderFlags] = field(default_factory=dict)
    exposed_domains: list[str] = field(default_factory=list)
    unexposed_domains: list[str] = field(default_factory=list)
    dangling_hosts: list[str] = field(default_factory=list)
    healthy_hosts: list[str] = field(default_factory=list)


def slug(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


def reference_flags(db: ProviderDb) -> dict[str, ProviderFlags]:
    return {
        p.name: ProviderFlags(
            fronting=p.name not in FRONTING_SECURE,
            borrowing=p.name in BORROWING_VULNERABLE,
            takeover=p.name in TAKEOVER_VULNERABLE,
        )
        for p in db.providers
    }


def site_page(host: str, provider: str) -> bytes:
    return (
        f"<html><head><title>{host}</title>"
        f'<link rel="stylesheet" href="/assets/site.css"></head>'
        f"<body><h1>{host}</h1><p>demo content for {host} served through {provider}.</p>"
        f'<img src="/assets/logo.png"><script src="/assets/app.js"></script></body></html>'
    ).encode("utf-8")


def plain_page(title: str) -> bytes:
    return f"<html><head><title>{title}</title></head><body><h1>{title}</h1></body></html>".encode("utf-8")


def shared_cert_name_for(db: ProviderDb, name: str) -> str | None:
    if name not in SHARED_CERT_PROVIDERS:
        return None
    if name == "Fastly":
        return "default.fastly.ssl.net"
    profile = db.by_name[name]
    base = profile.assigned_suffixes[0] if profile.assigned_suffixes else f".{slug(name)}.example"
    return f"default.ssl{base}"


def build_reference_world(db: ProviderDb, seed: int = 11) -> BuiltWorld:
    flags = reference_flags(db)
    zones: dict[str, ZoneRecord] = {}
    origins: dict[str, Origin] = {ATTACKER_ORIGIN_IP: Origin(body=plain_page("staging bucket"))}
    discontinued: dict[str, DiscontinuedService] = {}
    providers: list[ScenarioProvider] = []
    targets: set[str] = set()
    world = BuiltWorld(scenario=None, flags=flags)  # type: ignore[arg-type]

    for idx, profile in enumerate(db.providers, start=1):
        name = profile.name
        tag = slug(name)
        f = flags[name]
        ingress: list[tuple[str, str]] = [(f"10.{idx}.0.1", "frankfurt"), (f"10.{idx}.0.2", "singapore")]
        degraded: frozenset[str] = frozenset()
        if name == "Cloudflare":
            ingress.append((f"10.{idx}.0.3", "frankfurt"))
            degraded = frozenset({f"10.{idx}.0.3"})
        ingress_ips = tuple(ip for ip, _ in ingress)

        host_table: list[HostEntry] = []
        if profile.assigned_suffixes:
            suffix = profile.assigned_suffixes[0]
            for site, octet in (("a", 1), ("b", 2)):
                sld = f"{tag}-site-{site}.com"
                host = f"www.{sld}"
                origin_ip = f"172.16.{idx}.{octet}"
                origins[origin_ip] = Origin(body=site_page(host, name))
                assigned = f"cdn-{derive_label(seed, name, host, 'victim')}{suffix}"
                zones[host] = ZoneRecord(cname=assigned)
                zones[assigned] = ZoneRecord(a=ingress_ips)
                host_table.append(HostEntry(host=host, origin_ip=origin_ip))
                targets.add(sld)
                world.healthy_hosts.append(host)
        if f.borrowing:
            host_table.append(
                HostEntry(
                    host=BORROWED_VICTIM,
                    origin_ip=ATTACKER_ORIGIN_IP,
                    registered_by=RegisteredBy.ATTACKER,
                    dns_points_here=False,
                )
            )

        providers.append(
            ScenarioProvider(
                name=name,
                ingress_ips=tuple(ingress),
                fronting_policy=(
                    FrontingPolicy.ROUTE_BY_HOST_IGNORING_SNI if f.fronting else FrontingPolicy.REJECT_ON_MISMATCH
                ),
                borrowing_policy=(
                    BorrowingPolicy.SERVE_ANY_REGISTERED_HOST if f.borrowing else BorrowingPolicy.REQUIRE_DNS_PROOF
                ),
                verification_mode=_VERIFICATION_FOR[profile.effective_verification],
                host_table=tuple(host_table),
                assigned_subdomain_rule=(
                    "{domain}.a.bdydns.com" if name == "KuaikuaiCloud" else "random"
                ),
                shared_cert_name=shared_cert_name_for(db, name),
                wildcard_certs=("*.shared-press-kit.org",) if name in WILDCARD_CERT_PROVIDERS else (),
                server_header="cloudflare" if name == "Cloudflare" else f"{tag}-edge",
                degraded_ips=degraded,
            )
        )

    scenario = Scenario(
        providers=providers,
        zones=zones,
        origins=origins,
        discontinued=discontinued,
        seed=seed,
        attacker_origin_ip=ATTACKER_ORIGIN_IP,
    )

    # dangling domains for the takeover-vulnerable providers
    for idx, profile in enumerate(db.providers, start=1):
        name = profile.name
        if not flags[name].takeover:
            continue
        tag = slug(name)
        prov = scenario.provider(name)
        if name == "KuaikuaiCloud":
            host = "promo.kkshift-shop.com"
            assigned = prov.assigned_subdomain_rule.replace("{domain}", host)
            zones[host] = ZoneRecord(cname=assigned)
            discontinued[host] = DiscontinuedService(provider=name)
            targets.add("kkshift-shop.com")
            world.dangling_hosts.append(host)
            continue
        suffix = profile.assigned_suffixes[0]
        sld = f"{tag}-retired.net"
        host = f"legacy.{sld}"
        if prov.verification_mode is VerificationMode.FLAWED_SHARED_RANDOM:
            assigned = assigned_subdomain_for(prov, db, seed, host, account="victim")
        else:
            assigned = f"cdn-{derive_label(seed, name, host, 'victim-dangling')}{suffix}"
        zones[host] = ZoneRecord(cname=assigned)
        residual = None
        fp = profile.discontinued_fp
        if fp is not None and fp.dns_signal is not None and fp.dns_signal.kind.value == "single_a_record":
            residual = f"172.16.{idx}.9"
            origins[residual] = Origin(
                body=b"", per_host={host: plain_page(f"legacy content of {host}")}
            )
        discontinued[host] = DiscontinuedService(provider=name, origin_ip=residual)
        targets.add(sld)
        world.dangling_hosts.append(host)

    # the borrowed victim: a real site that never delegated to any CDN
    zones[BORROWED_VICTIM] = ZoneRecord(a=(BORROWED_VICTIM_ORIGIN,))
    origins[BORROWED_VICTIM_ORIGIN] = Origin(
        body=b"", per_host={BORROWED_VICTIM: plain_page("shared press kit")}
    )
    targets.add("shared-press-kit.org")

    # direct-to-origin domains for the exposure check
    zones["static.plain-directsite.net"] = ZoneRecord(a=("203.0.113.5",))
    origins["203.0.113.5"] = Origin(body=plain_page("plain direct site"))
    world.exposed_domains.append("static.plain-directsite.net")
    zones["app.vhosted-directsite.net"] = ZoneRecord(a=("203.0.113.6",))
    origins["203.0.113.6"] = Origin(
        body=b"", per_host={"app.vhosted-directsite.net": plain_page("vhosted direct site")}
    )
    world.unexposed_domains.append("app.vhosted-directsite.net")
    targets.update({"plain-directsite.net", "vhosted-directsite.net"})

    world.scenario = scenario
    world.targets = sorted(targets)
    return world


def build_dangling_world(
    db: ProviderDb,
    hosted_per_provider: int = 10,
    discontinued_count: int = 7,
    seed: int = 23,
) -> BuiltWorld:
    """Fifty hosted domains across five fingerprinted providers (DNS- and
    HTTP-signal mix) with ``discontinued_count`` of them terminated, plus
    two extra hosted domains on a fingerprint-less provider, one of them
    terminated, which detectors must report as Inconclusive."""
    chosen = ["Azure", "EdgeNext", "Fastly", "G-core", "Layun"]
    no_fp_provider = "Akamai"
    zones: dict[str, ZoneRecord] = {}
    origins: dict[str, Origin] = {ATTACKER_ORIGIN_IP: Origin(body=plain_page("staging bucket"))}
    discontinued: dict[str, DiscontinuedService] = {}
    providers: list[ScenarioProvider] = []
    targets: set[str] = set()
    world = BuiltWorld(scenario=None)  # type: ignore[arg-type]

    dangling_budget = discontinued_count
    plan: list[tuple[str, str, bool]] = []  # (provider, host, is_dangling)
    for round_idx in range(hosted_per_provider):
        for name in chosen:
            host = f"svc{round_idx}.{slug(name)}-fleet.com"
            plan.append((name, host, False))
    for i in range(len(plan)):
        if dangling_budget == 0:
            break
        provider, host, _ = plan[i]
        plan[i] = (provider, host, True)
        dangling_budget -= 1

    for idx, name in enumerate(chosen + [no_fp_provider], start=1):
        profile = db.by_name[name]
        suffix = profile.assigned_suffixes[0]
        ingress = ((f"10.{100 + idx}.0.1", "frankfurt"), (f"10.{100 + idx}.0.2", "singapore"))
        host_table = []
        entries = [(h, d) for p, h, d in plan if p == name]
        if name == no_fp_provider:
            entries = [(f"svc0.{slug(name)}-fleet.com", False), (f"svc1.{slug(name)}-fleet.com", True)]
        for n, (host, is_dangling) in enumerate(entries):
            targets.add(host)
            assigned = f"cdn-{derive_label(seed, name, host, 'victim')}{suffix}"
            zones[host] = ZoneRecord(cname=assigned)
            if is_dangling:
                residual = None
                fp = profile.discontinued_fp
                if fp is not None and fp.dns_signal is not None and fp.dns_signal.kind.value == "single_a_record":
                    residual = f"172.17.{idx}.{n + 1}"
                    origins[residual] = Origin(body=b"", per_host={host: plain_page(f"residual {host}")})
                discontinued[host] = DiscontinuedService(provider=name, origin_ip=residual)
                world.dangling_hosts.append(host)
            else:
                origin_ip = f"172.18.{idx}.{n + 1}"
                origins[origin_ip] = Origin(body=site_page(host, name))
                zones[assigned] = ZoneRecord(a=tuple(ip for ip, _ in ingress))
                host_table.append(HostEntry(host=host, origin_ip=origin_ip))
                world.healthy_hosts.append(host)
        providers.append(
            ScenarioProvider(
                name=name,
                ingress_ips=ingress,
                fronting_policy=FrontingPolicy.REJECT_ON_MISMATCH,
                borrowing_policy=BorrowingPolicy.REQUIRE_DNS_PROOF,
                verification_mode=_VERIFICATION_FOR[profile.effective_verification],
                host_table=tuple(host_table),
                server_header=f"{slug(name)}-edge",
            )
        )

    world.scenario = Scenario(
        providers=providers,
        zones=zones,
        origins=origins,
        discontinued=discontinued,
        seed=seed,
        attacker_origin_ip=ATTACKER_ORIGIN_IP,
    )
    world.targets = sorted(targets)
    return world


def build_budget_world(
    db: ProviderDb,
    domains_per_provider: int = 20,
    assets_per_page: int = 30,
    seed: int = 31,
) -> BuiltWorld:
    """Two fronting-vulnerable providers with ``domains_per_provider``
    hosted sites whose pages reference ``assets_per_page`` static assets:
    the world for proving the 10-domain / 10-tuple / 10-URL budgets."""
    chosen = ["Bunny", "Fastly"]
    zones: dict[str, ZoneRecord] = {}
    origins: dict[str, Origin] = {}
    providers = []
    targets: set[str] = set()
    world = BuiltWorld(scenario=None)  # type: ignore[arg-type]

    for idx, name in enumerate(chosen, start=1):
        profile = db.by_name[name]
        suffix = profile.assigned_suffixes[0]
        ingress = ((f"10.{200 + idx}.0.1", "frankfurt"),)
        host_table = []
        for n in range(domains_per_provider):
            host = f"www.{slug(name)}-wide-{n:02d}.com"
            targets.add(host)
            origin_ip = f"172.19.{idx}.{n + 1}"
            assets = "".join(
                f'<img src="/assets/img-{k:02d}.png">' for k in range(assets_per_page)
            )
            body = (
                f"<html><head><title>{host}</title></head>"
                f"<body><h1>{host}</h1>{assets}</body></html>"
            ).encode("utf-8")
            origins[origin_ip] = Origin(body=body)
            assigned = f"cdn-{derive_label(seed, name, host, 'victim')}{suffix}"
            zones[host] = ZoneRecord(cname=assigned)
            zones[assigned] = ZoneRecord(a=tuple(ip for ip, _ in ingress))
            host_table.append(HostEntry(host=host, origin_ip=origin_ip))
            world.healthy_hosts.append(host)
        providers.append(
            ScenarioProvider(
                name=name,
                ingress_ips=ingress,
                fronting_policy=FrontingPolicy.ROUTE_BY_HOST_IGNORING_SNI,
                borrowing_policy=BorrowingPolicy.SERVE_ANY_REGISTERED_HOST,
                verification_mode=VerificationMode.NONE,
                host_table=tuple(host_table),
                shared_cert_name=shared_cert_name_for(db, name),
                server_header=f"{slug(name)}-edge",
            )
        )

    world.scenario = Scenario(providers=providers, zones=zones, origins=origins, seed=seed)
    world.targets = sorted(targets)
    return world


def build_exposure_world(total: int = 40, exposed: int = 6, seed: int = 41) -> BuiltWorld:
    """``total`` single-A-record domains, ``exposed`` of which answer
    identically with and without their hostname."""
    zones: dict[str, ZoneRecord] = {}
    origins: dict[str, Origin] = {}
    targets: set[str] = set()
    world = BuiltWorld(scenario=None)  # type: ignore[arg-type]
    for n in range(total):
        host = f"app.single-origin-{n:02d}.net"
        ip = f"203.0.{113 + n // 200}.{(n % 200) + 10}"
        zones[host] = ZoneRecord(a=(ip,))
        if n < exposed:
            origins[ip] = Origin(body=plain_page(f"open origin {n}"))
            world.exposed_domains.append(host)
        else:
            origins[ip] = Origin(body=b"", per_host={host: plain_page(f"guarded origin {n}")})
            world.unexposed_domains.append(host)
        targets.add(host)
    world.scenario = Scenario(providers=[], zones=zones, origins=origins, seed=seed)
    world.targets = sorted(targets)
    return world
