"""
The scan orchestrator: enumerate -> crawl -> discover hosted -> collect
ingress -> per-mode detection -> report. Partial failures degrade to
Inconclusive entries; nothing aborts the run after configuration checks
pass.

The phases orchestrate and the detector modules decide. A phase picks
the representatives, marks a provider it cannot test at all (no
representative, no fingerprint) Inconclusive, and writes into the report
what the module that owns each rule returns: tuple and provider folds,
budgets and dangling checks live in ``fronting``, ``borrowing`` and
``takeover``, never here.

Mode phases run in the order fronting, borrowing, exposure, takeover,
which is also the order of their keys in the report. Mock-mode takeover
validation registers attacker services, each inside its own
registration scope, and reads them from the simulated world directly: the
scan's transport never sees a registration, and the world ends the scan
as it began.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Optional

from . import borrowing as borrowing_mod
from . import fronting as fronting_mod
from . import takeover as takeover_mod
from .checker import (
    HostedDomainRecord,
    IngressNodeSet,
    Recheck,
    collect_ingress,
    crawl_records,
    discover_hosted,
)
from .core import DomainSyntaxError, Evidence, Fqdn, Verdict, VerdictKind, derive_rng, parse_fqdn, read_text
from .crawler import PrefixDictionary, enumerate_subdomains
from .providers import DnsSignalKind, ProviderDb, load_provider_db
from .psl import PublicSuffixList
from .report import ScanReport
from .simnet import SimulatedInternet, load_scenario
from .transport import Backend, LiveTransport, MockTransport, TransportConfig

logger = logging.getLogger(__name__)

MODES = ("all", "fronting", "borrowing", "takeover", "exposure")


class ConfigError(Exception):
    """Raised before any network activity when the configuration is
    unusable: a bad option, or an input file that cannot be read or parsed."""


@dataclass
class ScanConfig:
    targets: Path
    providers: Path
    suffixes: Path
    dictionary: Path
    mode: str = "all"
    backend: Backend = Backend.MOCK
    scenario: Optional[Path] = None
    resolver: Optional[str] = None
    qps: float = 20.0
    seed: int = 0
    geoip: Optional[Path] = None
    out: Optional[Path] = None
    stats: Optional[Path] = None  # the wall-time sidecar, see run_scan_with_context
    verify_tls: bool = False
    record_probes: bool = False


@dataclass
class ScanContext:
    config: ScanConfig
    targets: str  # the targets file's text, parsed by the enumeration phase
    psl: PublicSuffixList
    db: ProviderDb
    dictionary: PrefixDictionary
    transport: Any
    simnet: Optional[SimulatedInternet]
    geo: Callable[[str], Optional[str]]
    report: ScanReport
    hosted: list[HostedDomainRecord] = field(default_factory=list)
    ingress: dict[str, IngressNodeSet] = field(default_factory=dict)
    observations: dict[str, Any] = field(default_factory=dict)
    nonhosted: list[Fqdn] = field(default_factory=list)


def _load(label: str, path: Path, load: Callable[[Path], Any]) -> Any:
    """``load(path)``; an input that cannot be read or parsed (any OSError
    or ValueError) is a ConfigError that names it."""
    try:
        return load(Path(path))
    except (OSError, ValueError) as err:
        raise ConfigError(f"{label}: {err}") from None


def _load_hashed(label: str, path: Path, load: Callable[..., Any]) -> tuple[Any, str]:
    """``_load`` of ``load(path, on_bytes)``, and the SHA1 of the bytes it
    hands to ``on_bytes``: the file is read once, so the SHA1 names the
    bytes parsed."""
    digest = hashlib.sha1()
    return _load(label, path, lambda p: load(p, digest.update)), digest.hexdigest()


def _load_geo(path: Path) -> Callable[[str], Optional[str]]:
    table = {}
    for line in read_text(path).splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        ip, _, city = line.partition(",")
        table[ip.strip()] = city.strip() or None
    return table.get


def check_output_path(label: str, path: Path) -> None:
    """Raise ConfigError unless a file can be written at ``path``: its
    parent must be an existing directory and ``path`` must not be one.
    Checked before the scan, so a bad path cannot lose a finished scan."""
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"{label} is a directory: {path}")
    if not path.parent.is_dir():
        raise ConfigError(f"{label} directory not found: {path.parent}")


def prepare(config: ScanConfig) -> ScanContext:
    """Check the configuration and read every input file, the only place
    that reads them: any that cannot be read or parsed raises ConfigError
    before the transport is built, since a live one may look up the
    resolver's name."""
    if config.mode not in MODES:
        raise ConfigError(f"unknown mode {config.mode!r}; expected one of {', '.join(MODES)}")
    if not (math.isfinite(config.qps) and config.qps > 0):
        raise ConfigError(f"qps must be a finite positive number, got {config.qps}")
    if config.out is not None:
        check_output_path("out", config.out)
    if config.stats is not None:
        check_output_path("stats", config.stats)
    targets = _load("targets", config.targets, read_text)
    db, db_sha1 = _load_hashed("providers", config.providers, load_provider_db)
    psl, suffix_sha1 = _load_hashed("suffixes", config.suffixes, PublicSuffixList.load)
    dictionary, dictionary_sha1 = _load_hashed("dictionary", config.dictionary, PrefixDictionary.load)
    mock = config.backend is Backend.MOCK
    # only the mock reads the scenario, as only a live scan reads --geoip
    scenario = scenario_sha1 = None
    if mock:
        if config.scenario is None:
            raise ConfigError("mock backend needs --scenario")
        # its bytes and text are gone before the world is built
        scenario, scenario_sha1 = _load_hashed("scenario", config.scenario, load_scenario)
    report = ScanReport()
    report.meta = {
        # the mock world has no wall clock, so its reports are reproducible
        "generated_at": datetime.fromtimestamp(0.0 if mock else time.time(), tz=timezone.utc).isoformat(),
        "mode": config.mode,
        "backend": config.backend.value,
        "seed": config.seed,
        "qps_limit": config.qps,
        "provider_db_sha1": db_sha1,
        "dictionary_sha1": dictionary_sha1,
        "suffix_file_sha1": suffix_sha1,
        "suffix_snapshot_date": psl.snapshot_date,
        "scenario_sha1": scenario_sha1,
    }
    if mock:
        try:
            simnet = SimulatedInternet(scenario, db)
        except ValueError as err:  # ScenarioError: fails validate_scenario
            raise ConfigError(f"scenario: {err}") from None
        geo = simnet.city_of
        transport = MockTransport(simnet, record=config.record_probes)
    else:
        if config.record_probes:
            raise ConfigError("record_probes needs the mock backend")
        simnet = None
        geo = _load("geoip", config.geoip, _load_geo) if config.geoip is not None else lambda ip: None
        try:
            transport = LiveTransport(TransportConfig(
                qps_limit=config.qps, resolver=config.resolver, verify_tls=config.verify_tls,
            ))
        except ValueError as err:
            raise ConfigError(str(err))
    return ScanContext(
        config=config, targets=targets, psl=psl, db=db, dictionary=dictionary,
        transport=transport, simnet=simnet, geo=geo, report=report,
    )


def _load_targets(ctx: ScanContext) -> tuple[list[Fqdn], list[Fqdn]]:
    """Split the targets into registrable domains (to enumerate) and
    direct FQDNs, each listed once, in the order first given."""
    slds: dict[Fqdn, None] = {}
    direct: dict[Fqdn, None] = {}
    for raw in ctx.targets.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            fqdn = parse_fqdn(line)
        except DomainSyntaxError as err:
            logger.warning("skipping malformed target %r: %s", line, err)
            continue
        if ctx.psl.registrable_domain(fqdn.name) == fqdn.name:
            slds[fqdn] = None
        else:
            direct[fqdn] = None
    return list(slds), list(direct)


def _phase_enumerate(ctx: ScanContext) -> list[Fqdn]:
    """The sorted scan targets. The observations that confirmed enumerated
    names go to ``ctx.observations``, so the crawl need not repeat them."""
    slds, direct = _load_targets(ctx)
    confirmed: dict[str, Fqdn] = {str(f): f for f in direct}
    for sld in sorted(slds, key=str):
        result = enumerate_subdomains(sld, ctx.dictionary, ctx.transport, seed=ctx.config.seed)
        for fqdn in result.confirmed:
            confirmed.setdefault(str(fqdn), fqdn)
        ctx.observations.update(result.observations)
        if result.wildcard is not None:
            ctx.report.meta.setdefault("wildcard_slds", []).append(str(sld))
        if result.wildcard_inconclusive:
            ctx.report.meta.setdefault("wildcard_inconclusive_slds", []).append(str(sld))
    return [confirmed[name] for name in sorted(confirmed)]


def _phase_crawl(ctx: ScanContext, targets: list[Fqdn]) -> None:
    """Crawl only the targets no earlier phase resolved (the direct FQDN
    targets); the rest keep enumeration's observations."""
    missing = [name for name in targets if name.name not in ctx.observations]
    crawled = crawl_records(missing, ctx.transport)
    ctx.observations.update(zip([name.name for name in missing], crawled))
    observations = [ctx.observations[name.name] for name in targets]
    for obs in observations:
        ctx.report.domains[str(obs.fqdn)] = {"rcode": obs.rcode.value}
    ctx.hosted = discover_hosted(observations, ctx.db, ctx.transport)
    hosted_names = set()
    for record in ctx.hosted:
        hosted_names.add(str(record.fqdn))
        ctx.report.domains[str(record.fqdn)].update(
            {
                "provider": record.provider,
                "matched_suffix": record.matched_suffix,
                "matched_cname": record.matched_cname,
                "recheck": record.recheck.value,
            }
        )
    # discover_hosted keeps a record for every name identify_cdn matches,
    # so every other name with records is non-hosted
    for obs in observations:
        if str(obs.fqdn) not in hosted_names and obs.exists_with_records:
            ctx.nonhosted.append(obs.fqdn)
    ctx.nonhosted.sort(key=str)


def _phase_ingress(ctx: ScanContext) -> None:
    ctx.ingress = collect_ingress(ctx.hosted, ctx.geo, ctx.transport, ctx.db, seed=ctx.config.seed)
    for provider, nodes in sorted(ctx.ingress.items()):
        ctx.report.providers.setdefault(provider, {})["ingress"] = {
            "nodes": [[ip, city, state.value] for ip, city, state in nodes.nodes],
            "representatives": nodes.representatives,
            "liveness_is_weak": nodes.liveness_is_weak,
        }


def _provider_section(ctx: ScanContext, name: str) -> dict[str, Any]:
    return ctx.report.providers.setdefault(name, {})


def _representative(ctx: ScanContext, provider: str, purpose: str) -> Optional[str]:
    nodes = ctx.ingress.get(provider)
    if nodes is None or not nodes.representatives:
        return None
    rng = derive_rng(ctx.config.seed, purpose, provider)
    return rng.choice(sorted(nodes.representatives))


# -- fronting ----------------------------------------------------------------


def _fronting_eligible(ctx: ScanContext) -> dict[str, dict[Fqdn, HostedDomainRecord]]:
    """Per provider, the hosted records fronting can pair: not refuted by
    a fingerprint and with an address; each name's first record, in the
    order of ``ctx.hosted``."""
    eligible: dict[str, dict[Fqdn, HostedDomainRecord]] = {}
    for record in ctx.hosted:
        if record.recheck is Recheck.REFUTED_BY_FINGERPRINT or not record.observation.a_records:
            continue
        eligible.setdefault(record.provider, {}).setdefault(record.fqdn, record)
    return eligible


def _fronting_direct(ctx: ScanContext, profile, eligible: dict[Fqdn, HostedDomainRecord]) -> Optional[Verdict]:
    """None defers the provider to sharing-edge derivation."""
    name = profile.name
    rep = _representative(ctx, name, "fronting-ingress")
    if len(eligible) < 2 or rep is None:
        if profile.shares_infra_of:
            return None
        return Verdict.inconclusive(
            (Evidence("fronting", f"{len(eligible)} usable hosted domain(s), no pairing possible"),)
        )
    try:
        tuples = fronting_mod.generate_tuples(name, list(eligible), rep, ctx.transport, seed=ctx.config.seed)
    except fronting_mod.InsufficientDomains as err:
        return Verdict.inconclusive((Evidence("fronting", str(err)),))
    # the three steps inside one tuple stay strictly sequential
    verdicts = [fronting_mod.judge_tuple(fronting_mod.run_tuple(t, ctx.transport)) for t in tuples]
    return fronting_mod.judge_provider(verdicts)


def _phase_fronting(ctx: ScanContext) -> None:
    direct: dict[str, Verdict] = {}
    eligible = _fronting_eligible(ctx)
    for profile in ctx.db.providers:
        verdict = _fronting_direct(ctx, profile, eligible.get(profile.name, {}))
        if verdict is None:
            continue
        _provider_section(ctx, profile.name)["fronting"] = verdict.to_json(ctx.report.response_ref)
        direct[profile.name] = verdict

    # a directly tested provider notes the infrastructure it shares; any
    # other inherits through it (a Multi-CDN fronts whatever its carriers front)
    for profile in ctx.db.providers:
        if not profile.shares_infra_of:
            continue
        section = _provider_section(ctx, profile.name)
        if profile.name in direct:
            notes = [
                f"shares infrastructure of {edge.provider}" + (f" ({edge.note})" if edge.note else "")
                for edge in profile.shares_infra_of
            ]
        else:
            carriers = [
                (edge.provider, direct[edge.provider]) for edge in profile.shares_infra_of if edge.provider in direct
            ]
            section["fronting"] = fronting_mod.judge_via_edges(carriers).to_json(ctx.report.response_ref)
            notes = [
                "fronting verdict derived via infrastructure-sharing edges: "
                + ", ".join(f"{carrier}:{verdict.kind.value}" for carrier, verdict in carriers)
            ]
        section.setdefault("notes", []).extend(notes)


# -- borrowing ----------------------------------------------------------------


def _phase_borrowing(ctx: ScanContext) -> None:
    ref = ctx.report.response_ref
    for profile in ctx.db.providers:
        name = profile.name
        section = _provider_section(ctx, name)
        rep = _representative(ctx, name, "borrowing-ingress")
        if profile.nonhosted_fp is None:
            skipped = "no non-hosted fingerprint for this provider; skipped"
        elif rep is None:
            skipped = "no live ingress representative"
        else:
            skipped = None
        if skipped:
            section["borrowing"] = Verdict.inconclusive((Evidence("borrowing", skipped),)).to_json(ref)
            continue
        try:
            baseline = borrowing_mod.probe_baseline(profile, rep, ctx.transport, seed=ctx.config.seed)
        except borrowing_mod.BaselineMismatch as err:
            section["borrowing"] = Verdict.inconclusive((Evidence("baseline-mismatch", str(err)),)).to_json(ref)
            section.setdefault("notes", []).append(f"BASELINE MISMATCH, provider excluded: {err}")
            continue
        verdict = borrowing_mod.find_borrowing(ctx.nonhosted, profile, rep, ctx.transport)
        section["borrowing"] = verdict.to_json(ref)
        section["borrowing_baseline"] = ref(baseline)
        if verdict.kind is not VerdictKind.VULNERABLE:
            continue
        hits = section["borrowing_hits"] = []
        for hit in verdict.evidence:
            domain = str(hit.probe.host_header)
            tls = borrowing_mod.classify_borrowing_tls(hit, ctx.transport).value
            hits.append({"domain": domain, "tls": tls})
            entry = ctx.report.domains.setdefault(domain, {"rcode": "noerror"})
            entry.setdefault("borrowed_at", []).append(name)
            entry.setdefault("tls_borrowing_by_provider", {})[name] = tls


# -- exposure ------------------------------------------------------------------


def _phase_exposure(ctx: ScanContext) -> None:
    for name in sorted(ctx.observations):
        obs = ctx.observations[name]
        # records exist only on a NOERROR answer (DnsObservation.__post_init__)
        if len(obs.a_records) != 1 or obs.cname_chain:
            continue
        verdict = takeover_mod.check_origin_exposure(obs.fqdn, obs, ctx.transport)
        ctx.report.domains[name]["exposure"] = verdict.to_json(ctx.report.response_ref)


# -- takeover ------------------------------------------------------------------


def _phase_takeover(ctx: ScanContext) -> None:
    taken: dict[str, list[str]] = {}
    scanned: Counter[str] = Counter()
    undecided_records: Counter[str] = Counter()

    for record in sorted(ctx.hosted, key=lambda r: str(r.fqdn)):
        scanned[record.provider] += 1
        entry = ctx.report.domains[str(record.fqdn)]
        undecided = None
        try:
            finding = takeover_mod.detect_dangling(record, ctx.transport, ctx.db)
        except LookupError:
            undecided = "no service-discontinued fingerprint"
        except takeover_mod.DanglingProbeFailure as err:
            undecided = str(err)
        if undecided is not None:
            entry["dangling_check"] = f"inconclusive: {undecided}"
            undecided_records[record.provider] += 1
            continue
        if finding is None:
            entry["dangling_check"] = "healthy"
            continue
        paths = takeover_mod.enumerate_takeover_paths(finding, ctx.db, simnet=ctx.simnet)
        entry["dangling"] = {
            "matched_fp": finding.matched_fp,
            "stage": finding.stage.value,
            "matched_cname": finding.matched_cname,
        }
        entry["takeover_paths"] = [p.to_json() for p in paths]
        for path in paths:
            if path.validated is False:
                continue
            taken.setdefault(path.via_provider, []).append(str(finding.fqdn))
        # residual single-A fingerprints route straight into the
        # origin-exposure check (the leaked address is the old origin).
        # Such a finding comes from the DNS stage: a fingerprint with a
        # dns_signal needs HTTP only through no_response, which a served
        # answer never matches, and detect_dangling raises on a failed one.
        # So match_dns held on the terminal: no chain and exactly one A
        # record, which is check_origin_exposure's precondition. The
        # scan's transport never sees a registration, so the crawl
        # recheck's answer still stands for the same probe.
        signal = finding.fingerprint.dns_signal
        if signal is not None and signal.kind is DnsSignalKind.SINGLE_A_RECORD:
            verdict = takeover_mod.check_origin_exposure(
                finding.fqdn, finding.terminal, ctx.transport, known=record.evidence
            )
            entry["exposure"] = verdict.to_json(ctx.report.response_ref)

    for profile in ctx.db.providers:
        name = profile.name
        verdict = takeover_mod.judge_provider(profile, scanned[name], undecided_records[name], taken.get(name, []))
        _provider_section(ctx, name)["takeover"] = verdict.to_json(ctx.report.response_ref)


def run_scan_with_context(config: ScanConfig) -> ScanContext:
    """run_scan, but hands back the full context (the probe/query logs on a
    recording transport feed the call-audit tests).

    With ``config.stats`` set, the wall seconds of ``prepare``, of each
    phase (with its queries and probes, as in the report's
    ``meta.stats``) and of the report write go to that file as JSON, in
    the order they ran; the report itself holds no wall time, so it stays
    reproducible."""
    clock = time.perf_counter
    started = clock()
    ctx = prepare(config)
    wall = {"prepare": clock() - started}
    counts = ctx.transport.stats
    stats: dict[str, dict[str, int]] = {}

    def run(name: str, phase: Callable[..., Any], *args: Any) -> Any:
        queries, probes = counts.dns_queries, counts.http_probes
        started = clock()
        result = phase(ctx, *args)
        wall[name] = clock() - started
        stats[name] = {"dns_queries": counts.dns_queries - queries, "http_probes": counts.http_probes - probes}
        return result

    targets = run("enumerate", _phase_enumerate)
    run("crawl", _phase_crawl, targets)
    run("ingress", _phase_ingress)
    mode = config.mode
    if mode in ("all", "fronting"):
        run("fronting", _phase_fronting)
    if mode in ("all", "borrowing"):
        run("borrowing", _phase_borrowing)
    if mode in ("all", "exposure"):
        run("exposure", _phase_exposure)
    if mode in ("all", "takeover"):
        run("takeover", _phase_takeover)
    started = clock()
    ctx.report.meta["stats"] = stats
    ctx.report.finalize()
    if config.out is not None:
        ctx.report.dump(config.out)
    wall["report"] = clock() - started
    if config.stats is not None:
        sidecar = {name: {"wall_s": seconds, **stats.get(name, {})} for name, seconds in wall.items()}
        Path(config.stats).write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")
    return ctx


def run_scan(config: ScanConfig) -> ScanReport:
    return run_scan_with_context(config).report
