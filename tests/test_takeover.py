import dataclasses
import json
from types import SimpleNamespace

import pytest

from dvahunter.checker import crawl_records, discover_hosted
from dvahunter.cli import main
from dvahunter.core import Rcode, VerdictKind, parse_fqdn
from dvahunter.providers import Fingerprint, ProviderProfile
from dvahunter.scan import run_scan_with_context
from dvahunter.simnet import (
    MAX_CHAIN,
    Origin,
    Scenario,
    SimulatedInternet,
    VerificationFailed,
    VerificationMode,
    ZoneRecord,
    load_scenario,
    scenario_from_json,
    scenario_to_json,
)
from dvahunter.takeover import (
    DanglingStage,
    ExposurePrecondition,
    TakeoverKind,
    check_origin_exposure,
    detect_dangling,
    enumerate_takeover_paths,
    judge_provider,
    terminal_answer,
)
from dvahunter.transport import MockTransport, RRType
from dvahunter.worlds import build_reference_world
from tests.conftest import (
    DATA, edited_reference_scan, keep_providers, scan_config, set_provider, set_zone, write_world,
)


@pytest.fixture()
def world(db):
    return build_reference_world(db)


@pytest.fixture()
def net(world, db):
    return SimulatedInternet(world.scenario, db)


@pytest.fixture()
def transport(net):
    return MockTransport(net, record=True)


def hosted_record(db, transport, name):
    records = discover_hosted(crawl_records([parse_fqdn(name)], transport), db, transport)
    assert len(records) == 1
    return records[0]


class TestDetectDangling:
    def test_fastly_http_stage(self, db, transport):
        record = hosted_record(db, transport, "legacy.fastly-retired.net")
        finding = detect_dangling(record, transport, db)
        assert finding is not None
        assert finding.stage is DanglingStage.HTTP_STAGE
        assert finding.matched_fp == "Fastly:discontinued"

    def test_azure_dns_stage(self, db, transport):
        record = hosted_record(db, transport, "legacy.azure-retired.net")
        finding = detect_dangling(record, transport, db)
        assert finding is not None
        assert finding.stage is DanglingStage.DNS_STAGE
        assert finding.matched_fp == "Azure:discontinued"

    def test_healthy_host_absent(self, db, transport):
        record = hosted_record(db, transport, "www.fastly-site-a.com")
        assert detect_dangling(record, transport, db) is None

    def test_no_fingerprint_provider_raises_lookup(self, db, transport):
        record = hosted_record(db, transport, "www.akamai-site-a.com")
        with pytest.raises(LookupError):
            detect_dangling(record, transport, db)

    def test_dns_stage_hit_issues_no_http_probe(self, db, transport):
        record = hosted_record(db, transport, "legacy.gcore-retired.net")
        before = transport.stats.http_probes
        finding = detect_dangling(record, transport, db)
        assert finding.stage is DanglingStage.DNS_STAGE
        assert transport.stats.http_probes == before

    def test_http_stage_runs_only_after_dns_miss(self, db, transport):
        record = hosted_record(db, transport, "legacy.bunny-retired.net")
        before = transport.stats.http_probes
        finding = detect_dangling(record, transport, db)
        assert finding.stage is DanglingStage.HTTP_STAGE
        assert transport.stats.http_probes > before

    def test_edgenext_single_record_matches_on_terminal_view(self, db, transport):
        record = hosted_record(db, transport, "legacy.edgenext-retired.net")
        finding = detect_dangling(record, transport, db)
        assert finding is not None
        assert finding.stage is DanglingStage.DNS_STAGE

    def test_empty_non_terminal_terminal_is_not_dangling(self, db, world):
        # a name held below Azure's nxdomain target makes the target an
        # empty non-terminal: it exists (NODATA), so the service is not gone
        target = world.scenario.zones["legacy.azure-retired.net"].cname
        zones = {**world.scenario.zones, f"www.{target}": ZoneRecord(a=("198.51.100.7",))}
        mock = MockTransport(SimulatedInternet(dataclasses.replace(world.scenario, zones=zones), db))
        record = hosted_record(db, mock, "legacy.azure-retired.net")
        assert record.provider == "Azure"
        assert detect_dangling(record, mock, db) is None

    def test_multicdn_namespace_matched_via_edge_fingerprint(self, db, transport):
        record = hosted_record(db, transport, "promo.kkshift-shop.com")
        assert record.provider == "Baidu"  # namespace owner
        finding = detect_dangling(record, transport, db)
        assert finding is not None
        assert finding.matched_fp == "KuaikuaiCloud:discontinued"


def chain_ends(net):
    """name -> the ``end_rcode`` of each name of ``net``'s zones whose answer
    has a chain, after checking that the terminal read from the answer is
    what an A query for the chain's last name gets (when the end is known)."""
    mock = MockTransport(net)
    ends = {}
    for name in net.scenario.zones:
        if name.startswith("*."):
            continue
        obs = mock.resolve(parse_fqdn(name), RRType.ALL)
        if not obs.cname_chain:
            continue
        end = parse_fqdn(obs.cname_chain[-1])
        if obs.end_rcode is not None:
            read = terminal_answer(obs, end, transport=None)  # no transport: nothing may be asked
            assert read == mock.resolve(end, RRType.A), name  # to_json() too, and end_rcode
        ends[name] = obs.end_rcode
    return ends


class TestTerminalAnswer:
    """The dangling check reads the terminal from the crawl's answer; the
    mock must answer it as an A query for the chain's last name would."""

    def test_every_chain_of_the_reference_world(self, db, net, transport):
        ends = chain_ends(net)
        hosted = discover_hosted(crawl_records([parse_fqdn(name) for name in ends], transport), db, transport)
        assert {str(record.fqdn) for record in hosted} <= set(ends)
        assert len(hosted) > 40
        assert {Rcode.NOERROR, Rcode.NXDOMAIN, Rcode.SERVFAIL} <= set(ends.values())

    def test_every_chain_of_a_generated_world(self, db, worldgen):
        net = SimulatedInternet(worldgen.BUILDERS["takeover-churn"](db, 1).scenario, db)
        ends = chain_ends(net)
        assert len(ends) > 2000 and None not in ends.values()

    def test_hand_built_chains(self, db):
        long = {f"h{hop}.long.net": ZoneRecord(cname=f"h{hop + 1}.long.net") for hop in range(MAX_CHAIN)}
        exact = {f"h{hop}.exact.net": ZoneRecord(cname=f"h{hop + 1}.exact.net") for hop in range(MAX_CHAIN - 1)}
        zones = {
            # external: the target is meant to lie outside the world
            "nx.site.com": ZoneRecord(cname="gone.cdn.net", external=True),
            "sf.site.com": ZoneRecord(cname="broken.cdn.net"),
            "broken.cdn.net": ZoneRecord(servfail=True),
            "nodata.site.com": ZoneRecord(cname="v6only.cdn.net"),
            "v6only.cdn.net": ZoneRecord(),
            "ent.site.com": ZoneRecord(cname="ent.cdn.net"),
            "www.ent.cdn.net": ZoneRecord(a=("10.0.0.5",)),
            "wild.site.com": ZoneRecord(cname="any.wild.cdn.net"),
            "*.wild.cdn.net": ZoneRecord(a=("10.0.0.5",)),
            "deep.site.com": ZoneRecord(cname="mid.cdn.net"),
            "mid.cdn.net": ZoneRecord(cname="edge.cdn.net"),
            "edge.cdn.net": ZoneRecord(a=("10.0.0.5",), ns=("ns1.cdn.net",)),  # the A view drops the NS
            "loop.site.com": ZoneRecord(cname="l1.cdn.net"),
            "l1.cdn.net": ZoneRecord(cname="l2.cdn.net"),
            "l2.cdn.net": ZoneRecord(cname="l1.cdn.net"),
            "long.site.com": ZoneRecord(cname="h0.long.net"),
            **long,
            f"h{MAX_CHAIN}.long.net": ZoneRecord(a=("10.0.0.5",)),
            "exact.site.com": ZoneRecord(cname="h0.exact.net"),
            **exact,
            f"h{MAX_CHAIN - 1}.exact.net": ZoneRecord(a=("10.0.0.5",)),
        }
        net = SimulatedInternet(Scenario(providers=[], zones=zones, origins={"10.0.0.5": Origin(body=b"hi")}), db)
        ends = chain_ends(net)
        site = {name: end for name, end in ends.items() if name.endswith(".site.com")}
        assert site == {
            "nx.site.com": Rcode.NXDOMAIN,
            "sf.site.com": Rcode.SERVFAIL,
            "nodata.site.com": Rcode.NOERROR,
            "ent.site.com": Rcode.NOERROR,  # an empty non-terminal
            "wild.site.com": Rcode.NOERROR,  # synthesized by the wildcard
            "deep.site.com": Rcode.NOERROR,
            "loop.site.com": None,
            "long.site.com": None,  # cut at MAX_CHAIN
            "exact.site.com": Rcode.NOERROR,  # MAX_CHAIN names, the last one reached
        }

    def test_scan_asks_for_no_chain_end_the_crawl_reached(self):
        ctx = run_scan_with_context(scan_config(
            DATA["reference_world_targets.txt"], DATA["reference_world.json"], mode="takeover", record_probes=True
        ))
        reached = {record.observation.cname_chain[-1] for record in ctx.hosted if record.observation.end_rcode}
        asked = [name for name, rrtype in ctx.transport.query_log if rrtype == RRType.A.value]
        # the crawl reached every chain end of this world, and path
        # validation asks the simulated world directly
        assert len(reached) > 40
        assert asked == []


class TestTakeoverPaths:
    def test_shared_cname_path(self, db, net, transport):
        record = hosted_record(db, transport, "promo.kkshift-shop.com")
        finding = detect_dangling(record, transport, db)
        paths = enumerate_takeover_paths(finding, db, simnet=net)
        assert [p.kind for p in paths] == [TakeoverKind.MULTI_CDN_SHARED_CNAME]
        assert paths[0].via_provider == "KuaikuaiCloud"
        assert paths[0].validated is True

    def test_w1_and_w2_paths(self, db, net, transport):
        cases = {
            "legacy.cachefly-retired.net": TakeoverKind.FLAWED_W1,
            "legacy.kuocai-retired.net": TakeoverKind.FLAWED_W2,
        }
        for host, expected in cases.items():
            record = hosted_record(db, transport, host)
            finding = detect_dangling(record, transport, db)
            paths = enumerate_takeover_paths(finding, db, simnet=net)
            assert [p.kind for p in paths] == [expected], host
            assert paths[0].validated is True, host

    def test_w2_two_account_property(self, net):
        one = net.attacker_register("Yundun", "legacy.yundun-retired.net", "first")
        two = net.attacker_register("Yundun", "legacy.yundun-retired.net", "second")
        assert one == two

    def test_checked_provider_yields_no_paths(self, db, net, transport, world):
        # rebuild the Fastly dangling domain onto a token-checked provider
        from dvahunter.simnet import scenario_from_json, scenario_to_json
        doc = scenario_to_json(world.scenario)
        for prov in doc["providers"]:
            if prov["name"] == "Fastly":
                prov["verification_mode"] = "dns_token_checked"
        guarded_net = SimulatedInternet(scenario_from_json(doc), db)
        guarded_transport = MockTransport(guarded_net)
        # build a copy of the provider DB entry with verification declared effective
        import dataclasses
        profile = db.by_name["Fastly"]
        checked = dataclasses.replace(profile, metadata={**profile.metadata, "verification_effective": "checked"})
        from dvahunter.providers import ProviderDb
        checked_db = ProviderDb([checked if p.name == "Fastly" else p for p in db.providers])
        record = hosted_record(checked_db, guarded_transport, "legacy.fastly-retired.net")
        finding = detect_dangling(record, guarded_transport, checked_db)
        assert finding is not None  # dangling-only: fingerprint matched
        paths = enumerate_takeover_paths(finding, checked_db, simnet=guarded_net)
        assert paths == []

    def test_validation_blocked_by_token_check(self, db, net, transport):
        with pytest.raises(VerificationFailed):
            net.attacker_register("Baidu", "promo.kkshift-shop.com", "attacker")


def one_path(world, db, host, provider, zones=(), **changes):
    """The takeover paths of ``host`` over the reference world with one
    scenario provider changed and ``zones`` added."""
    scenario = dataclasses.replace(
        world.scenario,
        providers=[dataclasses.replace(p, **changes) if p.name == provider else p for p in world.scenario.providers],
        zones={**world.scenario.zones, **dict(zones)},
    )
    net = SimulatedInternet(scenario, db)
    transport = MockTransport(net)
    finding = detect_dangling(hosted_record(db, transport, host), transport, db)
    return enumerate_takeover_paths(finding, db, simnet=net)


class TestFailedValidation:
    """Each way a takeover path's registration in the simulated world can
    fail: the path stays listed with ``validated`` False."""

    def test_registration_blocked_by_dns_token(self, db, world):
        paths = one_path(world, db, "legacy.azure-retired.net", "Azure",
                         verification_mode=VerificationMode.DNS_TOKEN_CHECKED)
        assert [(p.kind, p.validated) for p in paths] == [(TakeoverKind.NO_VERIFICATION, False)]

    def test_w2_second_account_named_differently(self, db, world):
        # the DB calls KuoCai's names domain-deterministic; this edge
        # names each account's service afresh
        paths = one_path(world, db, "legacy.kuocai-retired.net", "KuoCai", verification_mode=VerificationMode.NONE)
        assert [(p.kind, p.validated) for p in paths] == [(TakeoverKind.FLAWED_W2, False)]

    def test_multi_cdn_name_that_differs(self, db, world):
        # the DB's sharing edge regenerates the CNAME; this edge hands out
        # a random name instead
        paths = one_path(world, db, "promo.kkshift-shop.com", "KuaikuaiCloud", assigned_subdomain_rule="random")
        assert [(p.kind, p.via_provider, p.validated) for p in paths] == [
            (TakeoverKind.MULTI_CDN_SHARED_CNAME, "KuaikuaiCloud", False)
        ]

    def test_no_address_after_registration(self, db, world):
        # a wildcard CNAME: the registration revives the attacker's new
        # name, but the host still resolves to the dead one
        paths = one_path(world, db, "shop.wild-retired.net", "Azure",
                         zones={"*.wild-retired.net": ZoneRecord(cname="cdn-0123456789.azureedge.net", external=True)})
        assert [(p.kind, p.validated) for p in paths] == [(TakeoverKind.NO_VERIFICATION, False)]


@pytest.fixture(scope="module")
def reference_takeover_scan():
    return run_scan_with_context(
        scan_config(DATA["reference_world_targets.txt"], DATA["reference_world.json"], mode="takeover")
    )


class TestJudgeProvider:
    retiring = ProviderProfile(
        name="Retiring", assigned_suffixes=(".retiring.net",),
        discontinued_fp=Fingerprint(id="Retiring:discontinued", status=404),
    )

    def test_one_decided_record_of_two_is_not_vulnerable(self):
        verdict = judge_provider(self.retiring, scanned=2, undecided=1, taken=[])
        assert verdict.kind is VerdictKind.NOT_VULNERABLE

    def test_every_record_undecided_is_inconclusive(self):
        verdict = judge_provider(self.retiring, scanned=2, undecided=2, taken=[])
        assert verdict.kind is VerdictKind.INCONCLUSIVE
        assert verdict.evidence[0].detail == "every hosted record left the dangling check undecided"

    def test_no_record_or_no_fingerprint_is_inconclusive(self):
        assert judge_provider(self.retiring, scanned=0, undecided=0, taken=[]).kind is VerdictKind.INCONCLUSIVE
        silent = ProviderProfile(name="Silent", assigned_suffixes=(".silent.net",))
        assert judge_provider(silent, scanned=3, undecided=0, taken=[]).kind is VerdictKind.INCONCLUSIVE

    def test_a_taken_domain_is_vulnerable_even_without_records(self):
        # a Multi-CDN path credits the provider whose edge regenerates the
        # CNAME, which hosts no record and may have no fingerprint of its own
        bare = ProviderProfile(name="Multi", assigned_suffixes=(".multi.net",))
        verdict = judge_provider(bare, scanned=0, undecided=0, taken=["b.shop.com", "a.shop.com", "b.shop.com"])
        assert verdict.kind is VerdictKind.VULNERABLE
        assert verdict.evidence[0].detail == "validated takeover path(s) for: a.shop.com, b.shop.com"


class TestTakeoverScan:
    def test_residual_single_a_exposure_asks_nothing_the_recheck_asked(self):
        ctx = run_scan_with_context(scan_config(
            DATA["reference_world_targets.txt"], DATA["reference_world.json"], mode="takeover", record_probes=True
        ))
        sent = [entry.probe for entry in ctx.transport.probe_log]
        exposed = [name for name, entry in ctx.report.domains.items() if "exposure" in entry]
        assert exposed
        for name in exposed:
            record = next(r for r in ctx.hosted if str(r.fqdn) == name)
            recheck = record.evidence[0].probe
            # the named exposure probe is the recheck's, sent once in all
            named = ctx.report.domains[name]["exposure"]["evidence"][0]["detail"]
            assert named == f"host={name} at {recheck.target_ip}" and recheck.scheme.value == "http"
            assert sent.count(recheck) == 1

    @pytest.mark.parametrize("workload", ["reference", "takeover-churn"])
    def test_the_scans_transport_is_never_called_inside_a_registration_scope(
        self, monkeypatch, tmp_path, db, worldgen, workload
    ):
        # a live scan never validates, so the scan's transport, whose
        # counts are the report's meta.stats, must carry no validation
        inside = []
        for name in ("resolve", "resolve_existing", "probe", "probe_batch"):
            def guarded(transport, *args, _call=getattr(MockTransport, name), _name=name, **kwargs):
                if transport.simnet._journals:
                    inside.append(_name)
                return _call(transport, *args, **kwargs)
            monkeypatch.setattr(MockTransport, name, guarded)
        if workload == "reference":
            targets, scenario = DATA["reference_world_targets.txt"], DATA["reference_world.json"]
        else:
            scenario, targets = write_world(tmp_path, worldgen.BUILDERS[workload](db, 3))
        report = run_scan_with_context(scan_config(targets, scenario, mode="takeover", seed=3)).report
        validated = [path["validated"] for entry in report.domains.values() for path in entry.get("takeover_paths", ())]
        assert True in validated  # paths were validated by registering them
        assert inside == []

    def test_scan_leaves_the_world_as_it_found_it(self, db, reference_takeover_scan):
        ctx = reference_takeover_scan
        fresh = SimulatedInternet(load_scenario(DATA["reference_world.json"]), db)
        dangling = {name: entry for name, entry in ctx.report.domains.items() if "dangling" in entry}
        assert len(dangling) > 10
        validated = 0
        for name, entry in sorted(dangling.items()):
            validated += sum(1 for path in entry["takeover_paths"] if path["validated"])
            for asked in (name, entry["matched_cname"]):
                assert ctx.simnet.serve_dns(asked) == fresh.serve_dns(asked), asked
        assert validated > 0

    def test_residual_single_a_domain_gets_its_exposure_verdict(self, world, reference_takeover_scan):
        # the exposure check reads the DNS stage's one residual A record;
        # it once re-resolved the name after the scan's own registration
        # had pointed it at the edge, and skipped with "has 2 records"
        host = "legacy.edgenext-retired.net"
        entry = reference_takeover_scan.report.domains[host]
        assert entry["dangling"]["stage"] == "dns_stage"
        assert [path["validated"] for path in entry["takeover_paths"]] == [True]
        assert "exposure_check" not in entry
        assert entry["exposure"]["kind"] == "not_vulnerable"
        residual = world.scenario.discontinued[host].origin_ip
        assert [e["detail"] for e in entry["exposure"]["evidence"]] == [
            f"host={host} at {residual}", f"host={residual} at {residual}",
        ]


    def test_provider_name_with_a_colon_keeps_its_fingerprint(self, tmp_path):
        # the scan reads the matched fingerprint itself; its id, which
        # joins the provider name and the kind with ":", is never parsed
        paths = {}
        for name in ("providers.json", "reference_world.json"):
            paths[name] = tmp_path / name
            paths[name].write_text(
                DATA[name].read_text(encoding="utf-8").replace('"Fastly"', '"Fast:ly"'), encoding="utf-8"
            )
        out = tmp_path / "report.json"
        code = main([
            "scan", "--mode", "takeover", "--seed", "7", "--out", str(out),
            "--targets", str(DATA["reference_world_targets.txt"]),
            "--providers", str(paths["providers.json"]), "--scenario", str(paths["reference_world.json"]),
        ])
        assert code in (0, 1)
        entry = json.loads(out.read_text(encoding="utf-8"))["domains"]["legacy.fastly-retired.net"]
        assert entry["dangling"]["matched_fp"] == "Fast:ly:discontinued"


class TestScansOfValidatedWorlds:
    """Worlds that pass validate-scenario once aborted the scan."""

    def test_cname_that_is_no_host_name_is_attributed(self, tmp_path):
        code, report = edited_reference_scan(
            tmp_path, "shop.badname-store.com\n",
            set_zone("shop.badname-store.com", cname="cdn_x.fastly.net", external=True), mode="all",
        )
        assert code in (0, 1)
        entry = report["domains"]["shop.badname-store.com"]
        assert (entry["provider"], entry["matched_cname"]) == ("Fastly", "cdn_x.fastly.net")

    def test_terminal_that_is_no_host_name_leaves_the_record_inconclusive(self, tmp_path):
        # Azure's discontinued fingerprint is a DNS signal: the DNS stage
        # would query the chain's last name, which is no host name
        code, report = edited_reference_scan(
            tmp_path, "shop.badname-store.com\n",
            set_zone("shop.badname-store.com", cname="cdn_x.azureedge.net", external=True),
        )
        assert code in (0, 1)
        check = report["domains"]["shop.badname-store.com"]["dangling_check"]
        assert check.startswith("inconclusive: ") and "cdn_x.azureedge.net is not a host name" in check
        assert report["providers"]["Azure"]["takeover"]["kind"] == "inconclusive"

    def test_world_without_attacker_origin_leaves_paths_unvalidated(self, tmp_path):
        def no_attacker(doc):
            doc["attacker_origin_ip"] = None
        code, report = edited_reference_scan(tmp_path, "legacy.azure-retired.net\n", no_attacker)
        assert code in (0, 1)
        paths = report["domains"]["legacy.azure-retired.net"]["takeover_paths"]
        assert [(p["kind"], p["via_provider"], p["validated"]) for p in paths] == [("no_verification", "Azure", None)]

    def test_provider_missing_from_the_world_leaves_paths_unvalidated(self, tmp_path):
        def no_azure(doc):
            others = {prov["name"] for prov in doc["providers"]} - {"Azure"}
            doc.update(scenario_to_json(keep_providers(scenario_from_json(doc), others)))
        code, report = edited_reference_scan(
            tmp_path, "gone.orphan-shop.com\n", no_azure,
            set_zone("gone.orphan-shop.com", cname="cdn-deadbeef.azureedge.net", external=True),
        )
        assert code in (0, 1)
        entry = report["domains"]["gone.orphan-shop.com"]
        assert entry["dangling"]["stage"] == "dns_stage"
        assert [(p["kind"], p["via_provider"], p["validated"]) for p in entry["takeover_paths"]] == [
            ("no_verification", "Azure", None)
        ]


class TestTakeoverScanVerdicts:
    def test_failed_path_is_not_credited(self, tmp_path):
        # a token-checked Azure edge blocks the registration the DB's "none"
        # promises: the dangling domain is listed, the provider not vulnerable
        code, report = edited_reference_scan(
            tmp_path, "legacy.azure-retired.net\n",
            set_provider("Azure", verification_mode="dns_token_checked"),
        )
        assert code in (0, 1)
        paths = report["domains"]["legacy.azure-retired.net"]["takeover_paths"]
        assert [(p["kind"], p["validated"]) for p in paths] == [("no_verification", False)]
        assert report["providers"]["Azure"]["takeover"]["kind"] == "not_vulnerable"

    def test_http_stage_probe_failure_leaves_the_record_inconclusive(self, tmp_path):
        code, report = edited_reference_scan(
            tmp_path, "shop.deadip-store.com\n",
            set_zone("shop.deadip-store.com", cname="cdn-deadip.fastly.net"),
            set_zone("cdn-deadip.fastly.net", a=["192.0.2.250"]),
        )
        assert code in (0, 1)
        assert report["domains"]["shop.deadip-store.com"]["dangling_check"] == (
            "inconclusive: shop.deadip-store.com: HTTP-stage probe failed (connect_refused)"
        )
        assert report["providers"]["Fastly"]["takeover"]["kind"] == "inconclusive"

    def test_record_without_an_address_leaves_the_http_stage_undecided(self, tmp_path):
        # Fastly's fingerprint is HTTP-only, and nothing answers behind the
        # CNAME: no edge to probe, so the record once read healthy and
        # Fastly not vulnerable
        code, report = edited_reference_scan(
            tmp_path, "www.shop.com\n",
            set_zone("www.shop.com", cname="gone-shop.global.ssl.fastly.net", external=True),
        )
        assert code in (0, 1)
        assert report["domains"]["www.shop.com"]["provider"] == "Fastly"
        assert report["domains"]["www.shop.com"]["dangling_check"] == (
            "inconclusive: www.shop.com: no address for the HTTP-stage probe"
        )
        assert report["providers"]["Fastly"]["takeover"]["kind"] == "inconclusive"


class TestOriginExposure:
    def test_a_known_answer_to_the_named_probe_is_not_asked_again(self):
        from dvahunter.core import DnsObservation, Evidence, HttpProbe, HttpResponseSummary, Scheme
        fqdn, ip = parse_fqdn("www.example.net"), "192.0.2.9"
        asked = []

        def probe(sent):
            asked.append(sent)
            return HttpResponseSummary.from_body(200, f"answer for {sent.host_header}".encode())

        edge = SimpleNamespace(probe=probe)
        obs = DnsObservation(fqdn=fqdn, a_records=(ip,))
        named = HttpProbe(target_ip=ip, scheme=Scheme.HTTP, host_header=fqdn)
        kept = HttpResponseSummary.from_body(200, b"the recheck's answer")
        others = (
            Evidence("recheck", "other address", probe=HttpProbe("192.0.2.8", Scheme.HTTP, fqdn), response=kept),
            Evidence("recheck", "https", probe=HttpProbe.request(ip, Scheme.HTTPS, fqdn), response=kept),
        )
        check_origin_exposure(fqdn, obs, edge, known=others)
        assert [p.host_header for p in asked] == [fqdn, parse_fqdn(ip)]
        asked.clear()
        recheck = Evidence("recheck", "d", probe=named, response=kept)
        verdict = check_origin_exposure(fqdn, obs, edge, known=others + (recheck,))
        assert [p.host_header for p in asked] == [parse_fqdn(ip)]
        assert verdict.evidence[0].response == kept

    def test_exposed_origin_flagged(self, db, transport):
        obs = transport.resolve(parse_fqdn("static.plain-directsite.net"))
        verdict = check_origin_exposure(obs.fqdn, obs, transport)
        assert verdict.kind is VerdictKind.VULNERABLE

    def test_vhosted_origin_not_flagged(self, db, transport):
        obs = transport.resolve(parse_fqdn("app.vhosted-directsite.net"))
        verdict = check_origin_exposure(obs.fqdn, obs, transport)
        assert verdict.kind is VerdictKind.NOT_VULNERABLE

    def test_two_records_precondition(self, db, transport):
        obs = transport.resolve(parse_fqdn("www.fastly-site-a.com"))
        with pytest.raises(ExposurePrecondition):
            check_origin_exposure(obs.fqdn, obs, transport)

    def test_unreachable_is_inconclusive(self, db, transport, world):
        from dvahunter.core import DnsObservation
        ghost = DnsObservation(fqdn=parse_fqdn("ghost.example.net"), a_records=("192.0.2.200",))
        verdict = check_origin_exposure(ghost.fqdn, ghost, transport)
        assert verdict.kind is VerdictKind.INCONCLUSIVE

    def test_literal_404_with_the_same_body_is_not_exposed(self):
        from dvahunter.core import DnsObservation, HttpResponseSummary
        body = b"<html><body>not here</body></html>"
        answers = {
            "www.example.net": HttpResponseSummary.from_body(200, body),
            "192.0.2.9": HttpResponseSummary.from_body(404, body),
        }
        edge = SimpleNamespace(probe=lambda probe: answers[str(probe.host_header)])
        obs = DnsObservation(fqdn=parse_fqdn("www.example.net"), a_records=("192.0.2.9",))
        verdict = check_origin_exposure(obs.fqdn, obs, edge)
        assert verdict.kind is VerdictKind.NOT_VULNERABLE
