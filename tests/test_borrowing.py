import pytest

from dvahunter.borrowing import (
    BaselineMismatch,
    BorrowingTls,
    classify_borrowing_tls,
    find_borrowing,
    probe_baseline,
    random_baseline_host,
)
from dvahunter.core import (
    Evidence,
    HttpProbe,
    HttpResponseSummary,
    Scheme,
    TransportFailure,
    Verdict,
    VerdictKind,
    parse_fqdn,
)
from dvahunter.providers import identify_cdn
from dvahunter.simnet import SimulatedInternet, scenario_from_json, scenario_to_json
from dvahunter.transport import MockTransport
from dvahunter.worlds import build_reference_world
from tests.conftest import edited_reference_scan, set_provider


@pytest.fixture(scope="module")
def world(db):
    return build_reference_world(db)


@pytest.fixture()
def net(world, db):
    return SimulatedInternet(world.scenario, db)


@pytest.fixture()
def transport(net):
    return MockTransport(net)


def rep(world, name):
    return world.scenario.provider(name).ips[0]


CANDIDATES = ["pages.shared-press-kit.org", "static.plain-directsite.net"]


class TestBaseline:
    def test_random_host_lives_under_invalid_tld(self):
        host = random_baseline_host(3, "Fastly")
        assert str(host).endswith(".invalid")
        assert len(host.labels[0]) == 32
        assert random_baseline_host(3, "Fastly") == host
        assert random_baseline_host(3, "Bunny") != host

    def test_baseline_matches_db_fingerprint(self, db, world, transport):
        summary = probe_baseline(db.by_name["Fastly"], rep(world, "Fastly"), transport, seed=1)
        assert summary.status == 500

    def test_silent_edge_baseline_matches_no_response(self, db, world, transport):
        summary = probe_baseline(db.by_name["CDN77"], rep(world, "CDN77"), transport, seed=1)
        assert summary.failure is not None

    def test_misconfigured_edge_raises_mismatch(self, db, world):
        # rebuild the world with Fastly answering 200 for unknown hosts
        doc = scenario_to_json(world.scenario)
        for prov in doc["providers"]:
            if prov["name"] == "Fastly":
                prov["nonhosted_override"] = {"status": 200, "body": "<html>all good</html>"}
        broken = scenario_from_json(doc)
        transport = MockTransport(SimulatedInternet(broken, db))
        with pytest.raises(BaselineMismatch):
            probe_baseline(db.by_name["Fastly"], rep(world, "Fastly"), transport, seed=1)

    def test_provider_without_fingerprint_rejected(self, db, world, transport):
        with pytest.raises(ValueError):
            probe_baseline(db.by_name["Akamai"], rep(world, "Akamai"), transport)


class FailingEdge:
    """A transport whose edge times out for every host."""

    def probe_batch(self, target_ip, scheme, requests):
        return [HttpResponseSummary(failure=TransportFailure.TIMEOUT) for _ in requests]


class OneCertEdge:
    """A transport whose edge answers every probe 200 under one certificate."""

    def __init__(self, cert):
        self.cert = cert

    def probe(self, probe):
        return HttpResponseSummary.from_body(200, b"<html>served</html>", tls_cert_name=self.cert)


def hit_domains(verdict):
    return [str(e.probe.host_header) for e in verdict.evidence]


class TestFindBorrowing:
    def test_attacker_entry_detected(self, db, world, transport):
        verdict = find_borrowing([parse_fqdn(c) for c in CANDIDATES],
                                 db.by_name["Fastly"], rep(world, "Fastly"), transport)
        assert verdict.kind is VerdictKind.VULNERABLE
        assert hit_domains(verdict) == ["pages.shared-press-kit.org"]

    def test_silent_provider_candidates(self, db, world, transport):
        verdict = find_borrowing([parse_fqdn(c) for c in CANDIDATES],
                                 db.by_name["CDN77"], rep(world, "CDN77"), transport)
        assert verdict.kind is VerdictKind.VULNERABLE
        assert hit_domains(verdict) == ["pages.shared-press-kit.org"]

    def test_hit_evidence_is_the_plain_http_probe(self, db, world, transport):
        profile = db.by_name["Fastly"]
        ip = rep(world, "Fastly")
        verdict = find_borrowing([parse_fqdn(c) for c in CANDIDATES], profile, ip, transport)
        domain = parse_fqdn("pages.shared-press-kit.org")
        probe = HttpProbe(target_ip=ip, scheme=Scheme.HTTP, host_header=domain)
        assert verdict == Verdict.vulnerable((Evidence(
            "borrowing-probe",
            f"host={domain} at Fastly ingress {ip}",
            probe=probe,
            response=transport.probe(probe),
            fingerprint_id=profile.nonhosted_fp.id,
        ),))

    def test_all_matched_is_not_vulnerable(self, db, world, transport):
        verdict = find_borrowing([parse_fqdn("static.plain-directsite.net")],
                                 db.by_name["Fastly"], rep(world, "Fastly"), transport)
        assert verdict == Verdict.not_vulnerable(
            (Evidence("borrowing", "1 candidate(s) all matched the non-hosted fingerprint"),)
        )

    @pytest.mark.parametrize("edge", ["no candidates", "failing edge"])
    def test_no_definitive_answer_is_inconclusive(self, db, world, transport, edge):
        domains = [] if edge == "no candidates" else [parse_fqdn(c) for c in CANDIDATES]
        if edge == "failing edge":
            transport = FailingEdge()
        verdict = find_borrowing(domains, db.by_name["Fastly"], rep(world, "Fastly"), transport)
        assert verdict == Verdict.inconclusive(
            (Evidence("borrowing", "no candidate produced a definitive answer"),)
        )

    def test_silent_provider_whose_candidates_all_time_out_is_not_vulnerable(self, db, world):
        # silence is what a no_response fingerprint expects, so a timeout matches it
        profile = db.by_name["CDN77"]
        assert profile.nonhosted_fp.no_response
        verdict = find_borrowing([parse_fqdn(c) for c in CANDIDATES], profile, rep(world, "CDN77"), FailingEdge())
        assert verdict == Verdict.not_vulnerable(
            (Evidence("borrowing", "2 candidate(s) all matched the non-hosted fingerprint"),)
        )

    def test_require_dns_proof_provider_all_clean(self, db, world, transport):
        # Baidu requires DNS proof; exhaustively sweep its scenario host
        # table: no unproven attacker entry can flag as borrowing, because
        # the edge never serves it
        profile = db.by_name["Baidu"]
        assert profile.nonhosted_fp is None  # not in the fingerprint table
        # use a provider that has a fingerprint AND requires proof to run the
        # finder: rebuild Fastly with the proof-required policy
        doc = scenario_to_json(world.scenario)
        for prov in doc["providers"]:
            if prov["name"] == "Fastly":
                prov["borrowing_policy"] = "require_dns_proof"
        guarded = scenario_from_json(doc)
        transport = MockTransport(SimulatedInternet(guarded, db))
        verdict = find_borrowing([parse_fqdn(c) for c in CANDIDATES],
                                 db.by_name["Fastly"], rep(world, "Fastly"), transport)
        assert verdict.kind is VerdictKind.NOT_VULNERABLE

    def test_candidates_are_nonhosted_by_construction(self, db, world, transport):
        # precondition enforcement check: a hosted domain injected into the
        # candidate list would violate the non-hosted precondition upstream
        obs = transport.resolve(parse_fqdn("www.fastly-site-a.com"))
        assert identify_cdn(obs, db) is not None  # hosted: must be filtered out
        for candidate in CANDIDATES:
            assert identify_cdn(transport.resolve(parse_fqdn(candidate)), db) is None


class TestClassifyTls:
    def _hit(self, db, world, transport, provider):
        verdict = find_borrowing([parse_fqdn("pages.shared-press-kit.org")],
                                 db.by_name[provider], rep(world, provider), transport)
        assert verdict.kind is VerdictKind.VULNERABLE
        return verdict.evidence[0]

    def test_shared_certificate(self, db, world, transport):
        hit = self._hit(db, world, transport, "Fastly")
        assert classify_borrowing_tls(hit, transport) is BorrowingTls.SHARED_CERTIFICATE

    def test_wildcard_certificate(self, db, world, transport):
        hit = self._hit(db, world, transport, "Netlify")
        assert classify_borrowing_tls(hit, transport) is BorrowingTls.WILDCARD_CERTIFICATE

    def test_http_only(self, db, world, transport):
        hit = self._hit(db, world, transport, "KuoCai")
        probes = transport.stats.http_probes
        assert classify_borrowing_tls(hit, transport) is BorrowingTls.HTTP_ONLY
        assert transport.stats.http_probes == probes + 1  # the TLS probe alone, no plain-http retry

    @pytest.mark.parametrize("cert, domain, kind", [
        ("*.press.org", "pages.press.org", BorrowingTls.WILDCARD_CERTIFICATE),
        ("*.other.org", "pages.press.org", BorrowingTls.SHARED_CERTIFICATE),
        # RFC 6125 §6.4.3: the wildcard stands for one label only
        ("*.press.org", "a.pages.press.org", BorrowingTls.SHARED_CERTIFICATE),
    ])
    def test_a_wildcard_counts_only_where_it_covers_the_name(self, cert, domain, kind):
        probe = HttpProbe(target_ip="192.0.2.1", scheme=Scheme.HTTP, host_header=parse_fqdn(domain))
        hit = Evidence("borrowing-probe", f"host={domain}", probe=probe)
        assert classify_borrowing_tls(hit, OneCertEdge(cert)) is kind


class TestBorrowingScan:
    TARGETS = "www.fastly-site-a.com\npages.shared-press-kit.org\n"

    def test_baseline_mismatch_excludes_the_provider(self, tmp_path):
        # the edge answers unknown hosts with a page the DB does not know
        code, report = edited_reference_scan(
            tmp_path, self.TARGETS, set_provider("Fastly", nonhosted_override={"status": 200, "body": "welcome"}),
            mode="borrowing",
        )
        assert code in (0, 1)
        section = report["providers"]["Fastly"]
        assert section["borrowing"]["kind"] == "inconclusive"
        assert [ev["kind"] for ev in section["borrowing"]["evidence"]] == ["baseline-mismatch"]
        assert any(note.startswith("BASELINE MISMATCH, provider excluded: Fastly:") for note in section["notes"])
        assert "borrowing_baseline" not in section

    def test_provider_that_serves_no_candidate_lists_no_hits(self, tmp_path):
        # an edge that asks for DNS proof does not serve the victim
        code, report = edited_reference_scan(
            tmp_path, self.TARGETS, set_provider("Fastly", borrowing_policy="require_dns_proof"), mode="borrowing"
        )
        assert code in (0, 1)
        section = report["providers"]["Fastly"]
        assert section["borrowing"]["kind"] == "not_vulnerable"
        assert "borrowing_hits" not in section
        assert "Fastly" not in report["domains"]["pages.shared-press-kit.org"].get("borrowed_at", [])
