"""
Report schema 2: each distinct response is kept once in the report's
``responses`` table and referred to by a short content hash; the scan's
per-phase query and probe counts sit in ``meta.stats``.
"""

import hashlib
import json

import pytest

from dvahunter.cli import main
from dvahunter.core import Evidence, HttpResponseSummary, Verdict
from dvahunter.report import REF_LENGTH, ScanReport
from dvahunter.scan import run_scan_with_context
from dvahunter.simnet import scenario_to_json
from tests.conftest import DATA, scan_config


def compact(value) -> str:
    return json.dumps(value, ensure_ascii=False, separators=(",", ":"))


def page(body: bytes, status: int = 200) -> HttpResponseSummary:
    return HttpResponseSummary.from_body(status, body, [("Content-Type", "text/html")])


class TestResponseTable:
    def test_equal_responses_share_one_ref_and_one_json(self, monkeypatch):
        built = []
        to_json = HttpResponseSummary.to_json
        monkeypatch.setattr(HttpResponseSummary, "to_json", lambda self: built.append(self) or to_json(self))
        report = ScanReport()
        first, again, other = page(b"<p>a</p>"), page(b"<p>a</p>"), page(b"<p>b</p>", status=404)
        verdict = Verdict.vulnerable([Evidence("x", "d", response=first), Evidence("y", "d", response=again)])
        doc = verdict.to_json(report.response_ref)
        ref = doc["evidence"][0]["response"]
        assert doc["evidence"][1]["response"] == ref
        assert report.response_ref(other) != ref
        assert len(built) == 2 and len(report.responses) == 2
        # a ref is the first REF_LENGTH hex digits of the SHA1 of the response's compact JSON
        text = compact(to_json(first))
        assert ref == hashlib.sha1(text.encode("utf-8")).hexdigest()[:REF_LENGTH]
        assert report.responses[ref] == text
        assert report.response(ref) == json.loads(text)

    def test_a_ref_taken_by_another_response_grows_a_digit(self):
        report = ScanReport()
        response = page(b"<p>a</p>")
        digest = hashlib.sha1(compact(response.to_json()).encode("utf-8")).hexdigest()
        report.responses[digest[:REF_LENGTH]] = '{"status":500}'
        assert report.response_ref(response) == digest[:REF_LENGTH + 1]
        assert report.responses[digest[:REF_LENGTH]] == '{"status":500}'

    def test_reports_share_no_table(self):
        one, two = ScanReport(), ScanReport()
        one.response_ref(page(b"<p>a</p>"))
        assert two.responses == {} and len(one.responses) == 1

    def test_every_scanned_ref_resolves(self, tmp_path):
        out = tmp_path / "report.json"
        run_scan_with_context(scan_config(DATA["reference_world_targets.txt"], DATA["reference_world.json"], out=out))
        doc = json.loads(out.read_bytes())
        assert doc["schema"] == "dvahunter-report/2"
        refs = [s["borrowing_baseline"] for s in doc["providers"].values() if "borrowing_baseline" in s]
        verdicts = [s[c] for s in doc["providers"].values() for c in ("fronting", "borrowing", "takeover") if c in s]
        verdicts += [d["exposure"] for d in doc["domains"].values() if "exposure" in d]
        refs += [item["response"] for v in verdicts for item in v["evidence"] if "response" in item]
        assert refs and set(refs) == set(doc["responses"])
        assert list(doc["responses"]) == sorted(doc["responses"])
        for ref, body in doc["responses"].items():
            assert hashlib.sha1(compact(body).encode("utf-8")).hexdigest().startswith(ref)


SCHEMA_2 = "dvahunter-report/2"
REF = "0123456789ab"
BODY = {"status": 200, "failure": None, "headers": [], "body_sha1": "00", "body_excerpt": "", "tls_cert_name": None}


def with_evidence(response, responses=None, where="providers") -> dict:
    verdict = {"kind": "vulnerable", "evidence": [{"kind": "x", "detail": "d", "response": response}]}
    doc = {"schema": SCHEMA_2, "responses": {REF: BODY} if responses is None else responses}
    if where == "providers":
        doc["providers"] = {"P": {"fronting": verdict}}
    elif where == "baseline":
        doc["providers"] = {"P": {"borrowing_baseline": response}}
    else:
        doc["domains"] = {"a.example": {"exposure": verdict}}
    return doc


class TestLoad:
    @pytest.mark.parametrize("where", ["providers", "baseline", "domains"])
    def test_schema_2_refs_load(self, where):
        report = ScanReport.from_json(with_evidence(REF, where=where))
        assert report.responses == {REF: compact(BODY)}
        assert report.response(REF) == BODY

    @pytest.mark.parametrize("doc", [
        with_evidence("ffffffffffff"),
        with_evidence("ffffffffffff", where="baseline"),
        with_evidence("ffffffffffff", where="domains"),
        with_evidence(BODY),
        with_evidence(REF, responses=[BODY]),
        with_evidence(REF, responses={REF: [1]}),
        {"schema": SCHEMA_2, "providers": {"P": {"fronting": {"kind": "x", "evidence": {}}}}},
        {"schema": SCHEMA_2, "domains": {"a.example": {"exposure": {"kind": "x", "evidence": [5]}}}},
    ], ids=["dangling-ref", "dangling-baseline", "dangling-exposure-ref", "inline-response",
            "responses-list", "response-list", "evidence-object", "evidence-item-int"])
    def test_a_bad_schema_2_report_is_a_value_error(self, tmp_path, capsys, doc):
        with pytest.raises(ValueError):
            ScanReport.from_json(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["diff", str(bad), str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_schema_1_responses_move_into_the_table(self):
        doc = with_evidence(dict(BODY), where="domains")
        doc["schema"] = "dvahunter-report/1"
        del doc["responses"]
        report = ScanReport.from_json(doc)
        ref = hashlib.sha1(compact(BODY).encode("utf-8")).hexdigest()[:REF_LENGTH]
        assert report.responses == {ref: compact(BODY)}
        assert report.domains["a.example"]["exposure"]["evidence"][0]["response"] == ref

    def test_schema_1_response_must_be_an_object(self):
        doc = with_evidence(REF)
        doc["schema"] = "dvahunter-report/1"
        with pytest.raises(ValueError):
            ScanReport.from_json(doc)


# seed-3 DNS queries and HTTP probes per phase. ROADMAP's baseline table
# lists more probes for fronting and takeover: fronting now takes rt, and
# rf where it can, from the harvest's verified answers, and the takeover
# phase's single-A exposure check reuses the crawl recheck's answer.
PHASE_COUNTS = {
    "enum-reference": {
        "enumerate": (110_330, 0), "crawl": (0, 57), "ingress": (0, 66), "fronting": (0, 447),
        "borrowing": (0, 120), "exposure": (0, 6), "takeover": (19, 48),
    },
    "detect-wide": {
        "enumerate": (0, 0), "crawl": (3_927, 1_044), "ingress": (0, 66), "fronting": (0, 2_029),
        "borrowing": (0, 48_168), "exposure": (0, 4_006), "takeover": (76, 498),
    },
    "takeover-churn": {
        "enumerate": (0, 0), "crawl": (3_400, 1_647), "ingress": (0, 66), "takeover": (2_869, 4_638),
    },
}


@pytest.mark.parametrize("workload", sorted(PHASE_COUNTS))
def test_meta_stats_holds_each_phase_counts(tmp_path, db, worldgen, workload):
    if workload == "enum-reference":
        config = scan_config(DATA["reference_world_targets.txt"], DATA["reference_world.json"], mode="all", seed=3)
    else:
        world = worldgen.BUILDERS[workload](db, 3)
        scenario, targets = tmp_path / "scenario.json", tmp_path / "targets.txt"
        scenario.write_text(json.dumps(scenario_to_json(world.scenario)), encoding="utf-8")
        targets.write_text("\n".join(world.targets) + "\n", encoding="utf-8")
        config = scan_config(targets, scenario, mode=world.mode, seed=3)
    ctx = run_scan_with_context(config)
    stats = ctx.report.meta["stats"]
    assert {phase: (n["dns_queries"], n["http_probes"]) for phase, n in stats.items()} == PHASE_COUNTS[workload]
    # in phase order, and together they are the whole scan's counts
    assert list(stats) == list(PHASE_COUNTS[workload])
    assert sum(n["dns_queries"] for n in stats.values()) == ctx.transport.stats.dns_queries
    assert sum(n["http_probes"] for n in stats.values()) == ctx.transport.stats.http_probes
