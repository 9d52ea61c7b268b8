import json
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from dvahunter.cli import main
from dvahunter.core import DnsObservation, HttpResponseSummary, Rcode, parse_fqdn
from dvahunter.providers import (
    DnsSignal,
    DnsSignalKind,
    DuplicateSuffixError,
    DanglingShareEdgeError,
    Fingerprint,
    MissingEvidenceError,
    ProviderDb,
    ProviderProfile,
    SchemaError,
    ShareEdge,
    identify_cdn,
    load_provider_db,
    match_fingerprint,
)


def obs(name="x.example.com", chain=(), a=(), rcode=Rcode.NOERROR, ns=()):
    return DnsObservation(
        fqdn=parse_fqdn(name),
        cname_chain=tuple(chain),
        ns=tuple(ns),
        a_records=tuple(a),
        rcode=rcode,
    )


class TestDefaultDb:
    def test_ships_45_providers(self, db):
        assert len(db) == 45

    def test_fastly_row(self, db):
        fastly = db.by_name["Fastly"]
        assert fastly.assigned_suffixes == (".fastly.net", ".fastlylb.net")
        assert fastly.nonhosted_fp.status == 500
        assert fastly.nonhosted_fp.body_contains == b"Fastly error: unknown domain"

    def test_kuaikuaicloud_edges_and_signal(self, db):
        kk = db.by_name["KuaikuaiCloud"]
        edges = {e.provider: e.template for e in kk.shares_infra_of}
        assert edges["Baidu"] == "{domain}.a.bdydns.com"
        assert "Tencent" in edges
        assert kk.discontinued_fp.dns_signal == DnsSignal(DnsSignalKind.RESOLVES_TO, "127.0.0.1")

    def test_fingerprint_coverage_counts(self, db):
        assert sum(1 for p in db.providers if p.nonhosted_fp) == 24
        assert sum(1 for p in db.providers if p.discontinued_fp) == 19

    def test_silent_edge_rows_marked_no_response(self, db):
        silent = {p.name for p in db.providers if p.nonhosted_fp and p.nonhosted_fp.no_response}
        assert silent == {"CDN77", "CDNetworks", "ChinaNetCenter", "Medianova", "StackPath", "Yundun"}


class TestLoadValidation:
    def test_duplicate_suffix_rejected(self, tmp_path):
        doc = [
            {"name": "One", "assigned_suffixes": [".fastly.net"], "metadata": {}},
            {"name": "Two", "assigned_suffixes": [".fastly.net"], "metadata": {}},
        ]
        path = tmp_path / "db.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DuplicateSuffixError):
            load_provider_db(path)

    def test_dangling_share_edge_rejected(self, tmp_path):
        doc = [{
            "name": "One", "assigned_suffixes": [".one.net"],
            "shares_infra_of": [{"provider": "Ghost", "template": None}],
        }]
        path = tmp_path / "db.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DanglingShareEdgeError):
            load_provider_db(path)

    def test_schema_errors(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps([{"assigned_suffixes": []}]))
        with pytest.raises(SchemaError):
            load_provider_db(path)
        path.write_text(json.dumps({"not": "a list"}))
        with pytest.raises(SchemaError):
            load_provider_db(path)
        path.write_text(json.dumps([{"name": "X", "assigned_suffixes": ["bad-no-dot.com"]}]))
        with pytest.raises(SchemaError):
            load_provider_db(path)

    @pytest.mark.parametrize("entry", [
        [1],
        ["x"],
        {"name": "X", "assigned_suffixes": [5]},
        {"name": ["A"], "assigned_suffixes": [".a.com"]},
        {"name": "X", "assigned_suffixes": [".x.com"], "shares_infra_of": 5},
        {"name": "X", "assigned_suffixes": [".x.com"], "shares_infra_of": ["X"]},
        {"name": "X", "assigned_suffixes": [".x.com"], "shares_infra_of": [{"template": None}]},
        {"name": "X", "assigned_suffixes": [".x.com"], "shares_infra_of": [{"provider": "X", "template": 5}]},
        {"name": "X", "assigned_suffixes": [".x.com"], "liveness_header": "x-cache"},
        {"name": "X", "assigned_suffixes": [".x.com"], "liveness_header": {"name": "x-cache"}},
        {"name": "X", "assigned_suffixes": [".x.com"], "metadata": 5},
        {"name": "X", "assigned_suffixes": [".x.com"], "metadata": ["a", "b"]},
        {"name": "X", "assigned_suffixes": [".x.com"], "nonhosted_fp": {"body_contains": 5}},
        {"name": "X", "assigned_suffixes": [".x.com"], "nonhosted_fp": 5},
        {"name": "X", "assigned_suffixes": [".x.com"], "nonhosted_fp": {"header": {"name": "server"}}},
        {"name": "X", "assigned_suffixes": [".x.com"], "discontinued_fp": {"dns_signal": "gone"}},
        {"name": "X", "assigned_suffixes": [".x.com"], "discontinued_fp": {"dns_signal": ["nxdomain"]}},
        {"name": "X", "assigned_suffixes": [".x.com"], "nonhosted_fp": {"status": "404"}},
    ], ids=[
        "entry-list-of-int", "entry-list-of-str", "suffix-not-string", "name-not-string",
        "edges-not-list", "edge-not-object", "edge-without-provider", "edge-template-not-string",
        "liveness-not-object", "liveness-without-contains", "metadata-int", "metadata-list",
        "body-contains-not-string", "fingerprint-not-object", "header-without-contains",
        "dns-signal-unknown", "dns-signal-list", "status-not-integer",
    ])
    def test_wrong_json_types_are_schema_errors(self, tmp_path, entry):
        # each of these once escaped as TypeError/AttributeError/KeyError,
        # or (a list as name) was turned into its repr; validate-db then
        # printed a traceback and exited 1, the "findings present" code
        path = tmp_path / "db.json"
        path.write_text(json.dumps([entry] if isinstance(entry, dict) else entry))
        with pytest.raises(SchemaError):
            load_provider_db(path)
        assert main(["validate-db", str(path)]) == 2

    def test_fingerprint_needs_a_field(self):
        with pytest.raises(SchemaError):
            Fingerprint(id="empty")


class TestEdgesInto:
    def test_matches_scan_over_every_provider(self, db):
        self_edge = ProviderProfile(
            name="Loop", assigned_suffixes=(".loop.net",),
            shares_infra_of=(ShareEdge("Loop"), ShareEdge("Fastly", note="via loop")),
        )
        tdb = ProviderDb(list(db.providers) + [self_edge])
        for target in [p.name for p in tdb.providers] + ["Unknown"]:
            expected = tuple(
                (profile, edge)
                for profile in tdb.providers
                for edge in profile.shares_infra_of
                if edge.provider == target and profile.name != target
            )
            assert tdb.edges_into(target) == expected, target
        assert tdb.edges_into("Loop") == ()
        assert (self_edge, self_edge.shares_infra_of[1]) in tdb.edges_into("Fastly")

    def test_result_is_the_stored_tuple(self, db):
        # a tuple cannot be cleared by a caller, so it needs no copy per call
        edges = db.edges_into("Baidu")
        assert isinstance(edges, tuple) and edges  # KuaikuaiCloud's edge
        assert db.edges_into("Baidu") is edges
        assert isinstance(db.edges_into("Unknown"), tuple)


def toy_db() -> ProviderDb:
    return ProviderDb([
        ProviderProfile(name="Alpha", assigned_suffixes=(".alpha-cdn.net", ".deep.alpha-cdn.net")),
        ProviderProfile(name="Beta", assigned_suffixes=(".beta-edge.com",)),
        ProviderProfile(name="Gamma", assigned_suffixes=(".gamma.io",)),
    ])


class TestIdentifyCdn:
    def test_known_suffix_match(self, db):
        found = identify_cdn(obs(chain=["img.site.com.global.fastly.net"]), db)
        assert found.provider == "Fastly"
        assert found.matched_suffix == ".fastly.net"
        assert found.matched_cname == "img.site.com.global.fastly.net"

    def test_empty_chain_is_absent(self, db):
        assert identify_cdn(obs(a=["1.2.3.4"]), db) is None

    def test_first_chain_element_wins(self, db):
        found = identify_cdn(obs(chain=["x.cdn.dnsv1.com", "y.fastly.net"]), db)
        assert found.provider == "Tencent"
        assert found.matched_cname == "x.cdn.dnsv1.com"

    def test_longest_suffix_wins_per_element(self):
        found = identify_cdn(obs(chain=["a.deep.alpha-cdn.net"]), toy_db())
        assert found.matched_suffix == ".deep.alpha-cdn.net"

    def test_first_match_semantics_against_bruteforce(self):
        # brute-force oracle: scan (element, suffix) pairs in chain order,
        # longest suffix then provider name; first element with any match wins
        tdb = toy_db()
        suffixes = sorted(tdb.suffix_index)
        pool = [
            "a.alpha-cdn.net", "b.deep.alpha-cdn.net", "c.beta-edge.com",
            "d.gamma.io", "plain.example.org", "other.example.net",
        ]
        rng = random.Random(42)
        for _ in range(200):
            chain = rng.sample(pool, rng.randint(0, 4))
            expected = None
            for element in chain:
                hits = [s for s in suffixes if element.endswith(s)]
                if hits:
                    best = sorted(hits, key=lambda s: (-len(s), tdb.suffix_index[s]))[0]
                    expected = (tdb.suffix_index[best], best, element)
                    break
            got = identify_cdn(obs(chain=chain), tdb)
            got_tuple = (got.provider, got.matched_suffix, got.matched_cname) if got else None
            assert got_tuple == expected, chain

    def test_label_walk_matches_suffix_scan_on_bundled_db(self, db):
        # the rule before the label walk: endswith over every suffix, then
        # longest suffix, then provider name
        def by_suffix_scan(chain, tdb):
            for name in chain:
                hits = [(len(s), p, s) for s, p in tdb.suffix_index.items() if name.endswith(s)]
                if hits:
                    _, provider, suffix = min(hits, key=lambda h: (-h[0], h[1]))
                    return provider, suffix, name
            return None

        bundled = sorted(db.suffix_index)
        # nested both ways: ".a.fastly.net" under ".fastly.net", and ".net" over it
        inner = tuple(".a" + s for s in bundled)
        outer = tuple(sorted({"." + s.split(".", 2)[2] for s in bundled if s.count(".") > 1} - set(bundled)))
        tdb = ProviderDb(list(db.providers) + [
            ProviderProfile(name="Inner", assigned_suffixes=inner),
            ProviderProfile(name="Outer", assigned_suffixes=outer),
        ])
        names = []
        for suffix in sorted(tdb.suffix_index):
            bare = suffix[1:]  # the suffix without its leading dot
            names += [bare, "x" + suffix, "x.y" + suffix, "a" + suffix, "x.a" + suffix, "x" + bare]
        for name in names:
            got = identify_cdn(obs(chain=[name]), tdb)
            got_tuple = (got.provider, got.matched_suffix, got.matched_cname) if got else None
            assert got_tuple == by_suffix_scan([name], tdb), name
        rng = random.Random(5)
        for _ in range(300):
            chain = rng.sample(names, rng.randint(1, 3))
            got = identify_cdn(obs(chain=chain), tdb)
            got_tuple = (got.provider, got.matched_suffix, got.matched_cname) if got else None
            assert got_tuple == by_suffix_scan(chain, tdb), chain
        found = identify_cdn(obs(chain=["a.fastly.net"]), tdb)
        assert (found.provider, found.matched_suffix) == ("Fastly", ".fastly.net")
        assert identify_cdn(obs(chain=["fastly.net"]), db) is None

    def test_result_consistency_property(self, db):
        # matched cname ends with the suffix and no earlier element matches
        observation = obs(chain=["nothing.example.org", "x.cdn.dnsv1.com"])
        found = identify_cdn(observation, db)
        assert found.matched_cname.endswith(found.matched_suffix)
        earlier = observation.cname_chain[: [str(c) for c in observation.cname_chain].index(found.matched_cname)]
        for element in earlier:
            assert not any(str(element).endswith(s) for s in db.suffix_index)

    def test_pure_function(self, db):
        observation = obs(chain=["img.site.com.global.fastly.net"])
        assert identify_cdn(observation, db) == identify_cdn(observation, db)


class TestMatchFingerprint:
    def test_fastly_nonhosted_positive(self, db):
        fp = db.by_name["Fastly"].nonhosted_fp
        response = HttpResponseSummary.from_body(500, b"<html>Fastly error: unknown domain</html>")
        assert match_fingerprint(fp, http=response) is True

    def test_cloudflare_discontinued_negative(self, db):
        fp = db.by_name["Cloudflare"].discontinued_fp
        response = HttpResponseSummary.from_body(200, b"hello")
        assert match_fingerprint(fp, http=response) is False

    def test_single_a_record_signal(self):
        fp = Fingerprint(id="t", dns_signal=DnsSignal(DnsSignalKind.SINGLE_A_RECORD))
        assert match_fingerprint(fp, dns=obs(a=["9.9.9.9"])) is True
        assert match_fingerprint(fp, dns=obs(a=["9.9.9.9", "8.8.8.8"])) is False
        assert match_fingerprint(fp, dns=obs(chain=["c.x.com"], a=["9.9.9.9"])) is False

    def test_dns_signals(self):
        nx = Fingerprint(id="nx", dns_signal=DnsSignal(DnsSignalKind.NXDOMAIN))
        sf = Fingerprint(id="sf", dns_signal=DnsSignal(DnsSignalKind.SERVFAIL))
        loop = Fingerprint(id="ip", dns_signal=DnsSignal(DnsSignalKind.RESOLVES_TO, "127.0.0.1"))
        assert match_fingerprint(nx, dns=obs(rcode=Rcode.NXDOMAIN))
        assert not match_fingerprint(nx, dns=obs(a=["1.1.1.1"]))
        assert match_fingerprint(sf, dns=obs(rcode=Rcode.SERVFAIL))
        assert match_fingerprint(loop, dns=obs(a=["127.0.0.1"]))
        assert not match_fingerprint(loop, dns=obs(a=["10.0.0.1"]))

    def test_header_name_case_insensitive_value_sensitive(self):
        fp = Fingerprint(id="h", header=("X-Cache-Lookup", "Return Directly"))
        hit = HttpResponseSummary.from_body(404, b"", [("x-cache-lookup", "Hit, Return Directly")])
        miss = HttpResponseSummary.from_body(404, b"", [("x-cache-lookup", "return directly")])
        assert match_fingerprint(fp, http=hit) is True
        assert match_fingerprint(fp, http=miss) is False

    def test_body_match_is_case_sensitive_bytes(self):
        fp = Fingerprint(id="b", body_contains=b"Hostname not configured")
        assert match_fingerprint(fp, http=HttpResponseSummary.from_body(403, b"Hostname not configured"))
        assert not match_fingerprint(fp, http=HttpResponseSummary.from_body(403, b"hostname not configured"))

    def test_missing_evidence_raised(self):
        fp = Fingerprint(id="s", status=500)
        with pytest.raises(MissingEvidenceError):
            match_fingerprint(fp, dns=obs())
        with pytest.raises(MissingEvidenceError):
            match_fingerprint(Fingerprint(id="d", dns_signal=DnsSignal(DnsSignalKind.NXDOMAIN)),
                              http=HttpResponseSummary.from_body(200, b""))
        with pytest.raises(MissingEvidenceError):
            match_fingerprint(fp)

    def test_evidence_flags_fixed_at_construction(self):
        http = Fingerprint(id="h", status=500)
        dns = Fingerprint(id="d", dns_signal=DnsSignal(DnsSignalKind.NXDOMAIN))
        both = Fingerprint(id="b", header=("Server", "x"), dns_signal=DnsSignal(DnsSignalKind.SERVFAIL))
        silent = Fingerprint(id="s", no_response=True)
        assert [(f.needs_http, f.needs_dns) for f in (http, dns, both, silent)] == [
            (True, False), (False, True), (True, True), (True, False),
        ]
        stripped = replace(both, header=None)
        assert (stripped.needs_http, stripped.needs_dns) == (False, True)
        with pytest.raises(FrozenInstanceError):
            http.needs_http = False

    def test_evidence_flags_stay_out_of_equality_and_hash(self):
        # fingerprints are memo keys in the simulated edge
        derived = {f.name for f in fields(Fingerprint) if not f.compare}
        assert derived == {"needs_http", "needs_dns"}
        a = Fingerprint(id="x", status=404, body_contains=b"gone")
        b = Fingerprint(id="x", status=404, body_contains=b"gone")
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.id, a.status, a.header, a.body_contains, a.dns_signal, a.no_response))
        assert a != replace(a, status=403)
        assert "needs_http" not in repr(a)

    def test_conjunction_monotone_under_field_addition(self):
        # adding fields can only flip matches to misses, never the reverse
        rng = random.Random(7)
        bodies = [b"ERROR: ACCESS DENIED", b"welcome home", b"Not Found - Request ID 123"]
        statuses = [200, 403, 404, 500]
        headers = [("Server", "edge"), ("Byte-Error-Code", "0060")]
        for _ in range(200):
            response = HttpResponseSummary.from_body(
                rng.choice(statuses), rng.choice(bodies), [rng.choice(headers)]
            )
            fp = Fingerprint(id="base", status=rng.choice(statuses))
            before = match_fingerprint(fp, http=response)
            richer = Fingerprint(
                id="richer",
                status=fp.status,
                header=rng.choice(headers) if rng.random() < 0.5 else None,
                body_contains=rng.choice(bodies) if rng.random() < 0.5 else None,
            )
            after = match_fingerprint(richer, http=response)
            if after:
                assert before, "adding fields must never turn a miss into a match"
