import dataclasses

import pytest

from dvahunter.core import DnsObservation, DomainSyntaxError, Fqdn, Rcode, derive_rng, parse_fqdn
from dvahunter.crawler import (
    LABEL_ALPHABET,
    RANDOM_PREFIX_LENGTH,
    WILDCARD_PROBES,
    PrefixDictionary,
    WildcardInconclusive,
    _random_label,
    detect_wildcard,
    enumerate_subdomains,
)
from dvahunter.simnet import Scenario, SimulatedInternet, ZoneRecord
from dvahunter.transport import MockTransport, RRType
from dvahunter.scan import run_scan, run_scan_with_context
from tests.conftest import DATA, edited_reference_scan, scan_config, set_zone


class TestPrefixDictionary:
    def test_dedupe_comments_and_case(self, tmp_path):
        path = tmp_path / "prefixes.txt"
        path.write_text("www\nWWW\n# comment\nmail  # trailing\n\ndev.api\nmail\n")
        d = PrefixDictionary.load(path)
        assert d.prefixes == ("www", "mail", "dev.api")

    def test_invalid_label_rejected(self):
        with pytest.raises(DomainSyntaxError):
            PrefixDictionary.from_lines(["ok", "bad_label"])

    def test_bundled_dictionary(self):
        from tests.conftest import DATA
        d = PrefixDictionary.load(DATA["prefixes.txt"])
        assert len(d) == 1000
        for needed in ("www", "legacy", "promo", "pages", "static", "app"):
            assert needed in d.prefixes


def small_world(db, zones):
    return MockTransport(SimulatedInternet(Scenario(providers=[], zones=zones), db))


@pytest.fixture()
def plain_zone(db):
    zones = {
        "www.example.com": ZoneRecord(a=("198.18.1.1",)),
        "mail.example.com": ZoneRecord(cname="mx.mailhost.net", external=True),
    }
    return small_world(db, zones)


@pytest.fixture()
def wildcard_zone(db):
    zones = {
        "*.wild.com": ZoneRecord(a=("1.2.3.4",)),
        # explicit host whose records differ from the wildcard answer
        "www.wild.com": ZoneRecord(cname="www-wild.cdn-host.net", external=True),
        # explicit host indistinguishable from the wildcard answer
        "mail.wild.com": ZoneRecord(a=("1.2.3.4",)),
    }
    return small_world(db, zones)


class TestRandomLabel:
    def test_labels_equal_the_choice_loop(self):
        # rng.choice as CPython 3.11-3.13 implement it; the CI matrix runs
        # this on each, so a version that draws otherwise shows here
        for seed in range(200):
            drawn, chosen = derive_rng(seed, "wildcard", "example.com"), derive_rng(seed, "wildcard", "example.com")
            for _ in range(WILDCARD_PROBES):
                expected = "".join(chosen.choice(LABEL_ALPHABET) for _ in range(RANDOM_PREFIX_LENGTH))
                assert _random_label(drawn) == expected, seed
            assert drawn.getstate() == chosen.getstate(), seed


class TestDetectWildcard:
    def test_no_wildcard_returns_absent(self, plain_zone):
        assert detect_wildcard(parse_fqdn("example.com"), plain_zone) is None

    def test_wildcard_signature_captured(self, wildcard_zone):
        signature = detect_wildcard(parse_fqdn("wild.com"), wildcard_zone)
        assert signature is not None
        assert signature.a_records == frozenset({"1.2.3.4"})

    def test_disagreeing_answers_raise(self, db):
        class FlipFlop:
            def __init__(self, inner):
                self.inner = inner
                self.count = 0
            def resolve(self, name, rrtype=RRType.ALL):
                self.count += 1
                ip = f"10.0.0.{self.count}"
                return DnsObservation(fqdn=name, a_records=(ip,))
        transport = FlipFlop(None)
        with pytest.raises(WildcardInconclusive):
            detect_wildcard(parse_fqdn("weird.com"), transport)


class TestEnumerate:
    def test_only_defined_candidates_confirmed(self, plain_zone):
        d = PrefixDictionary.from_lines(["www", "mail", "missing"])
        result = enumerate_subdomains(parse_fqdn("example.com"), d, plain_zone)
        assert [str(f) for f in result.confirmed] == ["mail.example.com", "www.example.com"]
        assert "missing.example.com" in result.unconfirmed

    def test_empty_dictionary_empty_result(self, plain_zone):
        result = enumerate_subdomains(parse_fqdn("example.com"), PrefixDictionary.from_lines([]), plain_zone)
        assert result.confirmed == []

    def test_all_timeouts_contained(self):
        class AllTimeout:
            def resolve(self, name, rrtype=RRType.ALL):
                return DnsObservation(fqdn=name, rcode=Rcode.TIMEOUT)

            def resolve_existing(self, parent, dictionary):
                return {}  # a timed-out name is not confirmed
        d = PrefixDictionary.from_lines(["www", "mail"])
        result = enumerate_subdomains(parse_fqdn("example.com"), d, AllTimeout())
        assert result.confirmed == []
        assert result.unconfirmed == ["www.example.com", "mail.example.com"]

    def test_wildcard_exclusion_keeps_distinct_hosts(self, wildcard_zone):
        d = PrefixDictionary.from_lines(["www", "mail", "random-name"])
        result = enumerate_subdomains(parse_fqdn("wild.com"), d, wildcard_zone)
        names = [str(f) for f in result.confirmed]
        assert "www.wild.com" in names            # distinct CNAME retained
        assert "mail.wild.com" not in names       # equals the wildcard answer
        assert "random-name.wild.com" not in names
        assert "mail.wild.com" in result.excluded_by_wildcard

    def test_unconfirmed_and_excluded_keep_dictionary_order(self, plain_zone, wildcard_zone):
        d = PrefixDictionary.from_lines(["zzz", "www", "mail", "aaa"])
        plain = enumerate_subdomains(parse_fqdn("example.com"), d, plain_zone)
        assert plain.unconfirmed == ["zzz.example.com", "aaa.example.com"]
        wild = enumerate_subdomains(parse_fqdn("wild.com"), d, wildcard_zone)
        assert wild.excluded_by_wildcard == ["zzz.wild.com", "mail.wild.com", "aaa.wild.com"]
        assert wild.unconfirmed == []  # an excluded name was confirmed by DNS
        assert [str(f) for f in wild.confirmed] == ["www.wild.com"]

    def test_brute_force_oracle_on_handbuilt_zone(self, db):
        # every confirmed name must resolve with records; every defined name
        # in the dictionary must be found; nothing else may appear
        zones = {
            "www.oracle-site.com": ZoneRecord(a=("198.18.2.1",)),
            "api.oracle-site.com": ZoneRecord(a=("198.18.2.2",)),
            "docs.oracle-site.com": ZoneRecord(cname="docs-host.pages.dev", external=True),
        }
        transport = small_world(db, zones)
        d = PrefixDictionary.from_lines(["www", "api", "docs", "mail", "shop", "dev"])
        result = enumerate_subdomains(parse_fqdn("oracle-site.com"), d, transport)
        expected = sorted(name for name in zones)
        assert [str(f) for f in result.confirmed] == expected
        for fqdn in result.confirmed:
            check = transport.resolve(fqdn)
            assert check.rcode is Rcode.NOERROR and check.has_records

    def test_idempotent_and_sorted(self, plain_zone):
        d = PrefixDictionary.from_lines(["www", "mail"])
        first = enumerate_subdomains(parse_fqdn("example.com"), d, plain_zone)
        second = enumerate_subdomains(parse_fqdn("example.com"), d, plain_zone)
        assert [str(f) for f in first.confirmed] == [str(f) for f in second.confirmed]
        assert first.confirmed == sorted(first.confirmed, key=str)


class RecordingTransport:
    """Answers NXDOMAIN for everything and keeps the names it was asked,
    as their text."""

    def __init__(self):
        self.asked = []

    def resolve(self, name, rrtype=RRType.ALL):
        self.asked.append(str(name))
        return DnsObservation(fqdn=name, rcode=Rcode.NXDOMAIN)

    def resolve_existing(self, parent, dictionary):
        self.asked.extend(dictionary.names_under(parent))
        return {}


class TestCandidateFastPath:
    """Candidates are joined from validated labels, not parsed; their text
    must still be the text parse_fqdn would have produced, both where the
    transport builds the names it asks and where ``unconfirmed`` lists
    them."""

    @pytest.fixture(scope="class")
    def bundled(self):
        from tests.conftest import DATA
        return PrefixDictionary.load(DATA["prefixes.txt"])

    @pytest.mark.parametrize("sld", ["example.com", "shop.co.uk", "a-b.example.org", "x.io"])
    def test_candidates_equal_parsed_names(self, bundled, sld):
        transport = RecordingTransport()
        result = enumerate_subdomains(parse_fqdn(sld), bundled, transport)
        candidates = transport.asked[WILDCARD_PROBES:]  # after the random wildcard probes
        assert len(candidates) == len(bundled)
        for prefix, candidate in zip(bundled.prefixes, candidates):
            parsed = parse_fqdn(f"{prefix}.{sld}")
            assert candidate == str(parsed)
            assert parse_fqdn(candidate) == parsed
        assert result.unconfirmed == candidates

    def test_overlong_candidates_go_to_unconfirmed(self, db):
        labels = ["a" * 63, "b" * 63, "c" * 63]
        sld = parse_fqdn(".".join(labels) + ".com")  # 196 characters
        room = 253 - len(str(sld)) - 1
        d = PrefixDictionary.from_lines(["www", "x" * room, "y" * (room + 1), "dev.api" + "z" * (room - 6)])
        transport = RecordingTransport()
        result = enumerate_subdomains(sld, d, transport)
        overlong = [f"{'y' * (room + 1)}.{sld}", f"dev.api{'z' * (room - 6)}.{sld}"]
        asked = transport.asked[WILDCARD_PROBES:]
        assert asked == [f"www.{sld}", f"{'x' * room}.{sld}"]
        assert all(len(name) <= 253 for name in asked)
        for name in overlong:
            assert name in result.unconfirmed
            with pytest.raises(DomainSyntaxError):
                parse_fqdn(name)
        assert result.unconfirmed == asked + overlong  # dictionary order
        assert d.count_under(str(sld)) == len(asked)
        # the mock counts and logs the same queries without building them
        mock = small_world(db, {})
        mock.record = True
        assert enumerate_subdomains(sld, d, mock).unconfirmed == result.unconfirmed
        assert mock.query_log[WILDCARD_PROBES:] == [(name, "all") for name in asked]
        assert mock.stats.dns_queries == WILDCARD_PROBES + len(asked)


class TestFqdnText:
    def test_equality_ordering_and_hash_follow_the_text(self):
        a, b = Fqdn("www.example.com"), parse_fqdn("WWW.Example.com.")
        assert a == b and hash(a) == hash(b)
        assert [field.name for field in dataclasses.fields(Fqdn)] == ["name"]
        # the order of every key=str sort: "-" sorts before "."
        names = [parse_fqdn("a.b.com"), parse_fqdn("a-b.com")]
        assert sorted(names) == sorted(names, key=str) == [Fqdn("a-b.com"), Fqdn("a.b.com")]

    def test_labels_split_the_text(self):
        f = parse_fqdn("api.example.com")
        assert f.name == str(f) == "api.example.com"
        assert f.labels == ("api", "example", "com")
        assert repr(f) == "Fqdn('api.example.com')"


class TestEnumerationScan:
    def test_wildcard_sld_is_listed_in_meta(self, tmp_path):
        code, report = edited_reference_scan(
            tmp_path, "wild-shop.com\n", set_zone("*.wild-shop.com", a=["198.51.100.10"]), mode="exposure"
        )
        assert code in (0, 1)
        assert report["meta"]["wildcard_slds"] == ["wild-shop.com"]

    def test_wildcard_sld_listed_twice_is_listed_once(self, tmp_path):
        code, report = edited_reference_scan(
            tmp_path, "wild-shop.com\nWild-Shop.com.\n", set_zone("*.wild-shop.com", a=["198.51.100.10"]),
            mode="exposure",
        )
        assert code in (0, 1)
        assert report["meta"]["wildcard_slds"] == ["wild-shop.com"]

    def test_each_registrable_domain_is_enumerated_once(self, tmp_path, caplog):
        # each copy of a listed domain once cost 1,003 more queries; a
        # malformed line is skipped with a warning and costs none
        reference = DATA["reference_world_targets.txt"]
        doubled = tmp_path / "targets.txt"
        doubled.write_text(reference.read_text(encoding="utf-8")
                           + "akamai-site-a.com.\nAKAMAI-site-b.com\nazure-retired.net.\nunder_score.com\n",
                           encoding="utf-8")
        once, twice = (
            run_scan_with_context(scan_config(targets, DATA["reference_world.json"], mode="exposure",
                                              record_probes=True))
            for targets in (reference, doubled)
        )
        assert twice.transport.stats.dns_queries == once.transport.stats.dns_queries
        assert twice.transport.query_log == once.transport.query_log
        assert twice.report.domains == once.report.domains
        assert "skipping malformed target 'under_score.com'" in caplog.text

    def test_inconclusive_wildcard_check_keeps_the_dictionary_names(self, tmp_path, monkeypatch):
        targets = tmp_path / "targets.txt"
        targets.write_text("akamai-site-a.com\nakamai-site-b.com\n", encoding="utf-8")
        config = scan_config(targets, DATA["reference_world.json"], mode="exposure")
        plain = run_scan(config)
        resolve = MockTransport.resolve
        answered = []

        def first_probe_answers(self, name, rrtype=RRType.ALL):
            # the first random wildcard probe under akamai-site-a.com
            # answers, the other two do not: the check is inconclusive
            if not answered and name.name.endswith(".akamai-site-a.com") \
                    and len(name.labels[0]) == RANDOM_PREFIX_LENGTH:
                answered.append(name)
                return DnsObservation(fqdn=name, a_records=("198.51.100.7",))
            return resolve(self, name, rrtype)

        monkeypatch.setattr(MockTransport, "resolve", first_probe_answers)
        report = run_scan(config)
        assert len(answered) == 1
        assert report.meta["wildcard_inconclusive_slds"] == ["akamai-site-a.com"]
        assert "wildcard_slds" not in report.meta and "wildcard_inconclusive_slds" not in plain.meta
        enumerated = sorted(name for name in plain.domains if name.endswith(".akamai-site-a.com"))
        assert enumerated  # the reference world defines names under it
        assert report.domains == plain.domains
