import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dvahunter
from dvahunter.cli import main
from dvahunter.core import HttpResponseSummary
from dvahunter.report import CounterMismatch, IncompatibleRuns, ScanReport, diff_reports
from dvahunter.scan import run_scan
from dvahunter.simnet import scenario_to_json
from dvahunter.worlds import build_reference_world
from tests.conftest import DATA, keep_providers, scan_config, set_zone, write_world
from tests.test_golden_report import REFERENCE_REPORT_SHA1


@pytest.fixture(scope="module")
def small_world(db):
    # reference world trimmed to a handful of providers for cheap CLI runs
    world = build_reference_world(db)
    keep = {"Fastly", "Baidu", "Tencent", "KuaikuaiCloud", "Bunny"}
    world.scenario = keep_providers(world.scenario, keep)
    kept_hosts = {h.host for p in world.scenario.providers for h in p.host_table}
    world.targets = [
        t for t in world.targets
        if any(t in h for h in kept_hosts)
        or t in ("kkshift-shop.com", "shared-press-kit.org", "fastly-retired.net", "bunny-retired.net")
        or t.startswith(("fastly-", "baidu-", "tencent-", "bunny-"))
    ]
    return world


@pytest.fixture(scope="module")
def small_paths(small_world, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("small-world")
    return write_world(tmp, small_world, "small")


class TestReportStructure:
    def test_counters_self_consistency_enforced(self, small_paths):
        scenario, targets = small_paths
        report = run_scan(scan_config(targets, scenario))
        report.verify_counters()
        report.counters["fronting_vulnerable"] += 1
        with pytest.raises(CounterMismatch):
            report.to_json()

    def test_vulnerable_verdicts_carry_evidence(self, small_paths):
        scenario, targets = small_paths
        report = run_scan(scan_config(targets, scenario))
        for name, section in report.providers.items():
            for category in ("fronting", "borrowing", "takeover"):
                verdict = section.get(category)
                if verdict and verdict["kind"] == "vulnerable":
                    assert verdict["evidence"], (name, category)

    def test_json_dump_loads_back(self, small_paths, tmp_path):
        scenario, targets = small_paths
        out = tmp_path / "report.json"
        run_scan(scan_config(targets, scenario, out=out))
        loaded = ScanReport.load(out)
        loaded.verify_counters()
        assert loaded.meta["backend"] == "mock"

    def test_text_and_csv_renderings(self, small_paths):
        scenario, targets = small_paths
        report = run_scan(scan_config(targets, scenario))
        text = report.to_text()
        assert "Fastly" in text and "fronting" in text
        csv_text = report.to_csv()
        header = csv_text.splitlines()[0]
        assert header.startswith("fqdn,rcode,provider")
        assert any("legacy.fastly-retired.net" in line for line in csv_text.splitlines())


def _finalized(**sections) -> ScanReport:
    return ScanReport(**sections).finalize()


class TestDump:
    def test_bytes_equal_compact_dumps(self, tmp_path):
        report = _finalized(
            meta={"generated_at": "2024-01-01T00:00:00+00:00", "note": "größe ✓ 域名", "empty": [], "none": None},
            providers={"Zeta": {"notes": []}, "Alpha": {"ingress": {}, "borrowing_hits": [{"tls": "http_only"}]}},
            domains={"b.example": {"rcode": "noerror", "borrowed_at": []}, "a.example": {}},
        )
        report.response_ref(HttpResponseSummary.from_body(200, "größe ✓".encode(), [("Server", "域名")]))
        out = tmp_path / "report.json"
        report.dump(out)
        expected = json.dumps(report.to_json(), ensure_ascii=False, separators=(",", ":")) + "\n"
        assert out.read_bytes() == expected.encode("utf-8")
        assert out.read_bytes().startswith(b'{"schema":"dvahunter-report/2","meta":{"generated_at":')
        assert "größe ✓ 域名" in out.read_text(encoding="utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_failed_dump_keeps_earlier_report(self, tmp_path):
        out = tmp_path / "report.json"
        _finalized(meta={"run": 1}).dump(out)
        before = out.read_bytes()
        # the unserialisable value sits in "domains", after "meta" and
        # "counters": a dump that wrote to ``out`` directly would have cut it
        broken = _finalized(meta={"run": 2}, domains={"x.example": {"when": object()}})
        with pytest.raises(TypeError):
            broken.dump(out)
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


class TestDiff:
    def test_identical_reports_empty_change_set(self, small_paths):
        scenario, targets = small_paths
        a = run_scan(scan_config(targets, scenario))
        b = run_scan(scan_config(targets, scenario))
        changes = diff_reports(a, b)
        assert changes["empty"] is True

    def test_provider_flip_appears_as_newly_vulnerable(self, small_paths):
        scenario, targets = small_paths
        a = run_scan(scan_config(targets, scenario))
        b = run_scan(scan_config(targets, scenario))
        b.providers["Tencent"]["fronting"] = {"kind": "vulnerable", "evidence": [{"kind": "x", "detail": "d"}]}
        b.finalize()
        changes = diff_reports(a, b)
        assert changes["newly_vulnerable"]["fronting"] == ["Tencent"]

    def test_resolved_dangling_via_two_scenarios(self, db, small_world, tmp_path):
        # second scenario version: the customer re-deployed the domain, so
        # the edge serves it again and the assigned name resolves
        scenario_path, targets = write_world(tmp_path, small_world, "v1")
        before = run_scan(scan_config(targets, scenario_path))
        doc = scenario_to_json(small_world.scenario)
        healed = doc["discontinued_hosts"].pop("legacy.fastly-retired.net")
        assert healed["provider"] == "Fastly"
        for prov in doc["providers"]:
            if prov["name"] == "Fastly":
                ingress = [ip for ip, _city in prov["ingress_ips"]]
                prov["host_table"].append({
                    "host": "legacy.fastly-retired.net",
                    "origin_ip": prov["host_table"][0]["origin_ip"],
                    "registered_by": "legit",
                    "dns_points_here": True,
                })
        doc["zones"]["cdn-healed.fastly.net"] = {"cname": None, "a": ingress, "ns": [], "servfail": False, "external": False}
        doc["zones"]["legacy.fastly-retired.net"]["cname"] = "cdn-healed.fastly.net"
        v2 = tmp_path / "v2.json"
        v2.write_text(json.dumps(doc), encoding="utf-8")
        after = run_scan(scan_config(targets, v2))
        changes = diff_reports(before, after)
        assert "legacy.fastly-retired.net" in changes["resolved_dangling"]
        assert "legacy.bunny-retired.net" not in changes["resolved_dangling"]

    def test_db_hash_mismatch_rejected(self, small_paths):
        scenario, targets = small_paths
        a = run_scan(scan_config(targets, scenario))
        b = run_scan(scan_config(targets, scenario))
        b.meta["provider_db_sha1"] = "0" * 40
        with pytest.raises(IncompatibleRuns):
            diff_reports(a, b)


class TestModeIsolation:
    def test_takeover_only_issues_no_fronting_probes(self, small_paths):
        from dvahunter.scan import run_scan_with_context
        scenario, targets = small_paths
        ctx = run_scan_with_context(scan_config(targets, scenario, mode="takeover", record_probes=True))
        log = ctx.transport.probe_log
        assert log, "takeover mode still probes"
        for entry in log:
            probe = entry.probe
            if probe.sni is not None:
                assert str(probe.sni) == str(probe.host_header), "fronting-style probe in takeover mode"

    def test_empty_targets_empty_report_zero_probes(self, small_paths, tmp_path):
        from dvahunter.scan import run_scan_with_context
        scenario, _ = small_paths
        empty = tmp_path / "none.txt"
        empty.write_text("# nothing\n", encoding="utf-8")
        ctx = run_scan_with_context(scan_config(empty, scenario, record_probes=True))
        assert ctx.report.counters["domains_scanned"] == 0
        assert ctx.transport.stats.http_probes == 0
        assert ctx.transport.stats.dns_queries == 0


class TestCli:
    def test_scan_exit_code_findings(self, small_paths, tmp_path, capsys):
        scenario, targets = small_paths
        out = tmp_path / "r.json"
        code = main([
            "scan", "--targets", str(targets), "--scenario", str(scenario),
            "--backend", "mock", "--seed", "7", "--out", str(out),
            "--csv", str(tmp_path / "r.csv"), "--text",
        ])
        assert code == 1  # findings present in the reference world
        assert out.exists()
        assert (tmp_path / "r.csv").read_text().startswith("fqdn,")
        assert "flagged domains" in capsys.readouterr().out

    def test_scan_clean_world_exit_zero(self, db, tmp_path, capsys):
        world = build_reference_world(db)
        # fronting-secure, nothing borrowed, nothing dangling
        world.scenario = keep_providers(world.scenario, {"Tencent"})
        world.targets = [t for t in world.targets if t.startswith("tencent-site")]
        scenario, targets = write_world(tmp_path, world, "clean")
        code = main(["scan", "--targets", str(targets), "--scenario", str(scenario), "--seed", "7"])
        assert code == 0

    def test_a_targets_file_with_every_line_repeated_gives_the_same_report(self, tmp_path):
        # a metamorphic relation: each target is scanned once, in an order
        # of its own, however often and wherever the file lists it
        given = DATA["reference_world_targets.txt"]
        lines = given.read_text(encoding="utf-8").splitlines()
        doubled = tmp_path / "doubled.txt"
        doubled.write_text("".join(f"{line}\n{line}\n" for line in reversed(lines)), encoding="utf-8")
        reports = []
        for targets in (given, doubled):
            out = tmp_path / f"{targets.stem}.json"
            code = main(["scan", "--targets", str(targets), "--scenario", str(DATA["reference_world.json"]),
                         "--seed", "3", "--out", str(out)])
            assert code == 1
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_scan_config_error_exit_two(self, tmp_path, capsys):
        code = main(["scan", "--targets", str(tmp_path / "missing.txt")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_out_in_missing_directory_fails_before_any_query(self, small_paths, tmp_path, capsys, monkeypatch):
        import dvahunter.scan as scan_mod

        started = []
        real_enumerate = scan_mod._phase_enumerate

        def enumerate_spy(ctx):
            started.append(ctx)
            return real_enumerate(ctx)

        monkeypatch.setattr(scan_mod, "_phase_enumerate", enumerate_spy)
        scenario, targets = small_paths
        out = tmp_path / "missing" / "report.json"
        with pytest.raises(scan_mod.ConfigError):
            scan_mod.run_scan(scan_config(targets, scenario, out=out))
        code = main(["scan", "--targets", str(targets), "--scenario", str(scenario), "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert started == []

    def test_out_that_is_a_directory_is_config_error(self, small_paths, tmp_path, capsys):
        scenario, targets = small_paths
        code = main(["scan", "--targets", str(targets), "--scenario", str(scenario), "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_stats_sidecar_holds_the_phase_counts_and_leaves_the_report_alone(self, small_paths, tmp_path):
        scenario, targets = small_paths
        args = ["scan", "--targets", str(targets), "--scenario", str(scenario), "--seed", "7"]
        assert main([*args, "--out", str(tmp_path / "plain.json")]) == 1
        sidecar = tmp_path / "stats.json"
        assert main([*args, "--out", str(tmp_path / "r.json"), "--stats", str(sidecar)]) == 1
        report = tmp_path / "r.json"
        assert report.read_bytes() == (tmp_path / "plain.json").read_bytes()
        stats = json.loads(report.read_text())["meta"]["stats"]
        phases = json.loads(sidecar.read_text())
        assert list(phases) == ["prepare", *stats, "report"]
        assert all(isinstance(p.pop("wall_s"), float) for p in phases.values())
        assert phases.pop("prepare") == phases.pop("report") == {}
        assert phases == stats

    def test_stats_in_missing_directory_fails_before_the_scan(self, small_paths, tmp_path, capsys, monkeypatch):
        import dvahunter.scan as scan_mod

        def no_scan(ctx):
            raise AssertionError("the scan started")

        monkeypatch.setattr(scan_mod, "_phase_enumerate", no_scan)
        scenario, targets = small_paths
        for stats in (tmp_path / "missing" / "stats.json", tmp_path):
            code = main(["scan", "--targets", str(targets), "--scenario", str(scenario), "--stats", str(stats)])
            assert code == 2
            assert "config error: stats" in capsys.readouterr().err

    def test_csv_in_missing_directory_fails_before_the_scan(self, small_paths, tmp_path, capsys, monkeypatch):
        import dvahunter.cli as cli_mod

        def no_scan(config):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(cli_mod, "run_scan", no_scan)
        scenario, targets = small_paths
        out = tmp_path / "r.json"
        code = main([
            "scan", "--targets", str(targets), "--scenario", str(scenario),
            "--out", str(out), "--csv", str(tmp_path / "missing" / "r.csv"),
        ])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("backend", ["mock", "live"])
    @pytest.mark.parametrize("qps", ["0", "-1", "nan", "inf"])
    def test_qps_not_finite_and_positive_is_config_error(self, small_paths, capsys, monkeypatch, qps, backend):
        import dvahunter.scan as scan_mod

        def no_scan(ctx):
            raise AssertionError("the scan started")

        monkeypatch.setattr(scan_mod, "_phase_enumerate", no_scan)
        scenario, targets = small_paths
        where = ["--scenario", str(scenario)] if backend == "mock" else ["--resolver", "192.0.2.53"]
        code = main(["scan", "--targets", str(targets), "--backend", backend, f"--qps={qps}", *where])
        assert code == 2
        assert "qps must be a finite positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("option, content, label", [
        ("--targets", b"caf\xe9.com\n", "targets"),
        ("--targets", None, "targets"),
        ("--dict", None, "dictionary"),
        ("--scenario", None, "scenario"),
        ("--geoip", b"", "geoip"),
        ("--geoip", b"192.0.2.1,Par\xeds\n", "geoip"),
    ], ids=["targets-not-utf8", "targets-directory", "dict-directory", "scenario-directory",
            "geoip-missing", "geoip-not-utf8"])
    def test_unreadable_scan_input_is_config_error(
        self, small_paths, tmp_path, capsys, monkeypatch, option, content, label
    ):
        # each of these once escaped as a traceback with exit 1, which
        # reads as "findings present". content None is a directory, b""
        # a missing file
        import dvahunter.scan as scan_mod

        def no_scan(ctx):
            raise AssertionError("the scan started")

        monkeypatch.setattr(scan_mod, "_phase_enumerate", no_scan)
        scenario, targets = small_paths
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        elif content:
            path.write_bytes(content)
        given = {"--targets": str(targets), "--scenario": str(scenario)}
        if option == "--geoip":  # read by a live scan, before its first query
            given = {"--targets": str(targets), "--backend": "live", "--resolver": "192.0.2.53"}
        given[option] = str(path)
        code = main(["scan", *(part for pair in given.items() for part in pair)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"config error: {label}: ")

    @pytest.mark.parametrize("content", [b'[{"name": "caf\xe9"}]', b"[{", None],
                             ids=["not-utf8", "not-json", "directory"])
    def test_unreadable_provider_db_is_config_error(self, small_paths, tmp_path, capsys, monkeypatch, content):
        # a non-UTF-8 DB once escaped from validate-db and validate-scenario,
        # and a directory from scan, as a traceback with exit 1
        import dvahunter.scan as scan_mod

        def no_scan(ctx):
            raise AssertionError("the scan started")

        monkeypatch.setattr(scan_mod, "_phase_enumerate", no_scan)
        scenario, targets = small_paths
        path = tmp_path / "providers.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main(["validate-db", str(path)]) == 2
        assert main(["validate-scenario", str(scenario), "--providers", str(path)]) == 2
        assert main(["scan", "--targets", str(targets), "--scenario", str(scenario), "--providers", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":", 1)[0] for line in lines] == ["invalid provider DB", "invalid", "config error"]
        assert all(str(path) in line for line in lines)
        assert lines[2].startswith("config error: providers: ")

    def test_scan_mock_without_scenario_is_config_error(self, small_paths, capsys):
        _, targets = small_paths
        assert main(["scan", "--targets", str(targets), "--backend", "mock"]) == 2

    def test_scan_live_without_resolver_is_config_error(self, small_paths, capsys):
        _, targets = small_paths
        assert main(["scan", "--targets", str(targets), "--backend", "live"]) == 2
        assert "config error: live backend needs --resolver" in capsys.readouterr().err

    def test_validate_db(self, capsys, tmp_path):
        assert main(["validate-db", str(DATA["providers.json"])]) == 0
        assert "45 providers" in capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"name": "A", "assigned_suffixes": [".x.com"]},
                                   {"name": "B", "assigned_suffixes": [".x.com"]}]))
        assert main(["validate-db", str(bad)]) == 2

    @staticmethod
    def _edited_db(tmp_path, provider, key, replace=False, **fields):
        """The bundled provider DB with ``fields`` added to one fingerprint,
        or put in its place with ``replace``."""
        doc = json.loads(DATA["providers.json"].read_text(encoding="utf-8"))
        entry = next(p for p in doc if p["name"] == provider)
        entry[key] = fields if replace else {**entry[key], **fields}
        path = tmp_path / "providers.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_silent_discontinued_fingerprint_with_dns_signal_matches_at_dns_stage(self, tmp_path, capsys):
        # this DB once passed validate-db and then aborted a takeover scan:
        # the DNS stage kept the fingerprint's no_response and asked for
        # an HTTP response it did not have
        providers = self._edited_db(tmp_path, "Azure", "discontinued_fp", no_response=True)
        assert main(["validate-db", str(providers)]) == 0
        targets = tmp_path / "targets.txt"
        targets.write_text("legacy.azure-retired.net\n", encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(["scan", "--targets", str(targets), "--scenario", str(DATA["reference_world.json"]),
                     "--providers", str(providers), "--mode", "takeover", "--out", str(out)]) == 1
        entry = json.loads(out.read_text())["domains"]["legacy.azure-retired.net"]
        assert entry["dangling"]["stage"] == "dns_stage"

    def test_nonhosted_fingerprint_with_dns_signal_is_config_error(self, small_paths, tmp_path, capsys):
        # non-hosted fingerprints are matched against HTTP answers only; a
        # DNS signal there once passed validate-db and aborted the recheck
        providers = self._edited_db(tmp_path, "Fastly", "nonhosted_fp", dns_signal="nxdomain")
        scenario, targets = small_paths
        assert main(["validate-db", str(providers)]) == 2
        assert main(["scan", "--targets", str(targets), "--scenario", str(scenario),
                     "--providers", str(providers)]) == 2
        assert capsys.readouterr().err.count("Fastly: nonhosted_fp cannot carry a dns_signal") == 2

    def test_unknown_effective_verification_is_a_config_error(self, small_paths, tmp_path, capsys):
        # this DB once passed validate-db; no takeover branch knows "No", so
        # Azure's dangling domain lost its path and Azure read not vulnerable
        providers = self._edited_db(tmp_path, "Azure", "metadata", verification_effective="No")
        scenario, targets = small_paths
        assert main(["validate-db", str(providers)]) == 2
        assert main(["scan", "--targets", str(targets), "--scenario", str(scenario),
                     "--providers", str(providers)]) == 2
        assert capsys.readouterr().err.count("Azure: verification_effective 'No' is not one of") == 2

    def test_discontinued_fingerprint_with_dns_signal_and_http_field_is_a_config_error(
        self, small_paths, tmp_path, capsys
    ):
        # this DB once passed validate-db; the DNS stage matched the signal
        # alone, so Azure read dangling and vulnerable whatever its edge
        # answered, against the conjunction the fields promise
        providers = self._edited_db(tmp_path, "Azure", "discontinued_fp", status=418)
        scenario, targets = small_paths
        assert main(["validate-db", str(providers)]) == 2
        assert main(["scan", "--targets", str(targets), "--scenario", str(scenario),
                     "--providers", str(providers)]) == 2
        assert capsys.readouterr().err.count("Azure: discontinued_fp cannot carry both a dns_signal and") == 2

    def test_empty_body_phrase_is_a_config_error(self, small_paths, tmp_path, capsys):
        # every answer contains the empty phrase, a timeout included; this
        # DB once passed validate-db, and a reference scan then refuted both
        # live Fastly sites and left fronting and borrowing inconclusive
        providers = self._edited_db(tmp_path, "Fastly", "nonhosted_fp", body_contains="")
        scenario, targets = small_paths
        assert main(["validate-db", str(providers)]) == 2
        assert main(["scan", "--targets", str(targets), "--scenario", str(scenario),
                     "--providers", str(providers)]) == 2
        assert capsys.readouterr().err.count("an empty body_contains matches every answer") == 2

    def test_silent_discontinued_fingerprint_without_dns_signal_is_a_config_error(self, small_paths, tmp_path, capsys):
        # this DB once passed validate-db; the HTTP stage reads a failed
        # answer as inconclusive before any fingerprint is matched, so no
        # record of Fastly's could ever read dangling
        providers = self._edited_db(tmp_path, "Fastly", "discontinued_fp", replace=True, no_response=True)
        scenario, targets = small_paths
        assert main(["validate-db", str(providers)]) == 2
        assert main(["scan", "--targets", str(targets), "--scenario", str(scenario),
                     "--providers", str(providers)]) == 2
        assert capsys.readouterr().err.count("Fastly: discontinued_fp with no_response needs a dns_signal") == 2

    def test_validate_scenario(self, capsys, small_paths):
        scenario, _ = small_paths
        assert main(["validate-scenario", str(scenario)]) == 0
        assert main(["validate-scenario", str(DATA["reference_world.json"])]) == 0

    @pytest.mark.parametrize("doc, message", [
        ({"providers": [], "zones": {"a.com": "x"}}, "zone 'a.com' must be a JSON object, not str"),
        ({"providers": [], "zones": []}, "section 'zones' must be a JSON object, not list"),
        ({"providers": [], "origins": []}, "section 'origins' must be a JSON object, not list"),
        ({"providers": [], "discontinued_hosts": []}, "section 'discontinued_hosts' must be a JSON object, not list"),
        ({"providers": [], "origins": {"192.0.2.1": "x"}}, "origin '192.0.2.1' must be a JSON object, not str"),
        ({"providers": [], "discontinued_hosts": {"a.com": ["Fastly"]}},
         "discontinued host 'a.com' must be a JSON object, not list"),
        ({"providers": [{"name": "Fastly", "ingress_ips": [["192.0.2.1", "x"]], "host_table": ["a.com"]}]},
         "a host_table item of 'Fastly' must be a JSON object, not str"),
        ({"providers": [], "origins": {"192.0.2.1": {"body": 5}}}, "origin '192.0.2.1' body must be a string, not int"),
        ({"providers": [], "origins": {"192.0.2.1": {"body": "x", "per_host": {"a.com": None}}}},
         "origin '192.0.2.1' per_host 'a.com' must be a string, not NoneType"),
        ({"providers": [], "seed": "abc"}, "invalid literal for int()"),
    ], ids=["zone-entry-string", "zones-list", "origins-list", "discontinued-list", "origin-entry-string",
            "discontinued-entry-list", "host-table-item-string", "origin-body-int", "per-host-value-null",
            "seed-text"])
    def test_scenario_of_wrong_json_types_is_config_error(self, small_paths, tmp_path, capsys, doc, message):
        # these once escaped as AttributeError or ValueError (a traceback;
        # from ``scan``, exit 1, which reads as "findings present") or
        # exited 2 with a message that did not name the entry
        _, targets = small_paths
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["validate-scenario", str(path)]) == 2
        assert main(["scan", "--targets", str(targets), "--scenario", str(path)]) == 2
        assert capsys.readouterr().err.count(message) == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["discontinued_hosts"]["legacy.edgenext-retired.net"].pop("origin_ip"),
         "discontinued host legacy.edgenext-retired.net: EdgeNext's single_a_record fingerprint needs an origin_ip"),
        (lambda doc: doc["providers"][1]["ingress_ips"].append(["10.1.0.1", "frankfurt"]),
         "ingress IP 10.1.0.1 held twice: by Akamai and by Alibaba"),
        (lambda doc: doc["origins"].update({"10.1.0.1": {"body": "an origin at an edge address"}}),
         "ingress IP 10.1.0.1 of Akamai is also an origin IP"),
        (lambda doc: doc["providers"].append({"name": "Akamai", "ingress_ips": [["10.250.0.1", "paris"]]}),
         "duplicate scenario provider Akamai"),
        (lambda doc: doc["providers"][0]["host_table"].append({"host": "www.no-origin.org", "origin_ip": "10.250.0.2"}),
         "Akamai: host www.no-origin.org origin 10.250.0.2 not in origins"),
        (lambda doc: doc["discontinued_hosts"].update({"gone.example.org": {"provider": "NoSuchCDN"}}),
         "discontinued host gone.example.org: unknown provider NoSuchCDN"),
        # the name table is built before the world is known to be valid:
        # a dangling target's provider may be missing from the DB or the world
        (lambda doc: doc["discontinued_hosts"]["legacy.fastly-retired.net"].update(provider="NoSuchCDN"),
         "discontinued host legacy.fastly-retired.net: unknown provider NoSuchCDN"),
        (lambda doc: doc["providers"].remove(next(prov for prov in doc["providers"] if prov["name"] == "Fastly")),
         "discontinued host legacy.fastly-retired.net: unknown provider Fastly"),
        (set_zone("www.lost.example.org", cname="nowhere.lost.example.org"),
         "zone www.lost.example.org: cname target nowhere.lost.example.org is unresolvable and not marked external"),
        # a provider's suffix makes no name exist: DNS would answer NXDOMAIN,
        # a dangling read of a host the world does not list as discontinued
        (set_zone("orphan.example.com", cname="cdn-unheld.fastly.net"),
         "zone orphan.example.com: cname target cdn-unheld.fastly.net is unresolvable and not marked external"),
        (lambda doc: doc.update(attacker_origin_ip="10.250.0.3"), "attacker origin 10.250.0.3 not in origins"),
    ], ids=["residual-origin-missing", "ingress-held-twice", "ingress-is-origin", "provider-twice",
            "host-origin-missing", "discontinued-provider-unknown", "dangling-provider-unknown",
            "dangling-provider-not-in-world", "cname-unresolvable",
            "cname-unheld-under-provider-suffix", "attacker-origin-missing"])
    def test_scenario_that_would_abort_the_scan_is_config_error(self, tmp_path, capsys, edit, message):
        # each edit gives one problem, which both commands name. The first
        # three once passed validate-scenario ("ok") and then aborted the
        # scan: a ScenarioError traceback mid-crawl, or exit 1 from the
        # SimulatedInternet constructor, which reads as "findings present"
        doc = json.loads(DATA["reference_world.json"].read_text(encoding="utf-8"))
        edit(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate-scenario", str(path)]) == 2
        targets = DATA["reference_world_targets.txt"]
        assert main(["scan", "--targets", str(targets), "--scenario", str(path), "--seed", "7"]) == 2
        err = capsys.readouterr().err
        assert err.count(message) == 2
        assert len(err.splitlines()) == 2  # one line from each command

    def test_scenario_that_is_not_utf8_is_config_error(self, small_paths, tmp_path, capsys):
        _, targets = small_paths
        path = tmp_path / "scenario.json"
        path.write_bytes('{"providers": [], "zones": {"café.com": {}}}'.encode("latin-1"))
        assert main(["validate-scenario", str(path)]) == 2
        assert main(["scan", "--targets", str(targets), "--scenario", str(path)]) == 2
        assert capsys.readouterr().err.count("not valid UTF-8 JSON") == 2

    def test_each_input_is_read_once_and_hashed_as_read(self, small_paths, monkeypatch):
        import io
        from collections import Counter

        from dvahunter.scan import run_scan_with_context

        scenario, targets = small_paths
        config = scan_config(targets, scenario)
        inputs = {
            "targets": config.targets, "provider_db_sha1": config.providers, "dictionary_sha1": config.dictionary,
            "suffix_file_sha1": config.suffixes, "scenario_sha1": config.scenario,
        }
        reads: Counter[str] = Counter()
        real_open = io.open

        def counting_open(file, mode="r", *args, **kwargs):
            if "r" in mode:
                reads[os.path.realpath(file)] += 1
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr("builtins.open", counting_open)
        ctx = run_scan_with_context(config)
        monkeypatch.undo()
        assert {os.path.realpath(path): reads[os.path.realpath(path)] for path in inputs.values()} == {
            os.path.realpath(path): 1 for path in inputs.values()
        }
        for key, path in inputs.items():
            if key != "targets":
                assert ctx.report.meta[key] == hashlib.sha1(Path(path).read_bytes()).hexdigest(), key

    def test_diff_cli(self, small_paths, tmp_path, capsys):
        scenario, targets = small_paths
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["scan", "--targets", str(targets), "--scenario", str(scenario), "--seed", "7", "--out", str(a)])
        main(["scan", "--targets", str(targets), "--scenario", str(scenario), "--seed", "7", "--out", str(b)])
        capsys.readouterr()  # drain the scan summaries
        assert main(["diff", str(a), str(b)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["empty"] is True

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"schema": "dvahunter-report/1", "meta": [1]},
        {"schema": "dvahunter-report/1", "providers": "x"},
        {"schema": "dvahunter-report/1", "domains": 5},
        {"schema": "dvahunter-report/1", "counters": None},
        {"schema": "dvahunter-report/1", "domains": {"a.com": "x"}},
        {"schema": "dvahunter-report/1", "providers": {"X": [1]}},
        {"schema": "dvahunter-report/1", "providers": {"X": {"fronting": 5}}},
        {"schema": "dvahunter-report/0"},
    ], ids=["top-level-list", "meta-list", "providers-string", "domains-int", "counters-null",
            "domain-entry-string", "provider-section-list", "category-entry-int", "other-schema"])
    def test_diff_of_a_report_that_is_not_an_object_is_config_error(self, small_paths, tmp_path, capsys, doc):
        # these once raised AttributeError: a traceback and exit 1, which
        # reads as "changes found"
        scenario, targets = small_paths
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        main(["scan", "--targets", str(targets), "--scenario", str(scenario), "--seed", "7", "--out", str(good)])
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            ScanReport.from_json(doc)
        assert main(["diff", str(good), str(bad)]) == 2
        assert main(["diff", str(bad), str(good)]) == 2
        assert main(["diff", str(bad), str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_scan_rejects_unknown_mode_at_parse(self, small_paths):
        _, targets = small_paths
        with pytest.raises(SystemExit):
            main(["scan", "--targets", str(targets), "--mode", "everything"])


class TestPresetDrift:
    def test_committed_preset_matches_regeneration(self, db):
        world = build_reference_world(db)
        regenerated = scenario_to_json(world.scenario)
        committed = json.loads(DATA["reference_world.json"].read_text(encoding="utf-8"))
        assert committed == regenerated
        committed_targets = [
            line for line in DATA["reference_world_targets.txt"].read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert committed_targets == world.targets


class TestHashSeed:
    @pytest.mark.parametrize("hash_seed", ["1", "2"])
    def test_reference_report_does_not_depend_on_hash_seed(self, tmp_path, hash_seed):
        # str hashes are seeded once per interpreter, so each hash seed needs its own process
        out = tmp_path / "report.json"
        src = str(Path(dvahunter.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "dvahunter.cli", "scan",
             "--targets", str(DATA["reference_world_targets.txt"]),
             "--scenario", str(DATA["reference_world.json"]),
             "--backend", "mock", "--mode", "all", "--seed", "7", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode in (0, 1), proc.stderr
        assert hashlib.sha1(out.read_bytes()).hexdigest() == REFERENCE_REPORT_SHA1
