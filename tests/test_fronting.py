import json
from collections import Counter
from dataclasses import replace

import pytest

from dvahunter.core import (
    Evidence,
    HttpProbe,
    HttpResponseSummary,
    Scheme,
    TransportFailure,
    Verdict,
    VerdictKind,
    derive_rng,
    parse_fqdn,
    sha1_body,
)
from dvahunter.fronting import (
    FrontingTuple,
    HarvestedUrl,
    InsufficientDomains,
    RootFetchFailed,
    UrlKind,
    _same_domain_path,
    generate_tuples,
    harvest_urls,
    judge_provider,
    judge_tuple,
    judge_via_edges,
    run_tuple,
)
from dvahunter.simnet import (
    BorrowingPolicy,
    FrontingPolicy,
    HostEntry,
    Origin,
    Scenario,
    ScenarioProvider,
    SimulatedInternet,
    VerificationMode,
    ZoneRecord,
    scenario_to_json,
)
from dvahunter.scan import run_scan_with_context
from dvahunter.transport import MockTransport
from dvahunter.worlds import build_budget_world
from tests.conftest import DATA, edited_reference_scan, scan_config, write_world


def fastly_world(db, n_assets_a=3, dynamic_asset=False, n_domains=2, page=None):
    """Hosted sites on a fronting-vulnerable provider for harvest tests.
    ``page``, when given, is the first site's body."""
    hosts = [f"www.front-site-{chr(ord('a') + i)}.com" for i in range(n_domains)]
    ip = "198.18.7.1"
    host_table = []
    zones = {}
    origins = {}
    for i, host in enumerate(hosts):
        origin_ip = f"198.18.7.{100 + i}"
        if i == 0:
            assets = "".join(f'<img src="/img/pic-{k}.png">' for k in range(n_assets_a - 2))
            assets += '<script src="/js/app.js"></script><link href="/css/site.css" rel="stylesheet">'
            if dynamic_asset:
                assets += '<img src="/img/rotating.png">'
            body = page or f"<html><head></head><body><h1>{host}</h1>{assets}</body></html>".encode()
        else:
            body = f"<html><body><h1>{host}</h1><img src=\"/img/logo.png\"></body></html>".encode()
        origins[origin_ip] = Origin(body=body, dynamic=False)
        zones[host] = ZoneRecord(cname=f"cdn-{i}.fastly.net")
        zones[f"cdn-{i}.fastly.net"] = ZoneRecord(a=(ip,))
        host_table.append(HostEntry(host=host, origin_ip=origin_ip))
    if dynamic_asset:
        # the rotating asset lives on a separate dynamic origin is overkill;
        # flip the first origin to dynamic for the instability case instead
        origins[f"198.18.7.100"] = Origin(body=origins["198.18.7.100"].body, dynamic=True)
    prov = ScenarioProvider(
        name="Fastly",
        ingress_ips=((ip, "frankfurt"),),
        fronting_policy=FrontingPolicy.ROUTE_BY_HOST_IGNORING_SNI,
        borrowing_policy=BorrowingPolicy.SERVE_ANY_REGISTERED_HOST,
        verification_mode=VerificationMode.NONE,
        host_table=tuple(host_table),
        shared_cert_name="default.fastly.ssl.net",
        server_header="fastly-edge",
    )
    scenario = Scenario(providers=[prov], zones=zones, origins=origins)
    return SimulatedInternet(scenario, db), ip, hosts


class TestHarvest:
    def test_three_stable_assets_harvested(self, db):
        net, ip, hosts = fastly_world(db, n_assets_a=3)
        transport = MockTransport(net, record=True)
        urls = harvest_urls(parse_fqdn(hosts[0]), ip, transport)
        assert len(urls) == 3
        assert {u.kind for u in urls} == {UrlKind.IMAGE, UrlKind.SCRIPT, UrlKind.STYLESHEET}
        assert all(u.stability_hash for u in urls)
        # the transport holds the first of each URL's two matching answers
        held = {HttpProbe.request(ip, Scheme.HTTPS, u.domain, u.path): u.stability_hash for u in urls}
        assert {probe: answer.body_hash for probe, answer in transport.held.items()} == held
        assert all(answer.ok for answer in transport.held.values())
        assert transport.held == verified_pairs(transport.probe_log)

    def test_dynamic_origin_assets_excluded(self, db):
        # the dynamic origin churns every body per fetch, so no asset
        # survives the two-fetch stability gate
        net, ip, hosts = fastly_world(db, n_assets_a=3, dynamic_asset=True)
        urls = harvest_urls(parse_fqdn(hosts[0]), ip, MockTransport(net))
        assert urls == []

    def test_thirty_assets_stop_at_the_cap(self, db):
        # the first batch of ten is all stable, so the other twenty assets
        # are never fetched: 1 + 2 x 10 probes instead of 1 + 2 x 30
        net, ip, hosts = fastly_world(db, n_assets_a=30)
        transport = MockTransport(net, record=True)
        urls = harvest_urls(parse_fqdn(hosts[0]), ip, transport, seed=5)
        assert len(urls) == 10
        assert [u.path for u in urls] == sorted(u.path for u in urls)
        assert len(transport.probe_log) == 1 + 2 * 10

    def test_dynamic_origin_tries_every_candidate(self, db):
        # no candidate is stable, so the batches go on until none is left
        net, ip, hosts = fastly_world(db, n_assets_a=30, dynamic_asset=True)
        transport = MockTransport(net, record=True)
        assert harvest_urls(parse_fqdn(hosts[0]), ip, transport, limit=3) == []
        fetched = [entry.probe.path for entry in transport.probe_log[1:]]
        assert len(fetched) == 2 * 31
        assert len(set(fetched)) == 31

    def test_unstable_candidates_are_replaced_until_the_cap(self, db):
        # seven good assets and five that answer 404: the batches go on
        # past the failures until ``limit`` good ones are kept
        refs = [f"/img/good-{k}.png" for k in range(7)] + [f"/img/gone-{k}.png" for k in range(5)]
        page = ("<html><body>" + "".join(f'<img src="{r}">' for r in refs) + "</body></html>").encode()
        net, ip, hosts = fastly_world(db, page=page)

        class GoneAssets(MockTransport):
            def probe_batch(self, target_ip, scheme, requests):
                answers = super().probe_batch(target_ip, scheme, requests)
                return [HttpResponseSummary.from_body(404, b"gone") if "gone" in path else answer
                        for (_host, path), answer in zip(requests, answers)]

        for seed in range(5):
            urls = harvest_urls(parse_fqdn(hosts[0]), ip, GoneAssets(net), seed=seed, limit=5)
            assert len(urls) == 5
            assert all("good" in u.path for u in urls)
            assert [u.path for u in urls] == sorted(u.path for u in urls)

    def test_thirty_assets_truncate_to_ten_seeded(self, db):
        net, ip, hosts = fastly_world(db, n_assets_a=30)
        first = harvest_urls(parse_fqdn(hosts[0]), ip, MockTransport(net), seed=5)
        net2, _, _ = fastly_world(db, n_assets_a=30)
        second = harvest_urls(parse_fqdn(hosts[0]), ip, MockTransport(net2), seed=5)
        assert len(first) == 10
        assert [u.path for u in first] == [u.path for u in second]

    @pytest.mark.parametrize("ref", [
        "/x&#13;&#10;X-Evil: 1.png",
        "/a b.png",
        "/\u00e9.png",
        "/b.png?v=2#top",
        "//[bad/c.png",
        "https://www.front-site-a.com/x&#13;&#10;.png",
        "https://www.front-site-a.com/x&#9;.png",
        "https://www.front-site-a.com/x.png#top",
        "https://www.front-site-a.com:8443/x.png",
        "//www.front-site-a.com:443/x.png",
        "//www.front-site-a.com:bad/x.png",
    ], ids=["crlf", "space", "non-ascii", "fragment", "unparsable", "absolute-crlf", "absolute-tab",
            "absolute-fragment", "port", "default-port", "bad-port"])
    def test_paths_unfit_for_a_request_line_are_dropped(self, db, ref):
        # the scanner unescapes entities, so a page can hand the harvest a
        # CR LF (a header line injected into the live request), a space (a
        # broken request line) or a non-ASCII character (a request the
        # live backend cannot encode); a fragment is never sent, and an
        # unclosed "[" makes the URL unparsable. An absolute reference is
        # checked before urlsplit, which drops a tab, CR or LF unseen, and
        # one that gives a port names a URL the https harvest does not fetch
        page = f'<html><body><img src="{ref}"><img src="/img/logo.png"></body></html>'.encode()
        net, ip, hosts = fastly_world(db, page=page)
        transport = MockTransport(net, record=True)
        urls = harvest_urls(parse_fqdn(hosts[0]), ip, transport)
        assert [u.path for u in urls] == ["/img/logo.png"]
        assert [entry.probe.path for entry in transport.probe_log] == ["/", "/img/logo.png", "/img/logo.png"]

    def test_absolute_and_relative_references_keep_the_query(self, db):
        # both name the same URL, so both harvest the same request path
        page = (b'<html><body><script src="https://www.front-site-a.com/x.js?v=2"></script>'
                b'<script src="/x.js?v=2"></script></body></html>')
        net, ip, hosts = fastly_world(db, page=page)
        transport = MockTransport(net, record=True)
        urls = harvest_urls(parse_fqdn(hosts[0]), ip, transport)
        assert [u.path for u in urls] == ["/x.js?v=2"]
        assert [entry.probe.path for entry in transport.probe_log] == ["/", "/x.js?v=2", "/x.js?v=2"]

    @pytest.mark.parametrize("ref, path", [
        ("/img/logo.png", "/img/logo.png"),
        ("img/logo.png", "/img/logo.png"),
        ("./img:logo.png", "/img:logo.png"),
        ("https://www.front-site-a.com/img/logo.png", "/img/logo.png"),
        ("HTTPS://WWW.Front-Site-A.com/img/logo.png", "/img/logo.png"),
        ("//www.front-site-a.com/img/logo.png", "/img/logo.png"),
        ("http://www.front-site-a.com/x.png", None),
        ("ftp://www.front-site-a.com/x.png", None),
        ("data:image/png;base64,AAAA.png", None),
        ("mailto:x@y.png", None),
        ("javascript:void(0).png", None),
        ("img:logo.png", None),
        ("https:/x.png", None),
        ("https:x.png", None),
        ("https://www.other-site.com/x.png", None),
    ], ids=["absolute-path", "relative-path", "colon-after-dot-segment", "https", "https-any-case",
            "scheme-relative", "http", "ftp", "data", "mailto", "javascript", "scheme-like-segment",
            "https-no-authority", "https-relative", "other-host"])
    def test_any_scheme_makes_a_reference_absolute(self, ref, path):
        # RFC 3986 section 4.3: a "scheme:" prefix makes the reference
        # absolute; only https (or scheme-relative) URLs on the domain are
        # what the https harvest fetches. At one time a reference counted
        # as absolute only with "://", so http://…/x.png was fetched over
        # https as /x.png and data: or mailto: became relative paths
        assert _same_domain_path(ref, parse_fqdn("www.front-site-a.com")) == path

    def test_references_of_other_schemes_are_not_fetched(self, db):
        page = (b'<html><body><img src="http://www.front-site-a.com/x.png">'
                b'<img src="data:image/png;base64,AAAA.png"><img src="mailto:x@y.png">'
                b'<img src="/img/logo.png"></body></html>')
        net, ip, hosts = fastly_world(db, page=page)
        transport = MockTransport(net, record=True)
        urls = harvest_urls(parse_fqdn(hosts[0]), ip, transport)
        assert [u.path for u in urls] == ["/img/logo.png"]
        assert [entry.probe.path for entry in transport.probe_log] == ["/", "/img/logo.png", "/img/logo.png"]

    def test_dot_segments_are_removed(self, db):
        # RFC 3986 section 5.2.4: all four name /img/logo.png, so it is
        # fetched once as that path, and ".." never climbs above "/"
        page = (b'<html><body><img src="../img/logo.png"><img src="./a/../img/logo.png">'
                b'<img src="https://www.front-site-a.com/img/./x/../logo.png"><img src="/img/logo.png">'
                b'</body></html>')
        net, ip, hosts = fastly_world(db, page=page)
        transport = MockTransport(net, record=True)
        urls = harvest_urls(parse_fqdn(hosts[0]), ip, transport)
        assert [u.path for u in urls] == ["/img/logo.png"]
        assert [entry.probe.path for entry in transport.probe_log] == ["/", "/img/logo.png", "/img/logo.png"]

    def test_markup_that_html_parser_refused_is_read(self, db):
        # html.parser (Python 3.11.7) raised AssertionError on "<![" with an
        # unknown keyword; the scanner reads it as a bogus comment to ">"
        page = b'<html><body><![if-x <b>]><img src="/img/logo.png"></body></html>'
        net, ip, hosts = fastly_world(db, page=page)
        urls = harvest_urls(parse_fqdn(hosts[0]), ip, MockTransport(net))
        assert [u.path for u in urls] == ["/img/logo.png"]

    def test_unreachable_root_raises(self, db):
        net, ip, hosts = fastly_world(db)
        with pytest.raises(RootFetchFailed):
            harvest_urls(parse_fqdn("unknown-host.example.org"), ip, MockTransport(net))


def make_url(domain, path="/img/logo.png"):
    return HarvestedUrl(domain=parse_fqdn(domain), path=path, kind=UrlKind.IMAGE, stability_hash=sha1_body(b"x"))


class TestGenerateTuples:
    def test_two_domains_one_url_single_pair(self, db):
        # the first site's page references no asset, so it can only front
        net, ip, hosts = fastly_world(db, page=b"<html><body>no assets</body></html>")
        tuples = generate_tuples("Fastly", [parse_fqdn(h) for h in hosts], ip, MockTransport(net), seed=1)
        assert [(str(t.fd), str(t.td)) for t in tuples] == [(hosts[0], hosts[1])]

    def test_fifteen_domains_at_most_ten_participate(self, db):
        net, ip, hosts = fastly_world(db, n_domains=15)
        domains = [parse_fqdn(h) for h in hosts]
        transport = MockTransport(net, record=True)
        tuples = generate_tuples("Fastly", list(reversed(domains)), ip, transport, seed=1)
        assert len(tuples) == 10
        assert len({(t.fd, t.td) for t in tuples}) == 10
        # the ten are a seeded draw over the domains in name order, whatever their order given
        drawn = set(derive_rng(1, "fronting-domains", "Fastly").sample(sorted(domains, key=str), 10))
        assert {t.fd for t in tuples} | {t.td for t in tuples} <= drawn
        assert {e.probe.host_header for e in transport.probe_log} <= drawn

    def test_single_domain_insufficient(self):
        # refused before any harvest, so no transport is needed
        with pytest.raises(InsufficientDomains, match="1 usable domain"):
            generate_tuples("Fastly", [parse_fqdn("a.com")], "1.2.3.4", None)

    def test_no_target_with_urls_insufficient(self, db):
        net, ip, _hosts = fastly_world(db)
        domains = [parse_fqdn("unknown-a.example.org"), parse_fqdn("unknown-b.example.org")]
        with pytest.raises(InsufficientDomains, match="no pair with a harvested URL"):
            generate_tuples("Fastly", domains, ip, MockTransport(net))

    def test_only_targets_are_harvested_for_their_draws(self, db):
        # at seed 4 the 30-asset site is a target three times and the
        # fourth site only ever fronts
        net, ip, hosts = fastly_world(db, n_assets_a=30, n_domains=5)
        transport = MockTransport(net, record=True)
        tuples = generate_tuples("Fastly", [parse_fqdn(h) for h in hosts], ip, transport, seed=4)
        targets = [str(t.td) for t in tuples]
        fronts_only = {str(t.fd) for t in tuples} - set(targets)
        assert targets.count(hosts[0]) == 3 and fronts_only == {hosts[3]}
        roots = [str(e.probe.host_header) for e in transport.probe_log if e.probe.path == "/"]
        assert sorted(roots) == sorted(set(targets))
        fetched = [e.probe.path for e in transport.probe_log if str(e.probe.host_header) == hosts[0]]
        assert len(fetched) == 1 + 2 * 3
        # each draw of the 30-asset site gets its own URL
        assert len({t.ut.path for t in tuples if str(t.td) == hosts[0]}) == 3

    def test_target_drawn_more_often_than_its_urls_reuses_them(self, db):
        # three sites give six pairs; the one-asset sites are each drawn
        # twice, the three-asset site twice with two different URLs
        net, ip, hosts = fastly_world(db, n_assets_a=3, n_domains=3)
        tuples = generate_tuples("Fastly", [parse_fqdn(h) for h in hosts], ip, MockTransport(net), seed=1)
        assert len(tuples) == 6
        paths = {h: [t.ut.path for t in tuples if str(t.td) == h] for h in hosts}
        assert len(set(paths[hosts[0]])) == 2
        assert paths[hosts[1]] == paths[hosts[2]] == ["/img/logo.png"] * 2

    def test_tuple_invariants(self):
        with pytest.raises(ValueError):
            FrontingTuple(fd=parse_fqdn("a.com"), td=parse_fqdn("a.com"),
                          ut=make_url("a.com"), ingress_ip="1.2.3.4")
        with pytest.raises(ValueError):
            FrontingTuple(fd=parse_fqdn("b.com"), td=parse_fqdn("a.com"),
                          ut=make_url("c.com"), ingress_ip="1.2.3.4")


def response(status=200, body=b"A", failure=None):
    if failure:
        return HttpResponseSummary.failed(failure)
    return HttpResponseSummary.from_body(status, body)


def executed_tuple(rt, rv, rf):
    item = FrontingTuple(fd=parse_fqdn("front.com"), td=parse_fqdn("target.com"),
                         ut=make_url("target.com"), ingress_ip="1.2.3.4")
    return replace(item, rt=rt, rv=rv, rf=rf)


def verified_pairs(log):
    """The first answer of each request the harvest verified, by probe:
    two fetches in a row, equal body hashes, a clean 2xx."""
    return {
        a.probe: a.response for a, b in zip(log, log[1:])
        if a.probe == b.probe and a.response.failure is None and a.response.ok
        and a.response.body_hash == b.response.body_hash
    }


def steps(probe_log):
    return [(str(e.probe.sni), str(e.probe.host_header)) for e in probe_log]


def rt_rv_rf_probes(item):
    """The probes of a tuple's three steps, in the order they are sent."""
    def step(sni, host):
        return HttpProbe(target_ip=item.ingress_ip, scheme=Scheme.HTTPS, host_header=host, sni=sni, path=item.ut.path)

    return {"rt": step(item.td, item.td), "rv": step(item.fd, item.td), "rf": step(item.fd, item.fd)}


class TestHeldAnswers:
    """A step whose answer the transport holds is not asked again. After
    generate_tuples the transport holds each tuple's rt, and its rf when
    the harvest verified the front's own URL of the same path."""

    @pytest.mark.parametrize("held", [(), ("rt",), ("rt", "rf")], ids=["nothing", "rt", "rt-and-rf"])
    def test_run_tuple_sends_only_the_missing_steps_in_order(self, db, held):
        net, ip, hosts = fastly_world(db)
        fd, td = parse_fqdn(hosts[0]), parse_fqdn(hosts[1])
        item = FrontingTuple(fd=fd, td=td, ut=make_url(hosts[1]), ingress_ip=ip)
        full = run_tuple(item, MockTransport(net))
        # an answer the world would not give shows that the held one is kept
        sentinel = HttpResponseSummary.from_body(200, b"held")
        transport = MockTransport(net, record=True)
        probes = rt_rv_rf_probes(item)
        for name in held:
            transport.hold(probes[name], sentinel)
        ran = run_tuple(item, transport)
        order = {"rt": (hosts[1], hosts[1]), "rv": (hosts[0], hosts[1]), "rf": (hosts[0], hosts[0])}
        assert steps(transport.probe_log) == [order[name] for name in ("rt", "rv", "rf") if name not in held]
        assert {(e.probe.target_ip, e.probe.path) for e in transport.probe_log} == {(ip, "/img/logo.png")}
        for name in ("rt", "rv", "rf"):
            assert getattr(ran, name) == (sentinel if name in held else getattr(full, name))

    def test_rv_is_sent_even_when_held(self, db):
        # rt and rf held, as generate_tuples leaves them: the fronting
        # attempt still goes out, since no held answer has SNI != Host
        net, ip, hosts = fastly_world(db, n_assets_a=3, n_domains=3)
        transport = MockTransport(net, record=True)
        tuples = generate_tuples("Fastly", [parse_fqdn(h) for h in hosts], ip, transport, seed=1)
        assert transport.held and all(probe.sni == probe.host_header for probe in transport.held)
        for t in tuples:
            probes = rt_rv_rf_probes(t)
            sent = len(transport.probe_log)
            ran = run_tuple(t, transport)
            log = transport.probe_log[sent:]
            assert log[0].probe == probes["rv"] and ran.rv == log[0].response
            assert [e.probe for e in log[1:]] == ([] if probes["rf"] in transport.held else [probes["rf"]])

    def test_generate_tuples_holds_rt_and_rf_exactly_where_the_harvest_verified_them(self, db):
        # the two one-asset sites share "/img/logo.png", so a tuple whose
        # front is one of them finds the front's URL verified; the
        # three-asset site has no such path
        net, ip, hosts = fastly_world(db, n_assets_a=3, n_domains=3)
        transport = MockTransport(net, record=True)
        tuples = generate_tuples("Fastly", [parse_fqdn(h) for h in hosts], ip, transport, seed=1)
        verified = verified_pairs(transport.probe_log)
        assert transport.held == verified
        assert len(tuples) == 6
        for t in tuples:
            probes = rt_rv_rf_probes(t)
            assert probes["rt"] in verified
            assert (t.rt, t.rv, t.rf) == (None, None, None)
        assert {rt_rv_rf_probes(t)["rf"] in verified for t in tuples} == {True, False}
        # a held answer is the one the step would get
        for t in tuples:
            ran, unheld = run_tuple(t, transport), run_tuple(t, MockTransport(net))
            assert (ran.rt, ran.rv, ran.rf) == (unheld.rt, unheld.rv, unheld.rf)
            assert ran.rt is verified[rt_rv_rf_probes(t)["rt"]]

    def test_a_dynamic_origin_lends_nothing(self, db):
        # the dynamic first site references the path the others serve, so
        # it is harvested for it, but its two fetches never match
        page = b'<html><body><img src="/img/logo.png"></body></html>'
        net, ip, hosts = fastly_world(db, n_domains=3, page=page, dynamic_asset=True)
        transport = MockTransport(net, record=True)
        tuples = generate_tuples("Fastly", [parse_fqdn(h) for h in hosts], ip, transport, seed=1)
        dynamic = parse_fqdn(hosts[0])
        harvested = [e for e in transport.probe_log if e.probe.host_header == dynamic and e.probe.path != "/"]
        assert len(harvested) == 2 and harvested[0].response != harvested[1].response
        assert all(t.td != dynamic for t in tuples)
        fronted = [t for t in tuples if t.fd == dynamic]
        assert fronted and all(rt_rv_rf_probes(t)["rf"] not in transport.held for t in fronted)
        for t in fronted:
            rf = run_tuple(t, transport).rf
            assert rf.body_hash not in {e.response.body_hash for e in harvested}

    @pytest.mark.parametrize("answer", [
        HttpResponseSummary.from_body(404, b"gone"),
        HttpResponseSummary.failed(TransportFailure.TIMEOUT),
    ], ids=["404", "timeout"])
    def test_a_failed_or_non_2xx_harvest_answer_is_never_held(self, db, answer):
        # the second site's asset answers the same both times, but not
        # with a clean 2xx: it is no URL, so no tuple holds that answer
        net, ip, hosts = fastly_world(db, n_assets_a=3, n_domains=3)
        broken = parse_fqdn(hosts[1])

        class BrokenAsset(MockTransport):
            def probe_batch(self, target_ip, scheme, requests):
                answers = super().probe_batch(target_ip, scheme, requests)
                return [answer if host == broken else got for (host, _path), got in zip(requests, answers)]

        transport = BrokenAsset(net)
        tuples = generate_tuples("Fastly", [parse_fqdn(h) for h in hosts], ip, transport, seed=1)
        assert all(t.td != broken for t in tuples)
        assert any(t.fd == broken and t.ut.path == "/img/logo.png" for t in tuples)
        assert transport.held and answer not in transport.held.values()
        assert all(probe.host_header != broken for probe in transport.held)


class TestJudgeTuple:
    def test_vulnerable_when_rv_matches_and_rf_404(self):
        verdict = judge_tuple(executed_tuple(response(200, b"A"), response(200, b"A"), response(404, b"nf")))
        assert verdict.kind is VerdictKind.VULNERABLE

    def test_not_vulnerable_on_421(self):
        verdict = judge_tuple(executed_tuple(response(200, b"A"), response(421, b"mis"), response(200, b"F")))
        assert verdict.kind is VerdictKind.NOT_VULNERABLE

    def test_inconclusive_on_rt_timeout(self):
        verdict = judge_tuple(executed_tuple(response(failure=TransportFailure.TIMEOUT),
                                             response(200, b"A"), response(404, b"nf")))
        assert verdict.kind is VerdictKind.INCONCLUSIVE

    def test_never_vulnerable_with_any_failure(self):
        for slot in range(3):
            parts = [response(200, b"A"), response(200, b"A"), response(404, b"nf")]
            parts[slot] = response(failure=TransportFailure.CONNECT_REFUSED)
            assert judge_tuple(executed_tuple(*parts)).kind is VerdictKind.INCONCLUSIVE

    def test_front_serving_same_object_invalidates(self):
        verdict = judge_tuple(executed_tuple(response(200, b"A"), response(200, b"A"), response(200, b"A")))
        assert verdict.kind is VerdictKind.INCONCLUSIVE

    def test_empty_front_body_is_a_control_even_when_rt_is_empty(self):
        empty = response(200, b"")
        verdict = judge_tuple(executed_tuple(empty, empty, empty))
        assert verdict.kind is VerdictKind.VULNERABLE
        assert verdict.evidence[-1].detail == "rf body empty"


class TestJudgeProvider:
    def test_vulnerable_with_inconclusive_noise(self):
        verdicts = [
            judge_tuple(executed_tuple(response(200, b"A"), response(200, b"A"), response(404, b"n"))),
            judge_tuple(executed_tuple(response(200, b"A"), response(200, b"A"), response(404, b"n"))),
            judge_tuple(executed_tuple(response(failure=TransportFailure.TIMEOUT), response(200, b"A"), response(404, b"n"))),
        ]
        assert judge_provider(verdicts).kind is VerdictKind.VULNERABLE

    def test_mixed_results_inconclusive_and_flagged(self):
        verdicts = [
            judge_tuple(executed_tuple(response(200, b"A"), response(200, b"A"), response(404, b"n"))),
            judge_tuple(executed_tuple(response(200, b"A"), response(421, b"m"), response(200, b"F"))),
        ]
        verdict = judge_provider(verdicts)
        assert verdict.kind is VerdictKind.INCONCLUSIVE
        assert any(e.kind == "mixed-results" for e in verdict.evidence)

    def test_empty_is_inconclusive(self):
        assert judge_provider([]).kind is VerdictKind.INCONCLUSIVE


class TestJudgeViaEdges:
    @staticmethod
    def direct(kind):
        return Verdict(kind, (Evidence("fronting", "direct"),))

    def test_one_vulnerable_carrier_is_enough(self):
        verdict = judge_via_edges([("A", self.direct(VerdictKind.NOT_VULNERABLE)),
                                   ("B", self.direct(VerdictKind.VULNERABLE))])
        assert verdict.kind is VerdictKind.VULNERABLE
        assert verdict.evidence[0].detail == (
            "vulnerable through shared infrastructure: A:not_vulnerable, B:vulnerable"
        )

    def test_not_vulnerable_needs_every_carrier_not_vulnerable(self):
        clean = self.direct(VerdictKind.NOT_VULNERABLE)
        assert judge_via_edges([("A", clean), ("B", clean)]).kind is VerdictKind.NOT_VULNERABLE
        undecided = judge_via_edges([("A", clean), ("B", self.direct(VerdictKind.INCONCLUSIVE))])
        assert undecided.kind is VerdictKind.INCONCLUSIVE
        assert undecided.evidence[0].detail == "shared-infrastructure verdicts undetermined"

    def test_no_carrier_is_inconclusive(self):
        assert judge_via_edges([]).kind is VerdictKind.INCONCLUSIVE


class TestEndToEnd:
    def test_vulnerable_provider_full_protocol(self, db):
        net, ip, hosts = fastly_world(db)
        transport = MockTransport(net)
        tuples = generate_tuples("Fastly", [parse_fqdn(h) for h in hosts], ip, transport, seed=2)
        verdicts = [judge_tuple(run_tuple(t, transport)) for t in tuples]
        assert judge_provider(verdicts).kind is VerdictKind.VULNERABLE
        ran = [t for t in (run_tuple(t, transport) for t in tuples)]
        for t in ran:
            assert t.rt.body_hash == t.rv.body_hash
            assert t.rf.body_hash != t.rt.body_hash

    def test_scan_never_harvests_a_front_only_domain(self, db, tmp_path):
        world = build_budget_world(db)
        scenario_path, targets_path = write_world(tmp_path, world)
        ctx = run_scan_with_context(scan_config(targets_path, scenario_path, mode="fronting", record_probes=True))
        probes = [entry.probe for entry in ctx.transport.probe_log if entry.probe.sni is not None]
        # the fronting attempt rv is the one probe whose SNI is not its Host
        attempts = [(str(p.sni), str(p.host_header)) for p in probes if p.sni != p.host_header]
        targets = {td for _fd, td in attempts}
        fronts_only = {fd for fd, _td in attempts} - targets
        roots = {str(p.host_header) for p in probes if p.path == "/"}
        assert fronts_only and roots
        assert roots <= targets

    def test_provider_without_a_harvested_url_reads_inconclusive(self, tmp_path):
        # the reference world with plain origin pages: every pair is
        # possible, but no target has a URL to front
        def plain_pages(doc):
            page = "<html><body>no assets</body></html>"
            for origin in doc["origins"].values():
                origin["body"] = page
                if origin.get("per_host"):
                    origin["per_host"] = dict.fromkeys(origin["per_host"], page)

        targets = DATA["reference_world_targets.txt"].read_text(encoding="utf-8")
        code, report = edited_reference_scan(tmp_path, targets, plain_pages, mode="fronting")
        assert code == 0
        verdicts = {name: section["fronting"] for name, section in report["providers"].items()}
        unpaired = [name for name, verdict in verdicts.items()
                    if verdict["evidence"] == [{"kind": "fronting", "detail": f"{name}: no pair with a harvested URL"}]]
        assert len(unpaired) == 44
        assert all(verdict["kind"] == "inconclusive" for verdict in verdicts.values())

    def test_hash_comparison_decides_not_bytes(self, db):
        # structurally: judge only reads body_hash, so excerpts may disagree
        rt = HttpResponseSummary(status=200, body_hash=sha1_body(b"A"), body_excerpt=b"A" * 10)
        rv = HttpResponseSummary(status=200, body_hash=sha1_body(b"A"), body_excerpt=b"different bytes")
        rf = HttpResponseSummary(status=404, body_hash=sha1_body(b"nf"), body_excerpt=b"nf")
        assert judge_tuple(executed_tuple(rt, rv, rf)).kind is VerdictKind.VULNERABLE


# In a seed-3 scan, the fronting requests sent more than once that are no
# harvest stability pair: each is the control rf of one front and one path
# in two tuples (the front is paired with two targets that share the
# path), where no harvest verified the front's URL of that path. An
# answer that no pair verified is one fetch, so it is not reused.
RF_REPEATS = {"enum-reference": 1, "detect-wide": 3}


class TestProbeAudit:
    @pytest.mark.parametrize("workload", sorted(RF_REPEATS))
    def test_no_verified_request_is_sent_again(self, tmp_path, db, worldgen, workload):
        if workload == "enum-reference":
            config = scan_config(DATA["reference_world_targets.txt"], DATA["reference_world.json"], seed=3,
                                 record_probes=True)
        else:
            world = worldgen.BUILDERS[workload](db, 3)
            scenario, targets = tmp_path / "scenario.json", tmp_path / "targets.txt"
            scenario.write_text(json.dumps(scenario_to_json(world.scenario)), encoding="utf-8")
            targets.write_text("\n".join(world.targets) + "\n", encoding="utf-8")
            config = scan_config(targets, scenario, mode=world.mode, seed=3, record_probes=True)
        ctx = run_scan_with_context(config)
        stats = ctx.report.meta["stats"]
        phases = list(stats)
        start = sum(stats[phase]["http_probes"] for phase in phases[:phases.index("fronting")])
        log = ctx.transport.probe_log[start:start + stats["fronting"]["http_probes"]]
        sent = Counter(e.probe for e in log)
        verified = verified_pairs(log)
        assert verified
        # the pair itself, and never a third time: not as rt, not as rf
        assert {sent[probe] for probe in verified} == {2}
        repeats = [probe for probe, count in sent.items() if count > 1 and probe not in verified]
        # an rf comes right after its tuple's rv: SNI = front, Host = target
        rf_at = {
            i for i, (rv, rf) in enumerate(zip(log, log[1:]), 1)
            if rv.probe.sni == rf.probe.sni == rf.probe.host_header != rv.probe.host_header
            and (rv.probe.target_ip, rv.probe.path) == (rf.probe.target_ip, rf.probe.path)
        }
        for probe in repeats:
            at = [i for i, e in enumerate(log) if e.probe == probe]
            assert len(at) == 2 and set(at) <= rf_at
            assert log[at[0]].response == log[at[1]].response
        assert len(repeats) == RF_REPEATS[workload]
