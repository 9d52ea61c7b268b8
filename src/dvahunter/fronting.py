"""
Domain-fronting testing: pick bounded (front, target) pairs, harvest
stable static URLs from the target domains only, as many as the pairs
use, execute the three-request protocol, and fold tuple verdicts into a
provider verdict; a provider with no pairing of its own takes its
verdict from the providers whose infrastructure it shares.

Each kept URL holds the first of its two matching fetches. That is the
tuple's ``rt``, the answer to SNI = Host = target for the same path at
the same ingress, so ``run_tuple`` does not send it a third time; nor
``rf`` when the front's own URL of that path was verified the same way.
``rv``, the fronting attempt, is always sent.

Budgets, all kept by ``generate_tuples``: at most 10 domains touched per
provider, at most 10 tuples executed per provider, at most 10 URLs
harvested per domain.

The harvest reads only the root page's ``body_excerpt``, its first
``BODY_EXCERPT_CAP`` (4,096) bytes: on a live site, an asset referenced
past them is never seen. ``_asset_refs`` reads the page with one compiled
pattern and gives what ``html.parser`` (Python 3.11.7 to 3.13.0) gives
after ``feed`` without ``close``:
- the ``src`` of ``img`` and ``script`` and the ``href`` of ``link``
  start tags, in page order, duplicates included; tag and attribute
  names in any case;
- values double-quoted, single-quoted or unquoted, unescaped with
  ``html.unescape``; a valueless or empty attribute is skipped;
- nothing inside ``<!-- ... -->`` (which ends at "--", optional
  whitespace and ">"), ``<!...>``, ``<?...>`` or a quoted value;
- nothing in the raw text of a ``script`` or ``style`` element, up to
  "</", optional whitespace, the name in any case, optional whitespace
  and ">"; ``<script .../>`` opens no raw text;
- nothing from a construct cut off before its end, or after it.
``<![`` departs from html.parser 3.11.7, which reads a CDATA section to
"]]>" and raises AssertionError on other keywords: it is read to the
first ">", as any other ``<!``.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import replace
from enum import Enum
from html import unescape
from typing import Optional
from urllib.parse import urlsplit

from .core import (
    Evidence,
    Fqdn,
    HttpProbe,
    HttpResponseSummary,
    Scheme,
    Verdict,
    VerdictKind,
    derive_rng,
    record,
    sha1_body,
)

logger = logging.getLogger(__name__)

MAX_DOMAINS_PER_PROVIDER = 10
MAX_TUPLES_PER_PROVIDER = 10
MAX_URLS_PER_DOMAIN = 10


class UrlKind(Enum):
    IMAGE = "image"
    SCRIPT = "script"
    STYLESHEET = "stylesheet"


_STATIC_KINDS = {  # by the lowered text after a path's last "."
    "png": UrlKind.IMAGE, "jpg": UrlKind.IMAGE, "jpeg": UrlKind.IMAGE, "gif": UrlKind.IMAGE,
    "svg": UrlKind.IMAGE, "ico": UrlKind.IMAGE, "webp": UrlKind.IMAGE,
    "js": UrlKind.SCRIPT,
    "css": UrlKind.STYLESHEET,
}
_REQUEST_CHARS = re.compile(r'[!-"$-~]+')  # visible ASCII ("!" to "~") without a fragment ("#")
_REQUEST_PATH = re.compile(r'/[!-"$-~]*')
_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:")  # RFC 3986 section 3.1


class RootFetchFailed(Exception):
    """The "/" page of a hosted domain was unreachable."""


class InsufficientDomains(Exception):
    """Fewer than two usable hosted domains; the provider cannot be paired."""


@record
class HarvestedUrl:
    domain: Fqdn
    path: str
    kind: UrlKind
    stability_hash: bytes  # set only when two fetches matched
    # the first of the two matching fetches (SNI = Host = domain), which a
    # tuple takes as its rt; None on a URL built by hand
    response: Optional[HttpResponseSummary] = None


@record
class FrontingTuple:
    fd: Fqdn  # front domain (SNI)
    td: Fqdn  # target domain (Host)
    ut: HarvestedUrl  # URL on td
    ingress_ip: str
    rt: Optional[HttpResponseSummary] = None
    rv: Optional[HttpResponseSummary] = None
    rf: Optional[HttpResponseSummary] = None

    def __post_init__(self) -> None:
        if self.fd == self.td:
            raise ValueError("front and target domains must differ")
        if self.ut.domain != self.td:
            raise ValueError("tuple URL must live on the target domain")


# The markup at one "<". A start tag's name and attributes are matched
# as html.parser's locatestarttagend_tolerant matches them (the last
# alternative is empty, so the attributes never backtrack); what follows
# them decides:
#   ">" or "/>"                  a whole tag: ``end`` is set
#   a letter, "=", "/", the end  cut off: the match runs to the end
#   anything else                not a tag; text up to here
# A comment runs to the first "--\s*>", "<!...>", "<?...>" and "</...>"
# to the first ">"; without it, they too run to the end.
_MARKUP = re.compile(r"""
    <(?:
        (?P<name>[a-zA-Z][^\t\n\r\f />\x00]*)
        (?:[\s/]*
          (?:(?<=['"\s/])[^\s/>][^\s/=>]*
            (?:\s*=+\s*(?:'[^']*'|"[^"]*"|(?!['"])[^>\s]*)\s*)?
            (?:\s|/(?!>))*
          )*
        )?\s*
        (?:(?P<end>/?>)|(?=[a-zA-Z=/]|\Z)[\s\S]*|)
      | !--[\s\S]*?--\s*>
      | !(?!--)[^>]*>
      | [?/][^>]*>
      | [!?/][\s\S]*
    )""", re.VERBOSE)
# one attribute of a whole start tag: its name, then the value after "="
# (single-quoted, double-quoted or unquoted) when it has one
_ATTRIBUTE = re.compile(r"""
    ((?<=['"\s/])[^\s/>][^\s/=>]*)
    (?:\s*=+\s*(?:'([^']*)'|"([^"]*)"|(?!['"])([^>\s]*)))?
    (?:\s|/(?!>))*""", re.VERBOSE)
_ASSET_ATTRIBUTE = {"img": "src", "script": "src", "link": "href"}
# the end of a raw-text element's body: "</", the name in any ASCII case, ">"
_RAW_TEXT_END = {
    name: re.compile(r"</\s*" + "".join(f"[{c}{c.upper()}]" for c in name) + r"\s*>")
    for name in ("script", "style")
}


def _asset_refs(text: str) -> list[str]:
    """The unescaped, non-empty ``src`` of each ``img`` and ``script``
    start tag and ``href`` of each ``link`` start tag, duplicates
    included, in page order."""
    refs: list[str] = []
    pos = 0
    while (tag := _MARKUP.search(text, pos)) is not None:
        pos = tag.end()
        if tag["end"] is None:
            continue
        name = tag["name"].lower()
        wanted = _ASSET_ATTRIBUTE.get(name)
        raw_text_end = _RAW_TEXT_END.get(name)
        if wanted is None and raw_text_end is None:
            continue
        attrs = _ATTRIBUTE.findall(text, tag.end("name"), tag.start("end"))
        for attr, single, double, bare in attrs:
            value = single or double or bare
            if value and attr.lower() == wanted:
                value = unescape(value)
                if value:
                    refs.append(value)
        # "/>" ends the element, and so does a "/" before ">" in a tag
        # without attributes; a "/" there after an attribute is the end
        # of its unquoted value. Any other script or style tag opens raw text.
        if raw_text_end is not None and tag["end"] == ">" and (attrs or text[pos - 2] != "/"):
            close = raw_text_end.search(text, pos)
            if close is None:
                break
            pos = close.end()
    return refs


def _classify(path: str) -> Optional[UrlKind]:
    _stem, dot, ext = path.split("?", 1)[0].rpartition(".")
    return _STATIC_KINDS.get(ext.lower()) if dot else None


def _same_domain_path(ref: str, domain: Fqdn) -> Optional[str]:
    """The request path of a same-domain reference, resolved against "/"
    with its dot segments removed (RFC 3986 section 5.2), or None for one
    unfit for a request line. ``_asset_refs`` unescapes entities, so CR LF
    can occur: the reference is checked whole, before ``urlsplit``, which
    would drop a tab, CR or LF unseen. Any "scheme:" prefix makes a
    reference absolute (RFC 3986 section 4.3): only an https one, or a
    scheme-relative "//" one, can name a URL of the https harvest. A
    reference that gives a port, even 443, is dropped: the harvest fetches
    from the default https port only."""
    if not _REQUEST_CHARS.fullmatch(ref):
        return None
    if ref.startswith("//"):
        ref = "https:" + ref
    scheme = _SCHEME.match(ref)
    if scheme is not None:
        if scheme.group().lower() != "https:":
            return None
        try:
            parsed = urlsplit(ref)
            port = parsed.port
        except ValueError:  # such as an unclosed "[" in the authority, or a port that is no number
            return None
        if parsed.hostname != str(domain) or port is not None:
            return None
        path = parsed.path or "/"
        query = f"?{parsed.query}" if parsed.query else ""
    else:
        path, mark, query = ref.partition("?")
        path = path if path.startswith("/") else "/" + path
        query = mark + query
    path = _remove_dot_segments(path) + query
    return path if _REQUEST_PATH.fullmatch(path) else None


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 section 5.2.4 on an absolute path: "." is dropped, ".."
    drops the segment before it, and neither climbs above "/"."""
    segments = path.split("/")
    out: list[str] = []
    for segment in segments[1:]:
        if segment == "..":
            if out:
                out.pop()
        elif segment != ".":
            out.append(segment)
    if segments[-1] in (".", ".."):
        out.append("")  # "/a/." and "/a/b/.." both name "/a/"
    return "/" + "/".join(out)


def harvest_urls(
    domain: Fqdn,
    ingress_ip: str,
    transport,
    seed: int = 0,
    limit: int = MAX_URLS_PER_DOMAIN,
) -> list[HarvestedUrl]:
    """Fetch "/" through the CDN, collect same-domain static asset
    references, and keep at most ``limit`` of them whose two fetches
    hashed identically. A page with ``limit`` or fewer candidates has
    every one fetched twice in one https ``probe_batch`` and keeps them in
    page order. A larger page is shuffled (seeded) and verified in batches
    of the URLs still missing, stopping once ``limit`` are kept; those are
    returned sorted by path."""
    root = transport.probe(HttpProbe.request(ingress_ip, Scheme.HTTPS, domain))
    if root.failure is not None or not root.ok:
        raise RootFetchFailed(f"{domain}: / answered {root.failure.value if root.failure else root.status}")
    candidates: list[tuple[str, UrlKind]] = []
    seen: set[str] = set()
    for ref in _asset_refs(root.body_excerpt.decode("utf-8", "replace")):
        path = _same_domain_path(ref, domain)
        if path is None or path in seen:
            continue
        kind = _classify(path)
        if kind is None:
            continue
        seen.add(path)
        candidates.append((path, kind))
    shuffled = len(candidates) > limit
    if shuffled:
        derive_rng(seed, "harvest", str(domain)).shuffle(candidates)
    stable: list[HarvestedUrl] = []
    tried = 0
    while len(stable) < limit and tried < len(candidates):
        batch = candidates[tried:tried + limit - len(stable)]
        tried += len(batch)
        # each path twice in a row, so a dynamic origin counts its fetches
        # in the order that one probe per fetch would
        answers = transport.probe_batch(ingress_ip, Scheme.HTTPS, [(domain, p) for p, _ in batch for _ in (1, 2)])
        for (path, kind), first, second in zip(batch, answers[0::2], answers[1::2]):
            if first.failure is not None or second.failure is not None:
                continue
            if not first.ok or first.body_hash != second.body_hash:
                continue
            stable.append(
                HarvestedUrl(domain=domain, path=path, kind=kind, stability_hash=first.body_hash, response=first)
            )
    return sorted(stable, key=lambda u: u.path) if shuffled else stable


def generate_tuples(
    provider: str,
    domains: list[Fqdn],
    ingress_ip: str,
    transport,
    seed: int = 0,
) -> list[FrontingTuple]:
    """Up to MAX_TUPLES_PER_PROVIDER (front, target, url) tuples over the
    ordered pairs of distinct ``domains``, in a seeded-random order.

    More than MAX_DOMAINS_PER_PROVIDER domains are first cut to a seeded
    draw of that many (rng scope ``("fronting-domains", provider)``, over
    the domains sorted by name); the others are never touched.

    Only target domains are harvested, each once and when first drawn,
    for as many URLs as the first MAX_TUPLES_PER_PROVIDER pairs draw of
    it (at least one). A pair whose target yields no URL is skipped for
    the next one; a target drawn more often than it has URLs reuses them
    in turn. A domain that is only ever a front gets no harvest fetch.

    Each tuple holds its URL's verified answer as ``rt``, and as ``rf``
    the verified answer of the front's own URL of the same path when the
    front was harvested too and kept that path: the harvest asked both
    questions at the same ingress, twice each with matching answers, so
    ``run_tuple`` sends neither again."""
    if len(domains) < 2:
        raise InsufficientDomains(f"{provider}: {len(domains)} usable domain(s)")
    ordered = sorted(domains, key=str)
    if len(ordered) > MAX_DOMAINS_PER_PROVIDER:
        drawn_domains = derive_rng(seed, "fronting-domains", provider).sample(ordered, MAX_DOMAINS_PER_PROVIDER)
        ordered = sorted(drawn_domains, key=str)
    pairs = [(fd, td) for fd in ordered for td in ordered if fd != td]
    derive_rng(seed, "tuples", provider).shuffle(pairs)
    wanted = Counter(td for _fd, td in pairs[:MAX_TUPLES_PER_PROVIDER])
    urls: dict[Fqdn, list[HarvestedUrl]] = {}
    drawn: Counter[Fqdn] = Counter()
    chosen: list[tuple[Fqdn, Fqdn, HarvestedUrl]] = []
    for fd, td in pairs:
        if len(chosen) == MAX_TUPLES_PER_PROVIDER:
            break
        if td not in urls:
            try:
                urls[td] = harvest_urls(td, ingress_ip, transport, seed=seed, limit=max(1, wanted[td]))
            except RootFetchFailed as err:
                logger.info("harvest failed: %s", err)
                urls[td] = []
        if not urls[td]:
            continue
        ut = urls[td][drawn[td] % len(urls[td])]
        drawn[td] += 1
        chosen.append((fd, td, ut))
    if not chosen:
        raise InsufficientDomains(f"{provider}: no pair with a harvested URL")
    # every harvest has run, so this holds each answer the tuples can reuse
    verified = {(u.domain, u.path): u.response for kept in urls.values() for u in kept}
    return [
        FrontingTuple(fd, td, ut, ingress_ip, rt=ut.response, rf=verified.get((fd, ut.path)))
        for fd, td, ut in chosen
    ]


def run_tuple(item: FrontingTuple, transport) -> FrontingTuple:
    """The three-step protocol, strictly sequential against one ingress:
    1. SNI=target, Host=target  -> rt (the reference object)
    2. SNI=front,  Host=target  -> rv (the fronting attempt)
    3. SNI=front,  Host=front   -> rf (validity control)

    A step whose answer the tuple already holds is not sent again: a
    tuple from ``generate_tuples`` holds rt, the harvest's verified answer
    for its URL, and often rf. rv is always sent.
    """
    def step(held: Optional[HttpResponseSummary], sni: Fqdn, host: Fqdn) -> HttpResponseSummary:
        if held is not None:
            return held
        return transport.probe(
            HttpProbe(target_ip=item.ingress_ip, scheme=Scheme.HTTPS, host_header=host, sni=sni, path=item.ut.path)
        )

    rt = step(item.rt, item.td, item.td)
    rv = step(None, item.fd, item.td)
    rf = step(item.rf, item.fd, item.fd)
    return replace(item, rt=rt, rv=rv, rf=rf)


def judge_tuple(item: FrontingTuple) -> Verdict:
    """Vulnerable iff rt is a clean 2xx, rv's body hash equals rt's, and
    rf is a 404/empty body or differs from rt. Hash comparison decides;
    any transport failure forces Inconclusive."""
    rt, rv, rf = item.rt, item.rv, item.rf
    if rt is None or rv is None or rf is None:
        raise ValueError("tuple has not been executed")

    def note(kind: str, detail: str, response: Optional[HttpResponseSummary]) -> Evidence:
        return Evidence(kind=kind, detail=detail, response=response)

    base = (
        note("rt", f"sni=td host=td {item.td}{item.ut.path}", rt),
        note("rv", f"sni=fd({item.fd}) host=td({item.td})", rv),
        note("rf", f"sni=fd host=fd {item.fd}", rf),
    )
    for name, response in (("rt", rt), ("rv", rv), ("rf", rf)):
        if response.failure is not None:
            return Verdict.inconclusive(base + (note("failure", f"{name} transport failure", response),))
    if not rt.ok:
        return Verdict.inconclusive(base + (note("invalid", f"rt status {rt.status} is not a clean 2xx", rt),))
    if rv.body_hash != rt.body_hash:
        return Verdict.not_vulnerable(base + (note("mismatch", "rv does not reproduce rt", rv),))
    empty_hash = sha1_body(b"")
    if rf.status == 404:
        control = "rf answered 404"
    elif rf.body_hash == empty_hash:
        control = "rf body empty"
    elif rf.body_hash != rt.body_hash:
        control = "rf differs from rt"
    else:
        return Verdict.inconclusive(
            base + (note("invalid", "rf reproduced rt: front serves the target object, test invalid", rf),)
        )
    return Verdict.vulnerable(base + (note("control", control, rf),))


def judge_provider(verdicts: list[Verdict]) -> Verdict:
    """Vulnerable needs at least one vulnerable tuple and no contradicting
    tuple; mixed vulnerable/not-vulnerable results refuse to guess."""
    if not verdicts:
        return Verdict.inconclusive((Evidence("fronting", "no tuples could be executed"),))
    kinds = [v.kind for v in verdicts]
    vulnerable = kinds.count(VerdictKind.VULNERABLE)
    clean = kinds.count(VerdictKind.NOT_VULNERABLE)
    summary = Evidence(
        "fronting",
        f"tuples: {vulnerable} vulnerable, {clean} not vulnerable, "
        f"{len(kinds) - vulnerable - clean} inconclusive",
    )
    if vulnerable and not clean:
        supporting = tuple(e for v in verdicts if v.kind is VerdictKind.VULNERABLE for e in v.evidence)
        return Verdict.vulnerable((summary,) + supporting)
    if clean and not vulnerable:
        return Verdict.not_vulnerable((summary,))
    if vulnerable and clean:
        return Verdict.inconclusive(
            (Evidence("mixed-results", "tuple verdicts disagree across domain pairs; refusing to guess"), summary)
        )
    return Verdict.inconclusive((summary,))


def judge_via_edges(carriers: list[tuple[str, Verdict]]) -> Verdict:
    """The verdict of a provider with no pairing of its own (a Multi-CDN)
    from the direct verdicts of the providers whose infrastructure it
    shares, as (carrier name, verdict) pairs: vulnerable when any carrier
    is, not vulnerable when it has carriers and all of them are,
    inconclusive otherwise."""
    kinds = [verdict.kind for _name, verdict in carriers]
    if VerdictKind.VULNERABLE in kinds:
        carried = ", ".join(f"{name}:{verdict.kind.value}" for name, verdict in carriers)
        return Verdict.vulnerable(
            (Evidence("fronting-via-edge", "vulnerable through shared infrastructure: " + carried),)
        )
    if kinds and all(kind is VerdictKind.NOT_VULNERABLE for kind in kinds):
        return Verdict.not_vulnerable((Evidence("fronting-via-edge", "all shared infrastructure rejects mismatches"),))
    return Verdict.inconclusive((Evidence("fronting-via-edge", "shared-infrastructure verdicts undetermined"),))
