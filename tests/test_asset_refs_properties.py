"""
The fronting harvest's asset scanner, ``fronting._asset_refs``, against
``html.parser``: an ``HTMLParser`` that collects the ``src`` of ``img``
and ``script`` start tags and the ``href`` of ``link`` start tags, fed
the page without ``close()``, is the oracle.

The drawn pages use only forms that html.parser reads alike in every
Python version CI runs, including later patch releases, which changed
raw-text ends, comment ends, ``<![`` sections and the raw-text elements.
So they hold no ``</ script >`` or ``</script foo>``, no ``--`` inside a
comment, no ``<![``, no self-closing script or style tag, no title,
textarea or other raw-text element but script and style, and only
ASCII whitespace. The forms where the scanner departs from some version
are pinned by the example tests at the end, with no oracle.
"""

from __future__ import annotations

from html.parser import HTMLParser

import pytest
from hypothesis import given, settings, strategies as st

from dvahunter.core import BODY_EXCERPT_CAP
from dvahunter.fronting import _asset_refs
from dvahunter.simnet import load_scenario
from tests.conftest import DATA


class HtmlParserRefs(HTMLParser):
    """What the harvest read before the scanner replaced html.parser."""

    WANTED = {"img": "src", "script": "src", "link": "href"}

    def __init__(self) -> None:
        super().__init__()
        self.refs: list[str] = []

    def handle_starttag(self, tag, attrs) -> None:
        wanted = self.WANTED.get(tag)
        self.refs += [value for name, value in attrs if wanted is not None and name == wanted and value]


def html_parser_refs(page: str) -> list[str]:
    parser = HtmlParserRefs()
    parser.feed(page)
    return parser.refs


def any_case(word: str) -> st.SearchStrategy[str]:
    return st.tuples(*(st.sampled_from((c.lower(), c.upper())) for c in word)).map("".join)


WHITESPACE = st.sampled_from([" ", "\n", "\t", "  "])
VALUE_PARTS = ["/img/a.png", "/js/app.js", "x.css", "?v=2", "&amp;", "&#13;&#10;", "&quot;", "&#1;", "&", "a b", "<", ">",
               "<img src=/q.png>", "/", ".", "=", "-"]


@st.composite
def attribute(draw, names=("src", "href", "alt", "srcset", "data-src")) -> str:
    name = draw(any_case(draw(st.sampled_from(names))))
    style = draw(st.sampled_from(["double", "single", "unquoted", "empty", "none"]))
    if style == "none":
        return name
    eq = draw(st.sampled_from(["=", " = "]))
    if style == "empty":
        return name + eq + draw(st.sampled_from(['""', "''"]))
    if style == "unquoted":
        value = draw(st.lists(st.sampled_from(["/img/b.png", "c.js", "d", "&amp;", "?x=1", "&#38;"]), min_size=1, max_size=3))
        return name + eq + "".join(value)
    quote = '"' if style == "double" else "'"
    value = "".join(draw(st.lists(st.sampled_from(VALUE_PARTS + ["'" if quote == '"' else '"']), min_size=1, max_size=4)))
    return name + eq + quote + value + quote


@st.composite
def start_tag(draw, names=("img", "link", "a", "imgs", "links"), ends=(">", " />"), attrs=attribute()) -> str:
    name = draw(any_case(draw(st.sampled_from(names))))
    attrs = "".join(draw(WHITESPACE) + a for a in draw(st.lists(attrs, max_size=4)))
    return f"<{name}{attrs}{draw(st.sampled_from(['', ' ', chr(10)]))}{draw(st.sampled_from(ends))}"


# an img or link tag whose every attribute is a src or href
ASSET_TAG = start_tag(names=("img", "link"), attrs=attribute(names=("src", "href")))
TEXT = st.sampled_from(["hello", " ", "\n", "a < b", "1<2", "&amp;", "x > y", "'", '"', "=", "/"])
END_TAG = any_case("div").map(lambda name: f"</{name}>") | st.just("</p>")
COMMENT = st.lists(st.sampled_from(["note", " ", "<img src=/hidden.png>", "<!", ">", "&amp;"]), max_size=4).map(
    lambda body: "<!-- " + "".join(body) + " -->")
DECLARATION = any_case("doctype").map(lambda word: f"<!{word} html>") | st.just('<?xml version="1.0"?>')


@st.composite
def raw_text_element(draw) -> str:
    """A whole script or style element: its body holds tags that must
    not be read, and it ends with exactly "</name>" in any case."""
    name = draw(st.sampled_from(["script", "style"]))
    body = draw(st.lists(st.one_of(ASSET_TAG, start_tag(), TEXT, END_TAG), max_size=4))
    return draw(start_tag(names=(name,), ends=(">",))) + "".join(body) + f"</{draw(any_case(name))}>"


PIECE = st.one_of(ASSET_TAG, start_tag(), TEXT, END_TAG, COMMENT, DECLARATION, raw_text_element())


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(PIECE, min_size=1, max_size=12), data=st.data())
def test_scanner_equals_html_parser(pieces, data):
    page = "".join(pieces)
    if data.draw(st.booleans(), label="cut"):
        # a page cut short, as a body_excerpt can be
        page = page[:data.draw(st.integers(0, len(page)), label="offset")]
    assert _asset_refs(page) == html_parser_refs(page)


def origin_pages(scenario) -> set[str]:
    """Each origin's page as the harvest reads it: the body excerpt,
    decoded as ``harvest_urls`` decodes it."""
    bodies = [origin.body for origin in scenario.origins.values()]
    bodies += [body for origin in scenario.origins.values() for body in (origin.per_host or {}).values()]
    return {body[:BODY_EXCERPT_CAP].decode("utf-8", "replace") for body in bodies}


@pytest.mark.parametrize("world", ["reference", "detect-wide", "takeover-churn"])
def test_scanner_equals_html_parser_on_every_origin_page(db, worldgen, world):
    if world == "reference":
        scenario = load_scenario(DATA["reference_world.json"])
    else:
        scenario = worldgen.BUILDERS[world](db, 1).scenario
    pages = origin_pages(scenario)
    assert any(html_parser_refs(page) for page in pages)
    for page in pages:
        assert _asset_refs(page) == html_parser_refs(page)


@pytest.mark.parametrize("page, refs", [
    ('<IMG SRC="/a.png"><Link HREF=/s.css><sCrIpT Src=\'/j.js\'></SCRIPT>', ["/a.png", "/s.css", "/j.js"]),
    ('<img src="/a&amp;b.png"><img src="/c&#13;&#10;.png"><img src="&quot;.png">', ["/a&b.png", "/c\r\n.png", '".png']),
    ('<img src="/a.png" src=/b.png src><img src=""><img src="&#1;">', ["/a.png", "/b.png"]),
    ('<link href="/s.css" src="/no.png"><img href="/no.png"><a src="/no.png">', ["/s.css"]),
    ('<!DOCTYPE html><?xml x?><!-- <img src="/no.png"> --><img src="/a.png">', ["/a.png"]),
    ('<p title="<img src=/no.png>"><img alt=\'>\' src="/a.png">', ["/a.png"]),
    ('<script src="/j.js">document.write("<img src=/no.png>")</script><img src="/a.png">', ["/j.js", "/a.png"]),
    ('<style>a { background: url(/no.png) } <img src="/no.png"></style><img src="/a.png">', ["/a.png"]),
    ('<img src="/a.png"><img src="/b.png"', ["/a.png"]),
    ('<img src="/a.png"><script><img src="/no.png">', ["/a.png"]),
    ('<!-- <img src="/no.png"> <img src="/no2.png">', []),
], ids=["case", "entities", "duplicate-empty-valueless", "wrong-attribute", "declarations", "lt-in-quoted-value",
        "script-body", "style-body", "cut-tag", "cut-script", "cut-comment"])
def test_scanner_rules(page, refs):
    assert _asset_refs(page) == refs


@pytest.mark.parametrize("page, refs", [
    # html.parser 3.11.7-3.13.0 end raw text at "</", optional
    # whitespace, the name and ">"; later patch releases changed both
    # forms below: the HTML standard ends it at "</script foo>", not at
    # "</ script >"
    ('<script></ script ><img src="/a.png">', ["/a.png"]),
    ('<script></script foo><img src="/no.png"></script><img src="/a.png">', ["/a.png"]),
    # a comment ends at "--", optional whitespace and ">"; later patch
    # releases changed this: the HTML standard ends it at "--!>", not at
    # "-- >"
    ('<!-- x --!><img src="/no.png"> -- ><img src="/a.png">', ["/a.png"]),
    # html.parser 3.11.7 reads "<![CDATA[" to "]]>" and raises
    # AssertionError on "<![" with another keyword; the scanner reads
    # any "<![" as a bogus comment to the first ">", as the HTML standard
    # does outside foreign content
    ('<![CDATA[ > <img src="/a.png"> ]]>', ["/a.png"]),
    ('<![if-x <b>]><img src="/a.png">', ["/a.png"]),
    # "<script .../>" is a whole element, as in html.parser; the HTML
    # standard ignores the "/" and opens raw text
    ('<script src="/j.js" /><img src="/a.png"></script>', ["/j.js", "/a.png"]),
    ('<script/><img src="/a.png">', ["/a.png"]),
    # a "/" before ">" that ends an unquoted value does not close the tag
    ('<script src=/j.js/><img src="/no.png"></script><img src="/a.png">', ["/j.js/", "/a.png"]),
    # title content is read as markup, as html.parser 3.11.7 reads it;
    # the HTML standard makes it text
    ('<title><img src="/a.png"></title>', ["/a.png"]),
], ids=["spaced-script-end", "script-end-with-attribute", "comment-bang-end", "cdata-section", "unknown-section",
        "self-closing-script", "bare-self-closing-script", "slash-in-unquoted-value", "title-content"])
def test_forms_pinned_without_an_oracle(page, refs):
    assert _asset_refs(page) == refs
