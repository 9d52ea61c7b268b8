"""
Property tests for the live transport's parsers of peer-supplied bytes:
on any input, each returns or raises ValueError. Any other exception
would abort a live scan, and a parser that never returns would hang it.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dvahunter.transport import _dechunk, _read_name, parse_dns_response  # noqa: E402

# a full header makes the parser go on to the question and answer counts
DNS_PACKET = st.one_of(
    st.binary(max_size=512),
    st.builds(bytes.__add__, st.binary(min_size=12, max_size=12), st.binary(max_size=256)),
)

CHUNKED_BODY = st.lists(
    st.builds(
        lambda size, ext, payload: size + ext + b"\r\n" + payload + b"\r\n",
        st.one_of(st.binary(max_size=6), st.sampled_from([b"0", b"5", b"ff", b"-a", b"+1", b"-0"])),
        st.sampled_from([b"", b";x=1", b" ;x"]),
        st.binary(max_size=16),
    ),
    max_size=8,
).map(b"".join)


def returns_or_raises_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        pass


@settings(max_examples=300)
@given(DNS_PACKET)
def test_parse_dns_response(data):
    returns_or_raises_value_error(parse_dns_response, data)


@settings(max_examples=300)
@given(st.binary(min_size=1, max_size=256), st.data())
def test_read_name(data, picks):
    offset = picks.draw(st.integers(min_value=0, max_value=len(data)))
    returns_or_raises_value_error(_read_name, data, offset)


@settings(max_examples=300)
@given(st.one_of(st.binary(max_size=512), CHUNKED_BODY))
def test_dechunk(body):
    returns_or_raises_value_error(_dechunk, body)
