"""
Property test of the live transport's DNS fold over any reply set: the A,
CNAME and NS replies a resolver might give, each lost or with an rcode
from 0 to 5 and up to five records of types 1, 2 and 5. The wire exchange
is stubbed, as in ``tests/test_transport.py::TestLiveQueries``.

Whatever the replies, ``resolve`` returns an observation (it never
raises), an NXDOMAIN ``end_rcode`` never comes with addresses, and the
dangling check's ``terminal_answer`` reads the chain's end without raising.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dvahunter.core import Rcode, parse_fqdn  # noqa: E402
from dvahunter.takeover import terminal_answer  # noqa: E402
from dvahunter.transport import LiveTransport, RRType, TransportConfig  # noqa: E402

QUERIED = "www.example.com"
CHAIN = ("edge.cdn.example.net", "pool.cdn.example.net")
# the chain a resolver follows from the queried name: a reply starts with
# none, one or both links. Drawn owners alone seldom build one: without
# the links, 300 examples found a chain-carrying NXDOMAIN A reply followed
# by a reply with an address in only 8 of 20 runs.
LINKS = [(QUERIED, 5, CHAIN[0]), (CHAIN[0], 5, CHAIN[1])]
NAMES = st.sampled_from([QUERIED, *CHAIN, "other.example.org"])
RECORD = st.one_of(
    st.tuples(NAMES, st.just(5), NAMES),
    st.tuples(NAMES, st.just(1), st.sampled_from(["192.0.2.1", "192.0.2.2"])),
    st.tuples(NAMES, st.just(2), st.sampled_from(["ns1.example.net", "ns2.example.net"])),
)
# a lost reply (None) or an rcode; the rcodes the fold reads (NOERROR,
# SERVFAIL, NXDOMAIN) more often than the ones it drops
RCODE = st.sampled_from([None, 0, 0, 1, 2, 3, 3, 3, 4, 5])
REPLY = st.builds(
    lambda rcode, links, records: None if rcode is None else (rcode, LINKS[:links] + records),
    RCODE, st.integers(0, len(LINKS)), st.lists(RECORD, max_size=5 - len(LINKS)),
)
REPLIES = st.fixed_dictionaries({"a": REPLY, "cname": REPLY, "ns": REPLY})


class StubbedLive(LiveTransport):
    """Answers each query type from a fixed reply set, for any name."""

    def __init__(self, replies):
        super().__init__(TransportConfig(resolver="192.0.2.53", qps_limit=1e9))
        self.replies = replies

    def _query(self, name, rrtype):
        return self.replies[rrtype]


@settings(max_examples=500, deadline=None)
@given(replies=REPLIES)
def test_any_reply_set_folds_into_an_observation(replies):
    transport = StubbedLive(replies)
    transport.resolve(parse_fqdn(QUERIED), RRType.A)
    obs = transport.resolve(parse_fqdn(QUERIED), RRType.ALL)
    assert not (obs.end_rcode is Rcode.NXDOMAIN and obs.a_records)
    if obs.cname_chain:
        terminal_answer(obs, parse_fqdn(obs.cname_chain[-1]), transport)
