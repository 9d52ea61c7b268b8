"""
Property test for the batch lookup that enumeration uses: on any list of
names, ``MockTransport.resolve_existing`` answers exactly what one
``resolve`` call per name would, kept to the names that exist with
records, and counts and logs one query per name.
"""

import dataclasses

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dvahunter.core import Rcode, parse_fqdn  # noqa: E402
from dvahunter.simnet import SimulatedInternet, VerificationFailed, ZoneRecord  # noqa: E402
from dvahunter.transport import MockTransport  # noqa: E402
from dvahunter.worlds import build_reference_world  # noqa: E402

# the reference world brings dangling-target synthesis for every kind of
# discontinued fingerprint; these zones add what it lacks
EXTRA_ZONES = {
    "*.wild.test": ZoneRecord(a=("198.18.9.1",)),
    "*.deep.wild.test": ZoneRecord(cname="www.site.test"),
    "www.site.test": ZoneRecord(a=("198.18.9.2",), ns=("ns1.site.test",)),
    "ns-only.site.test": ZoneRecord(ns=("ns1.site.test",)),
    "empty.site.test": ZoneRecord(),
    "broken.site.test": ZoneRecord(servfail=True),
    "to-broken.site.test": ZoneRecord(cname="broken.site.test"),
    "to-nowhere.site.test": ZoneRecord(cname="gone.nowhere.test", external=True),
    "a.loop.test": ZoneRecord(cname="b.loop.test"),
    "b.loop.test": ZoneRecord(cname="a.loop.test"),
}
LABELS = st.sampled_from(["www", "api", "x1", "deep", "legacy", "promo", "zz-top"])


@pytest.fixture(scope="module")
def scenario(db):
    world = build_reference_world(db)
    return dataclasses.replace(world.scenario, zones={**world.scenario.zones, **EXTRA_ZONES})


@pytest.fixture(scope="module")
def pool(scenario):
    """Names worth asking: every zone name (a wildcard's under a label),
    every CNAME target and the parents of both. The names of the extra
    zones and of the discontinued hosts come first, to be drawn as often
    as all the rest."""
    def names_of(zones):
        names = set()
        for name, record in zones.items():
            names.add(name.replace("*", "www", 1))
            if record.cname:
                names.add(record.cname)
        names |= {name.partition(".")[2] for name in names}
        return sorted(name for name in names if "." in name)

    special = names_of(EXTRA_ZONES) + names_of({host: scenario.zones[host] for host in scenario.discontinued})
    return special, names_of(scenario.zones)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_batch_equals_one_resolve_per_name(db, scenario, pool, data):
    special, common = pool
    net = SimulatedInternet(scenario, db)
    # attacker registrations add zone overrides: assigned names resolve again
    for host in data.draw(st.lists(st.sampled_from(sorted(scenario.discontinued)), max_size=4, unique=True)):
        try:
            special = special + [net.attacker_register(scenario.discontinued[host].provider, host, "acct-x")]
        except VerificationFailed:
            pass
    known = st.one_of(st.sampled_from(special), st.sampled_from(common))
    names = data.draw(st.lists(
        st.one_of(known, st.builds(lambda label, name: f"{label}.{name}", LABELS, known)),
        max_size=40,
    ))
    batch = MockTransport(net, record=True)
    found = batch.resolve_existing(names)

    expected = {}
    for name in names:
        obs = MockTransport(net).resolve(parse_fqdn(name))
        if obs.rcode is Rcode.NOERROR and obs.has_records:
            expected[name] = obs
    assert found == expected
    assert list(found) == list(expected)  # in the order asked
    assert batch.stats.dns_queries == len(names)
    assert batch.query_log == [(name, "all") for name in names]
